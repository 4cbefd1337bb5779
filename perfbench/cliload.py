"""The `cli` workload: a fixed list of `vdf` invocations and their checks.

Every pass runs the same 30 invocations, which cover all 13
subcommands.  The seed picks the expressions, constants and depths.
Each invocation carries a check of its stdout: the README's documented
invocations are compared byte for byte with the lines the README prints,
and every other answer is checked against a property computed here,
from the generated input, without the library (except that a
``coarsen`` answer must load back through ``field_from_config``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

LAURENT = "configs/laurent.json"   # one generator t of value 1
TDDT = "configs/tddt.json"         # t of value (1, 0), s of value (0, 1)

# The README's documented invocations and the lines it shows for them.
README_CASES = [
    (["ndeg", "--field", LAURENT, "Y^2 + t*Y'"], b'{"ndeg": 2}\n'),
    (["s-der", "--field", TDDT], b'{"prefix_len": 1}\n'),
    (["val", "--field", LAURENT, "t + t^2"], b'{"v": ["1"]}\n'),
]

Y_SYMBOLS = ("Y", "Y'", "Y''")


@dataclass
class Command:
    argv: List[str]
    check: Callable[[bytes], bool]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# -- expression text -------------------------------------------------------------


def _nonzero(rng, hi=5, den=3):
    return Fraction(rng.randint(1, hi), rng.randint(1, den)) * rng.choice((1, -1))


def _mono_text(powers):
    """powers: [(name, q)]; the product in the expression grammar."""
    return [name if q == 1 else f"{name}^{q}" for name, q in powers if q != 0]


def _y_text(index):
    return [sym if e == 1 else f"{sym}^{e}" for sym, e in zip(Y_SYMBOLS, index) if e]


def _term_text(c, powers, index=()):
    """A term; a negative coefficient is parenthesized, so no argument
    starts with '-' (argparse would take it for an option)."""
    return "*".join([str(c) if c > 0 else f"({c})"] + _mono_text(powers) + _y_text(index))


def _random_index(rng, order, max_degree):
    idx = [0] * (order + 1)
    for _ in range(rng.randint(0, max_degree)):
        idx[rng.randrange(order + 1)] += 1
    return tuple(idx)


def _poly(rng, gens, order=2, max_degree=3, nterms=3):
    """A differential polynomial with one monomial coefficient per index:
    {index: (coefficient, exponent tuple)} and its text."""
    terms = {}
    while len(terms) < nterms:
        idx = _random_index(rng, order, max_degree)
        if idx not in terms:
            terms[idx] = (_nonzero(rng), tuple(_nonzero(rng, 4, 3) for _ in gens))
    text = " + ".join(_term_text(c, list(zip(gens, exps)), idx)
                      for idx, (c, exps) in terms.items())
    return terms, text


def _trim(idx):
    """A multi-index without its trailing zeros (reports pad to the order)."""
    idx = list(idx)
    while idx and idx[-1] == 0:
        idx.pop()
    return tuple(idx)


def _degree(idx):
    return sum(idx)


def weight(idx):
    """Sum of derivative order times power of a multi-index."""
    return sum(j * e for j, e in enumerate(idx))


def _dominant(terms):
    """(ddeg, dwt) of {index: (c, exps)}: exps compare lexicographically,
    which is the value order when generator values are unit vectors."""
    v = min(exps for _, exps in terms.values())
    argmin = [idx for idx, (_, exps) in terms.items() if exps == v]
    return max(map(_degree, argmin)), max(map(weight, argmin))


def _value_of(monomial, gens):
    """The exponent vector of a report monomial [[name, q], ...]."""
    exps = dict((name, Fraction(q)) for name, q in monomial)
    return tuple(exps.get(g, Fraction(0)) for g in gens)


def _report_dominant(result, gens):
    """(ddeg, dwt) of a polynomial report, read from its JSON."""
    rows = []
    for term in result["terms"]:
        vals = [_value_of(t["monomial"], gens) for t in term["coeff"]["terms"]]
        rows.append((tuple(term["index"]), min(vals)))
    v = min(val for _, val in rows)
    argmin = [idx for idx, val in rows if val == v]
    return max(map(_degree, argmin)), max(map(weight, argmin))


def _load(out: bytes):
    return json.loads(out.decode())


# -- the command list ----------------------------------------------------------------


def commands(seed: int, pass_no: int, field_from_config) -> List[Command]:
    """One pass: the README's invocations, the slow ones (``ndeg``,
    ``gamma-der``, ``probe``) once, and the start-up-bound ones twice.
    The start-up-bound half keeps the median inside one kind of
    invocation, and the 90th percentile falls among the ``ndeg`` and
    ``probe`` runs rather than on the edge between two kinds."""
    rng = random.Random(f"cli:{seed}:{pass_no}")
    out = [Command(list(argv), lambda got, want=want: got == want)
           for argv, want in README_CASES]

    # ndeg: additive over a product
    _, p_text = _poly(rng, ("t",), order=1, max_degree=2)
    _, q_text = _poly(rng, ("t",), order=1, max_degree=2)
    found = {}

    def ndeg_check(key):
        def check(got):
            found[key] = _load(got)["ndeg"]
            if key != "PQ":
                return True
            return found.get("PQ") == found.get("P", -1) + found.get("Q", -1)
        return check

    for key, text in (("P", p_text), ("Q", q_text), ("PQ", f"({p_text})*({q_text})")):
        out.append(Command(["ndeg", "--field", LAURENT, text], ndeg_check(key)))

    # gamma-der on transseries_fragment(N): the cut {gamma <= v((l0...lN)^-1)},
    # whose bound is (0, 1, ..., 1)
    n = 2
    want = {"kind": "prefix", "depth": n + 2, "bound": ["0"] + ["1"] * (n + 1),
            "inclusive": True}
    out.append(Command(["gamma-der", "--field", f"transseries_fragment({n})"],
                       lambda got, w=want: _load(got) == w))

    # probe: distinct classes, sorted, each value that of its monomial
    text = f"{_term_text(_nonzero(rng), [], (2,))} + {_term_text(_nonzero(rng), [('t', 1)], (0, 1))}"

    def probe_check(got):
        doc = _load(got)
        vals = [Fraction(c["v"][0]) for c in doc["classes"]]
        return (doc["count"] == len(vals) >= 1
                and all(a < b for a, b in zip(vals, vals[1:]))
                and all(_value_of(c["monomial"], ("t",)) == (v,)
                        for c, v in zip(doc["classes"], vals)))

    out.append(Command(["probe", "--field", LAURENT, text, "--beta", "1",
                        "--samples", "20", "--seed", str(rng.randint(1, 99))], probe_check))

    for _ in range(2):
        out += _startup_bound(rng, field_from_config)
    return out


def _startup_bound(rng, field_from_config) -> List[Command]:
    """Invocations whose time is mostly interpreter start-up and imports."""
    out = []
    # val: the least exponent of a sum of distinct powers of t
    exps = rng.sample(sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)}), 4)
    text = " + ".join(_term_text(_nonzero(rng), [("t", q)]) for q in exps)
    out.append(Command(["val", "--field", LAURENT, text],
                       lambda got, v=min(exps): _load(got) == {"v": [str(v)]}))

    # ddeg: argmin of the coefficient values, then the largest degree and weight
    terms, text = _poly(rng, ("t",))
    ddeg, dwt = _dominant(terms)
    out.append(Command(["ddeg", "--field", LAURENT, text],
                       lambda got, w={"ddeg": ddeg, "dwt": dwt}: _load(got) == w))

    # breakpoints: crossings (v_j - v_i) / (w_i - w_j) < 0 of the profile
    terms, text = _poly(rng, ("t",))
    profile = [(exps[0], weight(idx)) for idx, (_, exps) in terms.items()]
    crossings = set()
    for a in range(len(profile)):
        for b in range(a + 1, len(profile)):
            (va, wa), (vb, wb) = profile[a], profile[b]
            if wa != wb and (vb - va) / (wa - wb) < 0:
                crossings.add((vb - va) / (wa - wb))
    want = {"breakpoints": [[str(g)] for g in sorted(crossings)]}
    out.append(Command(["breakpoints", "--field", LAURENT, text],
                       lambda got, w=want: _load(got) == w))

    # conj add / comp on the small-derivation config: ddeg is unchanged by
    # an element of the valuation ring and by a unit
    gens = ("t", "s")
    for kind in ("add", "comp"):
        terms, text = _poly(rng, gens)
        head = str(_nonzero(rng, 3)) if kind == "comp" else str(rng.randint(-3, 3))
        small = _term_text(_nonzero(rng), [("t", Fraction(rng.randint(1, 3), rng.randint(1, 2))),
                                           ("s", _nonzero(rng, 4, 3))])
        ddeg = _dominant(terms)[0]
        out.append(Command(
            ["conj", "--field", TDDT, text, "--kind", kind, f"--by={head} + {small}"],
            lambda got, d=ddeg: _report_dominant(_load(got)["result"], gens)[0] == d))

    # conj mul by a constant c: the coefficient of index i is scaled by c^|i|
    terms, text = _poly(rng, ("t",))
    c = _nonzero(rng, 3, 2)
    want = {_trim(idx): {exps: coeff * c ** _degree(idx)}
            for idx, (coeff, exps) in terms.items()}

    def mul_check(got, want=want):
        have = {_trim(term["index"]): {_value_of(t["monomial"], ("t",)): Fraction(t["coeff"])
                                       for t in term["coeff"]["terms"]}
                for term in _load(got)["result"]["terms"]}
        return have == want

    out.append(Command(["conj", "--field", LAURENT, text, "--kind", "mul", f"--by={c}"],
                       mul_check))

    # eval at a constant: only the terms free of derivatives survive
    terms, text = _poly(rng, ("t",))
    at = _nonzero(rng, 3, 2)
    value = {}
    for idx, (coeff, exps) in terms.items():
        if not any(idx[1:]):
            value[exps] = value.get(exps, 0) + coeff * at ** idx[0]
    want = {k: v for k, v in value.items() if v != 0}

    def eval_check(got, want=want):
        rows = _load(got)["value"]["terms"]
        return {_value_of(t["monomial"], ("t",)): Fraction(t["coeff"]) for t in rows} == want

    out.append(Command(["eval", "--field", LAURENT, text, f"--at={at}"], eval_check))

    # coarsen: the residue config loads back and keeps the generators past k
    k = rng.randint(1, 4)

    def coarsen_check(got, k=k):
        doc = _load(got)
        field = field_from_config(doc)
        names = [g.name for g in field.generators]
        return field.rank == 5 - k and names == ["e_x", "l0", "l1", "l2", "l3"][k:]

    out.append(Command(["coarsen", "--field", "transseries_fragment(3)",
                        "--prefix-len", str(k)], coarsen_check))

    # solve to tau = v(e_x / (l0...l(d-1))): a strictly rising ladder that
    # reaches tau
    d = rng.randint(4, 6)
    tau = [Fraction(-1)] + [Fraction(1)] * d + [Fraction(0)]

    def solve_check(got, tau=tau):
        doc = _load(got)
        ladder = [[Fraction(x) for x in v] for v in doc["residual_valuations"]]
        return (doc["termination"] == "reached_tau" and ladder[-1] >= tau
                and all(a < b for a, b in zip(ladder, ladder[1:])))

    out.append(Command(["solve", "--depth", str(d), "--op", "A", "--rhs", "e_x",
                        "--tau=" + ",".join(map(str, tau))], solve_check))

    # check-bll passes; demo's e_x block is the same for every c
    d = rng.randint(4, 6)
    out.append(Command(["check-bll", "--depth", str(d)],
                       lambda got: _load(got)["passed"] is True))

    def demo_check(got):
        runs = _load(got)["runs"]
        blocks = [[v for v in r["residual_valuations"] if v != "inf" and v[0] == "-1"]
                  for r in runs]
        return len(blocks) == 2 and blocks[0] and blocks[0] == blocks[1]

    out.append(Command(["demo", "--depth", str(rng.randint(4, 6)),
                        "--c", f"0,{_nonzero(rng)}"], demo_check))
    return out


SUBCOMMANDS = ("val", "ddeg", "ndeg", "breakpoints", "conj", "eval", "gamma-der",
               "s-der", "coarsen", "probe", "solve", "check-bll", "demo")
