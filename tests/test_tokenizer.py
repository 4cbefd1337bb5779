"""expr._tokenize, one compiled pattern, against a copy of the
hand-written scanner it replaced: the same tokens, lines and columns, or
the same error, on every input without a non-decimal digit.

A non-decimal digit (isdigit() but not isdecimal(), such as a superscript
or circled digit) is the one place they differ: the scanner read it as
part of a number literal, which int() then refused with a misleading
"number literal ... is too long"; the pattern reports it as an
unexpected character."""

import random
import sys
from typing import List

import pytest

from vdfield.errors import ParseError
from vdfield.expr import Token, _tokenize
from vdfield.gridseries import _is_name


def _reference_tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, col = 1, 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/'":
            toks.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("end", "", line, col))
    return toks


def _outcome(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return ("error", str(e), e.line, e.column)


def _non_decimal_digit(ch: str) -> bool:
    return ch.isdigit() and not ch.isdecimal()


def _check(text: str) -> bool:
    """Whether the two differ on text, after checking that any difference
    is the allowed one."""
    new, old = _outcome(_tokenize, text), _outcome(_reference_tokenize, text)
    if new == old:
        return False
    # the allowed difference: an unexpected non-decimal digit, no later
    # than wherever the reference scanner stopped
    assert any(map(_non_decimal_digit, text)), (text, new, old)
    assert new[0] == "error", (text, new, old)
    _, _, line, col = new
    assert _non_decimal_digit(text.split("\n")[line - 1][col]), (text, new, old)
    if old[0] == "error":
        assert (line, col) < (old[2], old[3]), (text, new, old)
    return True


# weighted so that most inputs tokenize to the end
_ALPHABET = (
    list("tY_xe0123456789+-*^()/'") * 4
    + list(" \t\r\n\u2028\u00a0\x0b") + ["\r\n"] * 2  # spaces and line breaks
    + list("éßλ中Ж")  # non-ASCII letters
    + list("٠٣٩۴०")  # Arabic-Indic and other decimal digits
    + list("?.$,½Ⅷ")  # unexpected: punctuation, a fraction, a roman numeral
)
_NON_DECIMAL_DIGITS = list("²³¹①₁፩")


def _corpus(rng, count, alphabet):
    for _ in range(count):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))


def test_fuzz_corpus_tokenizes_as_the_reference():
    rng = random.Random(20240)
    for text in _corpus(rng, 20_000, _ALPHABET):
        assert _outcome(_tokenize, text) == _outcome(_reference_tokenize, text), text


def test_fuzz_corpus_with_non_decimal_digits_differs_only_there():
    rng = random.Random(20241)
    corpus = _corpus(rng, 5_000, _ALPHABET + _NON_DECIMAL_DIGITS * 3)
    assert sum(map(_check, corpus))  # the corpus does reach the difference


@pytest.mark.parametrize("start,stop,step", [(0, 0x10000, 1), (0x10000, sys.maxunicode + 1, 97)],
                         ids=["bmp", "astral"])
def test_every_character_alone_and_inside_a_name(start, stop, step):
    for cp in range(start, stop, step):
        ch = chr(cp)
        for text in (ch, f"t{ch}1 {ch}", f"2{ch}\n{ch}t"):
            _check(text)


@pytest.mark.parametrize("start,stop,step", [(0, 0x10000, 1), (0x10000, sys.maxunicode + 1, 97)],
                         ids=["bmp", "astral"])
def test_a_generator_name_is_text_that_reads_as_one_name(start, stop, step):
    # FieldInstance refuses a generator name that fails _is_name; it holds
    # exactly for the text the tokenizer reads as one name token
    for cp in range(start, stop, step):
        ch = chr(cp)
        for text in (ch, f"t{ch}", f"{ch}t", f"_{ch}1"):
            one_name = _outcome(_tokenize, text)[:1] == [("name", text, 1, 0)]
            assert _is_name(text) == one_name, text


def test_end_token_sits_after_the_last_character():
    for text, where in (("", (1, 0)), ("t \t", (1, 3)), ("t\n", (2, 0)), ("t\r\n  ", (2, 2))):
        assert _outcome(_tokenize, text)[-1] == ("end", "",) + where
