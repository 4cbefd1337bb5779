"""Run one `vdf` invocation under the tracer.

    python3 perfbench/cli_launcher.py OUT.json SUBCOMMAND [ARGS...]

Imports ``vdfield.cli`` (timing the import), installs the tracer's
wrappers and calls ``vdfield.cli.run`` with the arguments, so stdout is
what ``python -m vdfield.cli`` prints.  The tracer's counters and self
times, the import time and the command time go to OUT.json; the exit
code is the command's.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import vdfield.cli as cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.item = argv[0]
    t0 = time.perf_counter()
    code = cli.run(argv)
    cmd_s = time.perf_counter() - t0
    tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "cmd_s": cmd_s, "snapshot": tracer.snapshot(),
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
