"""Every golden fixture of the acceptance suite through ``cli.run``, on the standard library alone.

    PYTHONPATH=src python tests/stdlib_goldens.py

Reads ``CLI_FIXTURES`` from ``tests/test_acceptance.py`` without importing it (that module needs pytest),
runs each fixture in process, and compares its output with its file under ``tests/golden`` byte for byte.
It fails, exiting 1, on any mismatch or nonzero exit code, or if numpy was imported: every fixture, the short
``energies`` ladder included, runs without numpy.  It needs no installed package, so an interpreter with
nothing installed checks that claim.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

from trdwell.cli import run

TESTS = Path(__file__).resolve().parent


def fixtures() -> list[tuple[str, list[str]]]:
    """The literal ``CLI_FIXTURES`` list of the acceptance suite: (golden file name, argv) pairs."""
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_FIXTURES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("CLI_FIXTURES not found in tests/test_acceptance.py")


def main() -> int:
    failures = []
    for name, argv in fixtures():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        same = out.getvalue().encode("utf-8") == (TESTS / "golden" / name).read_bytes()
        print(f"{'ok' if code == 0 and same else 'FAIL'} {name} (exit {code})")
        if not (code == 0 and same):
            failures.append(name)
    if "numpy" in sys.modules:
        failures.append("numpy was imported")
    print(f"{len(failures)} failures on Python {sys.version.split()[0]}: {', '.join(failures) or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
