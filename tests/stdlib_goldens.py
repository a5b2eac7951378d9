"""Every golden fixture and stdout surface snapshot through ``cli.run``, on the standard library alone.

    PYTHONPATH=src python tests/stdlib_goldens.py

Reads ``CLI_FIXTURES`` from ``tests/test_acceptance.py`` and ``SURFACE_CASES`` from ``tests/test_cli.py`` without
importing them (those modules need pytest), runs each fixture, and each surface case in JSON and in CSV, in
process, and compares its output with its file under ``tests/golden`` or ``tests/surface`` byte for byte.  It
fails, exiting 1, on any mismatch or nonzero exit code, or if numpy was imported: every fixture and surface case,
the short ``energies`` ladder included, runs without numpy.  It needs no installed package, so an interpreter
with nothing installed checks that claim.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

from trdwell.cli import run

TESTS = Path(__file__).resolve().parent


def literal(module: str, name: str) -> list:
    """The literal list ``name`` assigned at the top level of ``tests/<module>``."""
    tree = ast.parse((TESTS / module).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{name} not found in tests/{module}")


def cases() -> list[tuple[Path, list[str]]]:
    """(expected output file, argv) pairs: each golden fixture, then each surface case in JSON and in CSV."""
    goldens = [(TESTS / "golden" / name, argv) for name, argv in literal("test_acceptance.py", "CLI_FIXTURES")]
    surface = [
        (TESTS / "surface" / f"{name}.{fmt}", [*argv, "--format", fmt])
        for name, argv in literal("test_cli.py", "SURFACE_CASES")
        for fmt in ("json", "csv")
    ]
    return goldens + surface


def main() -> int:
    failures = []
    for path, argv in cases():
        name = path.relative_to(TESTS).as_posix()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        same = out.getvalue().encode("utf-8") == path.read_bytes()
        print(f"{'ok' if code == 0 and same else 'FAIL'} {name} (exit {code})")
        if not (code == 0 and same):
            failures.append(name)
    if "numpy" in sys.modules:
        failures.append("numpy was imported")
    print(f"{len(failures)} failures on Python {sys.version.split()[0]}: {', '.join(failures) or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
