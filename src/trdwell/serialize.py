"""Deterministic JSON and CSV rendering for CLI records.

Floats are written with 17 significant digits ("%.17g"), which round-trips
binary64 exactly: parsing the emitted text and re-emitting it reproduces the
bytes.  Dictionaries keep insertion order, non-finite floats become the
strings "inf"/"-inf"/"nan" (JSON has no literal for them), and CSV uses
minimal RFC-4180 quoting with LF line ends.  Each renderer imports its
format's module (``json`` or ``csv``) when it first runs, so a command loads
only the one it prints.
"""

from __future__ import annotations

import io
import math


def format_float(value: float) -> str:
    """17-significant-digit decimal form of a float; exact on round-trip."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.17g" % value


def _render(value, pretty: bool, depth: int, quote) -> str:
    """``value`` as JSON text; ``quote`` renders a string as a JSON string."""
    pad = "  " * (depth + 1) if pretty else ""
    close_pad = "  " * depth if pretty else ""
    joiner = ",\n" if pretty else ", "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{pad}{quote(str(k))}: {_render(v, pretty, depth + 1, quote)}"
            for k, v in value.items()
        ]
        if pretty:
            return "{\n" + joiner.join(items) + "\n" + close_pad + "}"
        return "{" + joiner.join(items) + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}{_render(v, pretty, depth + 1, quote)}" for v in value]
        if pretty:
            return "[\n" + joiner.join(items) + "\n" + close_pad + "]"
        return "[" + joiner.join(items) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isfinite(value):
            # --pretty is for human eyes and may round; machine output keeps
            # the full 17 significant digits so files are exact.
            return "%.6g" % value if pretty else format_float(value)
        return quote(format_float(value))
    if isinstance(value, str):
        return quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_dumps(value, pretty: bool = False) -> str:
    """Render ``value`` as a JSON document (with trailing newline)."""
    import json

    return _render(value, pretty, 0, lambda text: json.dumps(text, ensure_ascii=False)) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (int, str)):
        return str(value)
    raise TypeError(f"cannot place {type(value).__name__} in a CSV cell")


def csv_dumps(rows: list[dict], header: list[str] | None = None) -> str:
    """Render flat records as CSV: a header row, one line per record.

    ``header`` names the columns, so an empty table still has them; without
    it, the first record's keys do.
    """
    import csv

    if header is None:
        if not rows:
            raise ValueError("CSV output needs a header or at least one record to name its columns")
        header = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != header:
            raise ValueError("all CSV rows must share one column set")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row[key]) for key in header])
    return out.getvalue()
