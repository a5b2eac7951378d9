"""JSON/CSV rendering: exact float text, stable ordering, round trips."""

import json
import math

import pytest

from trdwell.serialize import csv_dumps, format_float, json_dumps


class TestFloatText:
    def test_seventeen_significant_digits(self):
        assert format_float(0.18) == "0.17999999999999999"
        assert format_float(25.0 / 6.0) == "4.166666666666667"
        assert format_float(1.0) == "1"
        assert format_float(0.5) == "0.5"

    def test_round_trips_through_parsing(self):
        for value in (0.18, 1.0 / 3.0, 2.0**-40, 6.02e23, -1.7976931348623157e308):
            assert float(format_float(value)) == value

    def test_nonfinite_spellings(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"
        assert format_float(math.nan) == "nan"


class TestJson:
    def test_terminated_by_one_newline(self):
        text = json_dumps({"x": 1.0})
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_key_order_is_insertion_order(self):
        text = json_dumps({"zebra": 1, "ant": 2, "mole": 3})
        assert text.index("zebra") < text.index("ant") < text.index("mole")

    def test_render_parse_render_is_byte_identical(self):
        record = {
            "command": "demo",
            "inputs": {"E": 0.18, "U": 0.5},
            "outputs": {"t": 25.0 / 6.0, "flags": [True, False], "label": "plus"},
            "count": 3,
            "missing": None,
        }
        first = json_dumps(record)
        second = json_dumps(json.loads(first))
        assert first == second

    def test_floats_keep_distinguishing_digits(self):
        text = json_dumps({"E": 0.18})
        assert "0.17999999999999999" in text

    def test_nonfinite_floats_become_strings(self):
        text = json_dumps({"v": math.inf, "w": math.nan})
        parsed = json.loads(text)
        assert parsed["v"] == "inf" and parsed["w"] == "nan"

    def test_pretty_mode_indents_and_rounds(self):
        text = json_dumps({"E": 0.18, "inner": {"t": 25.0 / 6.0}}, pretty=True)
        assert "\n  " in text
        assert "0.18" in text and "0.17999999999999999" not in text
        assert "4.16667" in text

    def test_machine_mode_is_single_line(self):
        assert json_dumps({"a": {"b": [1, 2]}}).count("\n") == 1

    def test_booleans_and_integers_distinguished(self):
        text = json_dumps({"flag": True, "n": 1})
        parsed = json.loads(text)
        assert parsed["flag"] is True and parsed["n"] == 1

    def test_unicode_passes_through(self):
        assert json.loads(json_dumps({"s": "κ"}))["s"] == "κ"


class TestCsv:
    def test_header_plus_one_line_per_record(self):
        rows = [{"i": i, "v": float(i)} for i in range(11)]
        text = csv_dumps(rows)
        lines = text.split("\n")
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 13  # header + 11 records + terminator split
        assert lines[0] == "i,v"

    def test_full_precision_cells(self):
        text = csv_dumps([{"E": 0.18}])
        assert "0.17999999999999999" in text

    def test_unix_line_endings(self):
        text = csv_dumps([{"a": 1}, {"a": 2}])
        assert "\r" not in text

    def test_none_bool_and_string_cells(self):
        text = csv_dumps([{"x": None, "ok": True, "tag": "plus"}])
        assert text.split("\n")[1] == ",true,plus"

    def test_quoting_only_when_needed(self):
        text = csv_dumps([{"msg": "a,b", "plain": "c"}])
        assert '"a,b"' in text and '"c"' not in text

    def test_rows_must_share_a_header(self):
        with pytest.raises(ValueError):
            csv_dumps([{"a": 1}, {"b": 2}])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            csv_dumps([])

    def test_empty_table_with_a_header_is_the_header_line(self):
        assert csv_dumps([], ["i", "v"]) == "i,v\n"

    def test_rows_must_match_the_given_header(self):
        with pytest.raises(ValueError):
            csv_dumps([{"v": 1, "i": 0}], ["i", "v"])
