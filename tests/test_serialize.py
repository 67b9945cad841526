"""Deterministic text emission: CSV, JSON, SVG."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucshoot.serialize import (SCHEMA_VERSION, csv_text, float17, json_text,
                                svg_plot, write_text)


def test_float17_round_trips():
    for v in (0.1, 1.0 / 3.0, 2.207031726389679, -1e-300, 0.0, 12345.678):
        assert float(float17(v)) == v
    assert float17(float("nan")) == "nan"
    assert float17(0.1) == "0.10000000000000001"


def test_csv_layout_and_strings():
    text = csv_text({"a": [1.0, 2.5], "status": ["ok", ""]})
    lines = text.splitlines()
    assert lines[0] == "a,status"
    assert lines[1] == "1,ok"
    assert lines[2] == "2.5,"
    assert text.endswith("\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.integers(-2 ** 60, 2 ** 60),
                          st.one_of(st.floats(), st.sampled_from(["", "ok"]))),
                max_size=8))
def test_csv_row_format_is_float17_per_cell(rows):
    """One "%.17g" format per row gives float17's text for every numeric
    cell, numpy or Python, float or int; a column with a string cell is
    formatted cell by cell."""
    cols = [list(c) for c in zip(*rows)] or [[], [], [], []]
    columns = {"f": np.array(cols[0]), "f32": [np.float32(v) for v in cols[1]],
               "i": cols[2], "mixed": cols[3]}
    want = ["f,f32,i,mixed"] + [",".join(v if isinstance(v, str) else float17(v) for v in row)
                                for row in zip(*columns.values())]
    assert csv_text(columns) == "\n".join(want) + "\n"


def test_csv_length_mismatch():
    with pytest.raises(ValueError):
        csv_text({"a": [1.0], "b": [1.0, 2.0]})


def test_json_schema_stamp_and_sorted_keys():
    text = json_text({"zeta": 1, "alpha": [np.float64(0.5), np.int64(3)]})
    payload = json.loads(text)
    assert payload["schema"] == SCHEMA_VERSION == "nucshoot/1"
    assert list(payload) == sorted(payload)
    assert payload["alpha"] == [0.5, 3]
    # a caller-supplied schema value is kept
    assert json.loads(json_text({"schema": "other/9"}))["schema"] == "other/9"


def test_json_nonfinite_and_arrays():
    payload = json.loads(json_text({"v": float("inf"), "w": np.array([1.0, 2.0])}))
    assert payload["v"] == "inf"
    assert payload["w"] == [1.0, 2.0]


def test_json_is_byte_stable():
    data = {"b": 1.0 / 3.0, "a": {"nested": [1, 2, 3]}}
    assert json_text(data) == json_text(data)


def test_write_text_exact_bytes(tmp_path):
    target = tmp_path / "out.csv"
    write_text(target, "a,b\r\n1,2\n")
    assert target.read_bytes() == b"a,b\r\n1,2\n"


def test_svg_structure():
    text = svg_plot((0.0, 1.0), (-1.0, 1.0),
                    polylines=[([(0.0, 0.0), (0.5, 0.5), (1.0, -1.0)], "black", 1.0, "")],
                    rects=[(0.0, -1.0, 0.5, 0.0, "#e8e8e8")],
                    points=[(0.5, 0.5, 3, "#1030c0")],
                    title="phase plane")
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 1
    assert text.count("<circle") == 1
    assert "phase plane" in text
    assert 'stroke-dasharray' not in text
    # y axis is flipped: data y = +1 maps above data y = -1
    assert svg_plot((0, 1), (0, 1), []) == svg_plot((0, 1), (0, 1), [])


def test_svg_splits_on_nonfinite_vertices():
    pts = [(0.0, 0.0), (0.2, 0.1), (math.nan, math.nan), (0.6, 0.2), (0.9, 0.3)]
    text = svg_plot((0.0, 1.0), (0.0, 1.0), [(pts, "red", 1.0, "4 2")])
    assert text.count("<polyline") == 2
    assert text.count('stroke-dasharray="4 2"') == 2


def test_svg_rejects_degenerate_limits():
    with pytest.raises(ValueError):
        svg_plot((0.0, 0.0), (0.0, 1.0), [])
