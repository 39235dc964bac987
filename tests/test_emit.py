"""The CSV and candidates.json writers against the row-at-a-time reference writers.

The writers spell each distinct float64 bit pattern of a file once and
join the file once; emit_reference.py writes one row or record at a
time. Every byte must agree, for floats that repeat, both zeros, NaNs
with any sign or payload, both infinities, subnormals and the largest
float, beside int and str columns.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import emit_reference as reference
from polarsolve.runner import _records_json, _write_csv

SPECIAL = [
    0.0,
    -0.0,
    float("nan"),
    *np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64).tolist(),
    float("inf"),
    float("-inf"),
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # the largest subnormal
    1e-310,
    sys.float_info.min,
    sys.float_info.max,
    -sys.float_info.max,
    0.1,
    1.0,
]


@st.composite
def float_columns(draw, rows, count):
    """count float64 arrays of the given length, drawn from a small palette so that values repeat."""
    palette = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1, max_size=6))
    cell = st.sampled_from(palette)
    return [np.array(draw(st.lists(cell, min_size=rows, max_size=rows)), dtype=np.float64) for _ in range(count)]


def written(write, *args) -> bytes:
    """The bytes write(path, *args) puts in a fresh file; its return value must be their SHA-256."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        digest = write(path, *args)
        data = path.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest()
    return data


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12), floats=st.integers(1, 5))
def test_csv_writer_matches_the_per_row_reference(data, rows, floats):
    columns = data.draw(float_columns(rows, floats))
    ints = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows)
    strs = st.lists(st.text(max_size=4), min_size=rows, max_size=rows)
    columns.insert(data.draw(st.integers(0, len(columns))), np.array(data.draw(ints), dtype=np.int64))
    columns.append(np.array(data.draw(strs), dtype=str))
    header = [f"c{i}" for i in range(len(columns))]
    want = reference.csv_text(header, columns).encode("utf-8")
    assert written(_write_csv, header, columns) == want


@st.composite
def record_states(draw):
    """One or two dicts of columns as the two-period runners build them, with any floats."""
    states = []
    for s in range(draw(st.integers(1, 2))):
        rows = draw(st.integers(1, 8))
        p, value, *slots = draw(float_columns(rows, 2 + 2 * draw(st.integers(1, 3))))
        provenance = st.sampled_from(["inaction", "median", 'a "quoted" 100% name', "é"])
        states.append({
            "p": p,
            "s": [s] * rows,
            "value": value,
            "label": draw(st.lists(st.text(max_size=3), min_size=rows, max_size=rows)),
            "candidates": [
                {"candidate": a, "objective": b, "provenance": [draw(provenance)] * rows}
                for a, b in zip(slots[::2], slots[1::2])
            ],
        })
    return states


@settings(max_examples=150, deadline=None)
@given(states=record_states())
def test_records_writer_matches_json_dumps_of_the_records(states):
    assert _records_json(states) == reference.records_json(states)


def test_writers_keep_negative_zero_apart_from_zero():
    column = np.array([0.0, -0.0, -0.0, 0.0])
    csv = written(_write_csv, ["a", "b"], [column, column[::-1].copy()])
    assert csv == b"a,b\n0.0,0.0\n-0.0,-0.0\n-0.0,-0.0\n0.0,0.0\n"
    states = [{"p": column, "candidates": [{"candidate": -column, "objective": column, "provenance": ["x"] * 4}]}]
    text = _records_json(states)
    assert text == reference.records_json(states)
    assert text.count('"p": -0.0') == 2 and text.count('"candidate": -0.0') == 2
