import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlesim.errors import DomainError
from qlesim.output import (_CHUNK_ROWS, emit_csv, emit_json_table, file_sha256,
                           format_value, write_json_atomic)


def test_two_by_two_table_is_three_lines(tmp_path):
    path = emit_csv({"a": [1, 2], "b": [3.5, 4.5]}, tmp_path / "t.csv")
    text = path.read_text(encoding="utf-8")
    assert text == "a,b\n1,3.5\n2,4.5\n"
    path = emit_csv({"a": np.array([True, False]), "b": [np.False_, np.True_]},
                    tmp_path / "b.csv")
    assert path.read_text(encoding="utf-8") == "a,b\ntrue,false\nfalse,true\n"


def test_floats_round_trip_exactly(tmp_path):
    values = [0.1, 1.0 / 3.0, 6016.5e-6, 2.3381216607963267e-06]
    path = emit_csv({"x": values}, tmp_path / "t.csv")
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [float(line) for line in lines] == values


def test_empty_table_is_header_only(tmp_path):
    path = emit_csv({"a": [], "b": []}, tmp_path / "t.csv")
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_line_endings_are_lf(tmp_path):
    path = emit_csv({"a": [1, 2]}, tmp_path / "t.csv")
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_ragged_table_rejected(tmp_path):
    with pytest.raises(DomainError):
        emit_csv({"a": [1, 2], "b": [3]}, tmp_path / "t.csv")


def test_json_table(tmp_path):
    path = emit_json_table({"a": [1, 2], "b": ["x", "y"], "c": np.array([True, False])},
                           tmp_path / "t.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["columns"] == ["a", "b", "c"]
    assert doc["rows"] == [{"a": 1, "b": "x", "c": True}, {"a": 2, "b": "y", "c": False}]


def test_atomic_json_write(tmp_path):
    path = write_json_atomic({"k": [1, 2.5], "x": np.True_, "m": np.array([False])},
                             tmp_path / "m.json")
    assert json.loads(path.read_text(encoding="utf-8")) == {"k": [1, 2.5], "x": True,
                                                            "m": [False]}
    assert not (tmp_path / "m.json.tmp").exists()


def test_file_sha256_changes_with_content(tmp_path):
    a = emit_csv({"x": [1]}, tmp_path / "a.csv")
    b = emit_csv({"x": [2]}, tmp_path / "b.csv")
    assert file_sha256(a) != file_sha256(b)
    assert file_sha256(a) == file_sha256(a)


# ------------------------------------- chunked emission vs per-cell reference

def per_cell_csv(table) -> bytes:
    """The CSV that formats one cell at a time through format_value."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.keys())
    for row in zip(*(list(values) for values in table.values())):
        writer.writerow([format_value(v) for v in row])
    return buffer.getvalue().encode("utf-8")


EDGE_FLOATS = [-0.0, 5e-324, -2.5e-320, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
NUMPY_SCALARS = (FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
                 | INT64.map(np.int64) | st.booleans().map(np.bool_))

# each column repeats a small drawn pool of values down the rows, so long
# tables stay cheap to draw
POOLS = {
    "float64": (FLOATS, lambda cells: np.array(cells, dtype=float)),
    "float32": (st.floats(width=32), lambda cells: np.array(cells, dtype=np.float32)),
    "int64": (INT64, lambda cells: np.array(cells, dtype=np.int64)),
    "bool": (st.booleans(), lambda cells: np.array(cells, dtype=bool)),
    "str": (st.text(max_size=5), list),
    "numpy_scalars": (NUMPY_SCALARS, list),
    "python": (FLOATS | st.integers() | st.booleans(), list),
}


@pytest.mark.parametrize("n_rows", [0, 1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                                    _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
def test_chunked_csv_is_byte_identical_to_per_cell_reference(n_rows):
    kinds = st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=4)

    @settings(max_examples=15)
    @given(st.data())
    def check(data):
        table = {}
        for i, kind in enumerate(data.draw(kinds)):
            values, build = POOLS[kind]
            pool = data.draw(st.lists(values, min_size=1, max_size=6))
            table[f"{kind}_{i}"] = build([pool[r % len(pool)] for r in range(n_rows)])
        with tempfile.TemporaryDirectory() as tmp:
            written = emit_csv(table, Path(tmp) / "t.csv").read_bytes()
        assert written == per_cell_csv(table)

    check()
