"""Table emission (CSV/JSON) and the run manifest."""

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import DomainError


def _native(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_native(v) for v in value]
    return value


def format_value(value) -> str:
    value = _native(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _check_table(table):
    if len({len(values) for values in table.values()}) > 1:
        raise DomainError("table columns must all have the same length")


# rows are formatted and written this many at a time, so a table never has
# a whole column of strings alive at once
_CHUNK_ROWS = 1024


def _format_column(values) -> list:
    """Cells of one column as strings, each equal to its format_value."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return list(map("{:.17g}".format, values.tolist()))
    return [format_value(v) for v in values]


def emit_csv(table: dict, path) -> Path:
    """Write named columns as UTF-8 CSV: one header row, '.'-decimal floats at
    17 significant digits, LF line endings."""
    _check_table(table)
    n_rows = len(next(iter(table.values()), ()))
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table.keys())
        for start in range(0, n_rows, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            writer.writerows(zip(*(_format_column(values[start:stop])
                                   for values in table.values())))
    return path


def emit_json_table(table: dict, path) -> Path:
    """Write named columns as a JSON document with a rows list."""
    _check_table(table)
    names = list(table)
    rows = [dict(zip(names, (_native(v) for v in row)))
            for row in zip(*table.values())]
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump({"columns": names, "rows": rows}, handle, indent=2)
        handle.write("\n")
    return path


def write_json(payload, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(_jsonable(payload), handle, indent=2)
        handle.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    return _native(obj)


def write_json_atomic(payload, path) -> Path:
    """Write JSON through a temp file and rename, so the file appears whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    write_json(payload, tmp)
    os.replace(tmp, path)
    return path


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
