"""Deterministic CSV/JSON artifact writers with reproducibility manifests.

A table reaches the writers as a `Table`, blocks of equal-length columns
(numpy arrays or sequences).  Every data file is written with a fixed numeric
format, fmt's text through one '%' code per column, and '\n' line endings so
that repeated runs with the same configuration and seed are byte-identical;
the accompanying manifest records the exact inputs, seed, package versions,
and wall time needed to re-run the job. Each file is written to a temporary
file in the same directory and renamed onto its path, so a failed write
leaves neither a partial file nor the temporary one behind.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__


def fmt(value):
    """Canonical text form: ints verbatim, floats at 12 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


@contextmanager
def _atomic_open(path):
    """Text handle on a temporary sibling of path, renamed onto path on success."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_CHUNK = 1024  # rows per '%' call of write_csv and per json.dumps call of write_json_records


class Table:
    """Rows as blocks of equal-length columns, each a numpy array or a sequence;
    `len` is the row count."""

    def __init__(self, *blocks):
        for block in blocks:
            if len(set(map(len, block))) > 1:
                raise ValueError("the columns of a table block differ in length")
        self.blocks = blocks

    def __len__(self):
        return sum(len(block[0]) for block in self.blocks if block)


def _chunks(block):
    """A block's columns, sliced _CHUNK rows at a time."""
    for start in range(0, len(block[0]) if block else 0, _CHUNK):
        yield [column[start:start + _CHUNK] for column in block]


def _code(column):
    """The '%' code that prints a column as fmt does: %.12g for a float array,
    %d for an integer array, and %s of fmt's text for anything else."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    return {"f": "%.12g", "i": "%d", "u": "%d"}.get(kind, "%s")


def write_csv(path, header, table):
    """Single header row, '.'-decimal numbers, '\n' line endings; a block's
    rows go through one '%' line of its columns' codes, _CHUNK rows per call."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in table.blocks:
            codes = [_code(column) for column in block]
            line = ",".join(codes) + "\n"
            for columns in _chunks(block):
                values = [list(map(fmt, c)) if code == "%s" else c.tolist()
                          for code, c in zip(codes, columns)]
                fh.write(line * len(values[0])
                         % tuple(itertools.chain.from_iterable(zip(*values))))


def write_json_records(path, header, table):
    """The same table as a list of JSON objects (format = json option), in the
    bytes of json.dump(records, indent=1); a block's records are encoded
    _CHUNK at a time, whose items json.dumps joins by ",\n" as the chunks are."""
    with _atomic_open(path) as fh:
        sep = "[\n"
        for block in table.blocks:
            for columns in _chunks(block):
                rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
                chunk = [dict(zip(header, map(_jsonable, row))) for row in rows]
                fh.write(sep + json.dumps(chunk, indent=1)[2:-2])  # without "[\n" and "\n]"
                sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


def write_table(path, header, table, fmt_kind="csv"):
    """A Table as CSV, or as JSON records when fmt_kind is "json"."""
    if fmt_kind == "json":
        write_json_records(path, header, table)
    else:
        write_csv(path, header, table)


def manifest_path(data_path):
    return str(data_path) + ".manifest.json"


def write_manifest(data_path, command, inputs, seed, wall_time, diagnostics=None):
    """JSON sidecar sufficient to re-run the job exactly, plus run diagnostics."""
    doc = {
        "command": command,
        "inputs": {k: _jsonable(v) for k, v in sorted(inputs.items())},
        "seed": None if seed is None else int(seed),
        "versions": {
            "esqpt": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "argv": sys.argv[1:],
        "wall_time_s": round(float(wall_time), 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if diagnostics is not None:
        doc["diagnostics"] = {k: _jsonable(v) for k, v in diagnostics.items()}
    with _atomic_open(manifest_path(data_path)) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
