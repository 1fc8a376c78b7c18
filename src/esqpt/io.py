"""Deterministic CSV/JSON artifact writers with reproducibility manifests.

Every data file is written with a fixed numeric format and '\n' line endings
so that repeated runs with the same configuration and seed are byte-identical;
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


_JSON_CHUNK = 1024  # records per json.dumps call of write_json_records

# fmt's text of a value, as a '%' code, by the value's exact type
_CODES = {float: "%.12g", np.float64: "%.12g", int: "%d", np.int64: "%d", str: "%s"}


def _csv_lines(rows):
    """Each row as fmt's text, through one '%' line per tuple of exact value
    types; a row with any other type (bool, None, np.float32, ...) takes fmt
    per value."""
    lines = {}
    for row in rows:
        types = tuple(map(type, row))
        line = lines.get(types)
        if line is None:
            codes = [_CODES.get(t) for t in types]
            line = lines[types] = "" if None in codes else ",".join(codes) + "\n"
        yield line % tuple(row) if line else ",".join(map(fmt, row)) + "\n"


def write_csv(path, header, rows):
    """Single header row, '.'-decimal numbers, '\n' line endings."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_lines(rows))


def write_json_records(path, header, rows):
    """The same table as a list of JSON objects (format = json option), in the
    bytes of json.dump(records, indent=1), encoded _JSON_CHUNK records at a time."""
    records = ({key: _jsonable(value) for key, value in zip(header, row)} for row in rows)
    with _atomic_open(path) as fh:
        sep = "[\n"
        while chunk := list(itertools.islice(records, _JSON_CHUNK)):
            fh.write(sep + json.dumps(chunk, indent=1)[2:-2])  # without "[\n" and "\n]"
            sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


def write_table(path, header, rows, fmt_kind="csv"):
    if fmt_kind == "json":
        write_json_records(path, header, rows)
    else:
        write_csv(path, header, rows)


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
