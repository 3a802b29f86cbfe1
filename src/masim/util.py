"""Small shared helpers: atomic file output."""

from __future__ import annotations

import json
import os


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_atomic(path: str, write) -> None:
    """Call ``write(fh)`` on a temp file, then rename it over ``path``.

    The file appears atomically, so a failed run never leaves a partial
    artifact behind.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv_atomic(path: str, header: str, rows) -> None:
    """Write a CSV with LF newlines and repr-formatted floats, atomically."""
    def write(fh):
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")
    _write_atomic(path, write)


def write_json_atomic(path: str, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted JSON, atomically."""
    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_atomic(path, write)
