"""Small shared helpers: atomic file output and the block slicing of batched work."""

from __future__ import annotations

import json
import os
from itertools import islice

# Lines per write call: a block is a small fraction of any large artifact.
_BLOCK_LINES = 2048
# Batched SNR/SINR trials are processed in blocks whose arrays hold at most
# this many elements, or one trial's array where that is larger (a phase
# table); the tiles of every coarse scan hold at most this many grid points,
# or one row of one trial.  The MIMO lockstep has its own budget,
# mimo._LOCKSTEP_ELEMENTS.
_BLOCK_ELEMENTS = 2 ** 15


def _blocks(trials: int, per_trial: int, budget: int | None = None) -> list[slice]:
    """Consecutive slices of ``range(trials)``, each of at most max(1, budget // per_trial), the
    budget _BLOCK_ELEMENTS unless given."""
    size = max(1, (budget or _BLOCK_ELEMENTS) // per_trial)
    return [slice(i, min(i + size, trials)) for i in range(0, trials, size)]


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


def write_csv_atomic(path: str, header: str, columns) -> None:
    """Write ``columns`` under ``header`` as a CSV with LF newlines, atomically.

    ``columns`` holds equal-length iterables (lazy ones too) of Python
    ``int``, ``float`` or ``str`` cells; unequal lengths raise ``ValueError``.
    Each cell is written as ``str(cell)``, the shortest round-trip repr for a
    float.  Lines are streamed in blocks, so the file is never held whole.
    """
    lines = map(",".join, zip(*(map(str, c) for c in columns), strict=True))

    def write(fh):
        fh.write(header + "\n")
        while block := list(islice(lines, _BLOCK_LINES)):
            fh.write("\n".join(block))
            fh.write("\n")
    _write_atomic(path, write)


def write_json_atomic(path: str, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted strict JSON, atomically: a NaN or infinite
    float raises ValueError and writes nothing."""
    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_atomic(path, write)
