"""A temporary checkout of one revision, extracted by ``git archive``, shared by the tools in this folder.

``git archive`` writes nothing into the repository's ``.git``.  The checkout
is removed when the ``with`` block ends, also when the process is ended by
SIGTERM, which :func:`checkout` turns into ``SystemExit``.
"""

from __future__ import annotations

import io
import signal
import subprocess
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the with block that removes the checkout


@contextmanager
def checkout(rev: str, prefix: str):
    """Yield the path of the files of ``rev`` extracted in a new temporary folder named ``prefix*``."""
    signal.signal(signal.SIGTERM, _terminate)
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        path = Path(tmp) / "rev"
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(path, filter="data")
        yield path
