"""A temporary ``git worktree`` checkout of one revision, shared by the tools in this folder.

The checkout is removed when the ``with`` block ends, also when the process
is ended by SIGTERM, which :func:`checkout` turns into ``SystemExit``.
"""

from __future__ import annotations

import signal
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_worktree(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), "worktree", *args], check=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the finally that removes the worktree


@contextmanager
def checkout(rev: str, prefix: str):
    """Yield the path of a detached checkout of ``rev`` in a new temporary folder named ``prefix*``."""
    signal.signal(signal.SIGTERM, _terminate)
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        path = Path(tmp) / "rev"
        git_worktree("prune")  # forget checkouts of runs that were killed before their cleanup
        git_worktree("add", "--quiet", "--detach", str(path), rev)
        try:
            yield path
        finally:
            git_worktree("remove", "--force", str(path))
