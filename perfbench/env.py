"""Hermetic process environment and the run-environment record.

Every ``REPRO_*`` variable is an override or a chaos hook of the
program (``REPRO_INJECTIONS``, ``REPRO_BENCH_*``, ``REPRO_SCHED_CHAOS``,
``REPRO_SVC_CHAOS``, ``REPRO_GUARD_CHAOS``), and ``SVC_TOKEN`` switches
the service to authenticated mode.  Any of them left exported would
silently change what is measured, so the benchmark removes them from
its own environment before importing the program, which also keeps
them out of every child it forks or spawns.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

SCRUB_PREFIX = "REPRO_"
SCRUB_NAMES = ("SVC_TOKEN",)


def scrubbed(environ) -> dict:
    """A copy of *environ* without the program's overrides and hooks."""
    return {k: v for k, v in environ.items()
            if not k.startswith(SCRUB_PREFIX) and k not in SCRUB_NAMES}


def make_hermetic(src: Path) -> list[str]:
    """Scrub ``os.environ`` in place and point PYTHONPATH at *src*.

    Returns the names removed, so a run can report them.
    """
    removed = sorted(set(os.environ) - set(scrubbed(os.environ)))
    for name in removed:
        del os.environ[name]
    os.environ["PYTHONPATH"] = str(src)
    return removed


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def tree_digest(src: Path) -> str:
    """sha256 over the program's Python sources (paths and contents).

    Identifies the code under test where no git metadata exists.
    """
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def run_environment(root: Path, src: Path) -> dict:
    """What a result needs to be read in context on a shared host."""
    return {
        "commit": _git_commit(root),
        "src_sha256": tree_digest(src),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }
