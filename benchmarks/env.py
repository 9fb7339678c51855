"""Where the benchmark finds the library, and the stamp put on every record.

The benchmark measures the source tree it sits in (``<root>/src``), never an
installed copy, so a record always names the code it measured: the git sha
when the tree is a git checkout, and in every case a content hash of the
Python files under ``src/``, which identifies the code even in an exported
tree without ``.git``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class SourceTreeError(Exception):
    pass


def use_source_tree() -> None:
    """Put ``<root>/src`` first on sys.path and check qderiv is imported from it."""
    if not (SRC / "qderiv" / "__init__.py").is_file():
        raise SourceTreeError(f"no qderiv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qderiv

    if SRC not in Path(qderiv.__file__).resolve().parents:
        raise SourceTreeError(f"qderiv imported from {qderiv.__file__}, not from {SRC}")


def _git_sha() -> str | None:
    """``git rev-parse HEAD`` of the tree, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    """SHA-256 over the relative path and bytes of every ``src/**/*.py``, sorted."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.relative_to(SRC).as_posix().encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def stamp() -> dict:
    """Python version, CPU count, platform and code identity for a record."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }
