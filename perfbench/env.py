"""Where the library lives and what a result records about the machine and code."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_library() -> None:
    """Put src/ on sys.path, or exit 2 when the checkout has no library."""
    if not (SRC / "padicforge" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'padicforge'}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def src_digest() -> str:
    """SHA-256 over src/padicforge, so a result names its code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "padicforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is its own git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": commit(),
        "src_sha256": src_digest(),
    }
