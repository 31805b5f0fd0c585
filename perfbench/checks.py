"""Output checks of one sample; a sample that fails any counts toward ``fail_ratio``.

The expected values come from ``reference.py``. This module uses the
standard library only, so the harness process stays small.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

TOLERANCE = 1e-9


def close(a: Optional[float], b: Optional[float], tol: float = TOLERANCE) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(b))


# ----------------------------------------------------------------------
# Run directories
# ----------------------------------------------------------------------


def tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    paths = []
    for base, _, files in os.walk(root):
        paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(paths, key=lambda p: os.path.relpath(p, root)):
        h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 22), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, f))
        for base, _, files in os.walk(root) for f in files
    )


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_tokens(run_dir: str) -> int:
    total = read_json(os.path.join(run_dir, "usage.json"))["total"]
    return int(total["prompt_tokens"]) + int(total["completion_tokens"])


# ----------------------------------------------------------------------
# Pipeline run checks
# ----------------------------------------------------------------------


def check_pipeline_run(run_dir: str, expected: Dict[str, object]) -> List[str]:
    """Problems with one finished run directory (empty when it is correct).

    ``expected`` holds ``metrics`` (reference values), ``rounds_used``,
    ``discussion_reason``, ``refinements``, ``failure_categories`` and
    ``retrieval_stop``.
    """
    problems: List[str] = []
    try:
        metrics = read_json(os.path.join(run_dir, "metrics.json"))["metrics"]
        summary = read_json(os.path.join(run_dir, "summary.json"))
        discussion = read_json(os.path.join(run_dir, "discussion_trace.json"))
        loop = read_json(os.path.join(run_dir, "sandbox_logs", "loop.json"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"run directory unreadable: {exc}"]

    reference = expected["metrics"]
    if sorted(metrics) != sorted(reference):
        problems.append(f"metric ids {sorted(metrics)} != {sorted(reference)}")
    for name, want in reference.items():
        if not close(metrics.get(name), want):
            problems.append(f"{name} = {metrics.get(name)!r}, reference {want!r}")
    for key, got in (
        ("rounds_used", summary.get("rounds_used")),
        ("discussion_reason", discussion.get("reason")),
        ("refinements", summary.get("refinements")),
        ("retrieval_stop", summary.get("retrieval_stop")),
    ):
        if got != expected[key]:
            problems.append(f"{key} = {got!r}, expected {expected[key]!r}")
    categories = [(rev.get("failure") or {}).get("category") for rev in loop.get("revisions", [])]
    want_categories = list(expected["failure_categories"]) + [None]
    if categories != want_categories:
        problems.append(f"revision failures {categories} != {want_categories}")
    return problems
