"""The check-or-write step the document generators share."""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def emit(relative_path: str, content: str) -> int:
    """Write ``content`` to ``relative_path`` under the repo root, or,
    with ``--check`` in ``sys.argv``, exit 1 when the file differs."""
    path = os.path.join(REPO_ROOT, relative_path)
    if "--check" in sys.argv[1:]:
        try:
            with open(path, encoding="utf-8") as handle:
                existing = handle.read()
        except FileNotFoundError:
            existing = None
        if existing != content:
            print(
                f"{relative_path} is stale; regenerate with "
                f"'python benchmarks/{os.path.basename(sys.argv[0])}'",
                file=sys.stderr,
            )
            return 1
        print(f"{relative_path} is up to date")
        return 0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    print(f"wrote {path}")
    return 0
