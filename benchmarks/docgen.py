"""The write step the document generators share."""

from __future__ import annotations

import os

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def emit(relative_path: str, content: str) -> int:
    """Write ``content`` to ``relative_path`` under the repo root."""
    path = os.path.join(REPO_ROOT, relative_path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    print(f"wrote {path}")
    return 0
