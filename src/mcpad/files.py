"""Atomic file writes: every artifact goes to a sibling ``<name>.tmp`` file
that is then renamed over the target, so a reader never sees a partial file.
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8, newlines
    untranslated)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)
