"""File helpers shared by every on-disk format.

Writes are atomic: every artifact goes to a sibling ``<name>.tmp`` file that
is then renamed over the target, so a reader never sees a partial file.
Binary reads go through ``ByteReader``, which turns a cut, a bad magic or
leftover bytes into a ``FormatError`` carrying the byte offset.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np


class FormatError(ValueError):
    """File violates its format's byte layout."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def atomic_write(path: str | Path, data: bytes | str | Sequence[bytes | np.ndarray]) -> None:
    """Replace ``path`` with ``data``: bytes, text (written as UTF-8,
    newlines untranslated) or a sequence of parts (bytes, or C-contiguous
    arrays as their raw bytes) written in order without joining them."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode()
    with open(tmp, "wb") as fh:
        for part in [data] if isinstance(data, bytes) else data:
            fh.write(part)
    os.replace(tmp, path)


class ByteReader:
    """Reads a binary file front to back; every read checks the bounds."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def magic(self, expected: bytes, what: str) -> None:
        found = self.blob[: len(expected)]
        if found != expected:
            raise FormatError(f"bad {what} magic {found!r}", offset=0)
        self.pos = len(expected)

    def _advance(self, size: int, what: str) -> int:
        start = self.pos
        if start + size > len(self.blob):
            raise FormatError(f"truncated {what}", offset=start)
        self.pos = start + size
        return start

    def take(self, fmt: str, what: str) -> tuple:
        """Unpack the struct ``fmt`` at the current offset."""
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt), what))

    def raw(self, size: int, what: str) -> bytes:
        start = self._advance(size, what)
        return self.blob[start : self.pos]

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """``count`` values of ``dtype`` as a read-only view of the file."""
        start = self._advance(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise FormatError("trailing bytes", offset=self.pos)
