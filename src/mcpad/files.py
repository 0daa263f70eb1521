"""File helpers shared by every on-disk format, and the text codecs.

Writes are atomic: every artifact goes to a sibling ``<name>.tmp`` file that
is then renamed over the target, so a reader never sees a partial file.
Binary reads go through ``ByteReader``, which turns a cut, a bad magic or
leftover bytes into a ``FormatError`` carrying the byte offset. The text
codecs: CSV tables (UTF-8, LF line ends) go through ``write_csv`` and
``read_csv``, JSON records through ``write_json``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

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


def write_csv(path: str | Path, rows: Iterable[Sequence], header: Sequence[str] | None = None) -> None:
    """Replace ``path`` with ``header`` (if given) and ``rows``; floats are written by ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def read_csv(path: str | Path, columns: int, parse: Callable[[list[str]], Any],
             header: Sequence[str] | None = None) -> list:
    """``parse`` of each nonblank row after ``header`` (if given); a bad header, a row without
    ``columns`` fields, bad UTF-8 or CSV, or a ``ValueError`` from ``parse`` raises one
    ``ValueError`` naming the file and line."""
    blob = Path(path).read_bytes()
    try:
        text = blob.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: line {blob.count(10, 0, exc.start) + 1}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    out = []
    try:
        if header is not None and (found := next(reader, None)) != list(header):
            raise ValueError(f"expected header {list(header)}, found {found}")
        for fields in reader:
            if not fields:
                continue
            if len(fields) != columns:
                raise ValueError(f"expected {columns} columns, found {len(fields)}")
            out.append(parse(fields))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: line {max(reader.line_num, 1)}: {exc}") from None
    return out


def write_json(path: str | Path, record: Any) -> None:
    """Replace ``path`` with ``record`` as JSON: one-space indent, keys sorted, final newline."""
    atomic_write(path, json.dumps(record, indent=1, sort_keys=True) + "\n")
