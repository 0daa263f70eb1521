"""Binary feature tables: magic "MCFV", u32 count, u32 dim, then row-major
float64 (little-endian), plus a CSV sidecar with header
``row,sample_id,frame_idx`` mapping rows 0..count-1 to (sample_id,
frame_idx), written by ``files.write_csv`` and read by ``files.read_csv``
(lines end in LF; CRLF reads alike).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..files import ByteReader, atomic_write, read_csv, write_csv

MAGIC = b"MCFV"
ROWS_HEADER = ["row", "sample_id", "frame_idx"]


def rows_sidecar(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".rows.csv")


def write_feature_table(path: str | Path, table: np.ndarray, rows: list[tuple[str, int]]) -> None:
    table = np.ascontiguousarray(table, dtype="<f8")
    if table.ndim != 2:
        raise ValueError("feature table must be 2-d")
    if len(rows) != table.shape[0]:
        raise ValueError("row sidecar length mismatch")
    atomic_write(path, [MAGIC + struct.pack("<II", *table.shape), table])
    write_csv(rows_sidecar(path), ((row, sid, fidx) for row, (sid, fidx) in enumerate(rows)), ROWS_HEADER)


def read_feature_table(path: str | Path) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """The table, a read-only array over the file's bytes, and its rows."""
    path = Path(path)
    reader = ByteReader(path.read_bytes())
    reader.magic(MAGIC, "feature-table")
    count, dim = reader.take("<II", "header")
    table = reader.array("<f8", count * dim, "table").reshape(count, dim)
    reader.end()
    rows: list[tuple[str, int]] = []

    def add(fields: list[str]) -> None:
        if int(fields[0]) != len(rows):
            raise ValueError(f"row {fields[0]}, expected {len(rows)}")
        rows.append((fields[1], int(fields[2])))

    sidecar = rows_sidecar(path)
    read_csv(sidecar, len(ROWS_HEADER), add, ROWS_HEADER)
    if len(rows) != count:
        raise ValueError(f"{sidecar}: row sidecar length mismatch: {len(rows)} rows, table has {count}")
    return table.astype(np.float64, copy=False), rows
