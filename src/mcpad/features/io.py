"""Binary feature tables: magic "MCFV", u32 count, u32 dim, then row-major
float64 (little-endian), plus a CSV sidecar mapping rows to (sample_id,
frame_idx).
"""

from __future__ import annotations

import csv
import io
import struct
from pathlib import Path

import numpy as np

from ..files import ByteReader, atomic_write

MAGIC = b"MCFV"
ROWS_SUFFIX = ".rows.csv"


def rows_sidecar(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ROWS_SUFFIX)


def write_feature_table(path: str | Path, table: np.ndarray, rows: list[tuple[str, int]]) -> None:
    table = np.ascontiguousarray(table, dtype="<f8")
    if table.ndim != 2:
        raise ValueError("feature table must be 2-d")
    if len(rows) != table.shape[0]:
        raise ValueError("row sidecar length mismatch")
    atomic_write(path, [MAGIC + struct.pack("<II", *table.shape), table])

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "sample_id", "frame_idx"])
    for row, (sid, fidx) in enumerate(rows):
        writer.writerow([row, sid, fidx])
    atomic_write(rows_sidecar(path), buf.getvalue())


def read_feature_table(path: str | Path) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """The table, a read-only array over the file's bytes, and its rows."""
    path = Path(path)
    reader = ByteReader(path.read_bytes())
    reader.magic(MAGIC, "feature-table")
    count, dim = reader.take("<II", "header")
    table = reader.array("<f8", count * dim, "table").reshape(count, dim)
    reader.end()
    rows = []
    with open(rows_sidecar(path), newline="") as fh:
        lines = csv.reader(fh)
        next(lines, None)
        for number, line in enumerate(lines, 2):
            if not line:
                continue
            if len(line) != 3:
                raise ValueError(f"{rows_sidecar(path)}: line {number}: expected 3 columns")
            rows.append((line[1], int(line[2])))
    if len(rows) != count:
        raise ValueError("row sidecar length mismatch")
    return table.astype(np.float64, copy=False), rows
