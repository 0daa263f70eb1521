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

from ..files import atomic_write

MAGIC = b"MCFV"
ROWS_SUFFIX = ".rows.csv"


def rows_sidecar(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ROWS_SUFFIX)


def write_feature_table(path: str | Path, table: np.ndarray, rows: list[tuple[str, int]]) -> None:
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("feature table must be 2-d")
    if len(rows) != table.shape[0]:
        raise ValueError("row sidecar length mismatch")
    header = MAGIC + struct.pack("<II", table.shape[0], table.shape[1])
    atomic_write(path, header + table.astype("<f8").tobytes(order="C"))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "sample_id", "frame_idx"])
    for row, (sid, fidx) in enumerate(rows):
        writer.writerow([row, sid, fidx])
    atomic_write(rows_sidecar(path), buf.getvalue())


def read_feature_table(path: str | Path) -> tuple[np.ndarray, list[tuple[str, int]]]:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise ValueError(f"bad feature-table magic {blob[:4]!r}")
    count, dim = struct.unpack_from("<II", blob, 4)
    expect = 12 + count * dim * 8
    if len(blob) != expect:
        raise ValueError("feature table size mismatch")
    table = np.frombuffer(blob, dtype="<f8", count=count * dim, offset=12).reshape(count, dim)
    rows = []
    with open(rows_sidecar(path), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line in reader:
            if line:
                rows.append((line[1], int(line[2])))
    if len(rows) != count:
        raise ValueError("row sidecar length mismatch")
    return table.astype(np.float64), rows
