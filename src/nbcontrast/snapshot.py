"""Binary embedding snapshot format shared by all pipeline stages.

Layout (little-endian): magic ``NBE1``, u32 node_count, u32 dim,
u8 measure code (0 = dot, 1 = cosine), then row-major float32 values.
In-memory graph tables are float64; writing narrows to float32, reading
promotes back so score comparisons stay in 64-bit. The encoder checkpoint
stores its float32 weights with the same helpers and reads them back as
float32. Both move the values a block of at most ``graph_embed.CELL_CAP``
cells at a time, so a table is never held twice.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import graph_embed
from .errors import DataError
from .graph_embed import EmbeddingTable

MAGIC = b"NBE1"
_MEASURE_CODES = {"dot": 0, "cosine": 1}
_CODE_MEASURES = {v: k for k, v in _MEASURE_CODES.items()}


def blocks(values: np.ndarray, dtype: str) -> Iterator[np.ndarray]:
    """``values`` in row-major order as ``dtype``, a block of at most
    ``graph_embed.CELL_CAP`` cells at a time (views where no cast is needed)."""
    flat = values.reshape(-1)
    cap = graph_embed.CELL_CAP
    for start in range(0, flat.size, cap):
        yield flat[start:start + cap].astype(dtype, copy=False)


def read_f4(fh: BinaryIO, shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """Row-major ``<f4`` values of ``shape`` from ``fh`` into a ``dtype``
    table (float32 as stored, float64 promoted), filled a block at a time.
    Values that run past the end of the file are a :class:`DataError`,
    raised before the table is allocated."""
    count = math.prod(shape)
    if count * 4 > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{fh.name}: truncated: {count} floats run past the end")
    out = np.empty(count, dtype=dtype)
    for block in blocks(out, out.dtype):
        block[:] = np.frombuffer(fh.read(block.size * 4), dtype="<f4")
    return out.reshape(shape)


def write_snapshot(t: EmbeddingTable, path: str | Path) -> None:
    """Write a table to the NBE1 binary format."""
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIB", t.rows, t.dim, _MEASURE_CODES[t.measure]))
        fh.writelines(blocks(t.values, "<f4"))


def read_snapshot(path: str | Path) -> EmbeddingTable:
    """Read an NBE1 snapshot, promoting values to float64."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(9)
        if len(header) != 9:
            raise DataError(f"{path}: truncated header")
        rows, dim, code = struct.unpack("<IIB", header)
        if code not in _CODE_MEASURES:
            raise DataError(f"{path}: unknown measure code {code}")
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != rows * dim * 4:
            raise DataError(
                f"{path}: payload is {payload} bytes, expected {rows * dim * 4}"
            )
        values = read_f4(fh, (rows, dim), np.float64)
    return EmbeddingTable(values=values, measure=_CODE_MEASURES[code])
