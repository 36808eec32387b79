"""The one binary layout of every array artifact: graph embeddings and
document vectors (``.nbe``), the encoder checkpoint and the token rows.

Layout: magic ``NBA1``, a little-endian u64 header length, an ASCII JSON
header ``{"arrays": [[name, dtype, shape], ...], "meta": {...}}``, then
each array's raw values in header order, row-major in its little-endian
stored dtype. Both ways the values move a block of at most
``graph_embed.CELL_CAP`` cells at a time, so an array is never held twice.

Embedding snapshots store their float64 tables as float32 and read them
back promoted to float64, so score comparisons stay in 64-bit; the measure
is the snapshot's meta.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import graph_embed
from .errors import DataError
from .graph_embed import EmbeddingTable

MAGIC = b"NBA1"
# the magic and the u64 header length
_LEAD = len(MAGIC) + 8


def blocks(values: np.ndarray, dtype: str) -> Iterator[np.ndarray]:
    """``values`` in row-major order as ``dtype``, a block of at most
    ``graph_embed.CELL_CAP`` cells at a time (views where no cast is needed)."""
    flat = values.reshape(-1)
    cap = graph_embed.CELL_CAP
    for start in range(0, flat.size, cap):
        yield flat[start:start + cap].astype(dtype, copy=False)


def write_arrays(
    path: str | Path, arrays: Mapping[str, tuple[np.ndarray, str]], meta: dict
) -> None:
    """Write ``{name: (values, stored dtype)}`` and ``meta`` (any JSON
    object) in the layout above."""
    header = json.dumps({
        "arrays": [[name, dtype, list(values.shape)]
                   for name, (values, dtype) in arrays.items()],
        "meta": meta,
    }, separators=(",", ":")).encode("ascii")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC + len(header).to_bytes(8, "little") + header)
        for values, dtype in arrays.values():
            fh.writelines(blocks(values, dtype))


def read_arrays(
    path: str | Path, expect: Mapping[str, tuple[str, type]]
) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and meta of a file written by :func:`write_arrays`, which
    must hold exactly the arrays ``{name: (stored dtype, memory dtype)}``
    in that order; each is read into an array of its memory dtype.

    A wrong magic, a header that runs past the end of the file or is not
    such a JSON object, other names or dtypes, a shape that is not a list
    of non-negative ints, and arrays that do not fill the rest of the file
    exactly are each a :class:`DataError` naming the file, raised before
    any array is allocated."""
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(_LEAD)
        if lead[:len(MAGIC)] != MAGIC[:len(lead)]:
            raise DataError(f"{path}: not an array file (magic {lead[:len(MAGIC)]!r})")
        length = int.from_bytes(lead[len(MAGIC):], "little")
        if len(lead) < _LEAD or length > size - _LEAD:
            raise DataError(f"{path}: truncated to {size} bytes, short of its header")
        try:
            header = json.loads(fh.read(length).decode("ascii"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise DataError(f"{path}: bad header: {exc}") from None
        if not (isinstance(header, dict) and header.keys() == {"arrays", "meta"}
                and isinstance(header["arrays"], list) and isinstance(header["meta"], dict)
                and all(isinstance(a, list) and len(a) == 3 for a in header["arrays"])):
            raise DataError(f"{path}: bad header: not an object of arrays and meta")
        held = [[name, dtype] for name, dtype, _ in header["arrays"]]
        want = [[name, dtype] for name, (dtype, _) in expect.items()]
        if held != want:
            raise DataError(f"{path}: holds arrays {held}, expected {want}")
        shapes = [shape for *_, shape in header["arrays"]]
        if not all(isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
                   for shape in shapes):
            raise DataError(f"{path}: bad header: shapes must be lists of non-negative ints")
        itemsizes = [np.dtype(dtype).itemsize for dtype, _ in expect.values()]
        need = sum(math.prod(shape) * itemsize for shape, itemsize in zip(shapes, itemsizes))
        have = size - _LEAD - length
        if need > have:
            raise DataError(f"{path}: arrays of {need} bytes, more than the file holds ({have})")
        if need < have:
            raise DataError(f"{path}: {have - need} trailing bytes after the arrays")
        arrays = {}
        for (name, (stored, dtype)), shape, itemsize in zip(expect.items(), shapes, itemsizes):
            out = np.empty(math.prod(shape), dtype=dtype)
            for block in blocks(out, out.dtype):
                block[:] = np.frombuffer(fh.read(block.size * itemsize), stored)
            arrays[name] = out.reshape(shape)
    return arrays, header["meta"]


def write_snapshot(t: EmbeddingTable, path: str | Path) -> None:
    """Write a table as float32 values, its measure as the meta."""
    write_arrays(path, {"values": (t.values, "<f4")}, {"measure": t.measure})


def read_snapshot(path: str | Path) -> EmbeddingTable:
    """Read a snapshot written by :func:`write_snapshot`, promoting values
    to float64."""
    arrays, meta = read_arrays(path, {"values": ("<f4", np.float64)})
    try:
        return EmbeddingTable(values=arrays["values"], measure=meta.get("measure"))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
