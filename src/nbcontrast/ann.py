"""Exact exhaustive nearest-neighbour search over an embedding table.

No approximate index: a flat scan keeps neighbour ranks exactly
reproducible. A query's list holds every other row, or the ``k_max`` best
of them, ordered by score descending with ties broken toward the smaller
node index and NaN last; the query itself is never in it. Ranks are exact
with respect to the scores of the ``graph_embed.scores`` call that made
them: BLAS may round a score in the last bit differently when other
queries share the call, but no rank depends on anything else.

:func:`batch_neighbors` scans a block of queries at a time:
``graph_embed.CELL_CAP`` bounds both the block's score cells and the
multiply-adds of each ``graph_embed.scores`` product. That bounds memory,
and product size for direct library callers; the pipeline's stages fix the
BLAS thread count themselves. As in a FAISS flat index (Johnson et al.
2017, arXiv:1702.08734), :func:`smallest_k` then partitions each row to
depth k and sorts only the survivors (every candidate at least as good as
the k-th), so it returns the full sort's first k, tie order included. The
threshold and sorted-random samplers in ``mining`` share it; ``mining``
also reads the rank bands out of the lists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import graph_embed
from .graph_embed import EmbeddingTable, scores


@dataclass(frozen=True, eq=False)
class NeighborList:
    """Neighbors of one query, strictly ordered by (score desc, node asc).

    ``ids`` (int64) and ``scores`` (float64) are aligned arrays; the query
    itself is never present, and ``ids[i]`` is the (i+1)-th nearest
    neighbor.
    """

    query: int
    ids: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def smallest_k(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys, ties toward the smaller id, NaN last.

    Partitions at the k-th key and sorts the survivors once; only when two
    of them hold equal keys (-0.0 equals 0.0) does a lexsort by (key, id)
    order them.

    >>> key = np.array([2.0, 1.0, 0.0, 1.0, -0.0])
    >>> smallest_k(key, np.array([0, 4, 3, 1, 2]), 3)
    array([4, 2, 3])
    """
    if k < len(key):
        kth = key[np.argpartition(key, k - 1)[k - 1]]
        if not np.isnan(kth):
            # every key tied with the k-th survives the cut
            survivors = np.flatnonzero(key <= kth)
            kept = key[survivors]
            order = np.argsort(kept)
            ranked = kept[order]
            if (ranked[1:] == ranked[:-1]).any():
                order = np.lexsort((ids[survivors], kept))
            return survivors[order[:k]]
    return np.lexsort((ids, key))[:k]


def query_block(t: EmbeddingTable) -> int:
    """Queries whose scores against every row fit in ``graph_embed.CELL_CAP``,
    at least one."""
    return max(1, graph_embed.CELL_CAP // max(t.rows, 1))


def batch_neighbors(
    t: EmbeddingTable, queries: Sequence[int], k_max: int
) -> list[NeighborList]:
    """Each query's ``k_max`` nearest neighbours, aligned with the input.

    A list holds ``min(k_max, rows - 1)`` neighbours ordered by score
    descending, ties toward the smaller node index, NaN last, and never
    the query. Queries are scored ``query_block(t)`` at a time, in
    products of at most ``graph_embed.CELL_CAP`` multiply-adds; ranks are
    exact for the scores of the block's own call, which may differ in the
    last bit from a one-query call. The query's own key is set to +inf, so each row
    takes ``min(k_max + 1, rows)`` smallest and drops the query.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1: {k_max}")
    # operator.index refuses a float id that a cast would truncate
    queries = np.fromiter(map(operator.index, queries), dtype=np.int64)
    outside = queries[(queries < 0) | (queries >= t.rows)]
    if outside.size:
        raise ValueError(f"query {outside[0]} out of range for {t.rows} nodes")
    positions = np.arange(t.rows)
    take = min(k_max + 1, t.rows)
    results = []
    per_block = query_block(t)
    for start in range(0, len(queries), per_block):
        block = queries[start:start + per_block]
        key = np.empty((len(block), t.rows))
        step = max(1, graph_embed.CELL_CAP // (len(block) * max(t.dim, 1)))
        for lo in range(0, t.rows, step):
            key[:, lo:lo + step] = scores(t, block, slice(lo, lo + step))
        np.negative(key, out=key)
        key[np.arange(len(block)), block] = np.inf
        for row, query in enumerate(block.tolist()):
            chosen = smallest_k(key[row], positions, take)
            ids = chosen[chosen != query][:k_max]
            found = -key[row, ids]  # negating twice restores every bit
            ids.flags.writeable = False
            found.flags.writeable = False
            results.append(NeighborList(query=query, ids=ids, scores=found))
    return results
