"""Exact exhaustive top-k similarity search over an embedding table.

No approximate index: a flat scan keeps neighbor ranks exactly
reproducible. Scores are compared as float64 and ties break toward the
smaller node index, so rank bands are stable across platforms.

Each query is one GEMV over the table (``graph_embed.scores``). As in a
FAISS flat index (Johnson et al. 2017, arXiv:1702.08734), :func:`smallest_k`
partitions to depth k and sorts only the survivors (every candidate at
least as good as the k-th), so it returns the full sort's first k, tie
order included; NaN ranks last. The threshold and sorted-random samplers
in ``mining`` share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientNeighborsError
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

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        """``(node, score)`` pairs in rank order."""
        return tuple(zip(self.ids.tolist(), self.scores.tolist()))

    def nodes(self) -> list[int]:
        return self.ids.tolist()


def smallest_k(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys, ties toward the smaller id, NaN last."""
    if k < len(key):
        kth = key[np.argpartition(key, k - 1)[k - 1]]
        if not np.isnan(kth):
            # every key tied with the k-th survives the cut
            survivors = np.flatnonzero(key <= kth)
            return survivors[np.lexsort((ids[survivors], key[survivors]))[:k]]
    return np.lexsort((ids, key))[:k]


def top_k(
    t: EmbeddingTable,
    query: int,
    k: int,
    exclude: set[int] | frozenset[int] = frozenset(),
) -> NeighborList:
    """Exhaustive top-k scan, excluding the query and any extra indices."""
    if k < 1:
        raise ValueError(f"k must be >= 1: {k}")
    if not 0 <= query < t.rows:
        raise ValueError(f"query {query} out of range for {t.rows} nodes")
    dropped = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    outside = dropped[(dropped < 0) | (dropped >= t.rows)]
    if outside.size:
        raise ValueError(f"exclude id {outside.min()} out of range for {t.rows} nodes")

    scored = scores(t, query)
    mask = np.ones(t.rows, dtype=bool)
    mask[query] = False
    mask[dropped] = False
    candidates = np.flatnonzero(mask)
    chosen = candidates[smallest_k(-scored[candidates], candidates, k)]
    ids = chosen.astype(np.int64, copy=False)
    found = scored[chosen]
    ids.flags.writeable = False
    found.flags.writeable = False
    return NeighborList(query=query, ids=ids, scores=found)


def range_by_rank(n: NeighborList, k: int, c: int) -> list[int]:
    """Nodes at 1-based neighbor ranks k-c+1 .. k.

    This is the band ``(k-c, k]``: the c neighbors descending from the
    k-th nearest.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1: {c}")
    if k < c:
        raise ValueError(f"k must be >= c: k={k}, c={c}")
    if len(n) < k:
        raise InsufficientNeighborsError(query=n.query, k=k, available=len(n))
    return n.ids[k - c:k].tolist()


def batch_neighbors(
    t: EmbeddingTable, queries: Sequence[int], k_max: int
) -> list[NeighborList]:
    """One top-k scan per query, positionally aligned with the input."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1: {k_max}")
    results = []
    for query in queries:
        try:
            results.append(top_k(t, query, k_max))
        except ValueError as exc:
            raise ValueError(f"query {query}: {exc}") from exc
    return results
