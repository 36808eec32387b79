"""Exact exhaustive top-k similarity search over an embedding table.

No approximate index: a flat scan keeps neighbor ranks exactly
reproducible. Scores are compared as float64 and ties break toward the
smaller node index, so rank bands are stable across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientNeighborsError
from .graph_embed import EmbeddingTable, scores


@dataclass(frozen=True)
class NeighborList:
    """Neighbors of one query, strictly ordered by (score desc, node asc).

    The query itself is never present; ``entries[i]`` is the (i+1)-th
    nearest neighbor.
    """

    query: int
    entries: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def nodes(self) -> list[int]:
        return [node for node, _ in self.entries]


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

    scored = scores(t, query)
    mask = np.ones(t.rows, dtype=bool)
    mask[query] = False
    for idx in exclude:
        mask[idx] = False
    candidates = np.flatnonzero(mask)
    # primary: score descending; secondary: node index ascending
    order = np.lexsort((candidates, -scored[candidates]))
    chosen = candidates[order[:k]]
    entries = tuple((int(i), float(scored[i])) for i in chosen)
    return NeighborList(query=query, entries=entries)


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
    return [node for node, _ in n.entries[k - c:k]]


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
