"""Contrastive triple mining with controlled neighborhood sampling.

Positives come from a close rank band around the query, hard negatives
from a distant band, and the gap between the bands is a tunable margin
that keeps the two sample sets collision-free by construction. Easy
negatives come from (filtered or sorted) random draws over every table
row, i.e. every graph node. Every query's randomness is derived from the
global seed and its external ID, so mining is reproducible and
order-independent.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .ann import NeighborList, batch_neighbors, query_block, smallest_k
from .corpus import open_text
from .errors import DataError, ValidationError
from .graph_embed import EmbeddingTable, scores

POS_STRATEGIES = ("knn", "sim")
HARD_STRATEGIES = ("knn", "sim")
EASY_STRATEGIES = ("random", "filtered_random", "sorted_random")


@dataclass(frozen=True)
class SamplingConfig:
    """All knobs of the triple sampler.

    ``k_pos``/``k_hard`` set the outer rank of the positive and
    hard-negative bands, ``c_pos``/``c_hard``/``c_easy`` the sample counts,
    ``t_pos``/``t_neg`` the similarity thresholds of the ``sim`` strategy.
    When both bands are rank-based, ``k_hard - c_hard >= k_pos`` keeps them
    disjoint.
    """

    k_pos: int = 25
    k_hard: int = 4000
    c_pos: int = 5
    c_hard: int = 2
    c_easy: int = 3
    t_pos: float = 0.8
    t_neg: float = 0.2
    pos_strategy: str = "knn"
    hard_strategy: str = "knn"
    easy_strategy: str = "filtered_random"
    sorted_random_candidates: int = 100
    n_queries: int = 0  # seeded sample of query nodes; 0 = every node
    subsample_fraction: float = 1.0  # share of queries (or triples) kept
    subsample_by_query: bool = True  # draw queries before mining, not triples
    seed: int = 0

    def validate(self) -> None:
        if min(self.c_pos, self.c_hard, self.c_easy) < 0:
            raise ValidationError("sample counts must be >= 0")
        if not (math.isfinite(self.t_pos) and math.isfinite(self.t_neg)):
            raise ValidationError(
                f"t_pos and t_neg must be finite: {self.t_pos}, {self.t_neg}"
            )
        if self.pos_strategy not in POS_STRATEGIES:
            raise ValidationError(f"pos_strategy must be in {POS_STRATEGIES}")
        if self.hard_strategy not in HARD_STRATEGIES:
            raise ValidationError(f"hard_strategy must be in {HARD_STRATEGIES}")
        if self.easy_strategy not in EASY_STRATEGIES:
            raise ValidationError(f"easy_strategy must be in {EASY_STRATEGIES}")
        if min(self.k_pos, self.k_hard) < 1:
            # filtered_random scans max(k_pos, k_hard) deep whatever the bands
            raise ValidationError(
                f"k_pos and k_hard must be >= 1: k_pos={self.k_pos}, k_hard={self.k_hard}"
            )
        if self.c_pos < 1 or self.c_hard + self.c_easy < 1:
            raise ValidationError(  # no triple without a positive and a negative
                "c_pos and c_hard + c_easy must be >= 1: "
                f"c_pos={self.c_pos}, c_hard={self.c_hard}, c_easy={self.c_easy}"
            )
        if self.pos_strategy == "knn" and self.k_pos < self.c_pos:
            raise ValidationError(
                f"k_pos must be >= c_pos: k_pos={self.k_pos}, c_pos={self.c_pos}"
            )
        if self.hard_strategy == "knn" and self.k_hard < self.c_hard:
            raise ValidationError(
                f"k_hard must be >= c_hard: k_hard={self.k_hard}, c_hard={self.c_hard}"
            )
        if (
            self.pos_strategy == "knn"
            and self.hard_strategy == "knn"
            and self.c_hard > 0
            and self.k_hard - self.c_hard < self.k_pos
        ):
            raise ValidationError(
                "hard-negative band overlaps the positive band: "
                f"k_hard - c_hard = {self.k_hard - self.c_hard} < k_pos = {self.k_pos}"
            )
        if self.sorted_random_candidates < 1:
            raise ValidationError("sorted_random_candidates must be >= 1")
        if (
            self.easy_strategy == "sorted_random"
            and self.sorted_random_candidates < self.c_easy
        ):
            raise ValidationError(
                "sorted_random_candidates must be >= c_easy: "
                f"{self.sorted_random_candidates} < {self.c_easy}"
            )
        if self.n_queries < 0:
            raise ValidationError(f"n_queries must be >= 0: {self.n_queries}")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValidationError(
                f"subsample_fraction must be in (0, 1]: {self.subsample_fraction}"
            )

    def sampling_margin(self) -> int:
        """Ranks strictly between the positive and hard-negative bands."""
        return self.k_hard - self.c_hard - self.k_pos

    def easy_filter_depth(self) -> int:
        """Leading neighbors ``filtered_random`` excludes from easy negatives.

        Both outer ranks count whatever the band strategies are, so a
        ``sim``/``sim`` config still scans this deep to filter.
        """
        return max(self.k_pos, self.k_hard)

    def neighbor_depth(self) -> int:
        """How deep the shared neighbor list must reach."""
        depth = 0
        if self.pos_strategy == "knn":
            depth = max(depth, self.k_pos)
        if self.hard_strategy == "knn":
            depth = max(depth, self.k_hard)
        if self.easy_strategy == "filtered_random":
            depth = max(depth, self.easy_filter_depth())
        return depth


@dataclass(frozen=True)
class Triple:
    """One (query, positive, negative) training example with provenance."""

    query: str
    positive: str
    negative: str
    negative_kind: str  # "hard" or "easy"
    strategy: str       # sampler that produced the negative

    def __post_init__(self):
        if len({self.query, self.positive, self.negative}) != 3:
            raise ValidationError(
                f"triple ids must be distinct: {self.query!r}, "
                f"{self.positive!r}, {self.negative!r}"
            )


@dataclass(frozen=True)
class TripleSet:
    """Ordered triples plus the config snapshot and mining audit trail."""

    triples: tuple[Triple, ...]
    config_snapshot: SamplingConfig
    skipped: tuple[tuple[str, str], ...] = ()   # (query_id, reason)
    partial: tuple[str, ...] = ()               # queries with fewer samples

    def __len__(self) -> int:
        return len(self.triples)


class MiningFailure(Exception):
    """A sampler could not fill its quota for one query.

    Inside :func:`mine_triples` this skips the query; standalone sampler
    callers see it directly.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def range_by_rank(n: NeighborList, k: int, c: int) -> list[int]:
    """Nodes at 1-based neighbor ranks k-c+1 .. k.

    This is the band ``(k-c, k]``: the c neighbors descending from the
    k-th nearest. A list shorter than k is a :class:`MiningFailure`.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1: {c}")
    if k < c:
        raise ValueError(f"k must be >= c: k={k}, c={c}")
    if len(n) < k:
        raise MiningFailure(f"insufficient neighbors for k={k}")
    return n.ids[k - c:k].tolist()


def derive_seed(seed: int, *parts: str) -> int:
    """Stable per-query seed from the global seed and string labels."""
    digest = hashlib.sha256(
        ":".join([str(seed), *parts]).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def sample_by_similarity(
    ids: np.ndarray, scores: np.ndarray, c: int, t: float, mode: str
) -> list[int]:
    """Threshold sampler over aligned candidate ``ids`` and cosine ``scores``.

    ``above`` keeps candidates scoring strictly above ``t`` (positives),
    ``below`` those strictly below (negatives); either way the c highest
    scoring qualifiers win, ties toward the smaller index. May return
    fewer than c when qualifiers run out; zero qualifiers is a failure.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1: {c}")
    ids, scores = np.asarray(ids, dtype=np.int64), np.asarray(scores, dtype=np.float64)
    if mode == "above":
        qualified = scores > t
    elif mode == "below":
        qualified = scores < t
    else:
        raise ValueError(f"mode must be 'above' or 'below': {mode!r}")
    if not qualified.any():
        raise MiningFailure(f"no candidates {mode} threshold {t}")
    ids, scores = ids[qualified], scores[qualified]
    return ids[smallest_k(-scores, ids, c)].tolist()


def _rows_minus(n: int, exclude: Collection[int]) -> np.ndarray:
    """Rows ``0 .. n-1`` not in ``exclude``, ascending.

    An excluded row outside ``[0, n)`` is a ``ValueError``.
    """
    if isinstance(exclude, (set, frozenset)):
        exclude = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    exclude = np.asarray(exclude, dtype=np.int64)
    outside = exclude[(exclude < 0) | (exclude >= n)]
    if outside.size:
        raise ValueError(f"excluded row {outside[0]} not in [0, {n})")
    keep = np.ones(n, dtype=bool)
    keep[exclude] = False
    return np.flatnonzero(keep)


def sample_random(n: int, c: int, exclude: Collection[int], seed: int) -> list[int]:
    """Seeded uniform sample without replacement from rows ``0 .. n-1`` minus exclude."""
    candidates = _rows_minus(n, exclude)
    if len(candidates) < c:
        raise MiningFailure(
            f"random sampler needs {c} candidates, {len(candidates)} available"
        )
    rng = np.random.default_rng(seed)
    return candidates[rng.choice(len(candidates), size=c, replace=False)].tolist()


def sample_filtered_random(
    n: int,
    c: int,
    nl: NeighborList,
    k_filter: int,
    seed: int,
    extra_exclude: set[int] | frozenset[int] = frozenset(),
) -> list[int]:
    """Random rows excluding the query's first ``k_filter`` neighbors."""
    exclude = np.array([nl.query, *extra_exclude], dtype=np.int64)
    return sample_random(n, c, np.concatenate([nl.ids[:k_filter], exclude]), seed)


def sample_sorted_random(
    t: EmbeddingTable,
    query: int,
    n_candidates: int,
    c: int,
    seed: int,
    exclude: set[int] | frozenset[int] = frozenset(),
) -> list[int]:
    """Draw candidate rows uniformly, then keep the c furthest.

    Distance is the table's own score against the query, lowest first;
    ties break toward the smaller index.
    """
    if n_candidates < c:
        raise ValueError(f"n_candidates must be >= c: {n_candidates} < {c}")
    pool = _rows_minus(t.rows, np.array([query, *exclude], dtype=np.int64))
    if len(pool) < c:
        raise MiningFailure(
            f"sorted-random sampler needs {c} candidates, {len(pool)} available"
        )
    rng = np.random.default_rng(seed)
    take = min(n_candidates, len(pool))
    drawn = pool[rng.choice(len(pool), size=take, replace=False)]
    return drawn[smallest_k(scores(t, query, drawn), drawn, c)].tolist()


def _mine_one_query(
    query: int,
    t: EmbeddingTable,
    ids: Sequence[str],
    neighbors: NeighborList | None,
    cfg: SamplingConfig,
) -> tuple[list[Triple], bool]:
    """Sample one query row's triples; returns (triples, was_partial)."""
    if "sim" in (cfg.pos_strategy, cfg.hard_strategy):
        # every node but the query: the threshold samplers are defined on
        # cosine whatever the table's own measure
        others = np.delete(np.arange(t.rows), query)
        cosine = scores(t, query, measure="cosine")[others]

    if cfg.pos_strategy == "knn":
        assert neighbors is not None
        positives = range_by_rank(neighbors, cfg.k_pos, cfg.c_pos)
    else:
        positives = sample_by_similarity(others, cosine, cfg.c_pos, cfg.t_pos, "above")

    if cfg.c_hard == 0:
        hard: list[int] = []
    elif cfg.hard_strategy == "knn":
        assert neighbors is not None
        hard = range_by_rank(neighbors, cfg.k_hard, cfg.c_hard)
    else:
        hard = sample_by_similarity(others, cosine, cfg.c_hard, cfg.t_neg, "below")

    taken = {query, *positives, *hard}
    qid = ids[query]
    easy_seed = derive_seed(cfg.seed, "easy", qid)
    if cfg.c_easy == 0:
        easy: list[int] = []
    elif cfg.easy_strategy == "random":
        easy = sample_random(t.rows, cfg.c_easy, taken, easy_seed)
    elif cfg.easy_strategy == "filtered_random":
        assert neighbors is not None
        easy = sample_filtered_random(
            t.rows,
            cfg.c_easy,
            neighbors,
            k_filter=cfg.easy_filter_depth(),
            seed=easy_seed,
            extra_exclude=taken,
        )
    else:
        easy = sample_sorted_random(
            t,
            query,
            cfg.sorted_random_candidates,
            cfg.c_easy,
            seed=easy_seed,
            exclude=taken,
        )

    # validate() and the samplers keep both lists nonempty
    negatives = [(i, "hard", cfg.hard_strategy) for i in hard]
    negatives += [(i, "easy", cfg.easy_strategy) for i in easy]
    rng = np.random.default_rng(derive_seed(cfg.seed, "pair", qid))
    shuffled = [negatives[int(i)] for i in rng.permutation(len(negatives))]

    n_emit = min(len(positives), len(shuffled))
    partial = n_emit < cfg.c_pos or len(shuffled) < cfg.c_hard + cfg.c_easy
    return [
        Triple(
            query=qid,
            positive=ids[positives[j]],
            negative=ids[shuffled[j][0]],
            negative_kind=shuffled[j][1],
            strategy=shuffled[j][2],
        )
        for j in range(n_emit)
    ], partial


def mine_triples(
    queries: Sequence[int],
    t: EmbeddingTable,
    ids: Sequence[str],
    cfg: SamplingConfig,
) -> TripleSet:
    """Mine (query, positive, negative) triples for every query row.

    ``ids[i]`` is the external id that names table row ``i`` in the output.
    Queries are scanned a block at a time (``ann.query_block``) at the
    maximum depth any strategy needs, and each block is mined before the
    next is scanned; each band is a range selection in a query's neighbor
    list. Queries whose samplers cannot fill a band are skipped and
    recorded; queries with partially filled bands emit fewer triples and
    are flagged. The pipeline mines what :func:`select_queries` keeps.
    """
    cfg.validate()
    if len(ids) != t.rows:
        raise ValueError(f"{len(ids)} ids for a table of {t.rows} rows")
    for query in queries:
        if not 0 <= query < t.rows:
            raise ValueError(f"query row {query} not in a table of {t.rows} rows")

    depth = cfg.neighbor_depth()
    triples: list[Triple] = []
    skipped: list[tuple[str, str]] = []
    partials: list[str] = []
    per_block = query_block(t)
    for start in range(0, len(queries), per_block):
        block = queries[start:start + per_block]
        lists: Sequence[NeighborList | None] = [None] * len(block)
        if depth:
            lists = batch_neighbors(t, block, depth)
        for query, neighbors in zip(block, lists):
            try:
                mined, partial = _mine_one_query(query, t, ids, neighbors, cfg)
            except MiningFailure as skip:
                skipped.append((ids[query], skip.reason))
                continue
            triples.extend(mined)
            if partial:
                partials.append(ids[query])

    return TripleSet(
        triples=tuple(triples),
        config_snapshot=cfg,
        skipped=tuple(skipped),
        partial=tuple(partials),
    )


def _draw(n: int, k: int, seed: int) -> list[int]:
    """``k`` seeded picks from ``range(n)`` without replacement, ascending."""
    picks = np.random.default_rng(seed).choice(n, size=k, replace=False)
    return sorted(int(i) for i in picks)


def _draw_fraction(n: int, fraction: float, seed: int) -> list[int]:
    """The floor of ``fraction * n`` picks of :func:`_draw`."""
    return _draw(n, int(np.floor(fraction * n + 1e-9)), seed)


def select_queries(n: int, cfg: SamplingConfig) -> list[int]:
    """The query rows to mine out of rows ``0 .. n-1``, ascending.

    ``n_queries`` seeded picks, then, with ``subsample_by_query``, the
    floor of ``subsample_fraction`` times their count, drawn with the
    sampling seed before any scan: a selected query that mining skips
    counts and yields nothing.

    >>> select_queries(10, SamplingConfig(n_queries=6, subsample_fraction=0.5, seed=1))
    [3, 4, 7]
    """
    cfg.validate()
    queries = list(range(n))
    if 0 < cfg.n_queries < n:
        queries = _draw(n, cfg.n_queries, derive_seed(cfg.seed, "query-selection"))
    if cfg.subsample_by_query and cfg.subsample_fraction < 1.0:
        kept = _draw_fraction(len(queries), cfg.subsample_fraction, cfg.seed)
        if not kept:
            raise DataError(f"subsample_fraction = {cfg.subsample_fraction} keeps "
                            f"none of {len(queries)} selected queries")
        queries = [queries[i] for i in kept]
    return queries


def subsample_triples(ts: TripleSet, fraction: float, seed: int) -> TripleSet:
    """Keep a seeded uniform fraction of the triples, in their order.

    The kept count is the floor of ``fraction * len(ts)``. This is the
    ``subsample_by_query = false`` draw; a by-query subsample is drawn by
    :func:`select_queries` before mining.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1]: {fraction}")
    if fraction == 1.0:
        return ts
    kept = tuple(ts.triples[i] for i in _draw_fraction(len(ts), fraction, seed))
    return replace(ts, triples=kept)


TRIPLE_HEADER = ["query_id", "positive_id", "negative_id", "negative_kind", "strategy"]


def save_triples(ts: TripleSet, path: str | Path) -> None:
    """Write triples as a headered TSV."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(TRIPLE_HEADER)
        for t in ts.triples:
            writer.writerow([t.query, t.positive, t.negative,
                             t.negative_kind, t.strategy])


def load_triples(path: str | Path, cfg: SamplingConfig | None = None) -> TripleSet:
    """Read a triple TSV written by :func:`save_triples`."""
    path = Path(path)
    triples: list[Triple] = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header != TRIPLE_HEADER:
            raise DataError(f"{path}: bad triple header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise DataError(f"{path}: line {lineno}: expected 5 columns")
            try:
                triples.append(Triple(*row))
            except ValidationError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
    return TripleSet(triples=tuple(triples), config_snapshot=cfg or SamplingConfig())
