"""Contrastive triple mining with controlled neighborhood sampling.

Positives come from a close rank band around the query, hard negatives
from a distant band, and the gap between the bands is a tunable margin
that keeps the two sample sets collision-free by construction. Easy
negatives come from (filtered or sorted) random corpus draws. Every
query's randomness is derived from the global seed and its external ID,
so mining is reproducible and order-independent.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .ann import NeighborList, batch_neighbors, query_block, range_by_rank, smallest_k
from .corpus import PaperId, open_text
from .errors import DataError, InsufficientNeighborsError, ValidationError
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

    def query_ids(self) -> list[str]:
        """Unique query ids in first-appearance order."""
        seen: dict[str, None] = {}
        for t in self.triples:
            seen.setdefault(t.query, None)
        return list(seen)


class MiningFailure(Exception):
    """A sampler could not fill its quota for one query.

    Inside :func:`mine_triples` this skips the query; standalone sampler
    callers see it directly.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


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


def _without(
    corpus: Sequence[int] | np.ndarray,
    exclude: set[int] | frozenset[int] | np.ndarray,
) -> np.ndarray:
    """Corpus ids not in ``exclude``, in corpus order with repeats kept."""
    corpus = np.asarray(corpus, dtype=np.int64)
    if not corpus.size:
        return corpus
    if isinstance(exclude, (set, frozenset)):
        exclude = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    exclude = np.asarray(exclude, dtype=np.int64)
    if corpus.min() < 0:
        raise ValueError(f"corpus id {corpus.min()} is negative")
    keep = np.ones(int(corpus.max()) + 1, dtype=bool)
    # ids outside the corpus's range exclude nothing
    keep[exclude[(exclude >= 0) & (exclude < len(keep))]] = False
    return np.compress(keep[corpus], corpus)


def sample_random(
    corpus: Sequence[int] | np.ndarray,
    c: int,
    exclude: set[int] | frozenset[int] | np.ndarray,
    seed: int,
) -> list[int]:
    """Seeded uniform sample without replacement from corpus minus exclude."""
    candidates = _without(corpus, exclude)
    if len(candidates) < c:
        raise MiningFailure(
            f"random sampler needs {c} candidates, {len(candidates)} available"
        )
    rng = np.random.default_rng(seed)
    return candidates[rng.choice(len(candidates), size=c, replace=False)].tolist()


def sample_filtered_random(
    corpus: Sequence[int] | np.ndarray,
    c: int,
    n: NeighborList,
    k_filter: int,
    seed: int,
    extra_exclude: set[int] | frozenset[int] = frozenset(),
) -> list[int]:
    """Random sample excluding the query's first ``k_filter`` neighbors."""
    exclude = np.array([n.query, *extra_exclude], dtype=np.int64)
    return sample_random(corpus, c, np.concatenate([n.ids[:k_filter], exclude]), seed)


def sample_sorted_random(
    t: EmbeddingTable,
    query: int,
    corpus: Sequence[int] | np.ndarray,
    n_candidates: int,
    c: int,
    direction: str,
    seed: int,
    exclude: set[int] | frozenset[int] = frozenset(),
) -> list[int]:
    """Draw candidates uniformly, then keep the c closest or furthest.

    Closeness is the table's own measure against the query; ties break
    toward the smaller index.
    """
    if direction not in ("closest", "furthest"):
        raise ValueError(f"direction must be 'closest' or 'furthest': {direction!r}")
    if n_candidates < c:
        raise ValueError(f"n_candidates must be >= c: {n_candidates} < {c}")
    pool = _without(corpus, np.array([query, *exclude], dtype=np.int64))
    if len(pool) < c:
        raise MiningFailure(
            f"sorted-random sampler needs {c} candidates, {len(pool)} available"
        )
    rng = np.random.default_rng(seed)
    take = min(n_candidates, len(pool))
    drawn = pool[rng.choice(len(pool), size=take, replace=False)]
    scored = scores(t, query, drawn)
    key = -scored if direction == "closest" else scored
    return drawn[smallest_k(key, drawn, c)].tolist()


def _mine_one_query(
    query: PaperId,
    t: EmbeddingTable,
    corpus_idx: np.ndarray,
    ext_of: Mapping[int, str],
    neighbors: NeighborList | None,
    cfg: SamplingConfig,
) -> tuple[list[Triple], bool]:
    """Sample one query's triples; returns (triples, was_partial)."""
    if "sim" in (cfg.pos_strategy, cfg.hard_strategy):
        # every node but the query: the threshold samplers are defined on
        # cosine whatever the table's own measure
        others = np.delete(np.arange(t.rows), query.index)
        cosine = scores(t, query.index, measure="cosine")[others]

    if cfg.c_pos == 0:
        positives: list[int] = []
    elif cfg.pos_strategy == "knn":
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

    taken = {query.index, *positives, *hard}
    easy_seed = derive_seed(cfg.seed, "easy", query.external_id)
    if cfg.c_easy == 0:
        easy: list[int] = []
    elif cfg.easy_strategy == "random":
        easy = sample_random(corpus_idx, cfg.c_easy, taken, easy_seed)
    elif cfg.easy_strategy == "filtered_random":
        assert neighbors is not None
        easy = sample_filtered_random(
            corpus_idx,
            cfg.c_easy,
            neighbors,
            k_filter=cfg.easy_filter_depth(),
            seed=easy_seed,
            extra_exclude=taken,
        )
    else:
        easy = sample_sorted_random(
            t,
            query.index,
            corpus_idx,
            cfg.sorted_random_candidates,
            cfg.c_easy,
            direction="furthest",
            seed=easy_seed,
            exclude=taken,
        )

    negatives = [(i, "hard", cfg.hard_strategy) for i in hard]
    negatives += [(i, "easy", cfg.easy_strategy) for i in easy]
    if not positives or not negatives:
        raise MiningFailure("no positives or no negatives sampled")

    rng = np.random.default_rng(derive_seed(cfg.seed, "pair", query.external_id))
    shuffled = [negatives[int(i)] for i in rng.permutation(len(negatives))]

    def ext(index: int) -> str:
        try:
            return ext_of[index]
        except KeyError:
            raise DataError(f"node index {index} has no external id") from None

    n_emit = min(len(positives), len(shuffled))
    partial = n_emit < cfg.c_pos or len(shuffled) < cfg.c_hard + cfg.c_easy
    return [
        Triple(
            query=query.external_id,
            positive=ext(positives[j]),
            negative=ext(shuffled[j][0]),
            negative_kind=shuffled[j][1],
            strategy=shuffled[j][2],
        )
        for j in range(n_emit)
    ], partial


def mine_triples(
    queries: Sequence[PaperId],
    t: EmbeddingTable,
    corpus: Sequence[PaperId],
    cfg: SamplingConfig,
) -> TripleSet:
    """Mine (query, positive, negative) triples for every query paper.

    Queries are scanned a block at a time (``ann.query_block``) at the
    maximum depth any strategy needs, and each block is mined before the
    next is scanned; each band is a range selection in a query's neighbor
    list. Queries whose samplers cannot fill a band are skipped and
    recorded; queries with partially filled bands emit fewer triples and
    are flagged. The pipeline mines what :func:`select_queries` keeps, so a
    by-query subsample is drawn before the scan, not applied here.
    """
    cfg.validate()
    ext_of = {p.index: p.external_id for p in corpus}
    for q in queries:
        ext_of.setdefault(q.index, q.external_id)

    corpus_idx = np.array([p.index for p in corpus], dtype=np.int64)
    depth = cfg.neighbor_depth()
    for query in queries:
        if not 0 <= query.index < t.rows:
            raise ValueError(
                f"query {query.external_id!r} index {query.index} not in table"
            )

    triples: list[Triple] = []
    skipped: list[tuple[str, str]] = []
    partials: list[str] = []
    per_block = query_block(t)
    for start in range(0, len(queries), per_block):
        block = queries[start:start + per_block]
        lists: Sequence[NeighborList | None] = [None] * len(block)
        if depth:
            lists = batch_neighbors(t, [q.index for q in block], depth)
        for query, neighbors in zip(block, lists):
            try:
                mined, partial = _mine_one_query(
                    query, t, corpus_idx, ext_of, neighbors, cfg
                )
            except MiningFailure as skip:
                skipped.append((query.external_id, skip.reason))
                continue
            except InsufficientNeighborsError as err:
                skipped.append(
                    (query.external_id, f"insufficient neighbors for k={err.k}")
                )
                continue
            triples.extend(mined)
            if partial:
                partials.append(query.external_id)

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


def select_queries(papers: Sequence[PaperId], cfg: SamplingConfig) -> list[PaperId]:
    """The queries to mine, in ``papers`` order.

    ``n_queries`` seeded picks, then, with ``subsample_by_query``, the draw
    :func:`subsample_triples` makes, over the selected papers before any
    scan: a selected query that mining skips counts and yields nothing.

    >>> papers = [PaperId(f"p{i}", i) for i in range(10)]
    >>> cfg = SamplingConfig(n_queries=6, subsample_fraction=0.5, seed=1)
    >>> [p.external_id for p in select_queries(papers, cfg)]
    ['p3', 'p4', 'p7']
    """
    cfg.validate()
    queries = list(papers)
    if 0 < cfg.n_queries < len(queries):
        seed = derive_seed(cfg.seed, "query-selection")
        queries = [queries[i] for i in _draw(len(queries), cfg.n_queries, seed)]
    if cfg.subsample_by_query and cfg.subsample_fraction < 1.0:
        kept = _draw_fraction(len(queries), cfg.subsample_fraction, cfg.seed)
        if not kept:
            raise DataError(f"subsample_fraction = {cfg.subsample_fraction} keeps "
                            f"none of {len(queries)} selected queries")
        queries = [queries[i] for i in kept]
    return queries


def subsample_triples(
    ts: TripleSet, fraction: float, by_query: bool, seed: int
) -> TripleSet:
    """Keep a seeded uniform fraction of triples, or of whole queries.

    The kept count is the floor of ``fraction * total``; original order is
    preserved.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1]: {fraction}")
    if fraction == 1.0:
        return ts
    if by_query:
        queries = ts.query_ids()
        chosen = {queries[i] for i in _draw_fraction(len(queries), fraction, seed)}
        kept = tuple(t for t in ts.triples if t.query in chosen)
    else:
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
