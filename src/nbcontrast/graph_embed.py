"""Shallow node embeddings trained with a margin ranking loss.

Each citation edge is a positive pair; corrupted pairs replace the
destination with uniformly sampled nodes. The per-pair hinge is
``max(0, m - score(edge) + score(corrupted))``, minimized by minibatch SGD
with one step per ``EDGE_BATCH`` edges. As in PyTorch-BigGraph, each step
draws one pool of ``negatives_per_edge`` nodes that every edge of the step
takes as its corrupted destinations, so the corrupted scores are one matrix
product. Embeddings are held as float64 in memory; the snapshot file stores
float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import CitationGraph
from .errors import ValidationError

MEASURES = ("dot", "cosine")

# edges per SGD step of :func:`train_epoch`
EDGE_BATCH = 64

# Float64 cells of one temporary block: the neighbour scan's score block and
# the multiply-adds of each product in it (``ann``), the encoder's token count
# matrices (``encoder``), label separation's differences (``pipeline``), and
# the values that snapshots, checkpoints and token rows write and read a block
# at a time (``snapshot.blocks``). Users read it at call time, so one setting
# reaches all four.
CELL_CAP = 1 << 18


@dataclass
class EmbeddingTable:
    """Dense row-per-node embedding matrix with a scoring measure."""

    values: np.ndarray
    measure: str = "dot"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2D matrix")
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}: {self.measure!r}")

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])


@dataclass
class GraphTrainConfig:
    """Hyperparameters of the margin-ranking embedding trainer."""

    epochs: int = 20
    margin: float = 0.15
    learning_rate: float = 0.1
    negatives_per_edge: int = 10
    dim: int = 128
    measure: str = "dot"
    holdout_fraction: float = 0.01  # share of edges held out for link prediction
    eval_negatives: int = 50  # corrupted destinations per held-out edge
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1: {self.epochs}")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValidationError(f"margin must be finite and > 0: {self.margin}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(
                f"learning_rate must be finite and > 0: {self.learning_rate}"
            )
        if self.negatives_per_edge < 1:
            raise ValidationError(
                f"negatives_per_edge must be >= 1: {self.negatives_per_edge}"
            )
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1: {self.dim}")
        if self.measure not in MEASURES:
            raise ValidationError(f"measure must be one of {MEASURES}: {self.measure!r}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValidationError(
                f"holdout_fraction must be in [0, 1): {self.holdout_fraction}"
            )
        if self.eval_negatives < 1:
            raise ValidationError(
                f"eval_negatives must be >= 1: {self.eval_negatives}"
            )


@dataclass(frozen=True)
class LinkPredMetrics:
    """Held-out edge ranking quality: MRR, Hits@1, Hits@10, pooled AUC."""

    mrr: float
    hits_at_1: float
    hits_at_10: float
    auc: float

    def as_dict(self) -> dict[str, float]:
        return {
            "mrr": self.mrr,
            "hits_at_1": self.hits_at_1,
            "hits_at_10": self.hits_at_10,
            "auc": self.auc,
        }


def init_embeddings(node_count: int, dim: int, seed: int) -> EmbeddingTable:
    """Gaussian-initialize a table: i.i.d. N(0, 1/sqrt(dim)) entries."""
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1: {node_count}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1: {dim}")
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(node_count, dim))
    return EmbeddingTable(values=values)


def scores(
    t: EmbeddingTable,
    query: int | np.ndarray,
    cols: Sequence[int] | np.ndarray | slice | None = None,
    measure: str | None = None,
) -> np.ndarray:
    """Float64 scores of row ``query`` against rows ``cols`` (all rows if None).

    An array of query rows gives one row of scores per query. ``measure``
    defaults to the table's own. Dot returns inner products; cosine
    normalizes both rows and scores 0 where either is the zero vector.
    Every table score outside graph training and link eval (which score
    :func:`_scaled` rows) comes from here. The
    BLAS product may round a pair's score differently in the last bit
    depending on which other rows share the call.
    """
    q = t.values[query]
    if cols is None:
        cols = slice(None)
    elif not isinstance(cols, slice):
        cols = np.asarray(cols, dtype=np.int64)
    values = t.values[cols]
    if (measure or t.measure) == "dot":
        return (values @ q.T).T
    # not _scaled rows: integer products over norms keep integer-table ties exact
    norms = np.linalg.norm(values, axis=1)
    qn = np.linalg.norm(q, axis=-1, keepdims=True)
    nonzero = norms > 0.0
    out = np.zeros(qn.shape[:-1] + norms.shape)
    with np.errstate(invalid="ignore"):  # 0/0 for a zero query, zeroed below
        out[..., nonzero] = (values[nonzero] @ q.T).T / (norms[nonzero] * qn)
    out[qn[..., 0] == 0.0] = 0.0
    return out


def _scaled(rows: np.ndarray, measure: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows as ``measure`` scores them, and the factor each was scaled by.

    Dot keeps every row (factor 1); cosine divides each row by its norm, and
    a zero row stays zero (factor 0), so it scores 0 with gradient 0. The
    factor keeps a trailing axis of length 1.
    """
    if measure == "dot":
        return rows, np.ones(rows.shape[:-1] + (1,))
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    factor = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    return rows * factor, factor


def train_epoch(
    t: EmbeddingTable,
    g: CitationGraph,
    cfg: GraphTrainConfig,
    epoch: int = 0,
) -> tuple[EmbeddingTable, float]:
    """Run one pass of minibatch SGD over every edge in a seeded shuffled order.

    Every ``EDGE_BATCH`` edges of the shuffled order (the last batch may be
    shorter) make one SGD step, and each step draws one pool of
    ``negatives_per_edge`` nodes uniformly over all nodes (duplicates
    allowed): every edge of the step is paired with every pool node as a
    corrupted destination. All of the step's pairs are scored against the
    table as it stood at the batch start, and the hinge gradients of the
    active pairs (loss > 0) are summed and applied times
    ``learning_rate / negatives_per_edge``. With ``EDGE_BATCH = 1`` this is
    per-edge SGD. Returns the updated table and the mean per-pair loss. The
    RNG stream is derived from ``(cfg.seed, epoch)``: it draws the shuffle,
    then every step's pool, so consecutive epochs see fresh shuffles and
    negatives.
    """
    cfg.validate()
    if g.edge_count == 0:
        raise ValueError("cannot train on an empty graph")
    values = t.values.copy()
    cells = values.reshape(-1)
    columns = np.arange(t.dim)
    rng = np.random.default_rng((cfg.seed, epoch))
    order = rng.permutation(g.edge_count)
    steps = range(0, g.edge_count, EDGE_BATCH)
    pools = rng.integers(0, t.rows, size=(len(steps), cfg.negatives_per_edge))

    total_loss = 0.0
    step = -cfg.learning_rate / cfg.negatives_per_edge
    for start, pool in zip(steps, pools):
        edges = g.edges[order[start:start + EDGE_BATCH]]
        b = edges.shape[0]
        rows = np.concatenate((edges[:, 0], edges[:, 1], pool))
        unit, factor = _scaled(values[rows], t.measure)
        u, v, p = unit[:b], unit[b:2 * b], unit[2 * b:]
        loss = cfg.margin - np.einsum("bd,bd->b", u, v)[:, None] + u @ p.T
        active = loss > 0.0
        total_loss += float(loss[active].sum())
        # gradients with respect to the scaled rows: each active pair adds
        # p - v to its src, -u to its dst and u to its pool node
        a = active.astype(np.float64)
        n_active = a.sum(axis=1)[:, None]
        grads = np.concatenate((a @ p - n_active * v, -n_active * u, a.T @ u))
        if t.measure == "cosine":  # back through row / |row|: drop the radial part
            grads -= np.einsum("rd,rd->r", grads, unit)[:, None] * unit
        np.add.at(cells, (rows[:, None] * t.dim + columns).reshape(-1),
                  (step * factor * grads).reshape(-1))

    mean_loss = total_loss / (g.edge_count * cfg.negatives_per_edge)
    return EmbeddingTable(values=values, measure=t.measure), float(mean_loss)


def train_graph_embeddings(
    g: CitationGraph, cfg: GraphTrainConfig
) -> tuple[EmbeddingTable, list[float]]:
    """Initialize and train embeddings for ``cfg.epochs`` epochs."""
    cfg.validate()
    table = init_embeddings(g.node_count, cfg.dim, cfg.seed)
    table.measure = cfg.measure
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        table, loss = train_epoch(table, g, cfg, epoch=epoch)
        losses.append(loss)
    return table, losses


def pairwise_auc(pos_scores: Sequence[float], neg_scores: Sequence[float]) -> float:
    """Fraction of (positive, corrupted) score pairs won by the positive.

    Every positive score is paired with every corrupted score; ties count
    as half a win.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("pairwise_auc needs at least one score on each side")
    # corrupted scores strictly below / equal to each positive, counted on
    # the sorted corrupted scores; NaN neither wins nor ties (numpy sorts
    # and searches NaN after +inf, so only NaN positives need dropping)
    ranked = np.sort(neg, axis=None)
    valid = pos[~np.isnan(pos)]
    below = np.searchsorted(ranked, valid, side="left")
    ties = np.searchsorted(ranked, valid, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (pos.size * neg.size))


def eval_link_prediction(
    t: EmbeddingTable,
    holdout: np.ndarray,
    negatives_per_edge: int,
    seed: int,
) -> LinkPredMetrics:
    """Rank each held-out destination against sampled corrupted ones.

    Per edge (s, d), ``negatives_per_edge`` destinations are drawn i.i.d.
    uniform over nodes excluding d (duplicates allowed): one RNG seeded with
    ``seed`` draws ``integers(0, n - 1)`` for each block of ``EDGE_BATCH``
    edges in order, and every draw ``>= d`` is shifted up by one. The true
    destination's rank among the pooled candidates breaks score ties toward
    the smaller node index. AUC pools all positive scores against all
    corrupted scores.
    """
    holdout = np.asarray(holdout, dtype=np.int64).reshape(-1, 2)
    if holdout.shape[0] == 0:
        raise ValueError("holdout edge list is empty")
    if negatives_per_edge < 1:
        raise ValueError(f"negatives_per_edge must be >= 1: {negatives_per_edge}")

    n = t.rows
    if n < 2:
        raise ValueError(f"link prediction needs at least 2 nodes, table has {n}")
    bad = np.flatnonzero(((holdout < 0) | (holdout >= n)).any(axis=1))
    if bad.size:
        src, dst = holdout[bad[0]]
        raise ValueError(f"edge ({src}, {dst}) out of range for {n} nodes")
    rng = np.random.default_rng(seed)
    ranks = np.empty(holdout.shape[0], dtype=np.int64)
    pos_scores = np.empty(holdout.shape[0], dtype=np.float64)
    neg_scores = np.empty((holdout.shape[0], negatives_per_edge), dtype=np.float64)
    for start in range(0, holdout.shape[0], EDGE_BATCH):
        src, dst = holdout[start:start + EDGE_BATCH].T
        block = slice(start, start + src.size)
        negs = rng.integers(0, n - 1, size=(src.size, negatives_per_edge))
        negs += negs >= dst[:, None]
        u, _ = _scaled(t.values[src], t.measure)
        c, _ = _scaled(t.values[np.column_stack((dst, negs))], t.measure)
        s = np.einsum("ed,ekd->ek", u, c)
        pos_scores[block], neg_scores[block] = s[:, 0], s[:, 1:]
        # candidates sorted by (score desc, index asc); rank of the true
        # destination = 1 + number of candidates strictly ahead of it
        pos = s[:, :1]
        ahead = (s[:, 1:] > pos) | ((s[:, 1:] == pos) & (negs < dst[:, None]))
        ranks[block] = 1 + ahead.sum(axis=1)

    mrr = float(np.mean(1.0 / ranks))
    hits1 = float(np.mean(ranks <= 1))
    hits10 = float(np.mean(ranks <= 10))
    auc = pairwise_auc(pos_scores, neg_scores)
    return LinkPredMetrics(mrr=mrr, hits_at_1=hits1, hits_at_10=hits10, auc=auc)
