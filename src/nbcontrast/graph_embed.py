"""Shallow node embeddings trained with a margin ranking loss.

Each citation edge is a positive pair; corrupted pairs replace the
destination with uniformly sampled nodes. The per-pair hinge is
``max(0, m - score(edge) + score(corrupted))``, minimized by plain SGD.
Embeddings are held as float64 in memory; the snapshot file stores float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import CitationGraph
from .errors import ValidationError

MEASURES = ("dot", "cosine")


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

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.values.copy(), self.measure)


@dataclass
class GraphTrainConfig:
    """Hyperparameters of the margin-ranking embedding trainer."""

    epochs: int = 20
    margin: float = 0.15
    learning_rate: float = 0.1
    negatives_per_edge: int = 10
    dim: int = 128
    measure: str = "dot"
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1: {self.epochs}")
        if self.margin <= 0:
            raise ValidationError(f"margin must be > 0: {self.margin}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0: {self.learning_rate}")
        if self.negatives_per_edge < 1:
            raise ValidationError(
                f"negatives_per_edge must be >= 1: {self.negatives_per_edge}"
            )
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1: {self.dim}")
        if self.measure not in MEASURES:
            raise ValidationError(f"measure must be one of {MEASURES}: {self.measure!r}")


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
    query: int,
    cols: Sequence[int] | np.ndarray | None = None,
    measure: str | None = None,
) -> np.ndarray:
    """Float64 scores of row ``query`` against rows ``cols`` (all rows if None).

    ``measure`` defaults to the table's own. Dot returns inner products;
    cosine normalizes both rows and scores 0 where either is the zero
    vector. Every table score outside the training gradient comes from
    here. The BLAS product may round a pair's score differently in the
    last bit depending on which other rows share the call.
    """
    q = t.values[query]
    values = t.values if cols is None else t.values[np.asarray(cols, dtype=np.int64)]
    if (measure or t.measure) == "dot":
        return values @ q
    norms = np.linalg.norm(values, axis=1)
    qn = float(np.linalg.norm(q))
    out = np.zeros(values.shape[0], dtype=np.float64)
    if qn == 0.0:
        return out
    nonzero = norms > 0.0
    out[nonzero] = (values[nonzero] @ q) / (norms[nonzero] * qn)
    return out


def score_edge(t: EmbeddingTable, src: int, dst: int) -> float:
    """Score one (src, dst) pair under the table's measure (see :func:`scores`)."""
    n = t.rows
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"edge ({src}, {dst}) out of range for {n} nodes")
    return float(scores(t, src, [dst])[0])


def _score_grads(
    values: np.ndarray, src: int, dst: int, measure: str
) -> tuple[float, np.ndarray, np.ndarray]:
    """Score plus its gradients with respect to the two rows."""
    u = values[src]
    v = values[dst]
    if measure == "dot":
        return float(u @ v), v.copy(), u.copy()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        # subgradient 0 at the zero-vector singularity
        return 0.0, np.zeros_like(u), np.zeros_like(v)
    s = float(u @ v) / (nu * nv)
    grad_u = v / (nu * nv) - s * u / (nu * nu)
    grad_v = u / (nu * nv) - s * v / (nv * nv)
    return s, grad_u, grad_v


def hinge_loss_and_grads(
    values: np.ndarray,
    src: int,
    dst: int,
    neg_dst: int,
    margin: float,
    measure: str,
) -> tuple[float, dict[int, np.ndarray]]:
    """Hinge loss of one (edge, corrupted edge) pair and its row gradients.

    Returns ``(loss, grads)`` where ``grads`` maps row index to the partial
    derivative of the loss with respect to that row. Inactive hinges
    (including the exact boundary) yield an empty gradient.
    """
    s_pos, gu_pos, gv_pos = _score_grads(values, src, dst, measure)
    s_neg, gu_neg, gv_neg = _score_grads(values, src, neg_dst, measure)
    loss = margin - s_pos + s_neg
    if loss <= 0.0:
        return 0.0, {}
    grads: dict[int, np.ndarray] = {}

    def accumulate(row: int, g: np.ndarray) -> None:
        if row in grads:
            grads[row] = grads[row] + g
        else:
            grads[row] = g

    accumulate(src, -gu_pos)
    accumulate(dst, -gv_pos)
    accumulate(src, gu_neg)
    accumulate(neg_dst, gv_neg)
    return float(loss), grads


def train_epoch(
    t: EmbeddingTable,
    g: CitationGraph,
    cfg: GraphTrainConfig,
    epoch: int = 0,
) -> tuple[EmbeddingTable, float]:
    """Run one SGD pass over every edge in a seeded shuffled order.

    For each edge, ``negatives_per_edge`` corrupted destinations are drawn
    uniformly over all nodes; the mean hinge gradient over those pairs is
    applied as one SGD step. Returns the updated table and the mean
    per-pair loss. The RNG stream is derived from ``(cfg.seed, epoch)`` so
    consecutive epochs see fresh shuffles and negatives.
    """
    cfg.validate()
    if g.edge_count == 0:
        raise ValueError("cannot train on an empty graph")
    values = t.values.copy()
    n = t.rows
    rng = np.random.default_rng((cfg.seed, epoch))
    order = rng.permutation(g.edge_count)
    negatives = rng.integers(0, n, size=(g.edge_count, cfg.negatives_per_edge))

    total_loss = 0.0
    step_scale = cfg.learning_rate / cfg.negatives_per_edge
    for pos, edge_idx in enumerate(order):
        src, dst = (int(x) for x in g.edges[edge_idx])
        step: dict[int, np.ndarray] = {}
        for neg in negatives[pos]:
            loss, grads = hinge_loss_and_grads(
                values, src, dst, int(neg), cfg.margin, t.measure
            )
            total_loss += loss
            for row, grad in grads.items():
                if row in step:
                    step[row] = step[row] + grad
                else:
                    step[row] = grad
        for row, grad in step.items():
            values[row] -= step_scale * grad

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
    uniform over nodes excluding d (duplicates allowed), each from an RNG
    derived from ``(seed, edge position)``. The true destination's rank
    among the pooled candidates breaks score ties toward the smaller node
    index. AUC pools all positive scores against all corrupted scores.
    """
    holdout = np.asarray(holdout, dtype=np.int64).reshape(-1, 2)
    if holdout.shape[0] == 0:
        raise ValueError("holdout edge list is empty")
    if negatives_per_edge < 1:
        raise ValueError(f"negatives_per_edge must be >= 1: {negatives_per_edge}")

    n = t.rows
    bad = np.flatnonzero(((holdout < 0) | (holdout >= n)).any(axis=1))
    if bad.size:
        src, dst = holdout[bad[0]]
        raise ValueError(f"edge ({src}, {dst}) out of range for {n} nodes")
    ranks = np.empty(holdout.shape[0], dtype=np.int64)
    pos_scores = np.empty(holdout.shape[0], dtype=np.float64)
    neg_scores = np.empty((holdout.shape[0], negatives_per_edge), dtype=np.float64)
    for i, (src, dst) in enumerate(holdout):
        rng = np.random.default_rng((seed, i))
        negs = np.empty(negatives_per_edge, dtype=np.int64)
        filled = 0
        while filled < negatives_per_edge:
            draw = rng.integers(0, n, size=negatives_per_edge - filled)
            draw = draw[draw != dst]
            negs[filled:filled + draw.size] = draw
            filled += draw.size

        s = scores(t, src, np.concatenate(([dst], negs)))
        pos_scores[i], neg_scores[i] = s[0], s[1:]
        # candidates sorted by (score desc, index asc); rank of the true
        # destination = 1 + number of candidates strictly ahead of it
        ahead = (s[1:] > s[0]) | ((s[1:] == s[0]) & (negs < dst))
        ranks[i] = 1 + int(ahead.sum())

    mrr = float(np.mean(1.0 / ranks))
    hits1 = float(np.mean(ranks <= 1))
    hits10 = float(np.mean(ranks <= 10))
    auc = pairwise_auc(pos_scores, neg_scores)
    return LinkPredMetrics(mrr=mrr, hits_at_1=hits1, hits_at_10=hits10, auc=auc)
