"""Ranking metrics, a linear classification probe, and leakage reporting.

Rankings order candidates by L2 distance to the query vector. MAP, nDCG
(binary relevance, log2 discount, untruncated) and P@1 follow their
textbook definitions; the probe is a multinomial logistic regression
trained by full-batch gradient descent from zero weights on frozen
vectors, so it needs no seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import read_jsonl, require_str, write_jsonl
from .errors import DataError, ValidationError
from .graph_embed import EmbeddingTable

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RankingQuery:
    query: str
    candidates: tuple[str, ...]
    relevant: frozenset[str]

    def __post_init__(self):
        if not self.candidates:
            raise DataError(f"query {self.query!r}: empty candidate list")
        seen: set[str] = set()
        for candidate in self.candidates:
            if candidate in seen:
                raise DataError(f"query {self.query!r}: candidate {candidate!r} "
                                "listed twice")
            seen.add(candidate)
        if not self.relevant <= seen:
            raise DataError(f"query {self.query!r}: relevant not within candidates")


@dataclass(frozen=True)
class RankingTask:
    queries: tuple[RankingQuery, ...]


@dataclass(frozen=True)
class LabeledSet:
    """(id, label, split) items for the classification probe."""

    items: tuple[tuple[str, str, str], ...]

    def validate(self) -> None:
        train_labels = {label for _, label, split in self.items if split == "train"}
        test = [item for item in self.items if item[2] == "test"]
        if not test:
            raise DataError("labeled set has no test items")
        for _, label, split in self.items:
            if split == "test" and label not in train_labels:
                raise DataError(f"label {label!r} appears only in the test split")

    def split(self, name: str) -> list[tuple[str, str]]:
        return [(pid, label) for pid, label, split in self.items if split == name]


@dataclass
class ProbeConfig:
    epochs: int = 300
    learning_rate: float = 0.5

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1: {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError(
                f"learning_rate must be finite and >= 0: {self.learning_rate}"
            )


def rank_by_l2(
    vectors: EmbeddingTable,
    task: RankingTask,
    id_to_row: Mapping[str, int],
) -> list[list[str]]:
    """Per query, candidates sorted by ascending L2 distance.

    Ties break toward the smaller row index.
    """
    ranked: list[list[str]] = []
    for q in task.queries:
        for pid in (q.query, *q.candidates):
            if pid not in id_to_row:
                raise DataError(f"id {pid!r} has no vector")
        rows = np.array([id_to_row[pid] for pid in q.candidates], dtype=np.intp)
        diff = vectors.values[rows] - vectors.values[id_to_row[q.query]]
        order = np.lexsort((rows, np.sqrt((diff ** 2).sum(axis=1))))
        ranked.append([q.candidates[i] for i in order])
    return ranked


def _relevance_rows(
    ranked: Sequence[Sequence[str]],
    relevant: Sequence[frozenset[str] | set[str]],
) -> list[list[int]]:
    return [
        [1 if pid in rel else 0 for pid in row]
        for row, rel in zip(ranked, relevant)
    ]


def mean_average_precision(
    ranked: Sequence[Sequence[str]],
    relevant: Sequence[frozenset[str] | set[str]],
) -> float:
    """Mean over queries of the average precision at each relevant rank.

    >>> round(mean_average_precision([["a", "b", "c"]], [{"a", "c"}]), 4)
    0.8333
    """
    aps: list[float] = []
    for row in _relevance_rows(ranked, relevant):
        hits = 0
        precisions = []
        for rank, rel in enumerate(row, start=1):
            if rel:
                hits += 1
                precisions.append(hits / rank)
        if not precisions:
            logger.warning("query with no relevant candidates excluded from MAP")
            continue
        aps.append(float(np.mean(precisions)))
    if not aps:
        raise ValueError("no query had relevant candidates")
    return float(np.mean(aps))


def ndcg(
    ranked: Sequence[Sequence[str]],
    relevant: Sequence[frozenset[str] | set[str]],
) -> float:
    """Binary-relevance nDCG with the log2(rank + 1) discount, untruncated.

    >>> round(ndcg([["a", "b", "c"]], [{"a", "c"}]), 4)
    0.9197
    """
    scores: list[float] = []
    for row in _relevance_rows(ranked, relevant):
        n_rel = sum(row)
        if n_rel == 0:
            logger.warning("query with no relevant candidates excluded from nDCG")
            continue
        discounts = 1.0 / np.log2(np.arange(2, len(row) + 2))
        dcg = float(np.dot(row, discounts))
        ideal = float(np.sum(discounts[:n_rel]))
        scores.append(dcg / ideal)
    if not scores:
        raise ValueError("no query had relevant candidates")
    return float(np.mean(scores))


def precision_at_1(
    ranked: Sequence[Sequence[str]],
    relevant: Sequence[frozenset[str] | set[str]],
) -> float:
    """Fraction of queries whose top-ranked candidate is relevant."""
    if not ranked or any(len(row) == 0 for row in ranked):
        raise ValueError("precision_at_1 needs nonempty rankings")
    hits = sum(1 for row, rel in zip(ranked, relevant) if row[0] in rel)
    return hits / len(ranked)


def macro_f1(
    y_true: Sequence[str], y_pred: Sequence[str], labels: Sequence[str]
) -> float:
    """Macro-averaged F1; classes with zero denominators score 0."""
    f1s = []
    for label in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == label and p == label)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != label and p == label)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return float(np.mean(f1s))


def linear_probe_f1(
    vectors: EmbeddingTable,
    data: LabeledSet,
    id_to_row: Mapping[str, int],
    probe_cfg: ProbeConfig | None = None,
) -> float:
    """Macro-F1 of a softmax regression probe on frozen vectors.

    Features are standardized with train-split statistics; the probe runs
    full-batch gradient descent for a fixed epoch budget.
    """
    cfg = probe_cfg or ProbeConfig()
    data.validate()
    train = data.split("train")
    test = data.split("test")
    labels = sorted({label for _, label in train})
    if len(labels) < 2:
        raise ValueError("probe needs at least 2 labels in the train split")
    label_idx = {label: i for i, label in enumerate(labels)}

    def features(items: list[tuple[str, str]]) -> np.ndarray:
        rows = []
        for pid, _ in items:
            if pid not in id_to_row:
                raise DataError(f"id {pid!r} has no vector")
            rows.append(vectors.values[id_to_row[pid]])
        return np.stack(rows)

    x_train = features(train)
    x_test = features(test)
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std[std == 0.0] = 1.0
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std

    y_train = np.array([label_idx[label] for _, label in train])
    n, d = x_train.shape
    k = len(labels)
    weights = np.zeros((d, k))
    bias = np.zeros(k)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y_train] = 1.0

    for _ in range(cfg.epochs):
        logits = x_train @ weights + bias
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        err = (probs - onehot) / n
        weights -= cfg.learning_rate * (x_train.T @ err)
        bias -= cfg.learning_rate * err.sum(axis=0)

    pred_idx = np.argmax(x_test @ weights + bias, axis=1)
    y_pred = [labels[i] for i in pred_idx]
    y_true = [label for _, label in test]
    return macro_f1(y_true, y_pred, labels)


@dataclass(frozen=True)
class OverlapReport:
    """Train/eval ID overlap counts and one-decimal percentages."""

    train_size: int
    per_split: dict[str, tuple[int, float]]
    combined: tuple[int, float]

    def as_dict(self) -> dict[str, float]:
        out: dict[str, float] = {"train_size": float(self.train_size)}
        for split, (count, pct) in sorted(self.per_split.items()):
            out[f"{split}.overlap"] = float(count)
            out[f"{split}.percent"] = pct
        out["combined.overlap"] = float(self.combined[0])
        out["combined.percent"] = self.combined[1]
        return out


def overlap_report(
    train_ids: set[str], eval_ids: Mapping[str, set[str]]
) -> OverlapReport:
    """Count train-corpus IDs leaking into each evaluation split."""
    def pct(count: int) -> float:
        if not train_ids:
            return 0.0
        return round(100.0 * count / len(train_ids), 1)

    per_split = {}
    for split, ids in eval_ids.items():
        count = len(train_ids & ids)
        per_split[split] = (count, pct(count))
    combined_ids = set().union(*eval_ids.values()) if eval_ids else set()
    combined_count = len(train_ids & combined_ids)
    return OverlapReport(
        train_size=len(train_ids),
        per_split=per_split,
        combined=(combined_count, pct(combined_count)),
    )


def load_ranking_task(path: str | Path) -> RankingTask:
    """Read a JSON-lines ranking task (query, candidates, relevant).

    A non-string id, an empty or repeated candidate, or a relevant id
    outside its candidates is a :class:`DataError` naming the line.
    """
    path = Path(path)
    queries: list[RankingQuery] = []
    for lineno, record in read_jsonl(path, ("query", "candidates", "relevant")):
        for key in ("candidates", "relevant"):
            if not isinstance(record[key], list):
                raise DataError(f"{path}: line {lineno}: {key!r} must be a list")
        try:
            queries.append(RankingQuery(
                query=require_str(record["query"], "query"),
                candidates=tuple(require_str(c, "candidate")
                                 for c in record["candidates"]),
                relevant=frozenset(require_str(r, "relevant id")
                                   for r in record["relevant"]),
            ))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    if not queries:
        raise DataError(f"{path}: empty ranking task")
    if not any(q.relevant for q in queries):
        raise DataError(f"{path}: no query has a relevant candidate")
    return RankingTask(queries=tuple(queries))


def save_ranking_task(task: RankingTask, path: str | Path) -> None:
    write_jsonl(path, (
        {"query": q.query, "candidates": list(q.candidates),
         "relevant": sorted(q.relevant)}
        for q in task.queries
    ))


def load_labeled_set(path: str | Path) -> LabeledSet:
    """Read a JSON-lines labeled set (id, label, split).

    An id, label or split that is not a string, a split other than
    ``train`` or ``test``, or an id in both is a :class:`DataError` naming
    the line; an id on two lines of one split names both lines.
    """
    path = Path(path)
    items = []
    first_of: dict[str, tuple[int, str]] = {}
    for lineno, record in read_jsonl(path, ("id", "label", "split")):
        try:
            pid, label, split = (require_str(record[key], key)
                                 for key in ("id", "label", "split"))
            if split not in ("train", "test"):
                raise DataError(f"split must be 'train' or 'test', got {split!r}")
            first, first_split = first_of.setdefault(pid, (lineno, split))
            if first_split != split:
                raise DataError(f"id {pid!r} is in both splits")
            if first != lineno:
                raise DataError(f"id {pid!r} already on line {first}")
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        items.append((pid, label, split))
    if not items:
        raise DataError(f"{path}: empty labeled set")
    ls = LabeledSet(items=tuple(items))
    try:
        ls.validate()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if len({label for _, label in ls.split("train")}) < 2:
        raise DataError(f"{path}: the train split needs at least 2 labels")
    return ls


def save_labeled_set(ls: LabeledSet, path: str | Path) -> None:
    write_jsonl(path, (
        {"id": pid, "label": label, "split": split} for pid, label, split in ls.items
    ))
