"""Synthetic desk-scale fixtures: a planted-partition citation graph and a
two-topic document corpus whose topics coincide with the graph blocks.

Everything is seeded, so the generated files are byte-identical across
runs and the pipeline can be exercised end to end with zero external data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CitationGraph, Document
from .errors import DataError, ValidationError
from .evaluation import LabeledSet, RankingQuery, RankingTask


# words per title and per abstract, and the size of each topic's vocabulary
TITLE_TOKENS = 6
ABSTRACT_TOKENS = 30
TOPIC_VOCAB_SIZE = 40


@dataclass
class FixtureConfig:
    nodes: int = 200
    blocks: int = 2
    p_in: float = 0.10
    p_out: float = 0.01
    ranking_queries: int = 20
    ranking_candidates: int = 30
    test_fraction: float = 0.2
    enabled: bool = False  # `all` starts with the fixture stage
    seed: int = 0

    def validate(self) -> None:
        if not self.nodes >= self.blocks >= 1:
            raise ValidationError(
                f"need nodes >= blocks >= 1: nodes={self.nodes}, blocks={self.blocks}"
            )
        if min(self.ranking_queries, self.ranking_candidates) < 1:
            # zero of either writes an empty ranking task, which eval rejects
            raise ValidationError("ranking_queries and ranking_candidates must be >= 1")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValidationError(
                f"test_fraction must be in [0, 1): {self.test_fraction}"
            )
        if not (0.0 <= self.p_in <= 1.0 and 0.0 <= self.p_out <= 1.0):
            raise ValidationError(
                f"p_in and p_out must be in [0, 1]: {self.p_in}, {self.p_out}"
            )


def _node_id(i: int) -> str:
    return f"n{i:05d}"


def planted_partition_graph(
    nodes: int, blocks: int, p_in: float, p_out: float, seed: int
) -> tuple[CitationGraph, list[int]]:
    """Undirected planted-partition graph as a symmetric directed edge set.

    Each unordered pair joins with probability p_in inside a block and
    p_out across blocks; every joined pair contributes both directions.
    Returns the graph and the per-node block labels.
    """
    if nodes < blocks or blocks < 1:
        raise ValueError(f"need nodes >= blocks >= 1: nodes={nodes}, blocks={blocks}")
    rng = np.random.default_rng(seed)
    block_of = [i * blocks // nodes for i in range(nodes)]
    block = np.asarray(block_of)
    # one draw per pair (i, j > i) in row order, the stream of a per-pair loop
    pairs = []
    for i in range(nodes):
        j = np.arange(i + 1, nodes)
        p = np.where(block[j] == block[i], p_in, p_out)
        hit = j[rng.random(nodes - i - 1) < p]
        pairs.append(np.stack([np.full_like(hit, i), hit], axis=1))
    forward = np.concatenate(pairs)
    graph = CitationGraph(
        ids=tuple(_node_id(i) for i in range(nodes)),
        edges=np.stack([forward, forward[:, ::-1]], axis=1).reshape(-1, 2),
        directed=False,
    )
    return graph, block_of


def two_topic_documents(
    block_of: list[int], cfg: FixtureConfig
) -> tuple[list[Document], dict[str, str]]:
    """One document per node, worded entirely from its block's vocabulary."""
    rng = np.random.default_rng((cfg.seed, 1))
    vocabs = {b: [f"t{b}w{i}" for i in range(TOPIC_VOCAB_SIZE)] for b in set(block_of)}
    docs: list[Document] = []
    labels: dict[str, str] = {}
    for i, block in enumerate(block_of):
        words = vocabs[block]
        title = " ".join(
            words[int(w)] for w in rng.integers(0, len(words), TITLE_TOKENS)
        )
        abstract = " ".join(
            words[int(w)] for w in rng.integers(0, len(words), ABSTRACT_TOKENS)
        )
        docs.append(Document(id=_node_id(i), title=title, abstract=abstract))
        labels[_node_id(i)] = f"topic{block}"
    return docs, labels


def ranking_task_from_labels(
    labels: dict[str, str], cfg: FixtureConfig
) -> RankingTask:
    """Queries with mixed-topic candidate pools; same topic is relevant."""
    rng = np.random.default_rng((cfg.seed, 2))
    ids = sorted(labels)
    queries = []
    picked = rng.choice(len(ids), size=min(cfg.ranking_queries, len(ids)),
                        replace=False)
    for qi in picked:
        query = ids[int(qi)]
        others = [pid for pid in ids if pid != query]
        take = min(cfg.ranking_candidates, len(others))
        cand = [others[int(i)] for i in
                rng.choice(len(others), size=take, replace=False)]
        relevant = frozenset(c for c in cand if labels[c] == labels[query])
        if not relevant:
            continue
        queries.append(RankingQuery(
            query=query, candidates=tuple(cand), relevant=relevant
        ))
    return RankingTask(queries=tuple(queries))


def labeled_set_from_labels(labels: dict[str, str], cfg: FixtureConfig) -> LabeledSet:
    """Seeded train/test split over the labeled corpus."""
    rng = np.random.default_rng((cfg.seed, 3))
    ids = sorted(labels)
    n_test = max(1, int(cfg.test_fraction * len(ids)))
    test_ids = {ids[int(i)] for i in rng.choice(len(ids), size=n_test, replace=False)}
    items = tuple(
        (pid, labels[pid], "test" if pid in test_ids else "train") for pid in ids
    )
    ls = LabeledSet(items=items)
    try:
        ls.validate()
    except DataError as exc:
        # the config chose this split, so the config is what is wrong
        raise ValidationError(
            f"[fixture] nodes = {cfg.nodes}, blocks = {cfg.blocks}, "
            f"test_fraction = {cfg.test_fraction}, seed = {cfg.seed}: {exc}"
        ) from None
    return ls


def write_edge_file(g: CitationGraph, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for s, d in g.edges:
            fh.write(f"{g.ids[int(s)]}\t{g.ids[int(d)]}\n")
