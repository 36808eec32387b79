"""Seeded input generator for the benchmark's workloads.

Each workload is a planted-partition citation graph with one document per
node. Documents draw most tokens from a shared background vocabulary and a
minority from their block's topic vocabulary, so the ranking and probe
metrics depend on what the encoder learns and can move. The generator writes only the files
the pipeline reads (edges, documents, ranking task, labelled set and an INI
config); it never calls into ``nbcontrast``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    nodes: int
    blocks: int
    p_in: float
    p_out: float
    background_vocab: int
    topic_vocab: int
    topic_share: float
    abstract_tokens: int
    ranking_queries: int
    labeled: int
    test_share: float = 0.2
    config: dict[str, dict[str, object]] = field(default_factory=dict)


TITLE_TOKENS = 6
RANKING_CANDIDATES = 30


# Settings shared by every workload unless a workload overrides them; they
# are the bundled config's values (dim 32, hinge margin 0.15, 5% holdout
# with 50 corrupted destinations per held-out edge).
BASE_CONFIG: dict[str, dict[str, object]] = {
    "graph": {
        "dim": 32, "epochs": 20, "margin": 0.15, "learning_rate": 0.1,
        "negatives_per_edge": 10, "measure": "dot",
        "holdout_fraction": 0.05, "eval_negatives": 50,
    },
    "sampling": {
        "k_pos": 10, "k_hard": 120, "c_pos": 5, "c_hard": 2, "c_easy": 3,
        "pos_strategy": "knn", "hard_strategy": "knn",
        "easy_strategy": "filtered_random", "n_queries": 0,
    },
    # The encoder and probe seeds are fixed, so the quality metrics move with
    # the generated data rather than with a lucky initialization (on
    # encoder-vocab this cut probe_f1's spread across seeds about fourfold).
    "encoder": {
        "hidden_dim": 64, "out_dim": 32, "epochs": 2, "learning_rate": 0.1,
        "batch_size": 8, "effective_batch": 32, "slack": 1.0, "seed": 0,
    },
    "probe": {"epochs": 300, "learning_rate": 0.5, "seed": 0},
}


# Why each workload exists, and which layer it loads, is recorded in
# BENCHMARK.json next to its name.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="citation-train", default_seed=1,
        nodes=1000, blocks=2, p_in=0.02, p_out=0.002,
        background_vocab=2000, topic_vocab=200, topic_share=0.1,
        abstract_tokens=30, ranking_queries=200, labeled=500, test_share=0.5,
        config={
            "graph": {"epochs": 5, "holdout_fraction": 0.15},
            "sampling": {"n_queries": 200},
        },
    ),
    Workload(
        name="corpus-mine", default_seed=2,
        nodes=20000, blocks=4, p_in=0.00035, p_out=0.00002,
        background_vocab=200, topic_vocab=20, topic_share=0.4,
        abstract_tokens=30, ranking_queries=400, labeled=400, test_share=0.5,
        config={
            "graph": {"epochs": 1, "negatives_per_edge": 1},
            "sampling": {"k_pos": 25, "k_hard": 4000, "n_queries": 400,
                         "subsample_fraction": 0.2},
            # The ranking and probe metrics then measure the encoder's
            # forward pass at its seeded init, which at 128/64 dims separates
            # the topics steadily. Encoder training quality is guarded on
            # encoder-vocab.
            "encoder": {"epochs": 1, "bias_only": "true", "hidden_dim": 128,
                        "out_dim": 64},
        },
    ),
    Workload(
        name="encoder-vocab", default_seed=3,
        nodes=2000, blocks=2, p_in=0.01, p_out=0.001,
        background_vocab=20000, topic_vocab=15000, topic_share=0.1,
        abstract_tokens=150, ranking_queries=200, labeled=1500,
        config={
            "graph": {"epochs": 1, "negatives_per_edge": 5, "holdout_fraction": 0.15},
            "sampling": {"n_queries": 100},
            "encoder": {"epochs": 1},
        },
    ),
)}


def node_id(i: int) -> str:
    return f"n{i:05d}"


def planted_partition_pairs(
    rng: np.random.Generator, nodes: int, blocks: int, p_in: float, p_out: float
) -> tuple[np.ndarray, np.ndarray]:
    """Unordered pairs (i < j) of a planted-partition graph, drawn row by row.

    Blocks are contiguous index ranges, so row i draws one uniform vector
    for j > i and compares its in-block prefix to ``p_in`` and the rest to
    ``p_out``. Returns the pairs and each node's block.
    """
    block_of = np.arange(nodes) * blocks // nodes
    block_end = np.searchsorted(block_of, block_of, side="right")
    src: list[np.ndarray] = []
    dst: list[np.ndarray] = []
    for i in range(nodes - 1):
        draw = rng.random(nodes - i - 1)
        inside = block_end[i] - i - 1
        hit = draw < p_out
        hit[:inside] = draw[:inside] < p_in
        cols = np.flatnonzero(hit) + i + 1
        src.append(np.full(cols.size, i))
        dst.append(cols)
    return np.column_stack([np.concatenate(src), np.concatenate(dst)]), block_of


def _zipf_cdf(size: int) -> np.ndarray:
    """Cumulative word probabilities proportional to 1 / rank."""
    cdf = np.cumsum(1.0 / np.arange(1, size + 1))
    return cdf / cdf[-1]


def _documents(
    rng: np.random.Generator, w: Workload, block_of: np.ndarray
) -> list[str]:
    """One JSON line per node; tokens are background or block-topic words."""
    n_tokens = TITLE_TOKENS + w.abstract_tokens
    shape = (w.nodes, n_tokens)
    topical = rng.random(shape) < w.topic_share
    background = np.searchsorted(_zipf_cdf(w.background_vocab), rng.random(shape))
    topic = np.searchsorted(_zipf_cdf(w.topic_vocab), rng.random(shape))
    background_words = np.array([f"b{k}" for k in range(w.background_vocab)], dtype=object)
    topic_words = np.array(
        [[f"t{b}w{k}" for k in range(w.topic_vocab)] for b in range(w.blocks)],
        dtype=object,
    )
    words = np.where(
        topical, topic_words[block_of[:, None], topic], background_words[background]
    ).tolist()
    lines = []
    for i, row in enumerate(words):
        lines.append(json.dumps({
            "abstract": " ".join(row[TITLE_TOKENS:]),
            "id": node_id(i),
            "title": " ".join(row[:TITLE_TOKENS]),
        }, sort_keys=True))
    return lines


def _ranking_task(
    rng: np.random.Generator, w: Workload, block_of: np.ndarray
) -> list[str]:
    """Queries whose candidates mix topics; same-block candidates are relevant."""
    lines = []
    for q in rng.choice(w.nodes, size=w.ranking_queries, replace=False):
        pool = rng.choice(w.nodes - 1, size=RANKING_CANDIDATES, replace=False)
        pool[pool >= q] += 1  # skip the query itself
        relevant = pool[block_of[pool] == block_of[q]]
        if relevant.size == 0:
            continue
        lines.append(json.dumps({
            "candidates": [node_id(int(c)) for c in pool],
            "query": node_id(int(q)),
            "relevant": sorted(node_id(int(c)) for c in relevant),
        }, sort_keys=True))
    return lines


def _labeled_set(
    rng: np.random.Generator, w: Workload, block_of: np.ndarray
) -> list[str]:
    """A seeded labelled subset; ``test_share`` of it is the test split."""
    picked = np.sort(rng.choice(w.nodes, size=w.labeled, replace=False))
    n_test = int(w.labeled * w.test_share)
    test = set(rng.choice(picked, size=n_test, replace=False).tolist())
    return [
        json.dumps({
            "id": node_id(int(i)),
            "label": f"topic{block_of[i]}",
            "split": "test" if int(i) in test else "train",
        }, sort_keys=True)
        for i in picked
    ]


def render_config(w: Workload, seed: int, inputs: Path) -> str:
    """INI config naming the input files by absolute path.

    Absolute paths let every chain write its artifacts to a fresh stage
    directory while reading the same generated inputs.
    """
    sections = {name: dict(values) for name, values in BASE_CONFIG.items()}
    sections["paths"] = {
        "edges": inputs / "edges.tsv", "documents": inputs / "documents.jsonl",
    }
    sections["eval"] = {
        "ranking_task": inputs / "ranking.jsonl", "labels": inputs / "labels.jsonl",
    }
    for name, values in w.config.items():
        sections.setdefault(name, {}).update(values)
    out = [f"[pipeline]\nseed = {seed}\n"]
    for name, values in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{key} = {value}" for key, value in values.items())
        out.append("")
    return "\n".join(out)


def generate(w: Workload, seed: int, outdir: Path) -> Path:
    """Write every input file of one workload and return the config path."""
    rng = np.random.default_rng((seed, sum(w.name.encode())))
    pairs, block_of = planted_partition_pairs(rng, w.nodes, w.blocks, w.p_in, w.p_out)
    outdir.mkdir(parents=True, exist_ok=True)
    edges = np.empty((2 * len(pairs), 2), dtype=np.int64)
    edges[0::2] = pairs
    edges[1::2] = pairs[:, ::-1]
    ids = [node_id(i) for i in range(w.nodes)]
    (outdir / "edges.tsv").write_text(
        "".join(f"{ids[s]}\t{ids[d]}\n" for s, d in edges.tolist()),
        encoding="utf-8",
    )
    for name, lines in (
        ("documents.jsonl", _documents(rng, w, block_of)),
        ("ranking.jsonl", _ranking_task(rng, w, block_of)),
        ("labels.jsonl", _labeled_set(rng, w, block_of)),
    ):
        (outdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = outdir / "config.ini"
    config.write_text(render_config(w, seed, outdir.resolve()), encoding="utf-8")
    return config
