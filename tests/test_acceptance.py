"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from nbcontrast.ann import batch_neighbors
from nbcontrast.cli import main
from nbcontrast.corpus import Document, load_documents, split_edges
from nbcontrast.encoder import (
    SEP,
    UNK,
    EncoderParams,
    encode_corpus,
    grad_check,
    load_encoder,
    tokenize_corpus,
    triplet_loss,
)
from nbcontrast.evaluation import (
    load_labeled_set,
    mean_average_precision,
    ndcg,
    overlap_report,
    precision_at_1,
)
from nbcontrast.fixtures import planted_partition_graph
from nbcontrast.graph_embed import (
    CELL_CAP,
    EmbeddingTable,
    GraphTrainConfig,
    eval_link_prediction,
    init_embeddings,
    pairwise_auc,
    scores,
    train_graph_embeddings,
)
from nbcontrast.mining import (
    SamplingConfig,
    mine_triples,
    range_by_rank,
    sample_by_similarity,
    select_queries,
)

TUNED_SAMPLING = SamplingConfig(
    k_pos=25, k_hard=4000, c_pos=5, c_hard=2, c_easy=3, seed=0
)


def report(criterion, description, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion}: {description}"


# -- shared heavyweight computations ----------------------------------------

@pytest.fixture(scope="module")
def band_mining():
    """1,000 queries mined with the tuned configuration over 4,101 nodes."""
    table = init_embeddings(4101, 8, seed=1)
    ids = tuple(f"p{i:05d}" for i in range(4101))
    queries = range(1000)
    triples = mine_triples(queries, table, ids, TUNED_SAMPLING)
    return table, ids, queries, triples


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Full pipeline over the bundled two-topic fixture, plus wall time."""
    workdir = tmp_path_factory.mktemp("acceptance_e2e")
    start = time.monotonic()
    assert main(["fixture", "--stage-dir", str(workdir)]) == 0
    assert main(["all", "--config", str(workdir / "config.ini")]) == 0
    elapsed = time.monotonic() - start
    return workdir, elapsed


def naive_full_sort(row, query, k):
    """Full-sort oracle over one query's row of block scores.

    Ranking must match the scan exactly, including tie order. The row
    comes from the same ``scores(table, block)`` call the scan makes (the
    last bit of a float dot product depends on which rows share the
    call); the selection, exclusion, sorting, and truncation logic under
    test is all reimplemented here.
    """
    scored = [(i, float(row[i])) for i in range(len(row)) if i != query]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def test_criterion_1_exact_knn_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(50):
        n = int(rng.integers(2, 1001))
        dim = int(rng.integers(1, 17))
        if trial % 2:
            values = rng.normal(size=(n, dim))
        else:
            # quantized entries force score ties, exercising tie order
            values = rng.integers(-1, 2, size=(n, dim)).astype(float)
        measure = "dot" if trial % 3 else "cosine"
        table = EmbeddingTable(values=values, measure=measure)
        block = rng.integers(0, n, size=8)
        k = int(rng.integers(1, n + 1))
        # the whole block fits one query block and one column product
        ok = ok and len(block) * n * dim <= CELL_CAP
        got = batch_neighbors(table, block.tolist(), k)
        for nl, row in zip(got, scores(table, np.asarray(block)), strict=True):
            expect = naive_full_sort(row, nl.query, k)
            if list(zip(nl.ids.tolist(), nl.scores.tolist())) != expect:
                ok = False
    elapsed = time.monotonic() - start
    report(1, f"batch_neighbors equals full-sort oracle on 50 tables ({elapsed:.1f}s)",
           ok and elapsed < 30.0)


def test_criterion_2_band_arithmetic(band_mining):
    table, ids, queries, triples = band_mining
    ext_to_idx = {ext: i for i, ext in enumerate(ids)}
    ok = len(triples.skipped) == 0
    # one call splits its query blocks exactly as mine_triples does
    neighbors = batch_neighbors(table, range(1000), TUNED_SAMPLING.k_hard)
    for query, nl in zip(queries, neighbors, strict=True):
        ranks = {node: r for r, node in enumerate(nl.ids.tolist(), start=1)}
        mine = [t for t in triples.triples if t.query == ids[query]]
        pos_ranks = sorted(ranks[ext_to_idx[t.positive]] for t in mine)
        hard_ranks = sorted(
            ranks[ext_to_idx[t.negative]]
            for t in mine if t.negative_kind == "hard"
        )
        if pos_ranks != [21, 22, 23, 24, 25]:
            ok = False
        if hard_ranks != [3999, 4000]:
            ok = False
        if min(hard_ranks) - max(pos_ranks) != 3974:
            ok = False
        if {t.positive for t in mine} & {
            t.negative for t in mine if t.negative_kind == "hard"
        }:
            ok = False
    report(2, "positives at ranks 21-25, hard negatives at 3999-4000, "
              "gap 3974, zero collisions over 1000 queries", ok)


def test_criterion_3_triple_composition(band_mining):
    table, ids, queries, triples = band_mining
    ok = len(triples.triples) == 5000
    per_query = {}
    for t in triples.triples:
        per_query.setdefault(t.query, []).append(t.negative_kind)
    ok = ok and len(per_query) == 1000
    ok = ok and all(
        sorted(kinds) == ["easy", "easy", "easy", "hard", "hard"]
        for kinds in per_query.values()
    )
    # the by-query subsample the mine stage draws before it scans
    cfg = dataclasses.replace(TUNED_SAMPLING, subsample_fraction=0.01)
    kept = select_queries(len(queries), cfg)
    ok = ok and len(kept) == 10
    sub = mine_triples(kept, table, ids, cfg)
    ok = ok and len(sub.triples) == 50 and not sub.skipped
    ok = ok and {t.query for t in sub.triples} == {ids[q] for q in kept}
    report(3, "1000 queries -> 5000 triples with {hard x2, easy x3}; "
              "1% by-query selection -> 10 queries -> 50 triples", ok)


def test_criterion_4_documented_band_examples():
    # diagonal rows are mutually orthogonal: every candidate scores 0, so
    # the tie rule pins rank r to node r-1 and the band is independently known
    [neighbors] = batch_neighbors(
        EmbeddingTable(values=np.diag(np.arange(12, 0, -1)).astype(float)),
        [11], 11,
    )
    band = range_by_rank(neighbors, k=10, c=3)
    ok = band == [7, 8, 9]  # the 8th, 9th, and 10th nearest neighbors

    sim = sample_by_similarity(
        [1, 2, 3], [0.8, 0.7, 0.1], c=2, t=0.5, mode="above"
    )
    ok = ok and sim == [1, 2]
    report(4, "kNN band (c'=3, k=10) -> ranks 8..10; "
              "Sim {0.8, 0.7, 0.1} above 0.5 -> the 0.8 and 0.7 candidates", ok)


def test_criterion_5_graph_embedding_quality():
    start = time.monotonic()
    graph, _ = planted_partition_graph(200, 2, 0.10, 0.01, seed=0)
    train_graph, holdout = split_edges(graph, 0.05, seed=0)
    auc = {}
    for measure in ("dot", "cosine"):
        cfg = GraphTrainConfig(
            epochs=20, margin=0.15, learning_rate=0.1, negatives_per_edge=10,
            dim=32, measure=measure, seed=0,
        )
        table, _ = train_graph_embeddings(train_graph, cfg)
        auc[measure] = eval_link_prediction(table, holdout, 50, seed=0).auc
    elapsed = time.monotonic() - start
    ok = auc["dot"] >= 0.90 and auc["dot"] >= auc["cosine"] - 0.02
    report(5, f"planted-partition AUC dot={auc['dot']:.4f} "
              f"cosine={auc['cosine']:.4f} ({elapsed:.1f}s)",
           ok and elapsed < 120.0)


def test_criterion_6_loss_and_gradients():
    start = time.monotonic()
    q = np.array([0.0, 0.0])
    ok = triplet_loss(q, q, np.array([2.0, 0.0]), 1.0) == 0.0
    p = np.array([1.0, 1.0])
    ok = ok and triplet_loss(p, q, q, 1.0) == 1.0
    ok = ok and triplet_loss(q, np.array([3.0, 4.0]), np.array([1.0, 0.0]), 1.0) == 5.0

    rng = np.random.default_rng(6)
    words = [f"w{i}" for i in range(6)]
    vocab = {UNK: 0, SEP: 1, **{w: i + 2 for i, w in enumerate(words)}}
    checked = 0
    while checked < 20:
        params = EncoderParams(
            vocab=vocab,
            token_table=rng.normal(scale=0.5, size=(8, 3)),
            projection=rng.normal(scale=0.5, size=(3, 2)),
            projection_bias=rng.normal(scale=0.1, size=2),
        )
        docs = tuple(
            Document(
                id=f"d{i}",
                title=" ".join(rng.choice(words, size=2)),
                abstract=str(rng.choice(words)),
            )
            for i in range(3)
        )
        try:
            full = grad_check(params, docs, slack=1.0, eps=1e-5)
            bias = grad_check(params, docs, slack=1.0, eps=1e-5, bias_only=True)
        except ValueError:
            continue
        if full >= 1e-4 or bias >= 1e-4:
            ok = False
        checked += 1
    elapsed = time.monotonic() - start
    report(6, f"triplet loss fixtures (0, slack, 5) and 20 grad checks "
              f"< 1e-4 ({elapsed:.1f}s)", ok and elapsed < 60.0)


def test_criterion_7_end_to_end_separation(pipeline_dir):
    workdir, elapsed = pipeline_dir
    metrics = json.loads((workdir / "report.json").read_text())
    intra = metrics["separation.topics.intra_l2"]
    inter = metrics["separation.topics.inter_l2"]
    trace = json.loads((workdir / "encoder_metrics.json").read_text())["loss_trace"]

    # recompute separation from the raw artifacts as a cross-check
    params = load_encoder(workdir / "encoder.bin")
    docs = load_documents(workdir / "documents.jsonl")
    labeled = load_labeled_set(workdir / "labels.jsonl")
    labels = {pid: label for pid, label, _ in labeled.items}
    vectors, id_to_row = encode_corpus(tokenize_corpus(docs.values(), params.vocab), params)
    same, diff = [], []
    ids = list(docs)
    for i in range(0, len(ids), 3):
        for j in range(i + 1, len(ids), 3):
            d = float(np.linalg.norm(
                vectors.values[id_to_row[ids[i]]] - vectors.values[id_to_row[ids[j]]]
            ))
            (same if labels[ids[i]] == labels[ids[j]] else diff).append(d)

    ok = (
        elapsed < 300.0
        and intra < inter
        and float(np.mean(same)) < float(np.mean(diff))
        and trace[-1] < trace[0]
    )
    report(7, f"run(all) in {elapsed:.1f}s; intra {intra:.3f} < inter "
              f"{inter:.3f}; loss {trace[0]:.3f} -> {trace[-1]:.3f}", ok)


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        rows = [
            [int(x) for x in rng.integers(0, 2, size=int(rng.integers(1, 11)))]
            for _ in range(int(rng.integers(1, 5)))
        ]
        if not any(any(r) for r in rows):
            continue
        ranked = [[f"c{i}" for i in range(len(row))] for row in rows]
        relevant = [
            {f"c{i}" for i, rel in enumerate(row) if rel} for row in rows
        ]

        def oracle_ap(row):
            hits, acc = 0, 0.0
            for rank, rel in enumerate(row, start=1):
                if rel:
                    hits += 1
                    acc += hits / rank
            return acc / hits if hits else None

        aps = [a for a in (oracle_ap(r) for r in rows) if a is not None]
        if abs(mean_average_precision(ranked, relevant) - sum(aps) / len(aps)) > 1e-9:
            ok = False
        ndcgs = []
        for row in rows:
            n_rel = sum(row)
            if not n_rel:
                continue
            dcg = sum(rel / math.log2(i + 2) for i, rel in enumerate(row))
            idcg = sum(1.0 / math.log2(i + 2) for i in range(n_rel))
            ndcgs.append(dcg / idcg)
        if abs(ndcg(ranked, relevant) - sum(ndcgs) / len(ndcgs)) > 1e-9:
            ok = False
        p1 = sum(1 for row in rows if row[0]) / len(rows)
        if abs(precision_at_1(ranked, relevant) - p1) > 1e-9:
            ok = False
        pos = [float(x) for x in rng.integers(0, 5, size=4)]
        neg = [float(x) for x in rng.integers(0, 5, size=4)]
        brute = sum(
            1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg
        ) / 16.0
        if abs(pairwise_auc(pos, neg) - brute) > 1e-9:
            ok = False

    worked_map = mean_average_precision([["a", "b", "c"]], [{"a", "c"}])
    worked_ndcg = ndcg([["a", "b", "c"]], [{"a", "c"}])
    worked_auc = pairwise_auc([0.9, 0.7], [0.8, 0.1])
    ok = ok and round(worked_map, 4) == 0.8333
    ok = ok and round(worked_ndcg, 4) == 0.9197
    ok = ok and round(worked_auc, 4) == 0.75
    report(8, f"metric oracles within 1e-9; worked values "
              f"{worked_map:.4f}/{worked_ndcg:.4f}/{worked_auc:.2f}", ok)


def test_criterion_9_leakage_report():
    train = {f"t{i}" for i in range(311_860)}
    test_split = {f"t{i}" for i in range(79_201)}
    validation = {f"t{i}" for i in range(46_567, 46_567 + 79_609)}
    rep = overlap_report(train, {"test": test_split, "validation": validation})
    printed = f"{rep.combined[1]}%"
    print(f"  combined overlap: {rep.combined[0]} papers ({printed})")
    ok = rep.combined == (126_176, 40.5) and printed == "40.5%"
    report(9, "311,860-id fixture with 126,176 combined overlap prints 40.5%", ok)


def test_criterion_10_stage_determinism(pipeline_dir):
    workdir, _ = pipeline_dir
    artifacts = [
        "graph.json", "graph_embeddings.nbe", "triples.tsv", "encoder.bin",
        "report.json", "report.txt", "graph_metrics.json", "encoder_metrics.json",
        "doc_vectors.nbe",
    ]

    def digest():
        return {
            name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in artifacts
        }

    first = digest()
    assert main(["all", "--config", str(workdir / "config.ini")]) == 0
    second = digest()
    ok = first == second
    report(10, "rerunning every stage reproduces byte-identical artifacts", ok)
