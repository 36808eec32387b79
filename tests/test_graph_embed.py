"""Margin-ranking embedding training and link prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbcontrast import graph_embed
from nbcontrast.corpus import CitationGraph, split_edges
from nbcontrast.errors import ValidationError
from nbcontrast.fixtures import planted_partition_graph
from nbcontrast.graph_embed import (
    EmbeddingTable,
    GraphTrainConfig,
    eval_link_prediction,
    init_embeddings,
    pairwise_auc,
    scores,
    train_epoch,
    train_graph_embeddings,
)


def score_edge(t, src, dst):
    """One pair's score, as every table score is taken: through ``scores``."""
    return float(scores(t, src, [dst])[0])


def one_edge_graph():
    return CitationGraph(
        ids=("a", "b", "c"), edges=np.array([[0, 1]], dtype=np.int64)
    )


class TestInit:
    def test_shape_and_finiteness(self):
        t = init_embeddings(3, 4, seed=0)
        assert t.values.shape == (3, 4)
        assert np.all(np.isfinite(t.values))

    def test_deterministic_per_seed(self):
        a = init_embeddings(5, 6, seed=42)
        b = init_embeddings(5, 6, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        c = init_embeddings(5, 6, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_std_scales_with_dim(self):
        t = init_embeddings(1, 768, seed=1)
        target = 1.0 / np.sqrt(768)
        empirical = float(t.values[0].std())
        assert 0.5 * target <= empirical <= 1.5 * target

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            init_embeddings(0, 4, seed=0)
        with pytest.raises(ValueError):
            init_embeddings(4, 0, seed=0)


class TestScoreEdge:
    def test_identical_unit_vectors_dot(self):
        t = EmbeddingTable(values=np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert score_edge(t, 0, 1) == 1.0

    def test_orthogonal_dot(self):
        t = EmbeddingTable(values=np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert score_edge(t, 0, 1) == 0.0

    def test_cosine_hand_value(self):
        t = EmbeddingTable(
            values=np.array([[1.0, 1.0], [1.0, 0.0]]), measure="cosine"
        )
        assert abs(score_edge(t, 0, 1) - 1.0 / np.sqrt(2.0)) < 1e-9

    def test_cosine_zero_vector(self):
        t = EmbeddingTable(
            values=np.array([[0.0, 0.0], [1.0, 2.0]]), measure="cosine"
        )
        assert score_edge(t, 0, 1) == 0.0


class TestScores:
    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_all_rows_and_selected_rows(self, measure):
        values = np.array([[3.0, 4.0], [0.0, 0.0], [6.0, 8.0], [-4.0, 3.0]])
        t = EmbeddingTable(values=values, measure=measure)
        full = scores(t, 0)
        expect = [25.0, 0.0, 50.0, 0.0] if measure == "dot" else [1.0, 0.0, 1.0, 0.0]
        assert full.dtype == np.float64
        assert full.tolist() == expect
        assert scores(t, 0, [2, 2, 1]).tolist() == [expect[2], expect[2], expect[1]]
        assert scores(t, 0, []).shape == (0,)

    def test_measure_override(self):
        t = EmbeddingTable(values=np.array([[3.0, 4.0], [6.0, 8.0]]), measure="dot")
        assert scores(t, 0, [1], measure="cosine").tolist() == [1.0]
        assert scores(t, 0, [1]).tolist() == [50.0]

    def test_zero_query_scores_zero_under_cosine(self):
        t = EmbeddingTable(values=np.array([[0.0, 0.0], [1.0, 2.0]]), measure="cosine")
        assert scores(t, 0).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_query_block_rows_match_single_queries(self, measure):
        # a zero query row and a zero table row both score 0 under cosine
        values = np.random.default_rng(9).normal(size=(7, 4))
        values[[1, 5]] = 0.0
        t = EmbeddingTable(values=values, measure=measure)
        block = scores(t, np.array([0, 1, 4]), slice(2, 7))
        assert block.shape == (3, 5)
        for row, query in zip(block, [0, 1, 4]):
            np.testing.assert_allclose(row, scores(t, query)[2:7], rtol=1e-12, atol=0)
        assert not block[1].any()


class TestTrainEpoch:
    # seed 0 draws corrupted destination 2 for a 1-edge, 3-node graph;
    # seed 1 draws node 1 (the true destination itself)
    def test_satisfied_margin_zero_loss_no_update(self):
        table = EmbeddingTable(values=np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        cfg = GraphTrainConfig(
            epochs=1, margin=0.15, learning_rate=0.1, negatives_per_edge=1,
            dim=2, seed=0,
        )
        # drawn negative is node 2: hinge = 0.15 - 2.0 + 0.0 < 0, inactive
        updated, loss = train_epoch(table, one_edge_graph(), cfg)
        assert loss == 0.0
        np.testing.assert_array_equal(updated.values, table.values)

    def test_hand_computed_hinge_and_sgd_step(self):
        e0, e1, e2 = [1.0, 0.0], [0.1, 0.05], [0.02, 0.3]
        table = EmbeddingTable(values=np.array([e0, e1, e2]))
        margin, lr = 0.15, 0.1
        cfg = GraphTrainConfig(
            epochs=1, margin=margin, learning_rate=lr, negatives_per_edge=1,
            dim=2, seed=0,
        )
        updated, loss = train_epoch(table, one_edge_graph(), cfg)

        # hand arithmetic: scores are plain dot products of 2-vectors
        s_pos = e0[0] * e1[0] + e0[1] * e1[1]          # 0.10
        s_neg = e0[0] * e2[0] + e0[1] * e2[1]          # 0.02
        hand_loss = margin - s_pos + s_neg             # 0.07
        assert abs(loss - hand_loss) < 1e-12

        # active hinge: d/de0 = e2 - e1, d/de1 = -e0, d/de2 = +e0
        hand_e0 = [e0[i] - lr * (e2[i] - e1[i]) for i in range(2)]
        hand_e1 = [e1[i] - lr * (-e0[i]) for i in range(2)]
        hand_e2 = [e2[i] - lr * (e0[i]) for i in range(2)]
        np.testing.assert_allclose(
            updated.values, np.array([hand_e0, hand_e1, hand_e2]), atol=1e-12
        )

    def test_corruption_hitting_destination_costs_margin(self):
        table = EmbeddingTable(values=np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0]]))
        cfg = GraphTrainConfig(
            epochs=1, margin=0.15, learning_rate=0.1, negatives_per_edge=1,
            dim=2, seed=1,
        )
        _, loss = train_epoch(table, one_edge_graph(), cfg)
        assert abs(loss - 0.15) < 1e-12

    def test_deterministic_for_same_inputs(self):
        table = init_embeddings(4, 3, seed=5)
        g = CitationGraph(
            ids=("a", "b", "c", "d"),
            edges=np.array([[0, 1], [1, 2], [3, 0]], dtype=np.int64),
        )
        cfg = GraphTrainConfig(epochs=1, negatives_per_edge=3, dim=3, seed=5)
        a_table, a_loss = train_epoch(table, g, cfg)
        b_table, b_loss = train_epoch(table, g, cfg)
        assert a_loss == b_loss
        np.testing.assert_array_equal(a_table.values, b_table.values)

    def test_empty_graph_rejected(self):
        table = init_embeddings(2, 2, seed=0)
        g = CitationGraph(ids=("a", "b"), edges=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            train_epoch(table, g, GraphTrainConfig(dim=2))


def batch_hinge(table, edges, pool, margin):
    """Summed hinge of every (edge, pool node) pair, scored by ``score_edge``."""
    return sum(
        max(0.0, margin - score_edge(table, src, dst) + score_edge(table, src, neg))
        for src, dst in edges for neg in pool
    )


class TestHingeGradients:
    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_matches_central_differences(self, measure):
        # one batch, learning rate 1: train_epoch's update is -grad / K
        rng = np.random.default_rng(11)
        margin, k = 0.5, 2
        checked = 0
        while checked < 12:
            n = int(rng.integers(3, 6))
            dim = int(rng.integers(2, 5))
            values = rng.normal(size=(n, dim))
            edges = rng.integers(0, n, size=(int(rng.integers(1, 4)), 2))
            g = CitationGraph(ids=tuple(f"n{i}" for i in range(n)), edges=edges)
            cfg = GraphTrainConfig(
                epochs=1, margin=margin, learning_rate=1.0, negatives_per_edge=k,
                dim=dim, measure=measure, seed=int(rng.integers(0, 1000)),
            )
            draw = np.random.default_rng((cfg.seed, 0))
            edges = edges[draw.permutation(len(edges))].tolist()
            pool = draw.integers(0, n, size=(1, k))[0].tolist()
            table = EmbeddingTable(values=values, measure=measure)
            hinges = [margin - score_edge(table, s, d) + score_edge(table, s, neg)
                      for s, d in edges for neg in pool]
            if min(abs(h) for h in hinges) < 5e-2:
                continue  # stay away from the kink
            updated, _ = train_epoch(table, g, cfg)
            analytic = (values - updated.values) * k

            eps = 1e-6
            for i in range(n):
                for j in range(dim):
                    values[i, j] += eps
                    up = batch_hinge(EmbeddingTable(values.copy(), measure),
                                     edges, pool, margin)
                    values[i, j] -= 2 * eps
                    down = batch_hinge(EmbeddingTable(values.copy(), measure),
                                       edges, pool, margin)
                    values[i, j] += eps
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(analytic[i, j]), abs(fd))
                    if denom > 1e-10:
                        assert abs(analytic[i, j] - fd) / denom < 1e-4
            checked += 1


def reference_score_grads(values, src, dst, measure):
    """Scalar score of one pair plus its gradients w.r.t. the two rows."""
    u = values[src]
    v = values[dst]
    if measure == "dot":
        return float(u @ v), v.copy(), u.copy()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0, np.zeros_like(u), np.zeros_like(v)
    s = float(u @ v) / (nu * nv)
    return s, v / (nu * nv) - s * u / (nu * nu), u / (nu * nv) - s * v / (nv * nv)


def reference_hinge(values, src, dst, neg_dst, margin, measure):
    """Hinge loss of one (edge, corrupted edge) pair and its row gradients.

    Returns ``(loss, grads)`` with ``grads`` mapping row index to the
    gradient of the loss with respect to that row; an inactive hinge
    (loss <= 0) has no gradient.
    """
    s_pos, gu_pos, gv_pos = reference_score_grads(values, src, dst, measure)
    s_neg, gu_neg, gv_neg = reference_score_grads(values, src, neg_dst, measure)
    loss = margin - s_pos + s_neg
    if loss <= 0.0:
        return 0.0, {}
    grads = {}
    for row, grad in ((src, -gu_pos), (dst, -gv_pos), (src, gu_neg), (neg_dst, gv_neg)):
        grads[row] = grads[row] + grad if row in grads else grad
    return float(loss), grads


def reference_epoch(table, g, cfg, epoch, batch):
    """Scalar-loop SGD epoch: one step per ``batch`` edges of the shuffled order.

    After the shuffle the RNG draws one pool of ``negatives_per_edge`` nodes
    per step, and every edge of the step is corrupted with every pool node.
    Every pair of a batch is scored against the table at the batch start
    and the summed gradients are applied at its end; ``batch = 1`` is
    per-edge SGD.
    """
    values = table.values.copy()
    rng = np.random.default_rng((cfg.seed, epoch))
    order = rng.permutation(g.edge_count)
    starts = range(0, g.edge_count, batch)
    pools = rng.integers(0, table.rows, size=(len(starts), cfg.negatives_per_edge))
    total = 0.0
    for start, pool in zip(starts, pools):
        step = {}
        for pos in range(start, min(start + batch, g.edge_count)):
            src, dst = (int(x) for x in g.edges[order[pos]])
            for neg in pool:
                loss, grads = reference_hinge(
                    values, src, dst, int(neg), cfg.margin, table.measure
                )
                total += loss
                for row, grad in grads.items():
                    step[row] = step[row] + grad if row in step else grad
        for row, grad in step.items():
            values[row] -= cfg.learning_rate / cfg.negatives_per_edge * grad
    return values, total / (g.edge_count * cfg.negatives_per_edge)


def reference_case(measure, negatives_per_edge):
    """150 edges over 16 nodes: two full 64-edge batches and one of 22.

    With so few nodes the pools include nodes equal to a source or a
    destination of their batch and nodes repeated within a pool. Under
    cosine, node 3 is the zero vector.
    """
    rng = np.random.default_rng(21)
    pairs = [(a, b) for a in range(16) for b in range(16) if a != b]
    picked = rng.choice(len(pairs), size=150, replace=False)
    g = CitationGraph(
        ids=tuple(f"n{i}" for i in range(16)),
        edges=np.array([pairs[i] for i in sorted(picked)], dtype=np.int64),
    )
    values = rng.normal(0.0, 0.5, size=(16, 4))
    if measure == "cosine":
        values[3] = 0.0
    cfg = GraphTrainConfig(
        epochs=3, margin=0.15, learning_rate=0.1,
        negatives_per_edge=negatives_per_edge, dim=4, measure=measure, seed=4,
    )
    return EmbeddingTable(values=values, measure=measure), g, cfg


class TestMinibatchTrainer:
    """``train_epoch`` against scalar-loop reference trainers."""

    cases = [("dot", 1), ("dot", 10), ("cosine", 1), ("cosine", 10)]

    def run_both(self, measure, negatives_per_edge, batch):
        table, g, cfg = reference_case(measure, negatives_per_edge)
        expected = table.values
        for epoch in range(cfg.epochs):
            table, loss = train_epoch(table, g, cfg, epoch=epoch)
            expected, expected_loss = reference_epoch(
                EmbeddingTable(expected, measure), g, cfg, epoch, batch
            )
            np.testing.assert_allclose(table.values, expected, rtol=0, atol=1e-12)
            assert abs(loss - expected_loss) < 1e-12
        return table, loss

    @pytest.mark.parametrize("measure, negatives_per_edge", cases)
    def test_matches_batch_reference(self, measure, negatives_per_edge):
        assert graph_embed.EDGE_BATCH == 64
        table, loss = self.run_both(measure, negatives_per_edge, batch=64)
        assert loss > 0.0
        if measure == "cosine":
            assert not table.values[3].any()

    @pytest.mark.parametrize("measure, negatives_per_edge", cases)
    def test_edge_batch_one_is_per_edge_sgd(self, monkeypatch, measure,
                                            negatives_per_edge):
        monkeypatch.setattr(graph_embed, "EDGE_BATCH", 1)
        self.run_both(measure, negatives_per_edge, batch=1)

    def test_case_covers_the_corner_draws(self):
        table, g, cfg = reference_case("cosine", 10)
        batch = graph_embed.EDGE_BATCH
        assert g.edge_count % batch != 0
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng((cfg.seed, epoch))
            edges = g.edges[rng.permutation(g.edge_count)]
            pools = rng.integers(0, table.rows, size=(-(-g.edge_count // batch), 10))
            batches = [edges[i:i + batch] for i in range(0, g.edge_count, batch)]
            assert any(np.isin(pool, b[:, 0]).any() for b, pool in zip(batches, pools))
            assert any(np.isin(pool, b[:, 1]).any() for b, pool in zip(batches, pools))
            assert any(len(set(pool)) < 10 for pool in pools.tolist())
            assert (edges == 3).any() and (pools == 3).any()


class TestPairwiseAuc:
    def test_pooled_pairs_worked_example(self):
        assert pairwise_auc([0.9, 0.7], [0.8, 0.1]) == 0.75

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pos = rng.integers(0, 4, size=int(rng.integers(1, 6))).astype(float)
            neg = rng.integers(0, 4, size=int(rng.integers(1, 6))).astype(float)
            wins = sum(
                1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg
            )
            assert abs(pairwise_auc(pos, neg) - wins / (len(pos) * len(neg))) < 1e-12


def brute_force_auc(pos, neg):
    wins = ties = 0
    for p in pos:
        for n in neg:
            wins += p > n
            ties += p == n
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# few distinct values force ties; NaN and both infinities are in the mix
auc_scores = st.lists(
    st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 2.0, np.inf, np.nan]),
    min_size=1,
    max_size=12,
)


class TestPairwiseAucProperty:
    @given(pos=auc_scores, neg=auc_scores)
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_double_loop(self, pos, neg):
        assert pairwise_auc(pos, neg) == brute_force_auc(pos, neg)

    def test_all_nan_positive_wins_nothing(self):
        assert pairwise_auc([np.nan], [0.0, np.nan]) == 0.0
        assert pairwise_auc([1.0, np.nan], [0.0, np.nan]) == 0.25


class TestEvalLinkPrediction:
    def test_perfect_model(self):
        # tiny source norms keep self-corruption scores below the true edge
        values = np.array(
            [[0.1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0.1, 0], [0, 0, 1, 0]]
        )
        table = EmbeddingTable(values=values)
        holdout = np.array([[0, 1], [2, 3]])
        m = eval_link_prediction(table, holdout, negatives_per_edge=20, seed=0)
        assert m.mrr == 1.0
        assert m.hits_at_1 == 1.0
        assert m.hits_at_10 == 1.0
        assert m.auc == 1.0

    def test_tie_breaks_toward_smaller_index(self):
        # every candidate scores 0: only the index order separates them
        for measure in ("dot", "cosine"):
            table = EmbeddingTable(values=np.zeros((5, 2)), measure=measure)
            m = eval_link_prediction(table, np.array([[2, 0]]), 6, seed=0)
            assert m.mrr == 1.0
            assert m.auc == 0.5  # tied pairs count half

            m = eval_link_prediction(table, np.array([[2, 4]]), 6, seed=0)
            assert m.mrr == 1.0 / 7
            assert m.hits_at_1 == 0.0 and m.hits_at_10 == 1.0
            assert m.auc == 0.5

    def test_deterministic(self):
        table = init_embeddings(20, 4, seed=2)
        holdout = np.array([[0, 1], [5, 9], [12, 3]])
        a = eval_link_prediction(table, holdout, 7, seed=4)
        b = eval_link_prediction(table, holdout, 7, seed=4)
        assert a == b

    def test_empty_holdout_rejected(self):
        table = init_embeddings(3, 2, seed=0)
        with pytest.raises(ValueError):
            eval_link_prediction(table, np.zeros((0, 2)), 5, seed=0)

    def test_one_row_table_rejected(self):
        # no node other than the destination exists to draw as a negative
        table = init_embeddings(1, 2, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            eval_link_prediction(table, np.array([[0, 0]]), 5, seed=0)

    @pytest.mark.parametrize("edge", [[0, 3], [3, 0], [-1, 1], [1, -1]])
    def test_out_of_range_holdout_rejected(self, edge):
        # a negative id must not wrap around to the last row
        table = init_embeddings(3, 2, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            eval_link_prediction(table, np.array([[0, 1], edge]), 5, seed=0)

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_matches_per_pair_reference(self, measure):
        table = EmbeddingTable(
            values=np.random.default_rng(6).integers(-2, 3, size=(15, 3)).astype(float),
            measure=measure,
        )
        holdout = np.array([[0, 1], [4, 9], [14, 2], [7, 7], [3, 14], [5, 0]])
        got = eval_link_prediction(table, holdout, 6, seed=3)
        rng = np.random.default_rng(3)
        ranks, pos, neg = [], [], []
        for src, dst in holdout.tolist():
            # uniform over the 14 nodes other than dst
            negs = [d + (d >= dst) for d in rng.integers(0, 14, size=6).tolist()]
            s_pos = score_edge(table, src, dst)
            s_negs = [score_edge(table, src, d) for d in negs]
            ranks.append(1 + sum(s > s_pos or (s == s_pos and d < dst)
                                 for d, s in zip(negs, s_negs)))
            pos.append(s_pos)
            neg += s_negs
        assert got.mrr == pytest.approx(np.mean([1.0 / r for r in ranks]))
        assert got.hits_at_1 == np.mean([r <= 1 for r in ranks])
        assert got.auc == brute_force_auc(pos, neg)

    def test_negatives_cover_every_node_but_the_destination(self, monkeypatch):
        # row j holds the value j, so the candidate rows name the drawn nodes
        n, k = 5, 8
        table = EmbeddingTable(values=np.arange(n, dtype=float)[:, None])
        holdout = np.column_stack((np.zeros(150, dtype=np.int64), np.arange(150) % n))
        seen = []
        scaled = graph_embed._scaled

        def spy(rows, measure):
            if rows.ndim == 3:
                seen.append(rows[..., 0].astype(np.int64))
            return scaled(rows, measure)

        monkeypatch.setattr(graph_embed, "_scaled", spy)
        eval_link_prediction(table, holdout, k, seed=1)
        candidates = np.concatenate(seen)
        assert candidates.shape == (150, k + 1)
        np.testing.assert_array_equal(candidates[:, 0], holdout[:, 1])
        for dst in range(n):
            negs = candidates[candidates[:, 0] == dst, 1:]
            assert set(negs.ravel().tolist()) == set(range(n)) - {dst}

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_edge_batch_does_not_change_metrics(self, monkeypatch, measure):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(30, 5))
        values[3] = 0.0
        table = EmbeddingTable(values=values, measure=measure)
        holdout = rng.integers(0, 30, size=(150, 2))
        holdout[:10, 0] = 3
        holdout[10:20, 1] = 3
        batched = eval_link_prediction(table, holdout, 7, seed=5)
        monkeypatch.setattr(graph_embed, "EDGE_BATCH", 1)
        assert eval_link_prediction(table, holdout, 7, seed=5) == batched


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for bad in (
            dict(epochs=0),
            dict(margin=0.0),
            dict(margin=float("nan")),
            dict(margin=float("inf")),
            dict(learning_rate=0.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(negatives_per_edge=0),
            dict(dim=0),
            dict(measure="euclid"),
        ):
            with pytest.raises(ValidationError):
                GraphTrainConfig(**bad).validate()


@pytest.fixture(scope="module")
def planted_trained():
    g, _ = planted_partition_graph(200, 2, 0.10, 0.01, seed=0)
    train, holdout = split_edges(g, 0.05, seed=0)
    out = {}
    for measure in ("dot", "cosine"):
        cfg = GraphTrainConfig(
            epochs=20, margin=0.15, learning_rate=0.1,
            negatives_per_edge=10, dim=32, measure=measure, seed=0,
        )
        table, losses = train_graph_embeddings(train, cfg)
        metrics = eval_link_prediction(table, holdout, 50, seed=0)
        out[measure] = (losses, metrics)
    return out


class TestPlantedPartitionQuality:
    """Training quality on the seeded 2-block fixture (both measures)."""

    def test_auc_at_least_090_both_measures(self, planted_trained):
        assert planted_trained["dot"][1].auc >= 0.90
        assert planted_trained["cosine"][1].auc >= 0.90

    def test_dot_within_two_points_of_cosine(self, planted_trained):
        assert planted_trained["dot"][1].auc >= planted_trained["cosine"][1].auc - 0.02

    def test_loss_non_increasing_over_five_epoch_windows(self, planted_trained):
        # small absolute + relative headroom absorbs per-epoch negative
        # resampling jitter at the converged floor; divergence would blow
        # through it by orders of magnitude
        for losses, _ in planted_trained.values():
            assert all(x >= 0 for x in losses)
            for i in range(len(losses) - 5):
                assert losses[i + 5] <= losses[i] + 0.002 + 0.05 * losses[i]

    def test_hits_ordering_invariant(self, planted_trained):
        for _, metrics in planted_trained.values():
            assert metrics.hits_at_1 <= metrics.hits_at_10
            for value in metrics.as_dict().values():
                assert 0.0 <= value <= 1.0
