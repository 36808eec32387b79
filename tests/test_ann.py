"""Flat neighbour scan: exactness, tie order, rank bands."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbcontrast import ann, graph_embed
from nbcontrast.ann import batch_neighbors, smallest_k
from nbcontrast.graph_embed import EmbeddingTable, scores
from nbcontrast.mining import MiningFailure, range_by_rank


def score_edge(table, src, dst):
    """One pair's score from a one-column ``scores`` call."""
    return float(scores(table, src, [dst])[0])


def naive_top_k(table, query, k):
    """Full-sort oracle: score every candidate, sort by (score desc, idx asc)."""
    scored = [(i, score_edge(table, query, i)) for i in range(table.rows) if i != query]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def full_sort_top_k(scored, query, k):
    """The scan before partial selection: lexsort every candidate of a score row."""
    candidates = np.flatnonzero(np.arange(len(scored)) != query)
    order = np.lexsort((candidates, -scored[candidates]))
    chosen = candidates[order[:k]]
    return chosen, scored[chosen]


def pairs(ids, found):
    """``(node, score)`` pairs of one neighbour row, in rank order."""
    return list(zip(ids.tolist(), found.tolist()))


# few distinct cells force exact score ties across the k-th boundary;
# -0.0 yields signed-zero scores and NaN rows yield NaN scores
CELLS = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@st.composite
def scans(draw):
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 3))
    rows = st.lists(CELLS, min_size=dim, max_size=dim)
    values = np.array(draw(st.lists(rows, min_size=n, max_size=n)))
    values[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))] = np.nan
    table = EmbeddingTable(values, draw(st.sampled_from(["dot", "cosine"])))
    query = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, n + 1))
    return table, query, k


class TestPartialSelection:
    @given(scan=scans(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_full_sort(self, scan, data):
        # the oracle sorts the scores of the very call the scan makes
        table, query, k = scan
        queries = [query, *data.draw(st.lists(st.integers(0, table.rows - 1), max_size=7))]
        block = scores(table, np.asarray(queries))
        got_ids, got_scores = batch_neighbors(table, queries, k)
        assert got_ids.shape == got_scores.shape == (len(queries), min(k, table.rows - 1))
        for query, got, got_found, row in zip(queries, got_ids, got_scores, block, strict=True):
            ids, found = full_sort_top_k(row, query, k)
            assert got.tolist() == ids.tolist()
            assert got_found.tobytes() == found.tobytes()

    def test_ties_across_the_boundary_keep_index_order(self):
        # nodes 1..6 tie; k=3 cuts through the tie, nodes 7 and 8 lose
        values = np.array([[1.0]] + [[0.5]] * 6 + [[0.1], [0.2]])
        ids, _ = batch_neighbors(EmbeddingTable(values), [0], 3)
        assert ids.tolist() == [[1, 2, 3]]

    def test_nan_scores_rank_last(self):
        values = np.array([[1.0], [np.nan], [0.5], [np.nan], [0.2]])
        ids, _ = batch_neighbors(EmbeddingTable(values), [0], 4)
        assert ids.tolist() == [[2, 4, 1, 3]]

    def test_arrays_are_typed_and_read_only(self):
        ids, found = batch_neighbors(EmbeddingTable(np.eye(4)), [0, 2], 3)
        assert ids.dtype == np.int64
        assert found.dtype == np.float64
        assert ids.shape == found.shape == (2, 3)
        for row in range(2):
            with pytest.raises(ValueError):
                ids[row, 0] = 9
            with pytest.raises(ValueError):
                found[row, 0] = 9.0


class TestTopK:
    """The top-k rows the block scan returns, one case at a time."""

    def test_fixed_fixture(self):
        # scores from query 0: node1=0.9, node2=0.8, node3=0.1
        values = np.array([[1.0, 0.0], [0.9, 0.0], [0.8, 0.0], [0.1, 0.0]])
        table = EmbeddingTable(values=values)
        ids, found = batch_neighbors(table, [0], 2)
        assert pairs(ids[0], found[0]) == [(1, 0.9), (2, 0.8)]

    def test_equal_scores_ascending_index(self):
        table = EmbeddingTable(values=np.ones((5, 2)))
        ids, _ = batch_neighbors(table, [2], 4)
        assert ids.tolist() == [[0, 1, 3, 4]]

    def test_k_at_least_node_count(self):
        rng = np.random.default_rng(5)
        table = EmbeddingTable(values=rng.normal(size=(6, 3)))
        ids, _ = batch_neighbors(table, [1], 100)
        assert ids.shape == (1, 5)
        assert ids[0].tolist() == [i for i, _ in naive_top_k(table, 1, 5)]

    def test_query_never_present(self):
        table = EmbeddingTable(values=np.random.default_rng(0).normal(size=(8, 2)))
        ids, _ = batch_neighbors(table, range(8), 7)
        for query, row in enumerate(ids):
            assert query not in row.tolist()

    def test_k_zero_rejected(self):
        table = EmbeddingTable(values=np.ones((2, 2)))
        with pytest.raises(ValueError):
            batch_neighbors(table, [0], 0)

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_vectorized_scores_agree_with_per_pair_scorer(self, measure):
        # float summation order may differ by an ulp between the block
        # scan and the per-pair scorer; anything beyond that is a bug
        rng = np.random.default_rng(23)
        values = rng.normal(size=(40, 12))
        table = EmbeddingTable(values=values, measure=measure)
        queries = [7, 0, 39]
        for query, *row in zip(queries, *batch_neighbors(table, queries, 39), strict=True):
            for node, score in pairs(*row):
                expect = score_edge(table, query, node)
                assert score == pytest.approx(expect, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_matches_naive_oracle_with_ties(self, measure):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(3, 50))
            dim = int(rng.integers(1, 8))
            # quantized values force plenty of exact score ties
            values = rng.integers(-2, 3, size=(n, dim)).astype(float)
            table = EmbeddingTable(values=values, measure=measure)
            queries = rng.integers(0, n, size=3).tolist()
            k = int(rng.integers(1, n + 2))
            for query, *row in zip(queries, *batch_neighbors(table, queries, k), strict=True):
                assert pairs(*row) == naive_top_k(table, query, k)


def fake_neighbors(count):
    """Neighbour id row where rank r holds node r."""
    return np.arange(1, count + 1)


class TestRangeByRank:
    def test_three_from_ten(self):
        assert range_by_rank(fake_neighbors(10), k=10, c=3) == [8, 9, 10]

    def test_full_prefix(self):
        assert range_by_rank(fake_neighbors(10), k=5, c=5) == [1, 2, 3, 4, 5]

    def test_nearest_only(self):
        assert range_by_rank(fake_neighbors(3), k=1, c=1) == [1]

    def test_insufficient_neighbors_names_query_and_k(self):
        # the skip record pairs this reason with the query's id
        with pytest.raises(MiningFailure) as err:
            range_by_rank(fake_neighbors(5), k=9, c=2)
        assert err.value.reason == "insufficient neighbors for k=9"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            range_by_rank(fake_neighbors(5), k=3, c=0)
        with pytest.raises(ValueError):
            range_by_rank(fake_neighbors(5), k=2, c=3)

    def test_band_disjointness(self):
        n = fake_neighbors(50)
        for k, c, c2 in [(50, 4, 10), (30, 5, 25), (20, 10, 10)]:
            outer = set(range_by_rank(n, k, c))
            inner = set(range_by_rank(n, k - c, c2))
            assert not outer & inner


class TestBatchNeighbors:
    def test_singleton(self):
        table = EmbeddingTable(values=np.random.default_rng(2).normal(size=(9, 3)))
        got_ids, got_scores = batch_neighbors(table, [4], 5)
        ids, found = full_sort_top_k(scores(table, 4), 4, 5)
        assert pairs(got_ids[0], got_scores[0]) == pairs(ids, found)

    def test_duplicate_queries_identical(self):
        table = EmbeddingTable(values=np.random.default_rng(2).normal(size=(9, 3)))
        ids, found = batch_neighbors(table, [3, 3], 4)
        assert pairs(ids[0], found[0]) == pairs(ids[1], found[1])

    def test_prefix_consistency(self):
        table = EmbeddingTable(values=np.random.default_rng(7).normal(size=(30, 4)))
        queries = [0, 5, 12]
        deep_ids, deep_scores = batch_neighbors(table, queries, 20)
        ids, found = batch_neighbors(table, queries, 6)
        assert deep_ids[:, :6].tolist() == ids.tolist()
        assert deep_scores[:, :6].tolist() == found.tolist()

    def test_error_names_query(self):
        table = EmbeddingTable(values=np.ones((4, 2)))
        with pytest.raises(ValueError, match="query 9"):
            batch_neighbors(table, [0, 9], 2)

    def test_non_integer_query_rejected(self):
        table = EmbeddingTable(values=np.ones((4, 2)))
        with pytest.raises(TypeError):
            batch_neighbors(table, [0, 1.5], 2)

    @staticmethod
    def assert_top_k_ids(table, queries, k_max, exact_scores=False):
        got_ids, got_scores = batch_neighbors(table, queries, k_max)
        assert got_ids.shape == got_scores.shape == (len(queries), min(k_max, table.rows - 1))
        for query, got, got_found in zip(queries, got_ids, got_scores, strict=True):
            # against a one-query call, the rows the block shares do not round
            ids, found = full_sort_top_k(scores(table, query), query, k_max)
            assert got.tolist() == ids.tolist()
            if exact_scores:  # equal values; NaN and zero signs may differ by kernel
                np.testing.assert_array_equal(got_found, found)

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_zero_rows_and_zero_query(self, measure):
        values = np.random.default_rng(5).normal(size=(40, 6))
        values[[3, 17, 30]] = 0.0  # zero queries, and zero rows for every query
        self.assert_top_k_ids(EmbeddingTable(values, measure), range(40), 12)

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_integer_table_ties_score_exactly(self, measure):
        values = np.random.default_rng(11).integers(-2, 3, size=(60, 3)).astype(float)
        table = EmbeddingTable(values, measure)
        self.assert_top_k_ids(table, range(60), 25, exact_scores=True)

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_several_blocks_and_column_chunks(self, monkeypatch, measure):
        # 200 // 30 = 6 queries a block, 200 // (6 * 3) = 11 columns a product
        monkeypatch.setattr(graph_embed, "CELL_CAP", 200)
        values = np.random.default_rng(3).integers(-3, 4, size=(30, 3)).astype(float)
        table = EmbeddingTable(values, measure)
        assert ann.query_block(table) == 6
        self.assert_top_k_ids(table, [*range(20), 29, 0], 9, exact_scores=True)

    def test_duplicate_queries_across_blocks(self, monkeypatch):
        monkeypatch.setattr(graph_embed, "CELL_CAP", 40)
        table = EmbeddingTable(np.random.default_rng(4).normal(size=(20, 2)))
        queries = [7, 2, 7, 7, 2, 7]
        ids, _ = batch_neighbors(table, queries, 5)
        assert len({row.tobytes() for query, row in zip(queries, ids) if query == 7}) == 1
        self.assert_top_k_ids(table, queries, 5)

    @pytest.mark.parametrize("k_max", [9, 10, 50])
    def test_depth_at_least_the_other_rows(self, k_max):
        table = EmbeddingTable(np.random.default_rng(6).normal(size=(10, 3)))
        ids, _ = batch_neighbors(table, range(10), k_max)
        assert ids.shape == (10, 9)
        self.assert_top_k_ids(table, range(10), k_max)

    @pytest.mark.parametrize("k_max", [3, 50])
    def test_no_queries_give_empty_matrices(self, k_max):
        table = EmbeddingTable(np.random.default_rng(6).normal(size=(10, 3)))
        ids, found = batch_neighbors(table, [], k_max)
        assert ids.shape == found.shape == (0, min(k_max, 9))
        assert (ids.dtype, found.dtype) == (np.int64, np.float64)

    @given(scan=scans(), cap=st.sampled_from([1, 7, 64, graph_embed.CELL_CAP]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_scan_equals_top_k(self, scan, cap, data):
        # CELLS products are exact, so block and single scores agree exactly
        table, _, k = scan
        queries = data.draw(st.lists(st.integers(0, table.rows - 1), max_size=8))
        with mock.patch.object(graph_embed, "CELL_CAP", cap):
            self.assert_top_k_ids(table, queries, k, exact_scores=True)


# signed zeros, infinities and NaN tie or order in every way a key can
KEYS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, np.inf, -np.inf, np.nan])


class TestSmallestK:
    @given(keys=st.lists(KEYS, min_size=1, max_size=40), data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_equals_lexsort_prefix(self, keys, data):
        key = np.array(keys)
        ids = np.array(data.draw(st.permutations(range(len(key)))), dtype=np.int64)
        k = data.draw(st.integers(1, len(key)))
        expect = np.lexsort((ids, key))[:k]
        assert smallest_k(key, ids, k).tolist() == expect.tolist()
