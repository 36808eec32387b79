"""Triple mining: rank bands, samplers, collision freedom, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from nbcontrast.ann import batch_neighbors
from nbcontrast.cli import main
from nbcontrast.corpus import load_graph
from nbcontrast.errors import ValidationError
from nbcontrast import mining, pipeline
from nbcontrast.graph_embed import EmbeddingTable, init_embeddings, scores
from nbcontrast.mining import (
    EASY_STRATEGIES,
    HARD_STRATEGIES,
    POS_STRATEGIES,
    TRIPLE_FIELDS,
    MiningFailure,
    SamplingConfig,
    TripleSet,
    load_triples,
    mine_triples,
    range_by_rank,
    sample_by_similarity,
    sample_filtered_random,
    sample_random,
    sample_sorted_random,
    save_triples,
    select_queries,
    subsample_triples,
    triple_array,
)
from nbcontrast.snapshot import read_snapshot

TUNED_CONFIG = SamplingConfig(k_pos=25, k_hard=4000, c_pos=5, c_hard=2, c_easy=3)

DESK_CONFIG = SamplingConfig(
    k_pos=10, k_hard=50, c_pos=5, c_hard=2, c_easy=3, seed=3
)


def as_rows(ts):
    """A triple set's rows and audit trail, for comparing two sets."""
    return ts.triples.tolist(), ts.skipped, ts.partial


def fake_neighbors(count):
    """Neighbour id row of query 0 where rank r holds node r."""
    return np.arange(1, count + 1)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SamplingConfig().validate()

    def test_band_overlap_rejected(self):
        with pytest.raises(ValidationError, match="overlaps"):
            SamplingConfig(k_pos=25, k_hard=26, c_hard=2).validate()

    def test_adjacent_bands_allowed(self):
        SamplingConfig(k_pos=25, k_hard=27, c_hard=2).validate()

    def test_count_exceeding_band_rejected(self):
        with pytest.raises(ValidationError):
            SamplingConfig(k_pos=3, c_pos=5).validate()
        with pytest.raises(ValidationError):
            SamplingConfig(k_hard=1, c_hard=2).validate()

    @pytest.mark.parametrize("counts, message", [
        ({"c_pos": 0}, "c_pos=0, c_hard=2, c_easy=3"),
        ({"c_hard": 0, "c_easy": 0}, "c_pos=5, c_hard=0, c_easy=0"),
    ])
    def test_config_that_mines_nothing_rejected(self, counts, message):
        with pytest.raises(ValidationError,
                           match=f"c_pos and c_hard \\+ c_easy must be >= 1: {message}"):
            SamplingConfig(**counts).validate()

    @pytest.mark.parametrize("kind", ["c_hard", "c_easy"])
    def test_one_kind_of_negative_suffices(self, kind):
        table, ids = desk_papers()
        cfg = dataclasses.replace(DESK_CONFIG, **{kind: 0})
        ts = mine_triples(range(4), table, ids, cfg)
        kept = "easy" if kind == "c_hard" else "hard"
        assert {t.negative_kind for t in ts.triples} == {kept}
        # fewer negatives than positives: each query pairs off what it has,
        # and is not partial, as every sampler filled its quota
        per_query = 3 if kept == "easy" else 2
        assert len(ts) == 4 * per_query and not ts.skipped
        assert ts.partial == ()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            SamplingConfig(easy_strategy="kmeans").validate()

    @pytest.mark.parametrize("easy, depth", [("filtered_random", 4000), ("random", 0)])
    def test_neighbor_depth_of_sim_bands(self, easy, depth):
        # filtered_random excludes the first max(k_pos, k_hard) neighbors
        # even when neither band reads the neighbor list
        cfg = SamplingConfig(pos_strategy="sim", hard_strategy="sim",
                             easy_strategy=easy)
        assert cfg.easy_filter_depth() == 4000
        assert cfg.neighbor_depth() == depth

    @pytest.mark.parametrize("key", ["t_pos", "t_neg"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, key, value):
        cfg = SamplingConfig(pos_strategy="sim", hard_strategy="sim", **{key: value})
        with pytest.raises(ValidationError, match="finite"):
            cfg.validate()

    def test_sampling_margin_arithmetic(self):
        assert TUNED_CONFIG.sampling_margin() == 3973
        adjacent = SamplingConfig(k_pos=25, k_hard=27, c_hard=2)
        assert adjacent.sampling_margin() == 0


def knn_positives(n, cfg):
    """The ``knn`` positive band as mining takes it: ranks (k_pos - c_pos, k_pos]."""
    return range_by_rank(n, cfg.k_pos, cfg.c_pos)


def knn_hard_negatives(n, cfg):
    """The ``knn`` hard-negative band: ranks (k_hard - c_hard, k_hard]."""
    return range_by_rank(n, cfg.k_hard, cfg.c_hard)


class TestBandSamplers:
    def test_positive_band_of_tuned_config(self):
        n = fake_neighbors(30)
        assert knn_positives(n, TUNED_CONFIG) == [21, 22, 23, 24, 25]

    def test_positive_band_minimal(self):
        cfg = SamplingConfig(k_pos=1, c_pos=1, k_hard=10, c_hard=1)
        assert knn_positives(fake_neighbors(10), cfg) == [1]

    def test_positive_band_three_from_ten(self):
        cfg = SamplingConfig(k_pos=10, c_pos=3, k_hard=20, c_hard=1)
        assert knn_positives(fake_neighbors(20), cfg) == [8, 9, 10]

    def test_hard_band_of_tuned_config(self):
        n = fake_neighbors(4000)
        assert knn_hard_negatives(n, TUNED_CONFIG) == [3999, 4000]

    def test_band_gap_of_tuned_config(self):
        n = fake_neighbors(4000)
        pos = knn_positives(n, TUNED_CONFIG)
        hard = knn_hard_negatives(n, TUNED_CONFIG)
        ranks = {node: r for r, node in enumerate(n.tolist(), start=1)}
        assert min(ranks[h] for h in hard) - max(ranks[p] for p in pos) == 3974
        assert not set(pos) & set(hard)


class TestSampleBySimilarity:
    # candidate scores exclude the query's self-match
    def test_above_threshold_worked_example(self):
        ids, scores = [1, 2, 3], [0.8, 0.7, 0.1]
        assert sample_by_similarity(ids, scores, c=2, t=0.5, mode="above") == [1, 2]

    def test_below_threshold_single(self):
        ids, scores = [1, 2, 3], [0.8, 0.7, 0.1]
        assert sample_by_similarity(ids, scores, c=1, t=0.5, mode="below") == [3]

    def test_below_threshold_takes_hardest(self):
        ids, scores = [1, 2, 3], [0.4, 0.3, 0.2]
        # brute-force oracle: filter then sort by score descending
        qualified = sorted(
            [(i, s) for i, s in zip(ids, scores) if s < 0.5],
            key=lambda p: (-p[1], p[0]),
        )
        expect = [i for i, _ in qualified[:2]]
        got = sample_by_similarity(ids, scores, c=2, t=0.5, mode="below")
        assert got == expect == [1, 2]

    def test_partial_result_when_candidates_run_out(self):
        assert sample_by_similarity([1, 2], [0.9, 0.1], c=3, t=0.5, mode="above") == [1]

    def test_zero_qualifiers_fails(self):
        with pytest.raises(MiningFailure):
            sample_by_similarity([1], [0.2], c=1, t=0.5, mode="above")

    def test_threshold_is_strict_and_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            scores = rng.uniform(-1, 1, size=12)
            t = float(rng.uniform(-0.5, 0.5))
            for mode, cmp in (("above", lambda s: s > t), ("below", lambda s: s < t)):
                if not any(cmp(s) for s in scores):
                    continue
                got = sample_by_similarity(np.arange(12), scores, c=5, t=t, mode=mode)
                assert all(cmp(scores[i]) for i in got)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            sample_by_similarity([1], [0.5], c=1, t=0.0, mode="sideways")


class TestSampleRandom:
    def test_exhaustive_draw_covers_corpus(self):
        got = sample_random(10, c=10, exclude=set(), seed=1)
        assert sorted(got) == list(range(10))

    def test_forced_outcome(self):
        exclude = set(range(10)) - {2, 5, 7}
        assert sorted(sample_random(10, 3, exclude, seed=0)) == [2, 5, 7]

    def test_deterministic(self):
        a = sample_random(50, 5, {1, 2}, seed=9)
        b = sample_random(50, 5, {1, 2}, seed=9)
        assert a == b

    def test_insufficient_candidates(self):
        with pytest.raises(MiningFailure):
            sample_random(2, 3, set(), seed=0)

    @pytest.mark.parametrize("row", [-1, 5])
    def test_excluded_row_outside_the_rows_rejected(self, row):
        # the keep-mask is indexed by row, where -1 would wrap around
        with pytest.raises(ValueError, match=f"excluded row {row} not in \\[0, 5\\)"):
            sample_random(5, 1, {2, row}, seed=0)


class TestSampleFilteredRandom:
    def test_excludes_leading_neighbors(self):
        n = fake_neighbors(3)
        for seed in range(10):
            got = sample_filtered_random(7, 2, n, 3, seed, {0})
            assert not set(got) & {0, 1, 2, 3}  # query 0 plus neighbors 1..3

    def test_zero_filter_matches_plain_random_with_self_exclusion(self):
        n = fake_neighbors(5)
        for seed in range(5):
            filtered = sample_filtered_random(12, 4, n, 0, seed, {0})
            plain = sample_random(12, 4, {0}, seed=seed)
            assert filtered == plain

    def test_production_scale_exclusion_set(self):
        n = fake_neighbors(4000)
        exclusion = set(n[:4000].tolist()) | {0}
        assert len(exclusion) == 4001
        got = sample_filtered_random(4101, 3, n, 4000, 0, {0})
        assert not set(got) & exclusion


def score_edge(table, src, dst):
    """One pair's score from a one-column ``scores`` call."""
    return float(scores(table, src, [dst])[0])


class TestSampleSortedRandom:
    def make_table(self):
        values = np.array(
            [[1.0, 0.0], [0.9, 0.0], [0.5, 0.0], [-0.2, 0.0], [0.1, 0.0]]
        )
        return EmbeddingTable(values=values)

    def test_exhaustive_draw_reduces_to_sort(self):
        table = self.make_table()
        got = sample_sorted_random(table, 0, n_candidates=5, c=2, seed=0)
        scores = sorted(
            ((i, score_edge(table, 0, i)) for i in range(1, 5)),
            key=lambda p: (p[1], p[0]),
        )
        assert got == [i for i, _ in scores[:2]] == [3, 4]

    def test_c_equals_candidates_returns_drawn_set(self):
        table = self.make_table()
        got = sample_sorted_random(table, 0, n_candidates=4, c=4, seed=3)
        assert sorted(got) == [1, 2, 3, 4]

    def test_furthest_single_is_minimum_score(self):
        table = self.make_table()
        got = sample_sorted_random(table, 0, n_candidates=4, c=1, seed=1)
        scores = {i: score_edge(table, 0, i) for i in range(1, 5)}
        assert got == [min(scores, key=lambda i: (scores[i], i))] == [3]

    def test_insufficient_candidates(self):
        table = self.make_table()
        with pytest.raises(MiningFailure):
            sample_sorted_random(table, 0, n_candidates=3, c=3, seed=0,
                                 exclude={2, 3})


def reference_sample_random(n, c, exclude, seed):
    """List-based sampler the numpy candidate path must reproduce."""
    candidates = [i for i in range(n) if i not in exclude]
    if len(candidates) < c:
        raise MiningFailure("too few candidates")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(candidates), size=c, replace=False)
    return [candidates[int(i)] for i in picked]


def reference_sample_filtered_random(n, c, row, k_filter, seed, exclude):
    return reference_sample_random(n, c, set(row[:k_filter].tolist()) | set(exclude), seed)


def reference_sample_sorted_random(t, query, n_candidates, c, seed,
                                   exclude=frozenset()):
    pool = [i for i in range(t.rows) if i != query and i not in exclude]
    if len(pool) < c:
        raise MiningFailure("too few candidates")
    rng = np.random.default_rng(seed)
    take = min(n_candidates, len(pool))
    drawn = np.asarray(pool)[rng.choice(len(pool), size=take, replace=False)]
    scored = scores(t, query, drawn)
    order = np.lexsort((drawn, scored))
    return drawn[order[:c]].tolist()


def reference_sample_by_similarity(scores, c, t, mode):
    """Tuple-list threshold sampler over (index, score) pairs."""
    if c < 1:
        raise ValueError(f"c must be >= 1: {c}")
    if mode == "above":
        qualified = [(i, s) for i, s in scores if s > t]
    elif mode == "below":
        qualified = [(i, s) for i, s in scores if s < t]
    else:
        raise ValueError(f"mode must be 'above' or 'below': {mode!r}")
    if not qualified:
        raise MiningFailure(f"no candidates {mode} threshold {t}")
    qualified.sort(key=lambda pair: (-pair[1], pair[0]))
    return [i for i, _ in qualified[:c]]


def reference_batch_neighbors(t, queries, k_max):
    """Full-lexsort neighbour rows as ``(ids, scores)`` matrices."""
    ids, found = [], []
    for query in queries:
        scored = scores(t, query)
        others = np.delete(np.arange(t.rows), query)
        chosen = others[np.lexsort((others, -scored[others]))[:k_max]]
        ids.append(chosen)
        found.append(scored[chosen])
    shape = (len(queries), min(k_max, t.rows - 1))
    return np.array(ids, dtype=np.int64).reshape(shape), np.array(found).reshape(shape)


def outcome(sampler, *args, **kwargs):
    try:
        return sampler(*args, **kwargs)
    except MiningFailure:
        return "failure"


class TestSamplersMatchListReference:
    """Picks equal the list-based samplers' on row ranges of every size."""

    def row_ranges(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(40):
            n = int(rng.integers(1, 60))
            # repeated excludes, none to all rows excluded
            exclude = set(rng.integers(0, n, size=int(rng.integers(0, 2 * n))).tolist())
            c = int(rng.integers(0, 6))
            yield trial, n, exclude, c

    def test_sample_random(self):
        for trial, n, exclude, c in self.row_ranges(1):
            as_array = np.fromiter(exclude, dtype=np.int64)
            for rows in (exclude, as_array, as_array.tolist()):
                assert outcome(sample_random, n, c, rows, trial) == outcome(
                    reference_sample_random, n, c, exclude, trial
                )

    def test_sample_filtered_random(self):
        for trial, n, exclude, c in self.row_ranges(2):
            [row], _ = reference_batch_neighbors(init_embeddings(n, 3, trial), [0], n)
            k_filter = trial % (n + 2)
            exclude |= {0}  # mining's exclusion holds the query
            assert outcome(
                sample_filtered_random, n, c, row, k_filter, trial, exclude
            ) == outcome(
                reference_sample_filtered_random, n, c, row, k_filter, trial, exclude
            )

    @pytest.mark.parametrize("mode", ["above", "below"])
    def test_sample_by_similarity(self, mode):
        # repeated ids and scores, -0.0 beside 0.0, and NaN candidates
        values = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nan])
        for trial, n, _, c in self.row_ranges(4):
            rng = np.random.default_rng(trial)
            ids = rng.integers(0, n, size=int(rng.integers(0, 2 * n))).tolist()
            scores = rng.choice(values, size=len(ids))
            t = float(rng.choice([-0.5, -0.0, 0.0, 0.5]))
            pairs = list(zip(ids, scores.tolist()))
            assert outcome(
                sample_by_similarity, ids, scores, c + 1, t, mode
            ) == outcome(reference_sample_by_similarity, pairs, c + 1, t, mode)

    def test_sample_sorted_random(self):
        # integer-valued rows tie often; -0.0 entries and NaN rows ride along
        values = np.array([-1.0, -0.0, 0.0, 1.0, np.nan])
        for trial, n, exclude, c in self.row_ranges(3):
            rng = np.random.default_rng(trial)
            table = EmbeddingTable(
                rng.choice(values, size=(n, 2), p=[0.3, 0.15, 0.15, 0.3, 0.1])
            )
            query, n_candidates = trial % n, c + trial % 4
            args = (table, query, n_candidates, c, trial, exclude)
            assert outcome(sample_sorted_random, *args) == outcome(
                reference_sample_sorted_random, *args
            )

    @pytest.mark.parametrize("pos, hard, easy", [
        *(pytest.param("knn", "knn", easy, id=easy)
          for easy in ("filtered_random", "random", "sorted_random")),
        ("sim", "sim", "random"),
        ("knn", "sim", "sorted_random"),
        ("sim", "knn", "filtered_random"),
    ])
    def test_mine_triples(self, monkeypatch, pos, hard, easy):
        table, ids = desk_papers(3000, seed=4)
        cfg = SamplingConfig(k_pos=25, k_hard=1000, c_pos=5, c_hard=2, c_easy=3,
                             pos_strategy=pos, hard_strategy=hard,
                             easy_strategy=easy, seed=11)
        got = mine_triples(range(0, 3000, 50), table, ids, cfg)
        assert len(got) == 60 * 5
        for name in ("sample_random", "sample_filtered_random",
                     "sample_sorted_random", "batch_neighbors"):
            monkeypatch.setattr(mining, name, globals()["reference_" + name])
        monkeypatch.setattr(
            mining, "sample_by_similarity",
            lambda ids, scores, c, t, mode: reference_sample_by_similarity(
                list(zip(ids.tolist(), scores.tolist())), c, t, mode
            ),
        )
        assert as_rows(mine_triples(range(0, 3000, 50), table, ids, cfg)) == as_rows(got)

    @pytest.mark.parametrize("easy", ["filtered_random", "sorted_random"])
    def test_mine_triples_cosine(self, monkeypatch, easy):
        base, ids = desk_papers(3000, seed=5)
        values = base.values.copy()
        values[::97] = 0.0  # the first query and 30 other rows are zero
        table = EmbeddingTable(values, measure="cosine")
        cfg = SamplingConfig(k_pos=25, k_hard=1000, c_pos=5, c_hard=2, c_easy=3,
                             easy_strategy=easy, seed=11)
        got = mine_triples(range(0, 3000, 50), table, ids, cfg)
        assert len(got) == 60 * 5
        for name in ("sample_random", "sample_filtered_random",
                     "sample_sorted_random", "batch_neighbors"):
            monkeypatch.setattr(mining, name, globals()["reference_" + name])
        assert as_rows(mine_triples(range(0, 3000, 50), table, ids, cfg)) == as_rows(got)


def desk_papers(n=100, seed=0):
    """A random table and the external id of each of its rows."""
    table = init_embeddings(n, 8, seed=seed)
    return table, tuple(f"p{i:04d}" for i in range(n))


class TestMineTriples:
    def test_default_composition(self):
        table, ids = desk_papers()
        ts = mine_triples(range(20), table, ids, DESK_CONFIG)
        assert len(ts) == 20 * 5
        assert not ts.skipped and not ts.partial
        by_query = {}
        for t in ts.triples:
            by_query.setdefault(t.query, []).append(t)
        for query, triples in by_query.items():
            assert len(triples) == 5
            kinds = sorted(t.negative_kind for t in triples)
            assert kinds == ["easy", "easy", "easy", "hard", "hard"]
            positives = [t.positive for t in triples]
            negatives = [t.negative for t in triples]
            assert len(set(positives)) == 5
            assert len(set(negatives)) == 5
            assert set(positives) <= set(ids)
            assert set(negatives) <= set(ids)

    def test_collision_freedom_and_exact_rank_gap(self):
        table, ids = desk_papers()
        cfg = DESK_CONFIG
        neighbors, _ = batch_neighbors(table, range(10), max(cfg.k_pos, cfg.k_hard))
        ts = mine_triples(range(10), table, ids, cfg)
        by_query = {}
        for t in ts.triples:
            by_query.setdefault(t.query, []).append(t)
        ext_to_idx = {ext: i for i, ext in enumerate(ids)}
        for query, row in zip(range(10), neighbors, strict=True):
            ranks = {node: r for r, node in enumerate(row.tolist(), start=1)}
            triples = by_query[ids[query]]
            pos_ranks = [ranks[ext_to_idx[t.positive]] for t in triples]
            hard_ranks = [
                ranks[ext_to_idx[t.negative]]
                for t in triples if t.negative_kind == "hard"
            ]
            assert min(hard_ranks) - max(pos_ranks) == (
                cfg.k_hard - cfg.c_hard - cfg.k_pos + 1
            )
            assert not set(pos_ranks) & set(hard_ranks)

    def test_filtered_random_never_hits_leading_neighbors(self):
        table, ids = desk_papers()
        cfg = DESK_CONFIG
        depth = max(cfg.k_pos, cfg.k_hard)
        ts = mine_triples(range(15), table, ids, cfg)
        ext_to_idx = {ext: i for i, ext in enumerate(ids)}
        for t in ts.triples:
            if t.negative_kind != "easy":
                continue
            assert t.strategy == "filtered_random"
            [row], _ = batch_neighbors(table, [ext_to_idx[t.query]], depth)
            assert ext_to_idx[t.negative] not in set(row.tolist()[:depth])

    def test_negatives_are_shuffled_union_of_bands(self):
        table, ids = desk_papers()
        cfg = DESK_CONFIG
        ts = mine_triples(range(8), table, ids, cfg)
        ext_to_idx = {ext: i for i, ext in enumerate(ids)}
        for query in range(8):
            [row], _ = batch_neighbors(table, [query], cfg.k_hard)
            hard_band = set(row.tolist()[cfg.k_hard - cfg.c_hard:cfg.k_hard])
            triples = [t for t in ts.triples if t.query == ids[query]]
            got_hard = {ext_to_idx[t.negative]
                        for t in triples if t.negative_kind == "hard"}
            assert got_hard == hard_band

    def test_pure_function_of_inputs(self):
        table, ids = desk_papers()
        a = mine_triples(range(12), table, ids, DESK_CONFIG)
        b = mine_triples(range(12), table, ids, DESK_CONFIG)
        assert as_rows(a) == as_rows(b)

    def test_per_query_seed_stable_under_reordering(self):
        table, ids = desk_papers()
        forward = mine_triples(range(6), table, ids, DESK_CONFIG)
        backward = mine_triples(range(5, -1, -1), table, ids, DESK_CONFIG)
        fwd = {t[0]: t for t in forward.triples.tolist()}
        bwd = {t[0]: t for t in backward.triples.tolist()}
        # first triple of each query identical regardless of query order
        for query in fwd:
            assert fwd[query] == bwd[query]

    def test_short_neighbor_list_skips_query(self):
        table, ids = desk_papers(n=30)  # fewer nodes than k_hard=50
        ts = mine_triples(range(5), table, ids, DESK_CONFIG)
        assert len(ts) == 0
        assert len(ts.skipped) == 5
        for query, reason in ts.skipped:
            assert "neighbors" in reason

    def test_margin_violation_rejected_before_mining(self):
        table, ids = desk_papers()
        bad = SamplingConfig(k_pos=30, k_hard=31, c_hard=2)
        with pytest.raises(ValidationError):
            mine_triples(range(2), table, ids, bad)

    def test_one_id_per_row_required(self):
        table, ids = desk_papers()
        with pytest.raises(ValueError, match="99 ids for a table of 100 rows"):
            mine_triples(range(2), table, ids[:-1], DESK_CONFIG)

    @pytest.mark.parametrize("query", [-1, 100])
    def test_query_outside_the_rows_rejected(self, query):
        table, ids = desk_papers()
        with pytest.raises(ValueError, match=f"query row {query} not in"):
            mine_triples([0, query], table, ids, DESK_CONFIG)

    def test_random_easy_strategy_distinctness(self):
        table, ids = desk_papers()
        cfg = SamplingConfig(k_pos=10, k_hard=50, c_pos=5, c_hard=2, c_easy=3,
                             easy_strategy="random", seed=1)
        ts = mine_triples(range(10), table, ids, cfg)
        for query in {t.query for t in ts.triples}:
            triples = [t for t in ts.triples if t.query == query]
            negatives = [t.negative for t in triples]
            assert len(set(negatives)) == len(negatives)

    def test_sorted_random_easy_strategy(self):
        table, ids = desk_papers()
        cfg = SamplingConfig(k_pos=10, k_hard=50, c_pos=5, c_hard=2, c_easy=3,
                             easy_strategy="sorted_random",
                             sorted_random_candidates=30, seed=1)
        ts = mine_triples(range(10), table, ids, cfg)
        assert len(ts) == 50
        kinds = [t.strategy for t in ts.triples if t.negative_kind == "easy"]
        assert set(kinds) == {"sorted_random"}

    def test_sim_strategies_end_to_end(self):
        table, ids = desk_papers()
        cfg = SamplingConfig(c_pos=3, c_hard=2, c_easy=2, pos_strategy="sim",
                             hard_strategy="sim", easy_strategy="random",
                             t_pos=0.0, t_neg=0.0, seed=2)
        ts = mine_triples(range(10), table, ids, cfg)
        assert len(ts) > 0
        # sim picks by cosine regardless of the table's dot measure
        for t in ts.triples:
            assert len({t.query, t.positive, t.negative}) == 3

    @pytest.mark.parametrize("pos", POS_STRATEGIES)
    @pytest.mark.parametrize("hard", HARD_STRATEGIES)
    @pytest.mark.parametrize("easy", EASY_STRATEGIES)
    def test_no_negative_is_a_positive_of_its_query(self, pos, hard, easy):
        # bands that reach for the same nodes: any cosine above 0 makes a
        # positive, any below 0.99 a hard negative, and the knn hard band
        # sits right behind the knn positives
        table, ids = desk_papers()
        cfg = SamplingConfig(k_pos=10, k_hard=12, c_pos=5, c_hard=2, c_easy=3,
                             t_pos=0.0, t_neg=0.99, pos_strategy=pos,
                             hard_strategy=hard, easy_strategy=easy,
                             sorted_random_candidates=30, seed=5)
        ts = mine_triples(range(100), table, ids, cfg)
        assert len(ts) > 0
        query, positive, negative = (ts.triples[name] for name in TRIPLE_FIELDS[:3])
        assert not ((query == positive) | (query == negative)
                    | (positive == negative)).any()
        assert not set(zip(query, positive)) & set(zip(query, negative))
        # a positive dropped from the knn hard band leaves its query short
        assert bool(ts.partial) == ((pos, hard) == ("sim", "knn"))

    def test_hard_band_inside_the_positives_with_no_easy_band(self):
        # the sim positive is the top cosine and the rank-1 hard band the top
        # dot product: where they are one node the query has no negative
        table, ids = desk_papers()
        cfg = SamplingConfig(c_pos=1, c_hard=1, c_easy=0, k_hard=1, t_pos=-0.99,
                             pos_strategy="sim", hard_strategy="knn", seed=5)
        ts = mine_triples(range(100), table, ids, cfg)
        assert not ts.skipped
        assert 0 < len(ts) < 100 and len(ts) + len(ts.partial) == 100
        assert not set(ts.partial) & set(ts.triples.query)
        assert not (ts.triples.positive == ts.triples.negative).any()


def synthetic_tripleset(n_queries, per_query=5):
    rows = [(f"q{q:05d}", f"pos{q:05d}_{j}", f"neg{q:05d}_{j}",
             "easy" if j else "hard", "random")
            for q in range(n_queries) for j in range(per_query)]
    return TripleSet(triple_array(*zip(*rows)), SamplingConfig())


def query_ids(ts):
    """Unique query ids of a triple set in first-appearance order."""
    return list(dict.fromkeys(t.query for t in ts.triples))


def reference_subsample_by_query(ts, fraction, seed):
    """The by-query draw over mined triples: the floor of ``fraction`` times
    the emitting queries, seeded, kept whole and in order. ``select_queries``
    must pick the same queries before any is mined."""
    queries = query_ids(ts)
    k = math.floor(fraction * len(queries) + 1e-9)
    picks = np.random.default_rng(seed).choice(len(queries), size=k, replace=False)
    chosen = {queries[int(i)] for i in picks}
    kept = np.array([query in chosen for query in ts.triples.query], dtype=bool)
    return dataclasses.replace(ts, triples=ts.triples[kept])


class TestSubsample:
    def test_identity_at_fraction_one(self):
        ts = synthetic_tripleset(10)
        assert subsample_triples(ts, 1.0, seed=0) is ts

    def test_floor_convention_on_triple_count(self):
        # 68410 triples at 10% floors to exactly 6841
        ts = synthetic_tripleset(13682)
        kept = subsample_triples(ts, 0.1, seed=1)
        assert len(kept) == 6841

    def test_deterministic(self):
        ts = synthetic_tripleset(100)
        a = subsample_triples(ts, 0.3, seed=7)
        b = subsample_triples(ts, 0.3, seed=7)
        assert as_rows(a) == as_rows(b)

    def test_order_preserved(self):
        ts = synthetic_tripleset(50)
        kept = subsample_triples(ts, 0.5, seed=2)
        rows = ts.triples.tolist()
        positions = [rows.index(t) for t in kept.triples.tolist()]
        assert positions == sorted(positions)

    def test_fraction_out_of_range(self):
        ts = synthetic_tripleset(5)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                subsample_triples(ts, bad, seed=0)


class TestSelectQueries:
    @pytest.mark.parametrize("n, fraction", [(120, 0.1), (100, 0.29), (10, 0.3), (57, 0.5)])
    def test_ordered_subset_of_floor_size(self, n, fraction):
        cfg = SamplingConfig(subsample_fraction=fraction, seed=4)
        picked = select_queries(n, cfg)
        # 0.29 * 100 and 0.3 * 10 sit just off whole numbers in binary
        assert len(picked) == math.floor(fraction * n + 1e-9) == round(fraction * n)
        assert picked == sorted(set(picked)) and set(picked) <= set(range(n))
        assert all(type(row) is int for row in picked)
        assert select_queries(n, cfg) == picked
        assert select_queries(n, dataclasses.replace(cfg, seed=5)) != picked

    @pytest.mark.parametrize("fraction, seed", [(0.1, 0), (0.3, 7), (0.01, 5)])
    def test_by_query_picks_equal_subsample_triples(self, fraction, seed):
        ts = synthetic_tripleset(1000)
        ids = query_ids(ts)
        cfg = SamplingConfig(subsample_fraction=fraction, seed=seed)
        kept = reference_subsample_by_query(ts, fraction, seed)
        assert [ids[q] for q in select_queries(len(ids), cfg)] == query_ids(kept)

    def test_n_queries_draw_comes_first(self):
        cfg = SamplingConfig(n_queries=40, subsample_fraction=0.25, seed=2)
        selected = select_queries(100, dataclasses.replace(cfg, subsample_fraction=1.0))
        assert len(selected) == 40
        kept = select_queries(100, cfg)
        assert len(kept) == 10 and set(kept) <= set(selected)
        by_triple = dataclasses.replace(cfg, subsample_by_query=False)
        assert select_queries(100, by_triple) == selected

    def test_fraction_counts_skipped_queries(self):
        table, ids = desk_papers(100)
        others = ~np.eye(100, dtype=bool)
        best = [scores(table, i, measure="cosine")[others[i]].max() for i in range(100)]
        # about half the queries have no positive above the threshold
        cfg = dataclasses.replace(DESK_CONFIG, pos_strategy="sim",
                                  t_pos=float(np.median(best)),
                                  subsample_fraction=0.3)
        selected = select_queries(100, cfg)
        assert len(selected) == 30
        ts = mine_triples(selected, table, ids, cfg)
        skipped = {q for q, _ in ts.skipped}
        assert skipped and skipped < {ids[q] for q in selected}
        emitting = [ids[q] for q in selected if ids[q] not in skipped]
        assert query_ids(ts) == emitting


@pytest.fixture(scope="module")
def trained_fixture(tmp_path_factory):
    """The bundled fixture after ingest and graph-train."""
    work = tmp_path_factory.mktemp("fixture")
    assert main(["fixture", "--stage-dir", str(work)]) == 0
    for stage in ("ingest", "graph-train"):
        assert main([stage, "--config", str(work / "config.ini")]) == 0
    return work


class TestRunMineSelectsBeforeScanning:
    @pytest.mark.parametrize("fraction, n_queries", [(0.1, 0), (0.5, 150)])
    def test_writes_the_bytes_of_mining_every_selected_query(
        self, trained_fixture, monkeypatch, tmp_path, fraction, n_queries
    ):
        cfg = pipeline.load_config(trained_fixture / "config.ini")
        sc = dataclasses.replace(cfg.sampling_cfg, subsample_fraction=fraction,
                                 n_queries=n_queries)
        cfg = dataclasses.replace(cfg, sampling_cfg=sc)
        ids = load_graph(trained_fixture / "graph.json").ids
        table = read_snapshot(trained_fixture / "graph_embeddings.nbe")
        # the selection run_mine made before it scanned only kept queries
        selected = range(len(ids))
        if n_queries:
            rng = np.random.default_rng(mining.derive_seed(sc.seed, "query-selection"))
            selected = sorted(rng.choice(len(ids), size=n_queries, replace=False))
        with pipeline._one_blas_thread():
            every = mine_triples(selected, table, ids, sc)
        assert not every.skipped
        save_triples(reference_subsample_by_query(every, fraction, sc.seed),
                     tmp_path / "expected.tsv")

        scanned = []

        def spy(t, queries, depth):
            scanned.extend(queries)
            return batch_neighbors(t, queries, depth)

        monkeypatch.setattr(mining, "batch_neighbors", spy)
        out = pipeline.run_mine(cfg)
        assert len(scanned) == math.floor(fraction * len(selected))
        assert out.read_bytes() == (tmp_path / "expected.tsv").read_bytes()


class TestBandsReachingForThePositives:
    @pytest.mark.parametrize("overrides", [
        {"pos_strategy": "sim", "t_pos": 0.0, "k_hard": 10},
        {"hard_strategy": "sim", "t_neg": 0.99},
        {"pos_strategy": "sim", "t_pos": 0.0, "k_hard": 1, "c_hard": 1, "c_easy": 0},
    ])
    def test_quick_start_mine_writes_no_collision(
        self, trained_fixture, tmp_path, overrides
    ):
        for name in ("graph.json", "graph_embeddings.nbe"):
            (tmp_path / name).write_bytes((trained_fixture / name).read_bytes())
        cfg = pipeline.load_config(trained_fixture / "config.ini", stage_dir=tmp_path)
        sc = dataclasses.replace(cfg.sampling_cfg, **overrides)
        ts = load_triples(pipeline.run_mine(dataclasses.replace(cfg, sampling_cfg=sc)))
        assert len(ts) > 0
        positives = set(zip(ts.triples.query, ts.triples.positive))
        assert not positives & set(zip(ts.triples.query, ts.triples.negative))


class TestTripleFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        table, ids = desk_papers()
        ts = mine_triples(range(5), table, ids, DESK_CONFIG)
        path = tmp_path / "triples.tsv"
        save_triples(ts, path)
        loaded = load_triples(path, DESK_CONFIG)
        assert loaded.triples.tolist() == ts.triples.tolist()
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "query_id\tpositive_id\tnegative_id\tnegative_kind\tstrategy"

    def test_repeated_ids_are_a_data_error(self, tmp_path):
        from nbcontrast.errors import DataError
        path = tmp_path / "triples.tsv"
        path.write_text(
            "query_id\tpositive_id\tnegative_id\tnegative_kind\tstrategy\n"
            "a\tb\tc\thard\tknn\n"
            "a\ta\tc\thard\tknn\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="line 3"):
            load_triples(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "triples.tsv"
        path.write_text("nope\tnope\n", encoding="utf-8")
        from nbcontrast.errors import DataError
        with pytest.raises(DataError):
            load_triples(path)

    @staticmethod
    def triple_file(tmp_path, *lines):
        """A triple file of the header, one good line, then ``lines``."""
        path = tmp_path / "triples.tsv"
        path.write_text("".join(
            line + "\n" for line in ("\t".join(mining.TRIPLE_HEADER),
                                     "a\tb\tc\thard\tknn", *lines)
        ), encoding="utf-8")
        return path

    @pytest.mark.parametrize("ids", ["a\ta\tb", "a\tb\tb", "b\ta\tb"],
                             ids=["query-positive", "positive-negative", "query-negative"])
    def test_triple_ids_always_distinct(self, tmp_path, ids):
        from nbcontrast.errors import DataError
        path = self.triple_file(tmp_path, f"{ids}\teasy\trandom", "a\ta\ta\thard\tknn")
        with pytest.raises(DataError) as err:
            load_triples(path)
        shown = ", ".join(repr(i) for i in ids.split("\t"))
        assert str(err.value) == (
            f"{path}: line 3: triple ids must be distinct: {shown}"
        )

    @pytest.mark.parametrize("line", ["a\tb\tc\thard", "a\tb\tc\thard\tknn\tx", ""],
                             ids=["four", "six", "blank"])
    def test_wrong_width_names_its_line(self, tmp_path, line):
        from nbcontrast.errors import DataError
        path = self.triple_file(tmp_path, "a\tb\td\teasy\trandom", line)
        with pytest.raises(DataError) as err:
            load_triples(path)
        assert str(err.value) == f"{path}: line 4: expected 5 columns"

    @pytest.mark.parametrize("lines, bad", [
        (["a\ta\tc\thard\tknn", "a\tb\tc\thard"], "line 3: triple ids must be distinct"),
        (["a\tb\tc\thard", "a\ta\tc\thard\tknn"], "line 3: expected 5 columns"),
    ], ids=["repeat-first", "width-first"])
    def test_first_bad_line_is_reported(self, tmp_path, lines, bad):
        from nbcontrast.errors import DataError
        path = self.triple_file(tmp_path, *lines)
        with pytest.raises(DataError) as err:
            load_triples(path)
        assert str(err.value).startswith(f"{path}: {bad}")

    def test_triples_are_read_only(self, tmp_path):
        table, ids = desk_papers()
        mined = mine_triples(range(5), table, ids, DESK_CONFIG)
        save_triples(mined, tmp_path / "triples.tsv")
        loaded = load_triples(tmp_path / "triples.tsv")
        for ts in (mined, loaded, subsample_triples(mined, 0.5, seed=0)):
            assert ts.triples.dtype.names == TRIPLE_FIELDS
            assert ts.triples.dtype.fields["query"][0] == object
            with pytest.raises(ValueError, match="read-only"):
                ts.triples.query[0] = "x"
            with pytest.raises(ValueError, match="read-only"):
                ts.triples[0] = ts.triples[1]
