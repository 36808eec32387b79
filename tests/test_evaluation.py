"""Ranking metrics vs definitional oracles, probe, leakage report."""

import json
import math

import numpy as np
import pytest

from nbcontrast.errors import DataError, ValidationError
from nbcontrast.evaluation import (
    LabeledSet,
    ProbeConfig,
    RankingQuery,
    RankingTask,
    linear_probe_f1,
    load_labeled_set,
    load_ranking_task,
    macro_f1,
    mean_average_precision,
    ndcg,
    overlap_report,
    precision_at_1,
    rank_by_l2,
    save_labeled_set,
    save_ranking_task,
)
from nbcontrast.graph_embed import EmbeddingTable, pairwise_auc


# -- definitional oracles, written directly from the metric definitions --

def oracle_ap(row):
    hits, total = 0, 0.0
    for rank, rel in enumerate(row, start=1):
        if rel:
            hits += 1
            total += hits / rank
    return total / hits if hits else None


def oracle_map(rows):
    aps = [oracle_ap(r) for r in rows]
    aps = [a for a in aps if a is not None]
    return sum(aps) / len(aps)


def oracle_ndcg(rows):
    scores = []
    for row in rows:
        n_rel = sum(row)
        if n_rel == 0:
            continue
        dcg = sum(rel / math.log2(i + 2) for i, rel in enumerate(row))
        idcg = sum(1.0 / math.log2(i + 2) for i in range(n_rel))
        scores.append(dcg / idcg)
    return sum(scores) / len(scores)


def oracle_p1(rows):
    return sum(1 for row in rows if row and row[0]) / len(rows)


def oracle_auc(pos, neg):
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def as_ranked(rows):
    """Turn 0/1 relevance rows into (ranked ids, relevant sets) inputs."""
    ranked, relevant = [], []
    for qi, row in enumerate(rows):
        ids = [f"q{qi}c{i}" for i in range(len(row))]
        ranked.append(ids)
        relevant.append({ids[i] for i, rel in enumerate(row) if rel})
    return ranked, relevant


class TestRankByL2:
    def make_table(self):
        values = np.array(
            [[0.0, 0.0], [3.0, 4.0], [1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]
        )
        ids = {f"d{i}": i for i in range(5)}
        return EmbeddingTable(values=values), ids

    def test_hand_computed_order(self):
        table, ids = self.make_table()
        # distances from d0: d1=5, d2=1, d3=2
        task = RankingTask(queries=(
            RankingQuery(query="d0", candidates=("d1", "d2", "d3"),
                         relevant=frozenset({"d2"})),
        ))
        [ranked] = rank_by_l2(table, task, ids)
        assert ranked == ["d2", "d3", "d1"]

    def test_zero_distance_ranks_first(self):
        table, ids = self.make_table()
        # d4 equals the query vector of d2
        task = RankingTask(queries=(
            RankingQuery(query="d2", candidates=("d1", "d4", "d3"),
                         relevant=frozenset({"d4"})),
        ))
        [ranked] = rank_by_l2(table, task, ids)
        assert ranked[0] == "d4"

    def test_equidistant_breaks_by_row_index(self):
        table, ids = self.make_table()
        # d2 and d4 share a vector, so both are equidistant from d0
        task = RankingTask(queries=(
            RankingQuery(query="d0", candidates=("d4", "d2"),
                         relevant=frozenset({"d2"})),
        ))
        [ranked] = rank_by_l2(table, task, ids)
        assert ranked == ["d2", "d4"]

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(6, 3))
        ids = {f"d{i}": i for i in range(6)}
        task = RankingTask(queries=(
            RankingQuery(query="d0", candidates=("d1", "d2", "d3", "d4", "d5"),
                         relevant=frozenset({"d1"})),
        ))
        base = rank_by_l2(EmbeddingTable(values=values), task, ids)
        shifted = rank_by_l2(
            EmbeddingTable(values=values + np.array([5.0, -2.0, 11.0])), task, ids
        )
        assert base == shifted

    def test_missing_id_rejected(self):
        table, ids = self.make_table()
        task = RankingTask(queries=(
            RankingQuery(query="d0", candidates=("nope",), relevant=frozenset()),
        ))
        with pytest.raises(DataError):
            rank_by_l2(table, task, ids)


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        ranked, relevant = as_ranked([[1, 1, 0, 0]])
        assert mean_average_precision(ranked, relevant) == 1.0

    def test_worked_example(self):
        ranked, relevant = as_ranked([[1, 0, 1]])
        got = mean_average_precision(ranked, relevant)
        assert abs(got - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12
        assert round(got, 4) == 0.8333

    def test_single_relevant_at_rank_two(self):
        ranked, relevant = as_ranked([[0, 1]])
        assert mean_average_precision(ranked, relevant) == 0.5

    def test_query_without_relevant_excluded(self):
        ranked, relevant = as_ranked([[1, 0], [0, 0]])
        assert mean_average_precision(ranked, relevant) == 1.0


class TestNdcg:
    def test_perfect_ranking(self):
        ranked, relevant = as_ranked([[1, 1, 0]])
        assert ndcg(ranked, relevant) == 1.0

    def test_worked_example(self):
        ranked, relevant = as_ranked([[1, 0, 1]])
        got = ndcg(ranked, relevant)
        expect = 1.5 / (1.0 + 1.0 / math.log2(3.0))
        assert abs(got - expect) < 1e-12
        assert round(got, 4) == 0.9197

    def test_all_relevant_any_order(self):
        ranked, relevant = as_ranked([[1, 1, 1]])
        assert ndcg(ranked, relevant) == 1.0


class TestPrecisionAt1:
    def test_all_hit(self):
        ranked, relevant = as_ranked([[1, 0], [1, 1]])
        assert precision_at_1(ranked, relevant) == 1.0

    def test_none_hit(self):
        ranked, relevant = as_ranked([[0, 1], [0, 1]])
        assert precision_at_1(ranked, relevant) == 0.0

    def test_two_of_three(self):
        ranked, relevant = as_ranked([[1, 0], [1, 0], [0, 1]])
        assert abs(precision_at_1(ranked, relevant) - 2.0 / 3.0) < 1e-12


class TestOracleEquivalence:
    def test_metrics_match_definitional_oracles(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n_queries = int(rng.integers(1, 6))
            rows = []
            for _ in range(n_queries):
                length = int(rng.integers(1, 11))
                row = list(int(x) for x in rng.integers(0, 2, size=length))
                rows.append(row)
            if not any(any(r) for r in rows):
                continue
            ranked, relevant = as_ranked(rows)
            assert abs(mean_average_precision(ranked, relevant)
                       - oracle_map(rows)) < 1e-9
            assert abs(ndcg(ranked, relevant) - oracle_ndcg(rows)) < 1e-9
            assert abs(precision_at_1(ranked, relevant) - oracle_p1(rows)) < 1e-9

    def test_auc_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            pos = [float(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 8)))]
            neg = [float(x) for x in rng.integers(0, 5, size=int(rng.integers(1, 8)))]
            assert abs(pairwise_auc(pos, neg) - oracle_auc(pos, neg)) < 1e-9

    def test_invariant_under_id_relabeling(self):
        rows = [[1, 0, 1, 0], [0, 1, 1]]
        ranked, relevant = as_ranked(rows)
        renamed = [[f"X-{pid}" for pid in row] for row in ranked]
        renamed_rel = [{f"X-{pid}" for pid in rel} for rel in relevant]
        assert mean_average_precision(ranked, relevant) == \
            mean_average_precision(renamed, renamed_rel)
        assert ndcg(ranked, relevant) == ndcg(renamed, renamed_rel)


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1(["a", "b"], ["a", "b"], ["a", "b"]) == 1.0

    def test_all_one_class_on_balanced_set(self):
        y_true = ["a", "a", "b", "b"]
        y_pred = ["a", "a", "a", "a"]
        got = macro_f1(y_true, y_pred, ["a", "b"])
        # class a: precision 0.5, recall 1.0 -> F1 = 2/3; class b: 0
        assert abs(got - (2.0 / 3.0) / 2.0) < 1e-12
        assert round(got, 4) == 0.3333


class TestLinearProbe:
    def separable_fixture(self):
        rng = np.random.default_rng(4)
        points, items = [], []
        for i in range(40):
            label = "left" if i % 2 == 0 else "right"
            center = -2.0 if label == "left" else 2.0
            points.append([center + rng.normal(0, 0.3), rng.normal(0, 0.3)])
            split = "train" if i < 30 else "test"
            items.append((f"d{i}", label, split))
        table = EmbeddingTable(values=np.array(points))
        id_to_row = {f"d{i}": i for i in range(40)}
        return table, LabeledSet(items=tuple(items)), id_to_row

    def test_separable_reaches_perfect_f1(self):
        table, data, id_to_row = self.separable_fixture()
        assert linear_probe_f1(table, data, id_to_row, ProbeConfig()) == 1.0

    def test_deterministic(self):
        table, data, id_to_row = self.separable_fixture()
        a = linear_probe_f1(table, data, id_to_row, ProbeConfig())
        b = linear_probe_f1(table, data, id_to_row, ProbeConfig())
        assert a == b

    def test_single_label_rejected(self):
        table = EmbeddingTable(values=np.zeros((4, 2)))
        data = LabeledSet(items=(
            ("d0", "x", "train"), ("d1", "x", "train"), ("d2", "x", "test"),
        ))
        id_to_row = {f"d{i}": i for i in range(4)}
        with pytest.raises(ValueError):
            linear_probe_f1(table, data, id_to_row)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.5])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match="learning_rate"):
            ProbeConfig(learning_rate=rate).validate()
        ProbeConfig().validate()

    def test_test_only_label_rejected(self):
        data = LabeledSet(items=(
            ("d0", "x", "train"), ("d1", "y", "test"),
        ))
        with pytest.raises(DataError):
            data.validate()


class TestOverlapReport:
    def test_benchmark_scale_percentages(self):
        # split overlaps of 79,201 and 79,609 sharing 32,634 ids combine
        # to exactly 126,176 of the 311,860 training ids
        train = {f"t{i}" for i in range(311_860)}
        test_split = {f"t{i}" for i in range(79_201)}
        validation = {f"t{i}" for i in range(46_567, 46_567 + 79_609)}
        combined = test_split | validation
        assert len(combined & train) == 126_176  # fixture arithmetic check
        report = overlap_report(train, {"test": test_split, "validation": validation})
        assert report.combined == (126_176, 40.5)
        assert report.per_split["test"] == (79_201, 25.4)
        assert report.per_split["validation"] == (79_609, 25.5)

    def test_disjoint(self):
        report = overlap_report({"a"}, {"test": {"b"}})
        assert report.combined == (0, 0.0)

    def test_superset(self):
        report = overlap_report({"a", "b"}, {"test": {"a", "b", "c"}})
        assert report.combined == (2, 100.0)


class TestTaskFiles:
    def test_ranking_roundtrip(self, tmp_path):
        task = RankingTask(queries=(
            RankingQuery(query="q1", candidates=("a", "b"),
                         relevant=frozenset({"a"})),
        ))
        path = tmp_path / "task.jsonl"
        save_ranking_task(task, path)
        loaded = load_ranking_task(path)
        assert loaded == task

    def test_relevant_must_be_candidates(self):
        with pytest.raises(DataError):
            RankingQuery(query="q", candidates=("a",), relevant=frozenset({"z"}))

    def test_candidates_must_be_distinct(self):
        # a repeat would count twice in MAP
        with pytest.raises(DataError, match="candidate 'b' listed twice"):
            RankingQuery(query="q", candidates=("b", "b", "c"),
                         relevant=frozenset({"b"}))

    def test_labeled_roundtrip(self, tmp_path):
        data = LabeledSet(items=(
            ("d0", "x", "train"), ("d1", "y", "train"), ("d2", "x", "test"),
        ))
        path = tmp_path / "labels.jsonl"
        save_labeled_set(data, path)
        assert load_labeled_set(path) == data

    @pytest.mark.parametrize("items, message", [
        ((("d0", "x", "train"), ("d1", "y", "train")), "no test items"),
        ((("d0", "x", "train"), ("d1", "y", "train"), ("d2", "z", "test")),
         "only in the test split"),
        # an id in both splits, and a split that is neither train nor test
        ((("d0", "x", "train"), ("d1", "y", "train"), ("d0", "x", "test")),
         "line 3: id 'd0' is in both splits"),
        ((("d0", "x", "train"), ("d1", "y", "train"), ("d2", "x", "test"),
          ("d3", "y", "Test")),
         "line 4: split must be 'train' or 'test', got 'Test'"),
        # an id on two lines of one split, even with another label
        ((("d0", "x", "train"), ("d1", "y", "train"), ("d2", "x", "test"),
          ("d0", "y", "train")),
         "line 4: id 'd0' already on line 1"),
    ])
    def test_labeled_set_errors_name_file(self, tmp_path, items, message):
        path = tmp_path / "labels.jsonl"
        save_labeled_set(LabeledSet(items=items), path)
        with pytest.raises(DataError, match=f"labels.jsonl: .*{message}"):
            load_labeled_set(path)

    def test_writer_bytes_match_reference_writers(self, tmp_path):
        task = RankingTask(queries=(
            RankingQuery(query="q\u00e9", candidates=("b", "a", "c"),
                         relevant=frozenset({"c", "a"})),
            RankingQuery(query="q2", candidates=("z",), relevant=frozenset()),
        ))
        data = LabeledSet(items=(("d0", "x", "train"), ("d1", "y\u00e9", "test")))
        save_ranking_task(task, tmp_path / "task.jsonl")
        save_labeled_set(data, tmp_path / "labels.jsonl")
        with (tmp_path / "task.ref").open("w", encoding="utf-8") as fh:
            for q in task.queries:
                fh.write(json.dumps({
                    "query": q.query,
                    "candidates": list(q.candidates),
                    "relevant": sorted(q.relevant),
                }, sort_keys=True))
                fh.write("\n")
        with (tmp_path / "labels.ref").open("w", encoding="utf-8") as fh:
            for pid, label, split in data.items:
                fh.write(json.dumps(
                    {"id": pid, "label": label, "split": split}, sort_keys=True
                ))
                fh.write("\n")
        assert (tmp_path / "task.jsonl").read_bytes() == \
            (tmp_path / "task.ref").read_bytes()
        assert (tmp_path / "labels.jsonl").read_bytes() == \
            (tmp_path / "labels.ref").read_bytes()
