"""Corpus ingestion, filtering, symmetrizing, and edge splits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbcontrast.corpus import (
    CitationGraph,
    Document,
    filter_nodes,
    ingest_edges,
    load_documents,
    load_graph,
    read_jsonl,
    save_documents,
    save_graph,
    split_edges,
    to_undirected,
    write_jsonl,
)
from nbcontrast.errors import DataError


def write_edges(tmp_path, lines):
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"{a}\t{b}\n" for a, b in lines), encoding="utf-8")
    return path


class TestIngest:
    def test_minimal_two_edges(self, tmp_path):
        g = ingest_edges(write_edges(tmp_path, [("a", "b"), ("b", "c")]))
        assert g.node_count == 3
        assert g.edge_count == 2
        # dense indices in first-appearance order
        assert g.ids == ("a", "b", "c")
        assert [tuple(e) for e in g.edges] == [(0, 1), (1, 2)]

    def test_duplicate_edge_dropped(self, tmp_path):
        g = ingest_edges(write_edges(tmp_path, [("a", "b"), ("a", "b")]))
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.stats["duplicate_edges_dropped"] == 1

    def test_self_loop_dropped(self, tmp_path):
        g = ingest_edges(write_edges(tmp_path, [("a", "a")]))
        assert g.node_count == 1
        assert g.edge_count == 0
        assert g.stats["self_loops_dropped"] == 1

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            ingest_edges(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            ingest_edges(path)

    def test_index_mapping_is_bijection(self, tmp_path):
        g = ingest_edges(write_edges(tmp_path, [("x", "y"), ("y", "z"), ("z", "x")]))
        assert len(set(g.ids)) == g.node_count == 3
        assert {ext: i for i, ext in enumerate(g.ids)} == {"x": 0, "y": 1, "z": 2}


class TestFilterNodes:
    def test_cut_vertex(self, tmp_path):
        g = ingest_edges(write_edges(tmp_path, [("a", "b"), ("b", "c")]))
        f = filter_nodes(g, {"b"})
        assert f.node_count == 2
        assert f.edge_count == 0
        assert f.ids == ("a", "c")

    def test_empty_exclusion_is_identity(self, tmp_path):
        g = ingest_edges(write_edges(tmp_path, [("a", "b"), ("b", "c")]))
        f = filter_nodes(g, set())
        assert f.ids == g.ids
        assert np.array_equal(f.edges, g.edges)

    def test_unknown_ids_ignored(self, tmp_path):
        g = ingest_edges(write_edges(tmp_path, [("a", "b")]))
        f = filter_nodes(g, {"nope", "missing"})
        assert f.node_count == 2
        assert f.stats["unknown_excluded_ids"] == 2

    def test_counts_match_brute_force_recount(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            raw = {(int(a), int(b))
                   for a, b in rng.integers(0, n, size=(15, 2)) if a != b}
            ids = tuple(f"p{i}" for i in range(n))
            g = CitationGraph(ids=ids, edges=np.array(sorted(raw)))
            excluded = {f"p{i}" for i in range(n) if rng.random() < 0.4}
            f = filter_nodes(g, excluded)
            survivors = [i for i in range(n) if f"p{i}" not in excluded]
            expect_edges = [
                (a, b) for a, b in sorted(raw)
                if f"p{a}" not in excluded and f"p{b}" not in excluded
            ]
            assert f.node_count == len(survivors)
            assert f.edge_count == len(expect_edges)
            # surviving external ids keep their relative order
            assert f.ids == tuple(f"p{i}" for i in survivors)


edge_sets = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] != e[1]),
    max_size=20,
    unique=True,
)


class TestToUndirected:
    def test_single_edge_symmetrized(self):
        g = CitationGraph(ids=("a", "b"), edges=np.array([[0, 1]]))
        u = to_undirected(g)
        assert {tuple(e) for e in u.edges} == {(0, 1), (1, 0)}
        assert not u.directed

    def test_already_symmetric_unchanged(self):
        g = CitationGraph(ids=("a", "b"), edges=np.array([[0, 1], [1, 0]]))
        u = to_undirected(g)
        assert {tuple(e) for e in u.edges} == {(0, 1), (1, 0)}

    def test_empty_edge_set(self):
        g = CitationGraph(ids=("a",), edges=np.zeros((0, 2), dtype=np.int64))
        assert to_undirected(g).edge_count == 0

    @given(edge_sets)
    @settings(max_examples=50)
    def test_idempotent(self, edges):
        ids = tuple(f"p{i}" for i in range(6))
        g = CitationGraph(ids=ids, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))
        once = to_undirected(g)
        twice = to_undirected(once)
        assert {tuple(e) for e in once.edges} == {tuple(e) for e in twice.edges}
        assert once.edge_count == twice.edge_count


class TestSplitEdges:
    def make_graph(self, n_edges):
        n = n_edges + 1
        edges = np.array([(i, i + 1) for i in range(n_edges)], dtype=np.int64)
        return CitationGraph(ids=tuple(f"p{i}" for i in range(n)), edges=edges)

    def test_one_percent_of_100(self):
        g = self.make_graph(100)
        train, holdout = split_edges(g, 0.01, seed=0)
        assert train.edge_count == 99
        assert holdout.shape[0] == 1

    def test_zero_fraction_is_noop(self):
        g = self.make_graph(10)
        train, holdout = split_edges(g, 0.0, seed=0)
        assert train.edge_count == 10
        assert holdout.shape[0] == 0

    def test_same_seed_same_partition(self):
        g = self.make_graph(50)
        a = split_edges(g, 0.2, seed=9)
        b = split_edges(g, 0.2, seed=9)
        assert np.array_equal(a[0].edges, b[0].edges)
        assert np.array_equal(a[1], b[1])

    def test_fraction_out_of_range(self):
        g = self.make_graph(10)
        with pytest.raises(ValueError):
            split_edges(g, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_edges(g, -0.1, seed=0)

    def test_fraction_selecting_nothing_rejected(self):
        g = self.make_graph(10)
        with pytest.raises(ValueError):
            split_edges(g, 0.001, seed=0)

    @given(
        n_edges=st.integers(1, 60),
        fraction=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_exact_partition(self, n_edges, fraction, seed):
        g = self.make_graph(n_edges)
        expected_holdout = int(np.floor(fraction * n_edges + 1e-9))
        if fraction > 0 and expected_holdout < 1:
            return
        train, holdout = split_edges(g, fraction, seed=seed)
        assert train.edge_count + holdout.shape[0] == n_edges
        train_set = {tuple(e) for e in train.edges}
        hold_set = {tuple(e) for e in holdout}
        assert not train_set & hold_set
        assert holdout.shape[0] == expected_holdout
        # node mapping untouched by the split
        assert train.ids == g.ids


class TestDocuments:
    def test_roundtrip(self, tmp_path):
        docs = [
            Document(id="a", title="First paper", abstract="about things"),
            Document(id="b", title="Second", abstract=""),
        ]
        path = tmp_path / "docs.jsonl"
        save_documents(docs, path)
        loaded = load_documents(path)
        assert loaded["a"].abstract == "about things"
        assert loaded["b"].title == "Second"

    def test_empty_title_rejected(self):
        with pytest.raises(DataError, match="title"):
            Document(id="a", title="", abstract="x")

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="title"):
            load_documents(path)


class TestGraphSnapshot:
    def test_roundtrip(self, tmp_path):
        g = CitationGraph(
            ids=("a", "b", "c"),
            edges=np.array([[0, 1], [2, 0]]),
            stats={"duplicate_edges_dropped": 2, "self_loops_dropped": 0},
        )
        path = tmp_path / "graph.json"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.ids == g.ids
        assert np.array_equal(loaded.edges, g.edges)
        assert loaded.directed == g.directed
        assert loaded.stats["duplicate_edges_dropped"] == 2

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(DataError):
            load_graph(path)

    @pytest.mark.parametrize("payload", [
        {"ids": ["a", "b"], "edges": [[0, 1]]},
        {"edges": [[0, 1]], "directed": True},
        {"ids": ["a", "b"], "directed": True},
        {"ids": ["a", "b"], "edges": [[0, 1, 1]], "directed": True},
        {"ids": ["a", "b"], "edges": [[0, 1], [1]], "directed": True},
        {"ids": ["a", "b"], "edges": [0, 1], "directed": True},
        {"ids": ["a", "b"], "edges": [[[0, 1]]], "directed": True},
        {"ids": ["a", "b"], "edges": [["a", "b"]], "directed": True},
        {"ids": ["a", "b"], "edges": [[0, 2]], "directed": True},
        {"ids": ["a", "b"], "edges": [[-1, 0]], "directed": True},
        [["a", "b"]],
        7,
    ])
    def test_malformed_snapshot_names_file(self, tmp_path, payload):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="graph.json"):
            load_graph(path)

    def test_empty_edge_list_loads(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"ids": ["a"], "edges": [], "directed": false}')
        g = load_graph(path)
        assert g.edges.shape == (0, 2) and g.ids == ("a",) and not g.directed


class TestJsonLines:
    def test_yields_line_numbers_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2, "b": 3}\n', encoding="utf-8")
        assert list(read_jsonl(path, ("a",))) == [(1, {"a": 1}), (4, {"a": 2, "b": 3})]

    @pytest.mark.parametrize("line, message", [
        ("{not json", "invalid JSON"),
        ("5", "expected a JSON object, got int"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('"x"', "expected a JSON object, got str"),
        ("null", "expected a JSON object, got NoneType"),
        ('{"b": 1}', "missing field 'a'"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "x.jsonl"
        path.write_text(f'{{"a": 1}}\n{line}\n', encoding="utf-8")
        with pytest.raises(DataError, match=f"x.jsonl: line 2: {message}"):
            list(read_jsonl(path, ("a",)))

    def test_write_matches_per_line_dumps(self, tmp_path):
        records = [{"b": [1, "é"], "a": None}, {}, {"z": 1.5, "y": {"k": True}}]
        path = tmp_path / "x.jsonl"
        write_jsonl(path, iter(records))
        expect = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        assert path.read_bytes() == expect.encode("utf-8")

    def test_documents_bytes_match_reference_writer(self, tmp_path):
        docs = [Document(id=f"d{i}", title=f"T\u00e9 {i}", abstract="a\tb" * i)
                for i in range(5)]
        path = tmp_path / "docs.jsonl"
        save_documents(docs, path)
        expect = tmp_path / "expect.jsonl"
        with expect.open("w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(
                    {"id": doc.id, "title": doc.title, "abstract": doc.abstract},
                    sort_keys=True,
                ))
                fh.write("\n")
        assert path.read_bytes() == expect.read_bytes()


# Test-local references: the set-, dict- and tuple-based paths the array
# code replaced, kept to pin its output to theirs.

def reference_dedup(pairs):
    seen, kept, self_loops, duplicates = set(), [], 0, 0
    for src, dst in pairs:
        if src == dst:
            self_loops += 1
        elif (src, dst) in seen:
            duplicates += 1
        else:
            seen.add((src, dst))
            kept.append((src, dst))
    return np.asarray(kept, dtype=np.int64).reshape(-1, 2), duplicates, self_loops


def reference_ingest(pairs):
    index = {}
    raw = [(index.setdefault(a, len(index)), index.setdefault(b, len(index)))
           for a, b in pairs]
    edges, duplicates, self_loops = reference_dedup(raw)
    stats = {"duplicate_edges_dropped": duplicates, "self_loops_dropped": self_loops}
    return tuple(index), edges, stats


def reference_filter(g, exclude):
    known = set(g.ids)
    drop = {g.ids.index(e) for e in exclude if e in known}
    keep_ids = tuple(ext for i, ext in enumerate(g.ids) if i not in drop)
    remap = {old: new for new, old in
             enumerate(i for i in range(g.node_count) if i not in drop)}
    kept = [(remap[s], remap[d]) for s, d in g.edges if s not in drop and d not in drop]
    edges = np.asarray(kept, dtype=np.int64).reshape(-1, 2)
    stats = {
        "nodes_removed": g.node_count - len(keep_ids),
        "edges_removed": g.edge_count - edges.shape[0],
        "unknown_excluded_ids": len(exclude - known),
    }
    return keep_ids, edges, stats


def reference_undirected(g):
    pairs = list(map(tuple, g.edges)) + [(int(d), int(s)) for s, d in g.edges]
    return reference_dedup(pairs)[0]


def assert_same_edges(actual, expect):
    assert actual.dtype == np.int64 and actual.shape == expect.shape
    assert actual.tobytes() == expect.tobytes()


# small alphabets so self-loops and duplicates are common
raw_pairs = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40)


class TestArrayPathsMatchReference:
    @given(raw_pairs)
    @settings(max_examples=150, deadline=None)
    def test_ingest_edges(self, tmp_path_factory, pairs):
        named = [(f"p{a}", f"p{b}") for a, b in pairs]
        path = write_edges(tmp_path_factory.mktemp("ingest"), named)
        if not pairs:
            with pytest.raises(DataError, match="empty"):
                ingest_edges(path)
            return
        g = ingest_edges(path)
        ids, edges, stats = reference_ingest(named)
        assert g.ids == ids
        assert_same_edges(g.edges, edges)
        assert g.stats == stats

    @given(raw_pairs, st.sets(st.integers(0, 9)))
    @settings(max_examples=150, deadline=None)
    def test_filter_nodes(self, pairs, excluded):
        n = 8
        edges = reference_dedup(pairs)[0]
        g = CitationGraph(ids=tuple(f"p{i}" for i in range(n)), edges=edges)
        # ids 8 and 9 are unknown to the graph
        exclude = {f"p{i}" for i in excluded}
        f = filter_nodes(g, exclude)
        ids, expect, stats = reference_filter(g, exclude)
        assert f.ids == ids
        assert_same_edges(f.edges, expect)
        assert f.stats == stats
        assert f.directed == g.directed

    @pytest.mark.parametrize("exclude", [set(), {"p0", "p1", "p2"}, {"zz"}])
    def test_filter_nodes_edge_cases(self, exclude):
        g = CitationGraph(ids=("p0", "p1", "p2"), edges=np.array([[0, 1], [2, 1]]))
        f = filter_nodes(g, exclude)
        ids, expect, stats = reference_filter(g, exclude)
        assert f.ids == ids
        assert_same_edges(f.edges, expect)
        assert f.stats == stats

    @given(raw_pairs)
    @settings(max_examples=150, deadline=None)
    def test_to_undirected(self, pairs):
        # rows straight from the strategy: self-loops and repeats included
        g = CitationGraph(ids=tuple(f"p{i}" for i in range(8)),
                          edges=np.array(pairs, dtype=np.int64).reshape(-1, 2))
        u = to_undirected(g)
        assert_same_edges(u.edges, reference_undirected(g))
        assert u.ids == g.ids and not u.directed and u.stats == g.stats

    def test_save_graph_bytes_match_reference_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 300
        edges = reference_dedup(map(tuple, rng.integers(0, n, size=(2000, 2))))[0]
        for stats in ({"duplicate_edges_dropped": 3, "self_loops_dropped": 1}, None):
            g = CitationGraph(ids=tuple(f"n\u00e9{i}" for i in range(n)),
                              edges=edges, stats=stats)
            save_graph(g, tmp_path / "graph.json")
            with (tmp_path / "expect.json").open("w", encoding="utf-8") as fh:
                json.dump({
                    "ids": list(g.ids),
                    "edges": [[int(s), int(d)] for s, d in g.edges],
                    "directed": g.directed,
                    "stats": dict(g.stats) if g.stats else {},
                }, fh, sort_keys=True, separators=(",", ":"))
            assert (tmp_path / "graph.json").read_bytes() == \
                (tmp_path / "expect.json").read_bytes()
