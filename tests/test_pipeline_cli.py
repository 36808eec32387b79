"""Pipeline stages, CLI exit codes, artifact determinism, provenance."""

import configparser
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nbcontrast import corpus, encoder, fixtures, graph_embed, mining, pipeline
from nbcontrast.cli import DEFAULT_CONFIG, main
from nbcontrast.encoder import EncoderTrainConfig
from nbcontrast.errors import DependencyError
from nbcontrast.evaluation import LabeledSet, ProbeConfig
from nbcontrast.fixtures import FixtureConfig
from nbcontrast.graph_embed import EmbeddingTable, GraphTrainConfig
from nbcontrast.mining import SamplingConfig
from nbcontrast.pipeline import (
    ARTIFACTS, DOC_TOKENS, STAGES, label_separation, load_config, run,
)
from nbcontrast.snapshot import read_snapshot, write_snapshot


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


MINIMAL_CONFIG = """\
[pipeline]
seed = 3

[graph]
dim = 16
epochs = 5
holdout_fraction = 0.05
eval_negatives = 20

[sampling]
k_pos = 10
k_hard = 60
c_pos = 5
c_hard = 2
c_easy = 3

[encoder]
hidden_dim = 32
out_dim = 16
epochs = 2

[probe]
epochs = 100

[eval]
ranking_task = ranking.jsonl
labels = labels.jsonl

[fixture]
enabled = true
nodes = 120
blocks = 2
p_in = 0.12
p_out = 0.02
"""


@pytest.fixture()
def workdir(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(MINIMAL_CONFIG, encoding="utf-8")
    return tmp_path


class TestStages:
    def test_all_produces_every_artifact(self, workdir):
        rc = main(["all", "--config", str(workdir / "config.ini")])
        assert rc == 0
        for names in ARTIFACTS.values():
            for name in names:
                assert (workdir / name).is_file(), name
        report = json.loads((workdir / "report.json").read_text())
        assert any(key.startswith("ranking.") for key in report)
        assert any(key.startswith("classification.") for key in report)

    def test_eval_reports_overlap_with_the_graph(self, tmp_path):
        assert main(["fixture", "--stage-dir", str(tmp_path)]) == 0
        config = tmp_path / "config.ini"
        config.write_text(config.read_text(encoding="utf-8").replace(
            "labels = labels.jsonl", "labels = labels.jsonl\noverlap_test = overlap.txt"
        ), encoding="utf-8")
        # two of the three ids are fixture nodes
        (tmp_path / "overlap.txt").write_text("n00000\nnobody\nn00199\n", encoding="utf-8")
        assert main(["all", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["leakage.train_size"] == 200
        assert report["leakage.test.overlap"] == 2
        assert report["leakage.test.percent"] == 1.0
        prov = json.loads((tmp_path / "eval.prov.json").read_text(encoding="utf-8"))
        assert {"graph.json", "overlap.txt"} <= set(prov["inputs"])

    def test_provenance_sidecars_written(self, tmp_path):
        # the README quick start
        assert main(["fixture", "--stage-dir", str(tmp_path)]) == 0
        config = tmp_path / "config.ini"
        assert main(["all", "--config", str(config)]) == 0
        # every sidecar's input and output names, pinned
        expected = {
            "fixture": ([], ["documents.jsonl", "edges.tsv", "labels.jsonl",
                             "ranking.jsonl"]),
            "ingest": (["edges.tsv"], ["graph.json"]),
            "graph-train": (["graph.json"],
                            ["graph_embeddings.nbe", "graph_metrics.json"]),
            "mine": (["graph.json", "graph_embeddings.nbe"], ["triples.tsv"]),
            "encode-train": (["documents.jsonl", "triples.tsv"],
                             ["doc_tokens.bin", "encoder.bin", "encoder_metrics.json"]),
            "eval": (["doc_tokens.bin", "documents.jsonl", "encoder.bin",
                      "labels.jsonl", "ranking.jsonl"],
                     ["doc_vectors.nbe", "report.json", "report.txt"]),
        }
        for stage, (inputs, outputs) in expected.items():
            payload = json.loads((tmp_path / f"{stage}.prov.json").read_text())
            assert payload["stage"] == stage
            assert payload["seed"] == 7
            assert payload["config_sha256"] == sha256(config)
            assert (sorted(payload["inputs"]), sorted(payload["outputs"])) == (
                inputs, outputs), stage
            for name, digest in {**payload["inputs"], **payload["outputs"]}.items():
                assert digest == sha256(tmp_path / name), (stage, name)

    def test_sidecar_hashes_the_config_as_loaded(self, workdir):
        config = workdir / "config.ini"
        assert main(["fixture", "--config", str(config)]) == 0
        cfg = load_config(config)
        config.write_text(MINIMAL_CONFIG.replace("seed = 3", "seed = 4"), encoding="utf-8")
        pipeline.run_ingest(cfg)
        prov = json.loads((workdir / "ingest.prov.json").read_text())
        assert prov["config_sha256"] == hashlib.sha256(
            MINIMAL_CONFIG.encode("utf-8")).hexdigest()

    def test_loaded_config_runs_after_its_file_is_deleted(self, workdir):
        config = workdir / "config.ini"
        assert main(["fixture", "--config", str(config)]) == 0
        cfg = load_config(config)
        config.unlink()
        pipeline.run_ingest(cfg)
        assert (workdir / "ingest.prov.json").is_file()

    def test_no_digest_outlives_its_stage(self, workdir):
        assert main(["all", "--config", str(workdir / "config.ini")]) == 0
        assert pipeline._sha256_file.cache_info().currsize == 0

    def test_rerun_is_byte_identical(self, workdir):
        config = str(workdir / "config.ini")
        main(["all", "--config", config])
        first = {
            name: sha256(workdir / name)
            for names in (*ARTIFACTS.values(), [f"{s}.prov.json" for s in STAGES])
            for name in names
        }
        main(["all", "--config", config])
        second = {name: sha256(workdir / name) for name in first}
        assert first == second

    def test_lone_surrogate_escape_in_documents_runs(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", config]) == 0
        docs = workdir / "documents.jsonl"
        first, *rest = docs.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(first)
        record["title"] += " a\ud800b"
        line = json.dumps(record) + "\n"
        assert "\\ud800" in line
        docs.write_text(line + "".join(rest), encoding="utf-8")
        assert main(["encode-train", "--config", config]) == 0
        assert main(["eval", "--config", config]) == 0

    def test_stage_dir_override(self, workdir, tmp_path):
        other = tmp_path / "elsewhere"
        rc = main(["fixture", "--config", str(workdir / "config.ini"),
                   "--stage-dir", str(other)])
        assert rc == 0
        assert (other / "edges.tsv").is_file()

    def test_fixture_sidecar_digests_its_latest_files(self, workdir):
        config = str(workdir / "config.ini")
        for seed in ("1", "2"):
            assert main(["fixture", "--config", config, "--seed", seed]) == 0
        outputs = json.loads((workdir / "fixture.prov.json").read_text())["outputs"]
        assert outputs == {name: sha256(workdir / name) for name in outputs}

    def test_seed_override_changes_artifacts(self, workdir):
        config = str(workdir / "config.ini")
        main(["all", "--config", config])
        triples_a = sha256(workdir / ARTIFACTS["mine"][0])
        main(["all", "--config", config, "--seed", "99"])
        triples_b = sha256(workdir / ARTIFACTS["mine"][0])
        assert triples_a != triples_b

    @pytest.mark.parametrize("ingest, extra", [
        ("undirected = true", {}),
        ("exclude_ids = exclude.txt",
         {"nodes_removed": 1, "edges_removed": 1, "unknown_excluded_ids": 1}),
    ])
    def test_graph_keeps_dedup_counters(self, workdir, ingest, extra):
        (workdir / "edges.tsv").write_text(
            "a\tb\na\tb\nb\tb\nb\tc\nc\td\n", encoding="utf-8"
        )
        (workdir / "exclude.txt").write_text("d\nzz\n", encoding="utf-8")
        config = workdir / "ingest.ini"
        config.write_text(MINIMAL_CONFIG + f"\n[ingest]\n{ingest}\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        graph = json.loads((workdir / ARTIFACTS["ingest"][0]).read_text(encoding="utf-8"))
        assert graph["stats"] == {
            "duplicate_edges_dropped": 1, "self_loops_dropped": 1, **extra
        }


class TestExitCodes:
    def test_margin_violation_exits_2_and_writes_nothing(self, workdir):
        bad = MINIMAL_CONFIG.replace("k_hard = 60", "k_hard = 11")
        config = workdir / "bad.ini"
        config.write_text(bad, encoding="utf-8")
        rc = main(["mine", "--config", str(config)])
        assert rc == 2
        assert not (workdir / ARTIFACTS["mine"][0]).exists()

    def test_non_finite_threshold_exits_2(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train"):
            assert main([stage, "--config", config]) == 0
        bad = MINIMAL_CONFIG.replace(
            "[sampling]", "[sampling]\npos_strategy = sim\nt_pos = nan"
        )
        (workdir / "bad.ini").write_text(bad, encoding="utf-8")
        assert main(["mine", "--config", str(workdir / "bad.ini")]) == 2
        assert not (workdir / ARTIFACTS["mine"][0]).exists()

    @pytest.mark.parametrize("sampling", [
        # sim bands read no neighbor list, so a negative k scanned nothing
        {"pos_strategy": "sim", "hard_strategy": "sim", "t_pos": "-1.0",
         "t_neg": "2.0", "k_pos": "-5", "k_hard": "-5"},
        {"c_pos": "0", "c_hard": "0", "k_pos": "0", "k_hard": "0"},
        {"easy_strategy": "sorted_random", "sorted_random_candidates": "1"},
    ])
    def test_unsatisfiable_sampling_exits_2(self, workdir, capsys, sampling):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train"):
            assert main([stage, "--config", config]) == 0
        capsys.readouterr()
        bad = configparser.ConfigParser()
        bad.read_string(MINIMAL_CONFIG)
        bad["sampling"].update(sampling)
        with (workdir / "bad.ini").open("w", encoding="utf-8") as fh:
            bad.write(fh)
        assert main(["mine", "--config", str(workdir / "bad.ini")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert not (workdir / ARTIFACTS["mine"][0]).exists()

    @pytest.mark.parametrize("sampling, named", [
        ({"c_pos": "0"}, "c_pos=0, c_hard=2, c_easy=3"),
        ({"c_hard": "0", "c_easy": "0"}, "c_pos=5, c_hard=0, c_easy=0"),
    ])
    def test_config_that_mines_nothing_exits_2_at_load(
        self, workdir, capsys, sampling, named
    ):
        bad = configparser.ConfigParser()
        bad.read_string(MINIMAL_CONFIG)
        bad["sampling"].update(sampling)
        with (workdir / "bad.ini").open("w", encoding="utf-8") as fh:
            bad.write(fh)
        for stage in ("fixture", "ingest", "mine"):
            assert main([stage, "--config", str(workdir / "bad.ini")]) == 2, stage
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"[sampling] c_pos and c_hard + c_easy must be >= 1: {named}" in err
        assert not (workdir / "edges.tsv").exists()

    def test_snapshot_graph_row_mismatch_names_both_files(self, workdir, capsys):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train"):
            assert main([stage, "--config", config]) == 0
        table_path = workdir / ARTIFACTS["graph-train"][0]
        table = read_snapshot(table_path)
        write_snapshot(EmbeddingTable(table.values[:-1], table.measure), table_path)
        capsys.readouterr()
        assert main(["mine", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{table_path} has 119 rows" in err
        assert f"{workdir / ARTIFACTS['ingest'][0]} has 120 nodes" in err
        assert not (workdir / ARTIFACTS["mine"][0]).exists()

    def test_effective_batch_zero_exits_2(self, workdir):
        bad = MINIMAL_CONFIG.replace("[encoder]", "[encoder]\neffective_batch = 0")
        config = workdir / "bad.ini"
        config.write_text(bad, encoding="utf-8")
        assert main(["encode-train", "--config", str(config)]) == 2
        assert not (workdir / ARTIFACTS["encode-train"][0]).exists()

    @pytest.mark.parametrize("section, key, value", [
        ("graph", "margin", "nan"),
        ("graph", "learning_rate", "nan"),
        ("graph", "learning_rate", "inf"),
        ("encoder", "learning_rate", "nan"),
        ("encoder", "slack", "nan"),
        ("probe", "learning_rate", "nan"),
        # an untrained probe would still report an F1
        ("probe", "epochs", "0"),
    ])
    def test_non_finite_hyperparameter_exits_2(self, workdir, section, key, value):
        bad = configparser.ConfigParser()
        bad.read_string(MINIMAL_CONFIG)
        bad[section][key] = value
        config = workdir / "bad.ini"
        with config.open("w", encoding="utf-8") as fh:
            bad.write(fh)
        assert main(["all", "--config", str(config)]) == 2
        assert sorted(p.name for p in workdir.iterdir()) == ["bad.ini", "config.ini"]

    @pytest.mark.parametrize("key, value", [
        ("nodes", "1"),
        ("blocks", "0"),
        ("ranking_queries", "-1"),
        ("ranking_queries", "0"),
        ("ranking_candidates", "-1"),
        ("test_fraction", "1.5"),
        ("test_fraction", "-0.5"),
        ("p_in", "1.5"),
        ("p_out", "-0.1"),
        ("p_in", "nan"),
    ])
    def test_bad_fixture_value_exits_2(self, workdir, capsys, key, value):
        bad = configparser.ConfigParser()
        bad.read_string(MINIMAL_CONFIG)
        bad["fixture"][key] = value
        config = workdir / "bad.ini"
        # rejected whether or not `all` would run the fixture stage
        for enabled, stage in (("true", "fixture"), ("false", "ingest")):
            bad["fixture"]["enabled"] = enabled
            with config.open("w", encoding="utf-8") as fh:
                bad.write(fh)
            capsys.readouterr()
            assert main([stage, "--config", str(config)]) == 2, enabled
            err = capsys.readouterr().err
            assert err.startswith("validation error: ") and err.count("\n") == 1
            assert key in err
            assert sorted(p.name for p in workdir.iterdir()) == ["bad.ini", "config.ini"]

    def test_fixture_too_small_to_split_exits_2(self, workdir, capsys):
        # one paper per label: whichever lands in the test split has no train row
        tiny = configparser.ConfigParser()
        tiny.read_string(MINIMAL_CONFIG)
        tiny["fixture"].update(nodes="2", blocks="2")
        config = workdir / "tiny.ini"
        with config.open("w", encoding="utf-8") as fh:
            tiny.write(fh)
        assert main(["fixture", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert "[fixture]" in err and "nodes = 2" in err and "blocks = 2" in err
        assert sorted(p.name for p in workdir.iterdir()) == ["config.ini", "tiny.ini"]

    @pytest.mark.parametrize("name, stage, code", [
        ("edges.tsv", "ingest", 3),
        ("exclude.txt", "ingest", 3),
        (ARTIFACTS["ingest"][0], "graph-train", 3),
        (ARTIFACTS["mine"][0], "encode-train", 3),
        ("documents.jsonl", "encode-train", 3),
        ("ranking.jsonl", "eval", 3),
        ("overlap.txt", "eval", 3),
        ("config.ini", "ingest", 2),
    ])
    def test_non_utf8_input_is_rejected(self, workdir, capsys, name, stage, code):
        config = workdir / "config.ini"
        config.write_text(
            MINIMAL_CONFIG.replace(
                "labels = labels.jsonl",
                "labels = labels.jsonl\noverlap_test = overlap.txt",
            ) + "\n[ingest]\nexclude_ids = exclude.txt\n",
            encoding="utf-8",
        )
        for ids in ("exclude.txt", "overlap.txt"):
            (workdir / ids).write_text("nobody\n", encoding="utf-8")
        stages = ["fixture", "ingest", "graph-train", "mine", "encode-train", "eval"]
        for upstream in stages[:stages.index(stage)]:
            assert main([upstream, "--config", str(config)]) == 0
        out = workdir / ARTIFACTS[stage][0]
        out.unlink(missing_ok=True)
        data = (workdir / name).read_bytes()
        half = len(data) // 2
        (workdir / name).write_bytes(data[:half] + b"\xff" + data[half:])
        capsys.readouterr()
        assert main([stage, "--config", str(config)]) == code
        err = capsys.readouterr().err
        prefix = "data error: " if code == 3 else "validation error: "
        assert err.startswith(prefix) and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    def test_missing_upstream_exits_4(self, workdir):
        rc = main(["mine", "--config", str(workdir / "config.ini")])
        assert rc == 4

    def test_missing_config_exits_4(self, tmp_path):
        rc = main(["ingest", "--config", str(tmp_path / "nope.ini")])
        assert rc == 4

    @pytest.mark.parametrize("text", [
        MINIMAL_CONFIG + "\n[pipeline]\nseed = 1\n",
        "seed = 1\n" + MINIMAL_CONFIG,
    ], ids=["duplicate-section", "no-section-header"])
    def test_unparsable_config_names_its_plain_path(self, workdir, capsys, text):
        config = workdir / "bad.ini"
        config.write_text(text, encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {config}: ")
        assert f"'{config}'" in err and "PosixPath(" not in err

    @pytest.mark.parametrize("args", [
        ["ingest", "--config", "config.ini", "--stage-dir", "afile"],
        ["ingest", "--config", "config.ini", "--stage-dir", "afile/sub"],
        ["ingest", "--config", "in_afile.ini"],
        ["fixture", "--stage-dir", "afile"],
        ["fixture", "--stage-dir", "afile/sub"],
    ])
    def test_work_directory_that_is_a_file_exits_2(
        self, workdir, capsys, monkeypatch, args
    ):
        monkeypatch.chdir(workdir)
        (workdir / "afile").write_text("a user file\n", encoding="utf-8")
        (workdir / "in_afile.ini").write_text(MINIMAL_CONFIG.replace(
            "[pipeline]", "[pipeline]\nworkdir = afile"), encoding="utf-8")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: work directory ") and err.count("\n") == 1
        assert "afile" in err and "is not a directory" in err
        assert (workdir / "afile").read_text(encoding="utf-8") == "a user file\n"

    def test_malformed_edges_exit_3(self, workdir):
        (workdir / "edges.tsv").write_text("one_column_only\n", encoding="utf-8")
        rc = main(["ingest", "--config", str(workdir / "config.ini")])
        assert rc == 3

    def test_truncated_encoder_checkpoint_exits_3(self, workdir):
        config = str(workdir / "config.ini")
        assert main(["all", "--config", config]) == 0
        ckpt = workdir / ARTIFACTS["encode-train"][0]
        ckpt.write_bytes(ckpt.read_bytes()[:-1])
        assert main(["eval", "--config", config]) == 3

    def test_checkpoint_without_sep_exits_3(self, workdir, capsys):
        config = str(workdir / "config.ini")
        assert main(["all", "--config", config]) == 0
        ckpt = workdir / ARTIFACTS["encode-train"][0]
        raw = ckpt.read_bytes()
        assert raw.count(b"<sep>") == 1
        ckpt.write_bytes(raw.replace(b"<sep>", b"[sep]"))
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert ARTIFACTS["encode-train"][0] in err and "<sep>" in err

    def test_triple_with_repeated_ids_exits_3(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", config]) == 0
        triples = workdir / ARTIFACTS["mine"][0]
        header, first, *_ = triples.read_text(encoding="utf-8").splitlines()
        query, _, negative, kind, strategy = first.split("\t")
        repeated = "\t".join([query, query, negative, kind, strategy])
        triples.write_text(f"{header}\n{repeated}\n", encoding="utf-8")
        assert main(["encode-train", "--config", config]) == 3

    def test_duplicate_document_id_exits_3_at_encode_train(self, workdir, capsys):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", config]) == 0
        docs = workdir / "documents.jsonl"
        lines = docs.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        assert first["id"] == "n00000"
        again = json.dumps({**first, "title": "Another title"}) + "\n"
        docs.write_text("".join(lines) + again, encoding="utf-8")
        capsys.readouterr()
        assert main(["encode-train", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert (f"documents.jsonl: line {len(lines) + 1}: document id 'n00000' "
                "already on line 1") in err
        for name in (ARTIFACTS["encode-train"][0], DOC_TOKENS, "encoder_metrics.json",
                     "encode-train.prov.json"):
            assert not (workdir / name).exists(), name

    def test_zero_triples_exit_3_and_write_no_checkpoint(self, workdir, capsys):
        # mine refuses to write an empty triple file, so write one by hand
        config = workdir / "config.ini"
        assert main(["fixture", "--config", str(config)]) == 0
        mining.save_triples(mining.TripleSet((), SamplingConfig()),
                            workdir / ARTIFACTS["mine"][0])
        capsys.readouterr()
        assert main(["encode-train", "--config", str(config)]) == 3
        assert ARTIFACTS["mine"][0] in capsys.readouterr().err
        assert not (workdir / ARTIFACTS["encode-train"][0]).exists()

    def test_selection_of_no_query_exits_3_before_the_scan(
        self, workdir, capsys, monkeypatch
    ):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train"):
            assert main([stage, "--config", config]) == 0
        capsys.readouterr()
        none = MINIMAL_CONFIG.replace("[sampling]", "[sampling]\nsubsample_fraction = 0.001")
        (workdir / "none.ini").write_text(none, encoding="utf-8")

        def no_scan(*args):
            raise AssertionError("scanned although no query is kept")

        monkeypatch.setattr(mining, "batch_neighbors", no_scan)
        assert main(["mine", "--config", str(workdir / "none.ini")]) == 3
        err = capsys.readouterr().err
        assert err == ("data error: subsample_fraction = 0.001 keeps none of "
                       "120 selected queries\n")
        assert not (workdir / ARTIFACTS["mine"][0]).exists()

    def test_failed_mine_leaves_no_triples_behind(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", config]) == 0
        none = workdir / "none.ini"
        none.write_text(MINIMAL_CONFIG.replace(
            "[sampling]", "[sampling]\nsubsample_fraction = 0.001"), encoding="utf-8")
        assert main(["mine", "--config", str(none)]) == 3
        assert not (workdir / ARTIFACTS["mine"][0]).exists()
        assert main(["encode-train", "--config", str(none)]) == 4

    @pytest.mark.parametrize("stage, upstream", [
        ("ingest", "edges.tsv"),
        ("graph-train", ARTIFACTS["ingest"][0]),
        ("mine", ARTIFACTS["graph-train"][0]),
        ("encode-train", ARTIFACTS["mine"][0]),
        ("eval", ARTIFACTS["encode-train"][0]),
    ])
    def test_failed_stage_removes_its_earlier_outputs(self, workdir, stage, upstream):
        config = str(workdir / "config.ini")
        assert main(["all", "--config", config]) == 0
        (workdir / upstream).unlink()
        assert main([stage, "--config", config]) == 4
        for name in (*ARTIFACTS[stage], f"{stage}.prov.json"):
            assert not (workdir / name).exists(), name

    @pytest.mark.parametrize("sampling, cause", [
        # every neighbour list is shorter than k_hard
        ({"k_hard": "400"}, "no triple mined from 120 queries, skipped: "
                            "{'insufficient neighbors for k=400': 120}"),
        # a positive threshold above every score
        ({"pos_strategy": "sim", "t_pos": "2.0"}, "no triple mined from 120 "
         "queries, skipped: {'no candidates above threshold 2.0': 120}"),
        # by-triple draws floor(0.001 * 600) = 0 of the mined triples
        ({"subsample_by_query": "false", "subsample_fraction": "0.001"},
         "subsample_fraction = 0.001 keeps none of 600 mined triples"),
    ])
    def test_no_triple_mined_exits_3_and_writes_nothing(
        self, workdir, capsys, sampling, cause
    ):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train"):
            assert main([stage, "--config", config]) == 0
        capsys.readouterr()
        bad = configparser.ConfigParser()
        bad.read_string(MINIMAL_CONFIG)
        bad["sampling"].update(sampling)
        with (workdir / "bad.ini").open("w", encoding="utf-8") as fh:
            bad.write(fh)
        assert main(["mine", "--config", str(workdir / "bad.ini")]) == 3
        assert capsys.readouterr().err == f"data error: {cause}\n"
        assert not (workdir / ARTIFACTS["mine"][0]).exists()

    @pytest.mark.parametrize("name, lines", [
        ("labels.jsonl", [
            {"id": "n00000", "label": "x", "split": "train"},
            {"id": "n00001", "label": "x", "split": "train"},
            {"id": "n00002", "label": "x", "split": "test"},
        ]),
        ("ranking.jsonl", [
            {"query": "n00000", "candidates": ["n00001", "n00002"], "relevant": []},
            {"query": "n00003", "candidates": ["n00004"], "relevant": []},
        ]),
    ])
    def test_unusable_eval_input_exits_3(self, workdir, capsys, name, lines):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine", "encode-train"):
            assert main([stage, "--config", config]) == 0
        (workdir / name).write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and name in err
        assert not (workdir / ARTIFACTS["eval"][0]).exists()
        assert not (workdir / "doc_vectors.nbe").exists()

    @pytest.mark.parametrize("name, stage", [
        ("documents.jsonl", "encode-train"),
        ("ranking.jsonl", "eval"),
        ("labels.jsonl", "eval"),
    ])
    def test_non_object_record_exits_3(self, workdir, capsys, name, stage):
        config = str(workdir / "config.ini")
        for upstream in ("fixture", "ingest", "graph-train", "mine", "encode-train"):
            assert main([upstream, "--config", config]) == 0
        good = (workdir / name).read_text(encoding="utf-8")
        for bad in ("5", "[1, 2]", '"x"'):
            (workdir / name).write_text(f"{bad}\n{good}", encoding="utf-8")
            (workdir / ARTIFACTS[stage][0]).unlink(missing_ok=True)
            capsys.readouterr()
            assert main([stage, "--config", config]) == 3, bad
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and err.count("\n") == 1
            assert name in err and "line 1" in err and "object" in err
            assert not (workdir / ARTIFACTS[stage][0]).exists()

    @pytest.mark.parametrize("field, value", [
        ("candidates", "n00001"),
        ("candidates", 5),
        ("relevant", "n00001"),
        ("relevant", None),
    ])
    def test_non_list_ranking_field_exits_3(self, workdir, capsys, field, value):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine", "encode-train"):
            assert main([stage, "--config", config]) == 0
        record = {"query": "n00000", "candidates": ["n00001"], "relevant": ["n00001"]}
        record[field] = value
        (workdir / "ranking.jsonl").write_text(
            json.dumps(record) + "\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 3
        err = capsys.readouterr().err
        assert "ranking.jsonl" in err and "line 1" in err and field in err
        assert not (workdir / ARTIFACTS["eval"][0]).exists()

    @pytest.mark.parametrize("record, message", [
        ({"query": "n00000", "candidates": ["n00001"], "relevant": ["n00002"]},
         "relevant not within candidates"),
        ({"query": "n00000", "candidates": [], "relevant": []},
         "empty candidate list"),
        ({"query": "n00000", "candidates": ["n00001", "n00001", "n00002"],
          "relevant": ["n00001"]}, "candidate 'n00001' listed twice"),
    ])
    def test_bad_ranking_record_names_file_and_line(
        self, workdir, capsys, record, message
    ):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine", "encode-train"):
            assert main([stage, "--config", config]) == 0
        good = {"query": "n00000", "candidates": ["n00001"], "relevant": ["n00001"]}
        (workdir / "ranking.jsonl").write_text(
            json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert f"ranking.jsonl: line 2: query 'n00000': {message}" in err
        assert not (workdir / ARTIFACTS["eval"][0]).exists()

    def test_train_only_labels_error_names_file(self, workdir, capsys):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine", "encode-train"):
            assert main([stage, "--config", config]) == 0
        (workdir / "labels.jsonl").write_text(
            '{"id": "n00000", "label": "x", "split": "train"}\n'
            '{"id": "n00001", "label": "y", "split": "train"}\n',
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 3
        err = capsys.readouterr().err
        assert "labels.jsonl" in err and "no test items" in err

    def test_triple_with_missing_document_names_both_files(self, workdir, capsys):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", config]) == 0
        triples = (workdir / ARTIFACTS["mine"][0]).read_text(encoding="utf-8")
        query = triples.splitlines()[1].split("\t")[0]
        docs = workdir / "documents.jsonl"
        kept = [line for line in docs.read_text(encoding="utf-8").splitlines()
                if json.loads(line)["id"] != query]
        docs.write_text("".join(line + "\n" for line in kept), encoding="utf-8")
        capsys.readouterr()
        assert main(["encode-train", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert ARTIFACTS["mine"][0] in err and "documents.jsonl" in err
        assert f"missing document {query!r}" in err
        assert not (workdir / ARTIFACTS["encode-train"][0]).exists()

    @pytest.mark.parametrize("name", ["ranking.jsonl", "labels.jsonl"])
    def test_eval_id_without_vector_names_both_files(self, workdir, capsys, name):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine", "encode-train"):
            assert main([stage, "--config", config]) == 0
        path = workdir / name
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        first["query" if name == "ranking.jsonl" else "id"] = "ghost"
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(first) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert name in err and "documents.jsonl" in err
        assert "id 'ghost' has no vector" in err
        assert not (workdir / ARTIFACTS["eval"][0]).exists()
        assert not (workdir / "doc_vectors.nbe").exists()

    @pytest.mark.parametrize("edges", [
        [("a", "a"), ("b", "b")],
        [("a", "a")] * 3,
    ])
    def test_no_surviving_edge_exits_3_at_ingest(self, workdir, capsys, edges):
        (workdir / "edges.tsv").write_text(
            "".join(f"{s}\t{d}\n" for s, d in edges), encoding="utf-8"
        )
        assert main(["ingest", "--config", str(workdir / "config.ini")]) == 3
        assert "edges.tsv" in capsys.readouterr().err
        assert not (workdir / ARTIFACTS["ingest"][0]).exists()

    def test_excluding_every_node_exits_3_at_ingest(self, workdir, capsys):
        config = str(workdir / "config.ini")
        assert main(["fixture", "--config", config]) == 0
        ids = {
            part
            for line in (workdir / "edges.tsv").read_text().splitlines()
            for part in line.split("\t")
        }
        (workdir / "exclude.txt").write_text("\n".join(sorted(ids)) + "\n")
        excluding = workdir / "excluding.ini"
        excluding.write_text(
            MINIMAL_CONFIG + "\n[ingest]\nexclude_ids = exclude.txt\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["ingest", "--config", str(excluding)]) == 3
        assert "edges.tsv" in capsys.readouterr().err
        assert not (workdir / ARTIFACTS["ingest"][0]).exists()

    def test_too_few_edges_for_holdout_exits_3(self, workdir, capsys):
        # 5% of 3 edges floors to zero held-out edges
        (workdir / "edges.tsv").write_text("a\tb\nb\tc\nc\ta\n", encoding="utf-8")
        config = str(workdir / "config.ini")
        assert main(["ingest", "--config", config]) == 0
        capsys.readouterr()
        assert main(["graph-train", "--config", config]) == 3
        assert ARTIFACTS["ingest"][0] in capsys.readouterr().err
        assert not (workdir / ARTIFACTS["graph-train"][0]).exists()

    @pytest.mark.parametrize("payload", [
        {"ids": ["a", "b"], "edges": [], "directed": True},
        {"ids": ["a", "b"], "edges": [[0, 1]]},
        {"ids": ["a", "b"], "edges": [0, 1], "directed": True},
        {"ids": ["a", "b"], "edges": [[0, 2]], "directed": True},
        [["a", "b"]],
        # enough edges that graph-train would run if the ids were accepted
        {"ids": "ab", "edges": [[0, 1], [1, 0]] * 20, "directed": True},
        {"ids": ["a", "a", "b"], "edges": [[0, 1], [1, 2], [2, 0]] * 20,
         "directed": True},
        {"ids": [1, 2], "edges": [[0, 1], [1, 0]] * 20, "directed": True},
    ])
    def test_malformed_graph_snapshot_exits_3(self, workdir, capsys, payload):
        (workdir / ARTIFACTS["ingest"][0]).write_text(json.dumps(payload))
        assert main(["graph-train", "--config", str(workdir / "config.ini")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and ARTIFACTS["ingest"][0] in err
        assert not (workdir / ARTIFACTS["graph-train"][0]).exists()

    def test_unknown_stage_rejected_by_parser(self, workdir):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", str(workdir / "config.ini")])


class TestTokenCache:
    """eval encodes from encode-train's ``doc_tokens.bin`` when it matches
    the documents and the checkpoint, and from the documents otherwise."""

    def trained(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine", "encode-train"):
            assert main([stage, "--config", config]) == 0
        return config

    def eval_outputs(self, workdir, config):
        """Digests of eval's artifacts, and whether it read the token cache."""
        assert main(["eval", "--config", config]) == 0
        inputs = json.loads((workdir / "eval.prov.json").read_text())["inputs"]
        names = ("report.json", "report.txt", "doc_vectors.nbe")
        return {name: sha256(workdir / name) for name in names}, DOC_TOKENS in inputs

    def test_cached_eval_parses_no_documents(self, workdir, monkeypatch):
        config = self.trained(workdir)

        def refuse(path):
            raise AssertionError(f"parsed {path}")

        monkeypatch.setattr(corpus, "load_documents", refuse)
        assert self.eval_outputs(workdir, config)[1]

    def test_fallback_writes_the_same_bytes(self, workdir):
        config = self.trained(workdir)
        cached, used = self.eval_outputs(workdir, config)
        assert used
        (workdir / DOC_TOKENS).unlink()
        assert self.eval_outputs(workdir, config) == (cached, False)

    def test_edited_documents_are_encoded_anew(self, workdir):
        config = self.trained(workdir)
        self.eval_outputs(workdir, config)
        before = read_snapshot(workdir / "doc_vectors.nbe").values
        docs = workdir / "documents.jsonl"
        first, *rest = docs.read_text(encoding="utf-8").splitlines(keepends=True)
        edited = json.loads(first)
        edited["abstract"] = "an abstract of other words entirely"
        docs.write_text(json.dumps(edited) + "\n" + "".join(rest), encoding="utf-8")
        fallback, used = self.eval_outputs(workdir, config)
        assert not used
        inputs = json.loads((workdir / "eval.prov.json").read_text())["inputs"]
        assert inputs["documents.jsonl"] == sha256(docs)
        after = read_snapshot(workdir / "doc_vectors.nbe").values
        assert not np.array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1:], before[1:])
        (workdir / DOC_TOKENS).unlink()
        assert self.eval_outputs(workdir, config) == (fallback, False)

    def test_damaged_cache_changes_no_report(self, workdir):
        config = self.trained(workdir)
        expect, used = self.eval_outputs(workdir, config)
        assert used
        path = workdir / DOC_TOKENS
        raw = path.read_bytes()
        # magic, checksum, then the 64-byte key and the document and token counts
        n_docs, n_tokens = np.frombuffer(raw, "<u8", 2, 100)
        offsets = 116
        tokens = offsets + 8 * (int(n_docs) + 1)
        id_list = tokens + 4 * int(n_tokens)
        regions = {"header": (0, offsets), "offsets": (offsets, tokens),
                   "token ids": (tokens, id_list), "id list": (id_list, len(raw))}
        for region, (start, end) in regions.items():
            at = (start + end) // 2
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x20]) + raw[at + 1:])
            assert self.eval_outputs(workdir, config) == (expect, False), region


class TestConfigLoading:
    def test_defaults_fill_missing_sections(self, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text("[pipeline]\nseed = 5\n", encoding="utf-8")
        cfg = load_config(config)
        assert cfg.seed == 5
        assert cfg.sampling_cfg.k_pos == 25
        assert cfg.sampling_cfg.k_hard == 4000
        assert cfg.graph_cfg.margin == 0.15

    def test_section_seed_wins_over_global(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text(
            "[pipeline]\nseed = 5\n[sampling]\nseed = 11\n", encoding="utf-8"
        )
        cfg = load_config(config)
        assert cfg.sampling_cfg.seed == 11
        assert cfg.graph_cfg.seed == 5

    def test_cli_seed_override(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[pipeline]\nseed = 5\n", encoding="utf-8")
        cfg = load_config(config, seed=42)
        assert cfg.seed == 42
        assert cfg.graph_cfg.seed == 42

    def test_legacy_batch_size_is_ignored(self, tmp_path):
        # so is [probe] seed: the probe starts from zero weights
        config = tmp_path / "c.ini"
        config.write_text(
            "[encoder]\nbatch_size = 8\neffective_batch = 20\n"
            "[probe]\nseed = 8\nepochs = 40\n", encoding="utf-8"
        )
        cfg = load_config(config)
        assert cfg.encoder_cfg.effective_batch == 20
        assert cfg.probe_cfg == ProbeConfig(epochs=40)

    @pytest.mark.parametrize("text, named", [
        ("[sampling]\nk_pso = 10\n", ("[sampling]", "k_pso")),
        ("[graf]\nepochs = 1\n", ("[graf]",)),
        ("[graf]\n", ("[graf]",)),
        # a key is known only in its own section
        ("[encoder]\nholdout_fraction = 0.1\n", ("[encoder]", "holdout_fraction")),
        ("[probe]\nbatch_size = 8\n", ("[probe]", "batch_size")),
        ("[eval]\noverlap = x.txt\n", ("[eval]", "overlap")),
        ("[pipeline]\nseeds = 1\n", ("[pipeline]", "seeds")),
        # keys of a [DEFAULT] section would otherwise reach every section
        ("[DEFAULT]\nseed = 1\n", ("[DEFAULT]",)),
    ])
    def test_unknown_key_or_section_exits_2(self, tmp_path, capsys, text, named):
        config = tmp_path / "c.ini"
        config.write_text(text, encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert all(word in err for word in named), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]

    def test_bundled_and_bench_configs_load(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads",
            Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py",
        )
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name while the class is built
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        texts = {"default": DEFAULT_CONFIG}
        for name, w in workloads.WORKLOADS.items():
            texts[name] = workloads.render_config(w, w.default_seed, tmp_path)
        assert len(texts) == 4
        for name, text in texts.items():
            config = tmp_path / f"{name}.ini"
            config.write_text(text, encoding="utf-8")
            load_config(config)

    def test_bad_value_is_validation_error(self, tmp_path):
        from nbcontrast.errors import ValidationError
        config = tmp_path / "c.ini"
        config.write_text("[graph]\nepochs = banana\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_config(config)

    def test_every_key_lands_in_its_field(self, tmp_path):
        # every key load_config reads, each set to a non-default value; the
        # field lists pin the key set of the five dataclass sections
        sections = {
            "graph": {
                "epochs": 3, "margin": 0.5, "learning_rate": 0.25,
                "negatives_per_edge": 4, "dim": 8, "measure": "cosine",
                "holdout_fraction": 0.2, "eval_negatives": 7, "seed": 21,
            },
            "sampling": {
                "k_pos": 30, "k_hard": 300, "c_pos": 4, "c_hard": 3,
                "c_easy": 2, "t_pos": 0.7, "t_neg": 0.1,
                "pos_strategy": "sim", "hard_strategy": "sim",
                "easy_strategy": "sorted_random",
                "sorted_random_candidates": 50, "n_queries": 10,
                "subsample_fraction": 0.5, "subsample_by_query": False,
                "seed": 22,
            },
            "encoder": {
                "epochs": 4, "learning_rate": 0.05, "effective_batch": 16,
                "slack": 0.5, "bias_only": True, "hidden_dim": 12, "out_dim": 6,
                "seed": 23,
            },
            "probe": {"epochs": 50, "learning_rate": 0.3},
            "fixture": {
                "nodes": 50, "blocks": 3, "p_in": 0.3, "p_out": 0.05,
                "ranking_queries": 5, "ranking_candidates": 10,
                "test_fraction": 0.4, "enabled": True, "seed": 25,
            },
        }
        extra = {
            "pipeline": {"seed": 9, "workdir": "out"},
            "paths": {"edges": "e.tsv", "documents": "d.jsonl"},
            "ingest": {"exclude_ids": "x.txt", "undirected": True},
            "eval": {"ranking_task": "r.jsonl", "labels": "l.jsonl",
                     "overlap_test": "t.txt"},
        }
        parser = configparser.ConfigParser()
        for group in (sections, extra):
            for name, keys in group.items():
                if not parser.has_section(name):
                    parser.add_section(name)
                for key, value in keys.items():
                    parser[name][key] = str(value).lower()
        config = tmp_path / "c.ini"
        with config.open("w", encoding="utf-8") as fh:
            parser.write(fh)

        cfg = load_config(config)
        nested = {
            "graph": cfg.graph_cfg, "sampling": cfg.sampling_cfg,
            "encoder": cfg.encoder_cfg, "probe": cfg.probe_cfg,
            "fixture": cfg.fixture_cfg,
        }
        for name, keys in sections.items():
            obj = nested[name]
            assert [f.name for f in dataclasses.fields(obj)] == list(keys), name
            for key, value in keys.items():
                got = getattr(obj, key)
                assert got == value and type(got) is type(value), (name, key)
        work = tmp_path / "out"
        assert (cfg.seed, cfg.workdir) == (9, work)
        assert (cfg.edges_path, cfg.documents_path) == (
            work / "e.tsv", work / "d.jsonl"
        )
        assert (cfg.exclude_ids_path, cfg.undirected) == (work / "x.txt", True)
        graph = cfg.graph_cfg
        assert (graph.holdout_fraction, graph.eval_negatives) == (0.2, 7)
        assert (cfg.sampling_cfg.n_queries, cfg.sampling_cfg.subsample_fraction,
                cfg.sampling_cfg.subsample_by_query) == (10, 0.5, False)
        assert (cfg.encoder_cfg.hidden_dim, cfg.encoder_cfg.out_dim) == (12, 6)
        assert (cfg.ranking_task_path, cfg.labels_path) == (
            work / "r.jsonl", work / "l.jsonl"
        )
        assert cfg.overlap_paths == {"test": work / "t.txt"}
        assert cfg.fixture_cfg.enabled is True

    def test_empty_sections_yield_dataclass_defaults(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text(
            "[pipeline]\nseed = 7\n[graph]\n[sampling]\n[encoder]\n"
            "[probe]\n[fixture]\n",
            encoding="utf-8",
        )
        cfg = load_config(config)
        assert cfg.graph_cfg == GraphTrainConfig(seed=7)
        assert cfg.sampling_cfg == SamplingConfig(seed=7)
        assert cfg.encoder_cfg == EncoderTrainConfig(seed=7)
        assert cfg.probe_cfg == ProbeConfig()
        assert cfg.fixture_cfg == FixtureConfig(seed=7)
        graph, sampling, enc = cfg.graph_cfg, cfg.sampling_cfg, cfg.encoder_cfg
        assert (
            graph.holdout_fraction, graph.eval_negatives, sampling.n_queries,
            sampling.subsample_fraction, sampling.subsample_by_query, enc.hidden_dim,
            enc.out_dim, cfg.fixture_cfg.enabled, cfg.undirected,
        ) == (0.01, 50, 0, 1.0, True, 64, 32, False, False)

    @pytest.mark.parametrize("section, key, value", [
        ("graph", "epochs", "1.5"),
        ("sampling", "t_pos", "high"),
        ("encoder", "bias_only", "maybe"),
        ("graph", "holdout_fraction", "tiny"),
        ("pipeline", "seed", "x"),
        ("ingest", "undirected", "maybe"),
        ("fixture", "enabled", "maybe"),
    ])
    def test_bad_typed_value_exits_2(self, tmp_path, capsys, section, key, value):
        config = tmp_path / "c.ini"
        config.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert value in err

    def test_subsample_fraction_thins_triple_file(self, workdir):
        config = workdir / "sub.ini"
        config.write_text(
            MINIMAL_CONFIG.replace(
                "[sampling]", "[sampling]\nsubsample_fraction = 0.1"
            ),
            encoding="utf-8",
        )
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", str(config)]) == 0
        lines = (workdir / ARTIFACTS["mine"][0]).read_text().splitlines()
        # 120 queries x 5 triples, 10% of queries kept -> 12 x 5 + header
        assert len(lines) == 12 * 5 + 1

    def test_mine_twice_identical_checksums(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train"):
            assert main([stage, "--config", config]) == 0
        assert main(["mine", "--config", config]) == 0
        a = sha256(workdir / ARTIFACTS["mine"][0])
        assert main(["mine", "--config", config]) == 0
        assert a == sha256(workdir / ARTIFACTS["mine"][0])


class TestFixtureBootstrap:
    def test_fixture_without_config_writes_default(self, tmp_path):
        target = tmp_path / "fresh"
        rc = main(["fixture", "--stage-dir", str(target)])
        assert rc == 0
        assert (target / "config.ini").is_file()
        assert (target / "edges.tsv").is_file()
        assert (target / "documents.jsonl").is_file()
        # the emitted config drives the full pipeline
        rc = main(["all", "--config", str(target / "config.ini")])
        assert rc == 0

    def test_fixture_says_whether_it_wrote_the_config(self, tmp_path, capsys):
        target = tmp_path / "fresh"
        assert main(["fixture", "--stage-dir", str(target)]) == 0
        config = target / "config.ini"
        assert f"wrote default config {config}" in capsys.readouterr().out
        config.write_text(DEFAULT_CONFIG.replace("seed = 7", "seed = 3"), encoding="utf-8")
        kept = config.read_bytes()
        assert main(["fixture", "--stage-dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "wrote" not in out
        assert f"using existing config {config}" in out
        assert config.read_bytes() == kept

    def test_run_rejects_unknown_stage_name(self, workdir):
        from nbcontrast.errors import ValidationError
        cfg = load_config(workdir / "config.ini")
        with pytest.raises(ValidationError):
            run("bogus", cfg)


def numpy_uses_openblas() -> bool:
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26 only prints its config
        with contextlib.redirect_stdout(io.StringIO()) as out:
            np.show_config()
        name = out.getvalue()
    return "openblas" in name.lower()


class TestBlasThreads:
    """Stages run OpenBLAS on the calling thread, so what they write does not
    depend on the machine's thread count, and the caller's count survives."""

    @pytest.fixture()
    def blas(self):
        if not numpy_uses_openblas():
            pytest.skip("numpy's BLAS is not OpenBLAS")
        calls = pipeline._openblas_threads()
        assert calls is not None, "numpy reports OpenBLAS, but no thread control found"
        get, set_ = calls
        before = get()
        yield get, set_
        set_(before)

    def test_artifacts_do_not_depend_on_thread_count(self, workdir, blas):
        _, set_ = blas
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", config]) == 0
        # a vocabulary of a few thousand words makes the encoder's pooling
        # products large enough for OpenBLAS to split them over threads
        docs = corpus.load_documents(workdir / "documents.jsonl")
        rng = np.random.default_rng(0)
        words = rng.integers(0, 3000, size=(len(docs), 36))
        corpus.save_documents(
            [corpus.Document(pid, " ".join(f"w{k}" for k in row[:6]),
                             " ".join(f"w{k}" for k in row[6:]))
             for pid, row in zip(sorted(docs), words)],
            workdir / "documents.jsonl",
        )
        names = (ARTIFACTS["encode-train"][0], "doc_vectors.nbe", ARTIFACTS["eval"][0])
        digests = []
        for threads in (2, 1):
            set_(threads)
            for stage in ("encode-train", "eval"):
                assert main([stage, "--config", config]) == 0
            digests.append({name: sha256(workdir / name) for name in names})
        assert digests[0] == digests[1]

    def test_each_stage_runs_on_one_thread_and_restores_the_count(
        self, workdir, blas, monkeypatch
    ):
        get, set_ = blas
        seen = {}
        kernels = {
            "fixture": (fixtures, "planted_partition_graph"),
            "ingest": (corpus, "ingest_edges"),
            "graph-train": (graph_embed, "train_graph_embeddings"),
            "mine": (mining, "batch_neighbors"),
            "encode-train": (encoder, "train"),
            "eval": (encoder, "encode_corpus"),
        }
        for stage, (module, attr) in kernels.items():
            def recording(*args, _stage=stage, _fn=getattr(module, attr), **kwargs):
                seen[_stage] = get()
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, attr, recording)
        cfg = load_config(workdir / "config.ini")
        set_(2)
        for stage in kernels:
            getattr(pipeline, "run_" + stage.replace("-", "_"))(cfg)
            assert get() == 2, stage
        assert seen == dict.fromkeys(kernels, 1)
        (workdir / ARTIFACTS["graph-train"][0]).unlink()
        with pytest.raises(DependencyError):
            pipeline.run_mine(cfg)
        assert get() == 2


class TestLabelSeparation:
    def test_matches_full_distance_matrix(self, monkeypatch):
        rng = np.random.default_rng(12)
        n, dim = 60, 7
        vectors = EmbeddingTable(values=rng.normal(size=(n + 5, dim)))
        id_to_row = {f"d{i}": i + 5 for i in range(n)}
        labels = [f"L{int(rng.integers(0, 3))}" for _ in range(n)]
        # one labelled id has no vector and is skipped
        labeled = LabeledSet(
            items=tuple((f"d{i}", labels[i], "train") for i in range(n))
            + (("missing", "L0", "test"),)
        )
        points = vectors.values[5:]
        diff = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((diff ** 2).sum(axis=2))
        same = np.array([[a == b for b in labels] for a in labels])
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        expect = (float(dists[same & upper].mean()), float(dists[~same & upper].mean()))
        # one block, blocks of a few rows, and a row per block below the cap;
        # the block sums add in another order than the full matrix's mean
        for cap in (graph_embed.CELL_CAP, 59 * 7 * 4, 1):
            monkeypatch.setattr(graph_embed, "CELL_CAP", cap)
            got = label_separation(vectors, labeled, id_to_row)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)

    def test_duplicated_points_and_a_one_member_label(self, monkeypatch):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, 6))
        values[10:14] = values[3]  # four copies of row 3
        vectors = EmbeddingTable(values=values)
        # d30..d33 share row 7, and the label L9 has one member
        id_to_row = {f"d{i}": i for i in range(30)} | {f"d{i}": 7 for i in range(30, 34)}
        labels = [f"L{i % 2}" for i in range(34)]
        labels[5] = "L9"
        labeled = LabeledSet(items=tuple((f"d{i}", labels[i], "train") for i in range(34)))
        points = values[[id_to_row[f"d{i}"] for i in range(34)]]
        dists = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        same = np.array([[a == b for b in labels] for a in labels])
        upper = np.triu(np.ones((34, 34), dtype=bool), k=1)
        expect = (dists[same & upper].mean(), dists[~same & upper].mean())
        for cap in (graph_embed.CELL_CAP, 34 * 5, 1):
            monkeypatch.setattr(graph_embed, "CELL_CAP", cap)
            got = label_separation(vectors, labeled, id_to_row)
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-7)
