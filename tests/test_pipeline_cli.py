"""Pipeline stages, CLI exit codes, artifact determinism, provenance."""

import hashlib
import json

import numpy as np
import pytest

from nbcontrast.cli import main
from nbcontrast.evaluation import LabeledSet
from nbcontrast.graph_embed import EmbeddingTable
from nbcontrast.pipeline import ARTIFACTS, label_separation, load_config, run


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
        for name in ARTIFACTS.values():
            assert (workdir / name).is_file(), name
        assert (workdir / "report.txt").is_file()
        report = json.loads((workdir / "report.json").read_text())
        assert any(key.startswith("ranking.") for key in report)
        assert any(key.startswith("classification.") for key in report)

    def test_provenance_sidecars_written(self, workdir):
        main(["all", "--config", str(workdir / "config.ini")])
        for stage in ("fixture", "ingest", "graph-train", "mine",
                      "encode-train", "eval"):
            sidecar = workdir / f"{stage}.prov.json"
            assert sidecar.is_file(), stage
            payload = json.loads(sidecar.read_text())
            assert payload["stage"] == stage
            assert payload["seed"] == 3
            assert len(payload["config_sha256"]) == 64
            for digest in payload["outputs"].values():
                assert len(digest) == 64

    def test_rerun_is_byte_identical(self, workdir):
        config = str(workdir / "config.ini")
        main(["all", "--config", config])
        first = {
            name: sha256(workdir / name)
            for name in (*ARTIFACTS.values(), "report.txt", "graph_metrics.json")
        }
        main(["all", "--config", config])
        second = {name: sha256(workdir / name) for name in first}
        assert first == second

    def test_stage_dir_override(self, workdir, tmp_path):
        other = tmp_path / "elsewhere"
        rc = main(["fixture", "--config", str(workdir / "config.ini"),
                   "--stage-dir", str(other)])
        assert rc == 0
        assert (other / "edges.tsv").is_file()

    def test_seed_override_changes_artifacts(self, workdir):
        config = str(workdir / "config.ini")
        main(["all", "--config", config])
        triples_a = sha256(workdir / ARTIFACTS["mine"])
        main(["all", "--config", config, "--seed", "99"])
        triples_b = sha256(workdir / ARTIFACTS["mine"])
        assert triples_a != triples_b


class TestExitCodes:
    def test_margin_violation_exits_2_and_writes_nothing(self, workdir):
        bad = MINIMAL_CONFIG.replace("k_hard = 60", "k_hard = 11")
        config = workdir / "bad.ini"
        config.write_text(bad, encoding="utf-8")
        rc = main(["mine", "--config", str(config)])
        assert rc == 2
        assert not (workdir / ARTIFACTS["mine"]).exists()

    def test_effective_batch_zero_exits_2(self, workdir):
        bad = MINIMAL_CONFIG.replace("[encoder]", "[encoder]\neffective_batch = 0")
        config = workdir / "bad.ini"
        config.write_text(bad, encoding="utf-8")
        assert main(["encode-train", "--config", str(config)]) == 2
        assert not (workdir / ARTIFACTS["encode-train"]).exists()

    def test_missing_upstream_exits_4(self, workdir):
        rc = main(["mine", "--config", str(workdir / "config.ini")])
        assert rc == 4

    def test_missing_config_exits_4(self, tmp_path):
        rc = main(["ingest", "--config", str(tmp_path / "nope.ini")])
        assert rc == 4

    def test_malformed_edges_exit_3(self, workdir):
        (workdir / "edges.tsv").write_text("one_column_only\n", encoding="utf-8")
        rc = main(["ingest", "--config", str(workdir / "config.ini")])
        assert rc == 3

    def test_truncated_encoder_checkpoint_exits_3(self, workdir):
        config = str(workdir / "config.ini")
        assert main(["all", "--config", config]) == 0
        ckpt = workdir / ARTIFACTS["encode-train"]
        ckpt.write_bytes(ckpt.read_bytes()[:-1])
        assert main(["eval", "--config", config]) == 3

    def test_triple_with_repeated_ids_exits_3(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train", "mine"):
            assert main([stage, "--config", config]) == 0
        triples = workdir / ARTIFACTS["mine"]
        header, first, *_ = triples.read_text(encoding="utf-8").splitlines()
        query, _, negative, kind, strategy = first.split("\t")
        repeated = "\t".join([query, query, negative, kind, strategy])
        triples.write_text(f"{header}\n{repeated}\n", encoding="utf-8")
        assert main(["encode-train", "--config", config]) == 3

    def test_unknown_stage_rejected_by_parser(self, workdir):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", str(workdir / "config.ini")])


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
        config = tmp_path / "c.ini"
        config.write_text(
            "[encoder]\nbatch_size = 8\neffective_batch = 20\n", encoding="utf-8"
        )
        assert load_config(config).encoder_cfg.effective_batch == 20

    def test_bad_value_is_validation_error(self, tmp_path):
        from nbcontrast.errors import ValidationError
        config = tmp_path / "c.ini"
        config.write_text("[graph]\nepochs = banana\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_config(config)

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
        lines = (workdir / ARTIFACTS["mine"]).read_text().splitlines()
        # 120 queries x 5 triples, 10% of queries kept -> 12 x 5 + header
        assert len(lines) == 12 * 5 + 1

    def test_mine_twice_identical_checksums(self, workdir):
        config = str(workdir / "config.ini")
        for stage in ("fixture", "ingest", "graph-train"):
            assert main([stage, "--config", config]) == 0
        assert main(["mine", "--config", config]) == 0
        a = sha256(workdir / ARTIFACTS["mine"])
        assert main(["mine", "--config", config]) == 0
        assert a == sha256(workdir / ARTIFACTS["mine"])


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

    def test_run_rejects_unknown_stage_name(self, workdir):
        from nbcontrast.errors import ValidationError
        cfg = load_config(workdir / "config.ini")
        with pytest.raises(ValidationError):
            run("bogus", cfg)


class TestLabelSeparation:
    def test_matches_full_distance_matrix(self):
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
        assert label_separation(vectors, labeled, id_to_row) == expect
