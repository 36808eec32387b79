"""Pipeline stages driven by one INI config, with provenance sidecars.

Every stage reads its inputs, writes a fixed-name artifact into the work
directory, and drops a ``<stage>.prov.json`` sidecar recording the config
hash, effective seed, and input/output content hashes. Reruns with
unchanged inputs reproduce byte-identical artifacts; nothing is ever
mutated in place.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corpus, encoder, evaluation, fixtures, graph_embed, mining, snapshot
from .errors import DataError, DependencyError, ValidationError

logger = logging.getLogger(__name__)

STAGES = ("fixture", "ingest", "graph-train", "mine", "encode-train", "eval")

ARTIFACTS = {
    "ingest": "graph.json",
    "graph-train": "graph_embeddings.nbe",
    "mine": "triples.tsv",
    "encode-train": "encoder.bin",
    "eval": "report.json",
}


@dataclass
class PipelineConfig:
    """Everything the stages need, parsed and validated up front."""

    workdir: Path
    config_path: Path
    seed: int
    edges_path: Path
    documents_path: Path
    exclude_ids_path: Path | None
    undirected: bool
    graph_cfg: graph_embed.GraphTrainConfig
    holdout_fraction: float
    eval_negatives: int
    sampling_cfg: mining.SamplingConfig
    n_queries: int
    subsample_fraction: float
    subsample_by_query: bool
    encoder_cfg: encoder.EncoderTrainConfig
    hidden_dim: int
    out_dim: int
    probe_cfg: evaluation.ProbeConfig
    ranking_task_path: Path | None
    labels_path: Path | None
    overlap_paths: dict[str, Path] = field(default_factory=dict)
    fixture_enabled: bool = False
    fixture_cfg: fixtures.FixtureConfig = field(default_factory=fixtures.FixtureConfig)

    @property
    def config_sha256(self) -> str:
        return hashlib.sha256(self.config_path.read_bytes()).hexdigest()


def load_config(
    path: str | Path,
    stage_dir: str | Path | None = None,
    seed: int | None = None,
) -> PipelineConfig:
    """Parse and validate an INI pipeline config.

    ``stage_dir`` overrides the work directory; ``seed`` overrides the
    global seed (section-level explicit seeds still win).
    """
    path = Path(path)
    if not path.is_file():
        raise DependencyError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None

    def section(name: str) -> configparser.SectionProxy:
        if not parser.has_section(name):
            parser.add_section(name)
        return parser[name]

    pipeline = section("pipeline")
    global_seed = seed if seed is not None else pipeline.getint("seed", 0)
    if stage_dir:
        workdir = Path(stage_dir)
    elif pipeline.get("workdir", ""):
        workdir = Path(pipeline.get("workdir"))
        if not workdir.is_absolute():
            workdir = path.parent / workdir
    else:
        workdir = path.parent

    def resolve(raw: str | None) -> Path | None:
        if not raw:
            return None
        p = Path(raw)
        return p if p.is_absolute() else workdir / p

    paths = section("paths")
    ingest_sec = section("ingest")
    graph_sec = section("graph")
    sampling_sec = section("sampling")
    encoder_sec = section("encoder")
    probe_sec = section("probe")
    eval_sec = section("eval")
    fixture_sec = section("fixture")

    try:
        graph_cfg = graph_embed.GraphTrainConfig(
            epochs=graph_sec.getint("epochs", 20),
            margin=graph_sec.getfloat("margin", 0.15),
            learning_rate=graph_sec.getfloat("learning_rate", 0.1),
            negatives_per_edge=graph_sec.getint("negatives_per_edge", 10),
            dim=graph_sec.getint("dim", 128),
            measure=graph_sec.get("measure", "dot"),
            seed=graph_sec.getint("seed", global_seed),
        )
        sampling_cfg = mining.SamplingConfig(
            k_pos=sampling_sec.getint("k_pos", 25),
            k_hard=sampling_sec.getint("k_hard", 4000),
            c_pos=sampling_sec.getint("c_pos", 5),
            c_hard=sampling_sec.getint("c_hard", 2),
            c_easy=sampling_sec.getint("c_easy", 3),
            t_pos=sampling_sec.getfloat("t_pos", 0.8),
            t_neg=sampling_sec.getfloat("t_neg", 0.2),
            pos_strategy=sampling_sec.get("pos_strategy", "knn"),
            hard_strategy=sampling_sec.get("hard_strategy", "knn"),
            easy_strategy=sampling_sec.get("easy_strategy", "filtered_random"),
            sorted_random_candidates=sampling_sec.getint(
                "sorted_random_candidates", 100
            ),
            seed=sampling_sec.getint("seed", global_seed),
        )
        encoder_cfg = encoder.EncoderTrainConfig(
            epochs=encoder_sec.getint("epochs", 2),
            learning_rate=encoder_sec.getfloat("learning_rate", 0.1),
            effective_batch=encoder_sec.getint("effective_batch", 32),
            slack=encoder_sec.getfloat("slack", 1.0),
            bias_only=encoder_sec.getboolean("bias_only", False),
            seed=encoder_sec.getint("seed", global_seed),
        )
        probe_cfg = evaluation.ProbeConfig(
            epochs=probe_sec.getint("epochs", 300),
            learning_rate=probe_sec.getfloat("learning_rate", 0.5),
            seed=probe_sec.getint("seed", global_seed),
        )
        fixture_cfg = fixtures.FixtureConfig(
            nodes=fixture_sec.getint("nodes", 200),
            blocks=fixture_sec.getint("blocks", 2),
            p_in=fixture_sec.getfloat("p_in", 0.10),
            p_out=fixture_sec.getfloat("p_out", 0.01),
            ranking_queries=fixture_sec.getint("ranking_queries", 20),
            ranking_candidates=fixture_sec.getint("ranking_candidates", 30),
            test_fraction=fixture_sec.getfloat("test_fraction", 0.2),
            seed=fixture_sec.getint("seed", global_seed),
        )
        holdout_fraction = graph_sec.getfloat("holdout_fraction", 0.01)
        eval_negatives = graph_sec.getint("eval_negatives", 50)
        n_queries = sampling_sec.getint("n_queries", 0)
        subsample_fraction = sampling_sec.getfloat("subsample_fraction", 1.0)
        subsample_by_query = sampling_sec.getboolean("subsample_by_query", True)
        hidden_dim = encoder_sec.getint("hidden_dim", 64)
        out_dim = encoder_sec.getint("out_dim", 32)
    except ValueError as exc:
        raise ValidationError(f"{path}: bad config value: {exc}") from None

    overlap_paths = {}
    for key, raw in eval_sec.items():
        if key.startswith("overlap_") and raw:
            overlap_paths[key[len("overlap_"):]] = resolve(raw)

    cfg = PipelineConfig(
        workdir=workdir,
        config_path=path,
        seed=global_seed,
        edges_path=resolve(paths.get("edges", "edges.tsv")),
        documents_path=resolve(paths.get("documents", "documents.jsonl")),
        exclude_ids_path=resolve(ingest_sec.get("exclude_ids", "")),
        undirected=ingest_sec.getboolean("undirected", False),
        graph_cfg=graph_cfg,
        holdout_fraction=holdout_fraction,
        eval_negatives=eval_negatives,
        sampling_cfg=sampling_cfg,
        n_queries=n_queries,
        subsample_fraction=subsample_fraction,
        subsample_by_query=subsample_by_query,
        encoder_cfg=encoder_cfg,
        hidden_dim=hidden_dim,
        out_dim=out_dim,
        probe_cfg=probe_cfg,
        ranking_task_path=resolve(eval_sec.get("ranking_task", "")),
        labels_path=resolve(eval_sec.get("labels", "")),
        overlap_paths=overlap_paths,
        fixture_enabled=fixture_sec.getboolean("enabled", False),
        fixture_cfg=fixture_cfg,
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: PipelineConfig) -> None:
    """Check every nested config invariant before any stage runs."""
    cfg.graph_cfg.validate()
    cfg.sampling_cfg.validate()
    cfg.encoder_cfg.validate()
    if not 0.0 <= cfg.holdout_fraction < 1.0:
        raise ValidationError(
            f"holdout_fraction must be in [0, 1): {cfg.holdout_fraction}"
        )
    if cfg.eval_negatives < 1:
        raise ValidationError(f"eval_negatives must be >= 1: {cfg.eval_negatives}")
    if cfg.n_queries < 0:
        raise ValidationError(f"n_queries must be >= 0: {cfg.n_queries}")
    if not 0.0 < cfg.subsample_fraction <= 1.0:
        raise ValidationError(
            f"subsample_fraction must be in (0, 1]: {cfg.subsample_fraction}"
        )
    if cfg.hidden_dim < 1 or cfg.out_dim < 1:
        raise ValidationError("encoder dims must be >= 1")


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_provenance(
    cfg: PipelineConfig, stage: str, inputs: list[Path], outputs: list[Path]
) -> None:
    payload = {
        "stage": stage,
        "config_sha256": cfg.config_sha256,
        "seed": cfg.seed,
        "inputs": {p.name: _sha256_file(p) for p in inputs},
        "outputs": {p.name: _sha256_file(p) for p in outputs},
    }
    sidecar = cfg.workdir / f"{stage}.prov.json"
    sidecar.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _require(path: Path | None, what: str) -> Path:
    if path is None or not path.is_file():
        raise DependencyError(f"missing {what}: {path}")
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def run_fixture(cfg: PipelineConfig) -> list[Path]:
    """Generate the synthetic corpus files named in the config."""
    fc = cfg.fixture_cfg
    graph, block_of = fixtures.planted_partition_graph(
        fc.nodes, fc.blocks, fc.p_in, fc.p_out, fc.seed
    )
    docs, labels = fixtures.two_topic_documents(block_of, fc)
    task = fixtures.ranking_task_from_labels(labels, fc)
    labeled = fixtures.labeled_set_from_labels(labels, fc)

    cfg.workdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    fixtures.write_edge_file(graph, cfg.edges_path)
    outputs.append(cfg.edges_path)
    corpus.save_documents(docs, cfg.documents_path)
    outputs.append(cfg.documents_path)
    if cfg.ranking_task_path:
        evaluation.save_ranking_task(task, cfg.ranking_task_path)
        outputs.append(cfg.ranking_task_path)
    if cfg.labels_path:
        evaluation.save_labeled_set(labeled, cfg.labels_path)
        outputs.append(cfg.labels_path)
    _write_provenance(cfg, "fixture", [], outputs)
    return outputs


def run_ingest(cfg: PipelineConfig) -> Path:
    """Edge file to graph snapshot, with optional filtering and symmetrizing."""
    edges = _require(cfg.edges_path, "edge file")
    graph = corpus.ingest_edges(edges)
    if graph.stats:
        for key, value in sorted(graph.stats.items()):
            print(f"ingest: {key} = {value}")
    if cfg.exclude_ids_path:
        exclude_file = _require(cfg.exclude_ids_path, "exclusion id file")
        exclude = {
            line.strip()
            for line in exclude_file.read_text(encoding="utf-8").splitlines()
            if line.strip()
        }
        graph = corpus.filter_nodes(graph, exclude)
        for key, value in sorted((graph.stats or {}).items()):
            print(f"ingest: {key} = {value}")
    if cfg.undirected:
        graph = corpus.to_undirected(graph)
    out = cfg.workdir / ARTIFACTS["ingest"]
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    corpus.save_graph(graph, out)
    _write_provenance(cfg, "ingest", [edges], [out])
    print(f"ingest: {graph.node_count} nodes, {graph.edge_count} edges -> {out}")
    return out


def run_graph_train(cfg: PipelineConfig) -> Path:
    """Train node embeddings and report link prediction on held-out edges."""
    graph_path = _require(cfg.workdir / ARTIFACTS["ingest"], "graph snapshot")
    graph = corpus.load_graph(graph_path)
    train_graph, holdout = corpus.split_edges(
        graph, cfg.holdout_fraction, cfg.graph_cfg.seed
    )
    table, losses = graph_embed.train_graph_embeddings(train_graph, cfg.graph_cfg)

    metrics = {}
    if holdout.shape[0]:
        lp = graph_embed.eval_link_prediction(
            table, holdout, cfg.eval_negatives, cfg.graph_cfg.seed
        )
        metrics = lp.as_dict()
        print(
            "graph-train: link prediction "
            + " ".join(f"{k}={v:.4f}" for k, v in sorted(metrics.items()))
        )

    out = cfg.workdir / ARTIFACTS["graph-train"]
    snapshot.write_snapshot(table, out)
    metrics_path = cfg.workdir / "graph_metrics.json"
    _write_json(metrics_path, {"link_prediction": metrics, "loss_trace": losses})
    _write_provenance(cfg, "graph-train", [graph_path], [out, metrics_path])
    print(f"graph-train: {len(losses)} epochs, final loss {losses[-1]:.6f} -> {out}")
    return out


def run_mine(cfg: PipelineConfig) -> Path:
    """Mine contrastive triples from the trained citation embeddings."""
    graph_path = _require(cfg.workdir / ARTIFACTS["ingest"], "graph snapshot")
    table_path = _require(cfg.workdir / ARTIFACTS["graph-train"], "embedding snapshot")
    graph = corpus.load_graph(graph_path)
    table = snapshot.read_snapshot(table_path)
    if table.rows != graph.node_count:
        raise DataError(
            f"embedding snapshot has {table.rows} rows, graph has "
            f"{graph.node_count} nodes"
        )

    all_papers = graph.paper_ids()
    if cfg.n_queries and cfg.n_queries < len(all_papers):
        rng = np.random.default_rng(
            mining.derive_seed(cfg.sampling_cfg.seed, "query-selection")
        )
        picked = sorted(
            int(i) for i in
            rng.choice(len(all_papers), size=cfg.n_queries, replace=False)
        )
        queries = [all_papers[i] for i in picked]
    else:
        queries = all_papers

    triples = mining.mine_triples(queries, table, all_papers, cfg.sampling_cfg)
    if cfg.subsample_fraction < 1.0:
        before = len(triples)
        triples = mining.subsample_triples(
            triples, cfg.subsample_fraction, cfg.subsample_by_query,
            seed=cfg.sampling_cfg.seed,
        )
        print(f"mine: subsampled {before} -> {len(triples)} triples")
    out = cfg.workdir / ARTIFACTS["mine"]
    mining.save_triples(triples, out)
    _write_provenance(cfg, "mine", [graph_path, table_path], [out])
    print(
        f"mine: {len(triples)} triples from {len(queries)} queries "
        f"({len(triples.skipped)} skipped, {len(triples.partial)} partial) -> {out}"
    )
    return out


def run_encode_train(cfg: PipelineConfig) -> Path:
    """Train the document encoder on the mined triples."""
    triples_path = _require(cfg.workdir / ARTIFACTS["mine"], "triple file")
    docs_path = _require(cfg.documents_path, "document file")
    triples = mining.load_triples(triples_path, cfg.sampling_cfg)
    docs = corpus.load_documents(docs_path)

    vocab = encoder.build_vocab(docs.values())
    params = encoder.init_encoder(
        vocab, cfg.hidden_dim, cfg.out_dim, cfg.encoder_cfg.seed
    )
    params, trace = encoder.train(triples, docs, params, cfg.encoder_cfg)

    out = cfg.workdir / ARTIFACTS["encode-train"]
    encoder.save_encoder(params, out)
    metrics_path = cfg.workdir / "encoder_metrics.json"
    _write_json(metrics_path, {"loss_trace": trace})
    _write_provenance(
        cfg, "encode-train", [triples_path, docs_path], [out, metrics_path]
    )
    print(
        f"encode-train: {len(trace)} epochs, loss "
        + " -> ".join(f"{x:.4f}" for x in trace)
        + f" -> {out}"
    )
    return out


def run_eval(cfg: PipelineConfig) -> Path:
    """Encode documents and score every configured evaluation task."""
    ckpt_path = _require(cfg.workdir / ARTIFACTS["encode-train"], "encoder checkpoint")
    docs_path = _require(cfg.documents_path, "document file")
    params = encoder.load_encoder(ckpt_path)
    docs = corpus.load_documents(docs_path)
    doc_list = list(docs.values())
    vectors, id_to_row = encoder.encode_corpus(doc_list, params)
    vectors_path = cfg.workdir / "doc_vectors.nbe"
    snapshot.write_snapshot(vectors, vectors_path)

    metrics: dict[str, float] = {}
    inputs = [ckpt_path, docs_path]

    if cfg.ranking_task_path:
        task_path = _require(cfg.ranking_task_path, "ranking task file")
        inputs.append(task_path)
        task = evaluation.load_ranking_task(task_path)
        ranked = evaluation.rank_by_l2(vectors, task, id_to_row)
        relevant = [q.relevant for q in task.queries]
        name = task_path.stem
        metrics[f"ranking.{name}.map"] = evaluation.mean_average_precision(
            ranked, relevant
        )
        metrics[f"ranking.{name}.ndcg"] = evaluation.ndcg(ranked, relevant)
        metrics[f"ranking.{name}.p_at_1"] = evaluation.precision_at_1(ranked, relevant)

    if cfg.labels_path:
        labels_path = _require(cfg.labels_path, "labeled set file")
        inputs.append(labels_path)
        labeled = evaluation.load_labeled_set(labels_path)
        name = labels_path.stem
        metrics[f"classification.{name}.f1"] = evaluation.linear_probe_f1(
            vectors, labeled, id_to_row, cfg.probe_cfg
        )
        intra, inter = label_separation(vectors, labeled, id_to_row)
        metrics["separation.topics.intra_l2"] = intra
        metrics["separation.topics.inter_l2"] = inter

    if cfg.overlap_paths:
        graph_path = _require(cfg.workdir / ARTIFACTS["ingest"], "graph snapshot")
        inputs.append(graph_path)
        train_ids = set(corpus.load_graph(graph_path).ids)
        eval_ids = {}
        for split, p in sorted(cfg.overlap_paths.items()):
            id_file = _require(p, f"overlap id file for split {split!r}")
            inputs.append(id_file)
            eval_ids[split] = {
                line.strip()
                for line in id_file.read_text(encoding="utf-8").splitlines()
                if line.strip()
            }
        report = evaluation.overlap_report(train_ids, eval_ids)
        for key, value in report.as_dict().items():
            metrics[f"leakage.{key}"] = value

    out = cfg.workdir / ARTIFACTS["eval"]
    _write_json(out, metrics)
    text = render_report(metrics)
    text_path = cfg.workdir / "report.txt"
    text_path.write_text(text, encoding="utf-8")
    print(text, end="")
    _write_provenance(cfg, "eval", inputs, [out, text_path, vectors_path])
    return out


def label_separation(
    vectors: graph_embed.EmbeddingTable,
    labeled: evaluation.LabeledSet,
    id_to_row,
) -> tuple[float, float]:
    """Mean pairwise L2 distance within and across label groups.

    Each row is compared with the rows after it, so no n x n x d tensor is
    built; the n(n-1)/2 pairwise distances are still held at once.
    """
    ids = [pid for pid, _, _ in labeled.items if pid in id_to_row]
    labels = {pid: label for pid, label, _ in labeled.items}
    points = np.stack([vectors.values[id_to_row[pid]] for pid in ids])
    _, codes = np.unique([labels[pid] for pid in ids], return_inverse=True)
    dists = np.concatenate([
        np.sqrt(((points[i + 1:] - points[i]) ** 2).sum(axis=1))
        for i in range(len(ids))
    ])
    same = np.concatenate([codes[i + 1:] == codes[i] for i in range(len(ids))])
    intra = float(dists[same].mean())
    inter = float(dists[~same].mean())
    return intra, inter


def render_report(metrics: dict[str, float]) -> str:
    """Fixed-width two-column text table of every metric."""
    if not metrics:
        return "(no evaluation tasks configured)\n"
    width = max(len(k) for k in metrics)
    lines = [f"{'metric'.ljust(width)}  value", f"{'-' * width}  ------"]
    for key in sorted(metrics):
        lines.append(f"{key.ljust(width)}  {metrics[key]:.4f}")
    return "\n".join(lines) + "\n"


_STAGE_RUNNERS = {
    "fixture": run_fixture,
    "ingest": run_ingest,
    "graph-train": run_graph_train,
    "mine": run_mine,
    "encode-train": run_encode_train,
    "eval": run_eval,
}


def run(stage: str, cfg: PipelineConfig) -> None:
    """Run one stage, or the whole chain for ``all``."""
    if stage == "all":
        chain = list(STAGES) if cfg.fixture_enabled else [
            s for s in STAGES if s != "fixture"
        ]
        for name in chain:
            run(name, cfg)
        return
    if stage not in _STAGE_RUNNERS:
        raise ValidationError(f"unknown stage {stage!r}")
    _STAGE_RUNNERS[stage](cfg)
