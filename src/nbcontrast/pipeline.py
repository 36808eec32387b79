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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

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

# The INI sections that each read into one config dataclass, a key per field.
CONFIG_SECTIONS = {
    "graph": graph_embed.GraphTrainConfig,
    "sampling": mining.SamplingConfig,
    "encoder": encoder.EncoderTrainConfig,
    "probe": evaluation.ProbeConfig,
    "fixture": fixtures.FixtureConfig,
}

# The keys of the other sections; [eval] also takes ``overlap_<split>`` keys.
PLAIN_KEYS = {
    "pipeline": {"seed", "workdir"},
    "paths": {"edges", "documents"},
    "ingest": {"undirected", "exclude_ids"},
    "eval": {"ranking_task", "labels"},
}

# Accepted and ignored. ``[encoder] batch_size`` never changed results and is
# no longer read, but the benchmark's workload configs still write it.
RETIRED_KEYS = {("encoder", "batch_size")}


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
    sampling_cfg: mining.SamplingConfig
    encoder_cfg: encoder.EncoderTrainConfig
    probe_cfg: evaluation.ProbeConfig
    fixture_cfg: fixtures.FixtureConfig
    ranking_task_path: Path | None
    labels_path: Path | None
    overlap_paths: dict[str, Path]

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
    # no default section: [DEFAULT] is a section like any other, and unknown
    parser = configparser.ConfigParser(default_section="")
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    known = {
        name: {f.name for f in fields(cls)} for name, cls in CONFIG_SECTIONS.items()
    } | PLAIN_KEYS
    for name in parser.sections():
        if name not in known:
            raise ValidationError(f"{path}: unknown section [{name}]")
        for key in parser[name]:
            if not (key in known[name] or (name, key) in RETIRED_KEYS
                    or name == "eval" and key.startswith("overlap_")):
                raise ValidationError(f"{path}: unknown key {key!r} in [{name}]")

    def section(name: str) -> configparser.SectionProxy:
        if not parser.has_section(name):
            parser.add_section(name)
        return parser[name]

    pipeline = section("pipeline")
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
    eval_sec = section("eval")

    try:
        global_seed = seed if seed is not None else pipeline.getint("seed", 0)
        undirected = ingest_sec.getboolean("undirected", False)
        configs = {
            f"{name}_cfg": _read_section(cls, section(name), global_seed)
            for name, cls in CONFIG_SECTIONS.items()
        }
    except ValueError as exc:
        raise ValidationError(f"{path}: bad config value: {exc}") from None

    overlap_paths = {}
    for key, raw in eval_sec.items():
        if key.startswith("overlap_") and raw:
            overlap_paths[key[len("overlap_"):]] = resolve(raw)

    return PipelineConfig(
        workdir=workdir,
        config_path=path,
        seed=global_seed,
        edges_path=resolve(paths.get("edges", "edges.tsv")),
        documents_path=resolve(paths.get("documents", "documents.jsonl")),
        exclude_ids_path=resolve(ingest_sec.get("exclude_ids", "")),
        undirected=undirected,
        ranking_task_path=resolve(eval_sec.get("ranking_task", "")),
        labels_path=resolve(eval_sec.get("labels", "")),
        overlap_paths=overlap_paths,
        **configs,
    )


def _read_section(cls, sec: configparser.SectionProxy, global_seed: int):
    """A validated ``cls``, each field set from the key of the same name in ``sec``.

    The field's type picks the reader; a missing key keeps the field's
    default, except ``seed``, which falls back to the global seed.
    """
    readers = {
        int: sec.getint, float: sec.getfloat, bool: sec.getboolean, str: sec.get
    }
    types = get_type_hints(cls)
    try:
        values = {f.name: readers[types[f.name]](f.name)
                  for f in fields(cls) if f.name in sec}
        values.setdefault("seed", global_seed)
        cfg = cls(**values)
        cfg.validate()
    except ValueError as exc:
        raise ValidationError(f"[{sec.name}] {exc}") from None
    return cfg


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
    _write_json(cfg.workdir / f"{stage}.prov.json", payload)


def _require(path: Path | None, what: str) -> Path:
    if path is None or not path.is_file():
        raise DependencyError(f"missing {what}: {path}")
    return path


def _read_ids(path: Path) -> set[str]:
    """The stripped non-blank lines of a one-id-per-line file."""
    with corpus.open_text(path) as fh:
        lines = fh.read().splitlines()
    return {line.strip() for line in lines if line.strip()}


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
        graph = corpus.filter_nodes(graph, _read_ids(exclude_file))
        for key, value in sorted((graph.stats or {}).items()):
            print(f"ingest: {key} = {value}")
    if cfg.undirected:
        graph = corpus.to_undirected(graph)
    if not graph.edge_count:
        raise DataError(f"{edges}: no edge left after dropping self-loops, "
                        "duplicates and excluded ids")
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
    if not graph.edge_count:
        raise DataError(f"{graph_path}: graph has no edges to train on")
    try:
        train_graph, holdout = corpus.split_edges(
            graph, cfg.graph_cfg.holdout_fraction, cfg.graph_cfg.seed
        )
    except ValueError as exc:
        raise DataError(f"{graph_path}: {exc}") from None
    table, losses = graph_embed.train_graph_embeddings(train_graph, cfg.graph_cfg)

    metrics = {}
    if holdout.shape[0]:
        lp = graph_embed.eval_link_prediction(
            table, holdout, cfg.graph_cfg.eval_negatives, cfg.graph_cfg.seed
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

    sc = cfg.sampling_cfg
    all_papers = graph.paper_ids()
    if sc.n_queries and sc.n_queries < len(all_papers):
        rng = np.random.default_rng(mining.derive_seed(sc.seed, "query-selection"))
        picked = sorted(
            int(i) for i in
            rng.choice(len(all_papers), size=sc.n_queries, replace=False)
        )
        queries = [all_papers[i] for i in picked]
    else:
        queries = all_papers

    triples = mining.mine_triples(queries, table, all_papers, sc)
    if sc.subsample_fraction < 1.0:
        before = len(triples)
        triples = mining.subsample_triples(
            triples, sc.subsample_fraction, sc.subsample_by_query, seed=sc.seed
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
    if not triples.triples:
        raise DataError(f"{triples_path}: no triples to train on")
    docs = corpus.load_documents(docs_path)

    vocab = encoder.build_vocab(docs.values())
    ec = cfg.encoder_cfg
    params = encoder.init_encoder(vocab, ec.hidden_dim, ec.out_dim, ec.seed)
    params, trace = encoder.train(triples, docs, params, ec)

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
    inputs = [ckpt_path, docs_path]
    # task files are read before any vector is written, so a bad one
    # leaves no artifact behind
    if cfg.ranking_task_path:
        task_path = _require(cfg.ranking_task_path, "ranking task file")
        inputs.append(task_path)
        task = evaluation.load_ranking_task(task_path)
    if cfg.labels_path:
        labels_path = _require(cfg.labels_path, "labeled set file")
        inputs.append(labels_path)
        labeled = evaluation.load_labeled_set(labels_path)

    params = encoder.load_encoder(ckpt_path)
    docs = corpus.load_documents(docs_path)
    doc_list = list(docs.values())
    vectors, id_to_row = encoder.encode_corpus(doc_list, params)
    vectors_path = cfg.workdir / "doc_vectors.nbe"
    snapshot.write_snapshot(vectors, vectors_path)

    metrics: dict[str, float] = {}
    if cfg.ranking_task_path:
        ranked = evaluation.rank_by_l2(vectors, task, id_to_row)
        relevant = [q.relevant for q in task.queries]
        name = task_path.stem
        metrics[f"ranking.{name}.map"] = evaluation.mean_average_precision(
            ranked, relevant
        )
        metrics[f"ranking.{name}.ndcg"] = evaluation.ndcg(ranked, relevant)
        metrics[f"ranking.{name}.p_at_1"] = evaluation.precision_at_1(ranked, relevant)

    if cfg.labels_path:
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
            eval_ids[split] = _read_ids(id_file)
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
        chain = list(STAGES) if cfg.fixture_cfg.enabled else [
            s for s in STAGES if s != "fixture"
        ]
        for name in chain:
            run(name, cfg)
        return
    if stage not in _STAGE_RUNNERS:
        raise ValidationError(f"unknown stage {stage!r}")
    _STAGE_RUNNERS[stage](cfg)
