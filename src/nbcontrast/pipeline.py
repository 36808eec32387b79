"""Pipeline stages driven by one INI config, with provenance sidecars.

Every stage past ``fixture`` runs in one frame, ``_stage``: it first
removes the outputs and sidecar of its previous run, so a failed run leaves
none for the next stage to read. The stage then reads its inputs and writes
fixed-name artifacts into the work directory, and the frame drops a
``<stage>.prov.json`` sidecar recording the config hash (of the bytes
``load_config`` parsed), effective seed, and input/output content hashes.
Reruns with unchanged inputs reproduce byte-identical artifacts; nothing is
ever mutated in place.
"""

from __future__ import annotations

import configparser
import contextlib
import ctypes
import functools
import hashlib
import io
import json
import logging
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import corpus, encoder, evaluation, fixtures, graph_embed, mining, snapshot
from .errors import DataError, DependencyError, ValidationError

logger = logging.getLogger(__name__)

STAGES = ("fixture", "ingest", "graph-train", "mine", "encode-train", "eval")

# Written by encode-train beside the checkpoint, read by eval: the corpus's
# token rows, keyed by the document file and the checkpoint it was split for.
DOC_TOKENS = "doc_tokens.bin"

# Every file each stage writes into the work directory, its main artifact first.
ARTIFACTS = {
    "ingest": ("graph.json",),
    "graph-train": ("graph_embeddings.nbe", "graph_metrics.json"),
    "mine": ("triples.tsv",),
    "encode-train": ("encoder.bin", "encoder_metrics.json", DOC_TOKENS),
    "eval": ("report.json", "report.txt", "doc_vectors.nbe"),
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

# Accepted and ignored. Neither ``[encoder] batch_size`` nor ``[probe] seed``
# ever changed results, and neither is read, but the benchmark's workload
# configs still write both.
RETIRED_KEYS = {("encoder", "batch_size"), ("probe", "seed")}


@dataclass
class PipelineConfig:
    """Everything the stages need, parsed and validated up front."""

    workdir: Path
    config_sha256: str
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
    config_bytes = path.read_bytes()
    # no default section: [DEFAULT] is a section like any other, and unknown
    parser = configparser.ConfigParser(default_section="")
    try:
        text = io.TextIOWrapper(io.BytesIO(config_bytes), encoding="utf-8")
        parser.read_file(text, str(path))
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
    if any(p.exists() and not p.is_dir() for p in (workdir, *workdir.parents)):
        raise ValidationError(f"work directory {workdir} is not a directory")

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
        config_sha256=hashlib.sha256(config_bytes).hexdigest(),
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
    default, except a ``seed`` field, which falls back to the global seed.
    """
    readers = {
        int: sec.getint, float: sec.getfloat, bool: sec.getboolean, str: sec.get
    }
    types = get_type_hints(cls)
    try:
        values = {f.name: readers[types[f.name]](f.name)
                  for f in fields(cls) if f.name in sec}
        if "seed" in types:
            values.setdefault("seed", global_seed)
        cfg = cls(**values)
        cfg.validate()
    except ValueError as exc:
        raise ValidationError(f"[{sec.name}] {exc}") from None
    return cfg


@functools.cache
def _sha256_file(path: Path) -> str:
    """The file's digest, read at most once until ``_stage`` clears the memo."""
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _tokens_key(docs_path: Path, ckpt_path: Path) -> bytes:
    """Key of ``doc_tokens.bin``: the documents' SHA-256, then the checkpoint's."""
    return bytes.fromhex(_sha256_file(docs_path) + _sha256_file(ckpt_path))


def _write_provenance(
    cfg: PipelineConfig, stage: str, inputs: list[Path], outputs: list[Path]
) -> None:
    """Sidecar of the stage's config, seed and file digests."""
    payload = {
        "stage": stage,
        "config_sha256": cfg.config_sha256,
        "seed": cfg.seed,
        "inputs": {p.name: _sha256_file(p) for p in inputs},
        "outputs": {p.name: _sha256_file(p) for p in outputs},
    }
    _write_json(cfg.workdir / f"{stage}.prov.json", payload)


@functools.cache
def _openblas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy
    loaded, found through ``/proc/self/maps``; None where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    for lib in libs:
        # numpy 2 wheels, numpy 1.x wheels, system builds
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            calls = tuple(getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if all(calls):
                calls[0].argtypes, calls[0].restype = [], ctypes.c_int
                calls[1].argtypes, calls[1].restype = [ctypes.c_int], None
                return calls
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS on the calling thread, then restore the caller's count: a
    product's last bits can depend on how many threads share it."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _stage(name: str):
    """Make ``body(cfg, *outputs) -> inputs read`` into ``run_<stage>(cfg)``.

    It runs OpenBLAS on one thread, deletes the stage's ``ARTIFACTS`` and
    sidecar before the body reads anything, writes the sidecar last, and
    returns the main artifact. Clearing the digest memo as the stage starts
    and ends, it hashes each file at most once per stage."""
    def frame(body):
        @functools.wraps(body)
        def runner(cfg: PipelineConfig) -> Path:
            outputs = [cfg.workdir / file for file in ARTIFACTS[name]]
            with _one_blas_thread():
                _sha256_file.cache_clear()
                try:
                    for path in (*outputs, cfg.workdir / f"{name}.prov.json"):
                        path.unlink(missing_ok=True)
                    _write_provenance(cfg, name, body(cfg, *outputs), outputs)
                finally:
                    _sha256_file.cache_clear()
            return outputs[0]
        return runner
    return frame


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


@_one_blas_thread()
def run_fixture(cfg: PipelineConfig) -> list[Path]:
    """Generate the synthetic corpus files named in the config."""
    # outside ``_stage``: a digest of an earlier run's file would be stale
    _sha256_file.cache_clear()
    fc = cfg.fixture_cfg
    graph, block_of = fixtures.planted_partition_graph(
        fc.nodes, fc.blocks, fc.p_in, fc.p_out, fc.seed
    )
    docs, labels = fixtures.two_topic_documents(block_of, fc)
    task = fixtures.ranking_task_from_labels(labels, fc)
    labeled = fixtures.labeled_set_from_labels(labels, fc)

    cfg.workdir.mkdir(parents=True, exist_ok=True)
    fixtures.write_edge_file(graph, cfg.edges_path)
    corpus.save_documents(docs, cfg.documents_path)
    outputs = [cfg.edges_path, cfg.documents_path]
    if cfg.ranking_task_path:
        evaluation.save_ranking_task(task, cfg.ranking_task_path)
        outputs.append(cfg.ranking_task_path)
    if cfg.labels_path:
        evaluation.save_labeled_set(labeled, cfg.labels_path)
        outputs.append(cfg.labels_path)
    _write_provenance(cfg, "fixture", [], outputs)
    return outputs


@_stage("ingest")
def run_ingest(cfg: PipelineConfig, out: Path) -> list[Path]:
    """Edge file to graph snapshot, with optional filtering and symmetrizing."""
    edges = _require(cfg.edges_path, "edge file")
    graph = corpus.ingest_edges(edges)
    if cfg.exclude_ids_path:
        exclude_file = _require(cfg.exclude_ids_path, "exclusion id file")
        graph = corpus.filter_nodes(graph, _read_ids(exclude_file))
    if cfg.undirected:
        graph = corpus.to_undirected(graph)
    if not graph.edge_count:
        raise DataError(f"{edges}: no edge left after dropping self-loops, "
                        "duplicates and excluded ids")
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    corpus.save_graph(graph, out)
    print(f"ingest: {graph.node_count} nodes, {graph.edge_count} edges -> {out}")
    return [edges]


@_stage("graph-train")
def run_graph_train(cfg: PipelineConfig, out: Path, metrics_path: Path) -> list[Path]:
    """Train node embeddings and report link prediction on held-out edges."""
    graph_path = _require(cfg.workdir / ARTIFACTS["ingest"][0], "graph snapshot")
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

    snapshot.write_snapshot(table, out)
    _write_json(metrics_path, {"link_prediction": metrics, "loss_trace": losses})
    print(f"graph-train: {len(losses)} epochs, final loss {losses[-1]:.6f} -> {out}")
    return [graph_path]


@_stage("mine")
def run_mine(cfg: PipelineConfig, out: Path) -> list[Path]:
    """Mine contrastive triples from the trained citation embeddings."""
    graph_path = _require(cfg.workdir / ARTIFACTS["ingest"][0], "graph snapshot")
    table_path = _require(cfg.workdir / ARTIFACTS["graph-train"][0], "embedding snapshot")
    graph = corpus.load_graph(graph_path)
    table = snapshot.read_snapshot(table_path)
    if table.rows != graph.node_count:
        raise DataError(
            f"embedding snapshot {table_path} has {table.rows} rows, graph "
            f"{graph_path} has {graph.node_count} nodes"
        )

    sc = cfg.sampling_cfg
    queries = mining.select_queries(graph.node_count, sc)
    triples = mining.mine_triples(queries, table, graph.ids, sc)
    if not triples:
        skips = dict(Counter(reason for _, reason in triples.skipped))
        raise DataError(f"no triple mined from {len(queries)} queries, skipped: {skips}")
    if not sc.subsample_by_query and sc.subsample_fraction < 1.0:
        before = len(triples)
        triples = mining.subsample_triples(triples, sc.subsample_fraction, sc.seed)
        print(f"mine: subsampled {before} -> {len(triples)} triples")
        if not triples:
            raise DataError(f"subsample_fraction = {sc.subsample_fraction} keeps "
                            f"none of {before} mined triples")
    mining.save_triples(triples, out)
    print(
        f"mine: {len(triples)} triples from {len(queries)} queries "
        f"({len(triples.skipped)} skipped, {len(triples.partial)} partial) -> {out}"
    )
    return [graph_path, table_path]


@_stage("encode-train")
def run_encode_train(
    cfg: PipelineConfig, out: Path, metrics_path: Path, tokens_path: Path
) -> list[Path]:
    """Train the document encoder on the mined triples."""
    triples_path = _require(cfg.workdir / ARTIFACTS["mine"][0], "triple file")
    docs_path = _require(cfg.documents_path, "document file")
    triples = mining.load_triples(triples_path, cfg.sampling_cfg)
    if not triples.triples:
        raise DataError(f"{triples_path}: no triples to train on")
    docs = corpus.load_documents(docs_path)

    vocab, tokens = encoder.index_corpus(docs.values())
    ec = cfg.encoder_cfg
    params = encoder.init_encoder(vocab, ec.hidden_dim, ec.out_dim, ec.seed)
    try:
        trace = encoder.train(triples, tokens, params, ec)
    except DataError as exc:
        raise DataError(f"{triples_path}: {exc} (documents: {docs_path})") from None

    encoder.save_encoder(params, out)
    encoder.save_doc_tokens(tokens, _tokens_key(docs_path, out), tokens_path)
    _write_json(metrics_path, {"loss_trace": trace})
    print(
        f"encode-train: {len(trace)} epochs, loss "
        + " -> ".join(f"{x:.4f}" for x in trace)
        + f" -> {out}"
    )
    return [triples_path, docs_path]


@_stage("eval")
def run_eval(
    cfg: PipelineConfig, out: Path, text_path: Path, vectors_path: Path
) -> list[Path]:
    """Encode documents and score every configured evaluation task."""
    ckpt_path = _require(cfg.workdir / ARTIFACTS["encode-train"][0], "encoder checkpoint")
    docs_path = _require(cfg.documents_path, "document file")
    inputs = [ckpt_path, docs_path]
    # every input is checked before any artifact is written, so a bad one
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
    tokens_path = cfg.workdir / DOC_TOKENS
    key = _tokens_key(docs_path, ckpt_path)
    try:
        tokens = encoder.load_doc_tokens(tokens_path, key)
        inputs.append(tokens_path)
    except (OSError, DataError):
        # missing, stale or damaged: split the documents under the checkpoint's vocab
        docs = corpus.load_documents(docs_path)
        tokens = encoder.tokenize_corpus(docs.values(), params.vocab)
    vectors, id_to_row = encoder.encode_corpus(tokens, params)

    metrics: dict[str, float] = {}
    if cfg.ranking_task_path:
        try:
            ranked = evaluation.rank_by_l2(vectors, task, id_to_row)
        except DataError as exc:
            raise DataError(f"{task_path}: {exc} (documents: {docs_path})") from None
        relevant = [q.relevant for q in task.queries]
        name = task_path.stem
        metrics[f"ranking.{name}.map"] = evaluation.mean_average_precision(
            ranked, relevant
        )
        metrics[f"ranking.{name}.ndcg"] = evaluation.ndcg(ranked, relevant)
        metrics[f"ranking.{name}.p_at_1"] = evaluation.precision_at_1(ranked, relevant)

    if cfg.labels_path:
        name = labels_path.stem
        try:
            metrics[f"classification.{name}.f1"] = evaluation.linear_probe_f1(
                vectors, labeled, id_to_row, cfg.probe_cfg
            )
        except DataError as exc:
            raise DataError(f"{labels_path}: {exc} (documents: {docs_path})") from None
        intra, inter = label_separation(vectors, labeled, id_to_row)
        metrics["separation.topics.intra_l2"] = intra
        metrics["separation.topics.inter_l2"] = inter

    if cfg.overlap_paths:
        graph_path = _require(cfg.workdir / ARTIFACTS["ingest"][0], "graph snapshot")
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

    snapshot.write_snapshot(vectors, vectors_path)
    _write_json(out, metrics)
    text = render_report(metrics)
    text_path.write_text(text, encoding="utf-8")
    print(text, end="")
    return inputs


def label_separation(
    vectors: graph_embed.EmbeddingTable,
    labeled: evaluation.LabeledSet,
    id_to_row,
) -> tuple[float, float]:
    """Mean pairwise L2 distance within and across label groups.

    Distances come a block of at most ``graph_embed.CELL_CAP`` at a time from
    ``|a|^2 + |b|^2 - 2 a.b``, one matrix product, and a product with the
    one-hot labels sums each row's distances per label: each pair twice.
    """
    kept = [(id_to_row[pid], label) for pid, label, _ in labeled.items if pid in id_to_row]
    points = vectors.values[[row for row, _ in kept]]
    _, codes = np.unique([label for _, label in kept], return_inverse=True)
    onehot = (codes[:, None] == np.arange(codes.max() + 1)).astype(np.float64)
    norms = np.einsum("ij,ij->i", points, points)
    same = total = 0.0
    step = max(1, graph_embed.CELL_CAP // len(points))
    block = np.empty((min(step, len(points)), len(points)))
    for start in range(0, len(points), step):
        rows = np.arange(start, min(start + step, len(points)))
        dists = np.matmul(points[rows], -2.0 * points.T, out=block[:len(rows)])
        dists += norms[rows, None]
        dists += norms
        dists[rows - start, rows] = 0.0
        by_label = np.sqrt(np.maximum(dists, 0.0, out=dists), out=dists) @ onehot
        same += by_label[rows - start, codes[rows]].sum()
        total += by_label.sum()
    sizes = np.bincount(codes)
    pairs = sizes @ sizes - len(points), len(points) ** 2 - sizes @ sizes
    return float(same / pairs[0]), float((total - same) / pairs[1])


def render_report(metrics: dict[str, float]) -> str:
    """Fixed-width two-column text table of every metric."""
    if not metrics:
        return "(no evaluation tasks configured)\n"
    width = max(len(k) for k in metrics)
    lines = [f"{'metric'.ljust(width)}  value", f"{'-' * width}  ------"]
    for key in sorted(metrics):
        lines.append(f"{key.ljust(width)}  {metrics[key]:.4f}")
    return "\n".join(lines) + "\n"


def run(stage: str, cfg: PipelineConfig) -> None:
    """Run one stage, or the whole chain for ``all``."""
    if stage == "all":
        for name in STAGES if cfg.fixture_cfg.enabled else STAGES[1:]:
            run(name, cfg)
        return
    if stage not in STAGES:
        raise ValidationError(f"unknown stage {stage!r}")
    globals()["run_" + stage.replace("-", "_")](cfg)
