"""Spans and counters around the pipeline's module calls, installed from outside.

A probe replaces a module attribute at the site where the pipeline looks the
name up: ``pipeline`` calls ``corpus.load_graph`` through the module object,
so the probe patches ``nbcontrast.corpus.load_graph``; ``mining`` imported
``batch_neighbors`` from ``ann``, so that probe patches
``nbcontrast.mining.batch_neighbors``. Only calls made O(stages + epochs +
queries) times are probed; per-pair and per-triple work is counted from the
arguments instead. Spans stay in memory until the chain ends.
"""

from __future__ import annotations

import functools
import os
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from nbcontrast import corpus, encoder, evaluation, graph_embed, mining, pipeline, snapshot

_PAGE = os.sysconf("SC_PAGE_SIZE")
MB = 1024 * 1024


def current_rss() -> int:
    """Resident set size of this process in bytes."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def peak_rss() -> int:
    """Peak resident set size of this process in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class RssWatch:
    """Highest RSS reached inside a block, in bytes above the RSS at entry.

    When the block raises the process peak, ``ru_maxrss`` gives it exactly;
    otherwise a thread polling ``/proc/self/statm`` every 2 ms supplies it.
    """

    def __enter__(self) -> "RssWatch":
        self.base = current_rss()
        self.peak_before = peak_rss()
        self.sampled = self.base
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def _poll(self) -> None:
        while not self._stop.wait(0.002):
            self.sampled = max(self.sampled, current_rss())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        peak = peak_rss()
        top = peak if peak > self.peak_before else max(self.sampled, current_rss())
        self.growth = max(0, top - self.base)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0


class Tracer:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def probe(
        self,
        module: object,
        attr: str,
        name: str,
        count: Callable[..., dict[str, float]] | None = None,
        watch_rss: bool = False,
    ) -> None:
        """Replace ``module.attr`` with a spanned wrapper until :meth:`remove`.

        ``count(args, result)`` returns counter increments for one call;
        with ``watch_rss`` the span's RSS growth is kept as ``<name>.rss_growth``
        (the largest over calls).
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                if watch_rss:
                    with RssWatch() as watch:
                        result = fn(*args, **kwargs)
                    key = f"{name}.rss_growth"
                    self.counts[key] = max(self.counts[key], watch.growth)
                else:
                    result = fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def remove(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def total(self, name: str) -> float:
        """Seconds spent in spans of this name."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Seconds in spans of this name minus their direct children."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(
            s.end - s.start for s in self.spans if s.parent in own
        )
        return sum(self.spans[i].end - self.spans[i].start for i in own) - children


def install(tracer: Tracer) -> None:
    """Probe every layer boundary the pipeline's stages cross."""
    p = tracer.probe
    p(corpus, "ingest_edges", "corpus.ingest_edges",
      lambda a, r: {"corpus.edges": r.edge_count})
    p(corpus, "save_graph", "corpus.save_graph")
    p(corpus, "load_graph", "corpus.load_graph")
    p(corpus, "split_edges", "corpus.split_edges")
    p(corpus, "load_documents", "corpus.load_documents")
    p(graph_embed, "train_graph_embeddings", "graph_embed.train",
      lambda a, r: {"graph_embed.hinge_pairs":
                    a[0].edge_count * a[1].negatives_per_edge * a[1].epochs})
    p(graph_embed, "train_epoch", "graph_embed.train_epoch")
    p(graph_embed, "eval_link_prediction", "graph_embed.link_eval",
      lambda a, r: {"graph_embed.link_eval_edges": len(a[1]),
                    "graph_embed.auc_cells": len(a[1]) * len(a[1]) * a[2]},
      watch_rss=True)
    p(snapshot, "write_snapshot", "snapshot.write")
    p(snapshot, "read_snapshot", "snapshot.read")
    p(mining, "mine_triples", "mining.mine_triples",
      lambda a, r: {"mining.queries": len(a[0]), "mining.triples": len(r),
                    "mining.skipped": len(r.skipped),
                    "mining.partial": len(r.partial),
                    "mining.c_pos_slots": len(a[0]) * a[3].c_pos})
    p(mining, "batch_neighbors", "ann.batch_neighbors",
      lambda a, r: {"ann.queries": len(a[1]), "ann.depth_sum": len(a[1]) * a[2]})
    p(mining, "sample_filtered_random", "mining.sample_filtered_random")
    p(mining, "save_triples", "mining.save_triples")
    p(mining, "load_triples", "mining.load_triples")
    p(encoder, "build_vocab", "encoder.build_vocab",
      lambda a, r: {"encoder.vocab_size": len(r)})
    p(encoder, "train", "encoder.train",
      lambda a, r: {"encoder.triple_steps": len(a[0]) * a[3].epochs})
    p(encoder, "encode_corpus", "encoder.encode_corpus",
      lambda a, r: {"encoder.docs": len(a[0])})
    p(encoder, "save_encoder", "encoder.save")
    p(encoder, "load_encoder", "encoder.load")
    p(evaluation, "rank_by_l2", "evaluation.rank_by_l2",
      lambda a, r: {"evaluation.ranking_queries": len(a[1].queries)})
    p(evaluation, "linear_probe_f1", "evaluation.probe")
    p(pipeline, "label_separation", "pipeline.label_separation", watch_rss=True)
    p(pipeline, "_write_provenance", "pipeline.provenance")
    p(pipeline, "_write_json", "pipeline.write_json")


def layer_metrics(tracer: Tracer, stages: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced chain, keyed as in BENCHMARK.json."""
    t, c = tracer.total, tracer.counts

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out = {
        "graph_embed.train_s": t("graph_embed.train"),
        "graph_embed.hinge_pairs": c["graph_embed.hinge_pairs"],
        "graph_embed.hinge_pairs_per_s": rate(
            c["graph_embed.hinge_pairs"], t("graph_embed.train")),
        "graph_embed.train_epoch_calls": c["graph_embed.train_epoch.calls"],
        "graph_embed.link_eval_s": t("graph_embed.link_eval"),
        "graph_embed.link_eval_edges": c["graph_embed.link_eval_edges"],
        "graph_embed.auc_cells": c["graph_embed.auc_cells"],
        "graph_embed.link_eval_rss_growth_mb":
            c["graph_embed.link_eval.rss_growth"] / MB,
        "ann.batch_neighbors_s": t("ann.batch_neighbors"),
        "ann.queries": c["ann.queries"],
        "ann.depth": c["ann.depth_sum"] / max(c["ann.queries"], 1),
        "ann.ms_per_query": 1000 * t("ann.batch_neighbors") / max(c["ann.queries"], 1),
        "mining.mine_triples_self_s": tracer.self_time("mining.mine_triples"),
        "mining.sample_filtered_random_s": t("mining.sample_filtered_random"),
        "mining.queries": c["mining.queries"],
        "mining.skipped": c["mining.skipped"],
        "mining.partial": c["mining.partial"],
        "mining.fill_ratio": c["mining.triples"] / max(c["mining.c_pos_slots"], 1),
        "mining.save_triples_s": t("mining.save_triples"),
        "mining.load_triples_s": t("mining.load_triples"),
        "encoder.train_s": t("encoder.train"),
        "encoder.triple_steps": c["encoder.triple_steps"],
        "encoder.triples_per_s": rate(c["encoder.triple_steps"], t("encoder.train")),
        "encoder.vocab_size": c["encoder.vocab_size"],
        "encoder.build_vocab_s": t("encoder.build_vocab"),
        "encoder.encode_corpus_s": t("encoder.encode_corpus"),
        "encoder.docs_per_s": rate(c["encoder.docs"], t("encoder.encode_corpus")),
        "encoder.save_s": t("encoder.save"),
        "encoder.load_s": t("encoder.load"),
        "evaluation.rank_by_l2_s": t("evaluation.rank_by_l2"),
        "evaluation.ranking_queries_per_s": rate(
            c["evaluation.ranking_queries"], t("evaluation.rank_by_l2")),
        "evaluation.probe_s": t("evaluation.probe"),
        "pipeline.label_separation_s": t("pipeline.label_separation"),
        "pipeline.label_separation_rss_growth_mb":
            c["pipeline.label_separation.rss_growth"] / MB,
        "corpus.ingest_edges_s": t("corpus.ingest_edges"),
        "corpus.save_graph_s": t("corpus.save_graph"),
        "corpus.load_graph_s": t("corpus.load_graph"),
        "corpus.split_edges_s": t("corpus.split_edges"),
        "corpus.load_documents_s": t("corpus.load_documents"),
        "corpus.edges": c["corpus.edges"],
        "snapshot.write_s": t("snapshot.write"),
        "snapshot.read_s": t("snapshot.read"),
    }
    for stage in stages:
        key = stage.replace("-", "_")
        out[f"pipeline.{key}_s"] = t(f"pipeline.{stage}")
        out[f"pipeline.{key}_self_s"] = tracer.self_time(f"pipeline.{stage}")
    return out
