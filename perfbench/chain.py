"""Run the five pipeline stages once in this process and record the outcome.

    python3 perfbench/chain.py CONFIG STAGE_DIR OUT_JSON [--trace]

``run.py`` starts one fresh process per chain, so ``ru_maxrss`` is the peak
of this chain alone. The stages run through the public ``nbcontrast.pipeline``
entry points. Outputs are checked after the timed region, and the result is
written to OUT_JSON; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from nbcontrast import corpus, mining, pipeline

import spans

STAGES = ["ingest", "graph-train", "mine", "encode-train", "eval"]

# Artifacts the README promises are byte-identical across reruns of the
# same config; provenance sidecars are left out because they hash the
# config file, whose input paths differ between set-up directories.
DETERMINISTIC = [
    "graph.json", "graph_embeddings.nbe", "graph_metrics.json", "triples.tsv",
    "encoder.bin", "encoder_metrics.json", "doc_vectors.nbe", "report.json",
    "report.txt",
]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_stages(cfg: pipeline.PipelineConfig, tracer=None) -> None:
    for stage in STAGES:
        runner = getattr(pipeline, "run_" + stage.replace("-", "_"))
        if tracer is None:
            runner(cfg)
        else:
            with tracer.span(f"pipeline.{stage}"):
                runner(cfg)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(cfg: pipeline.PipelineConfig) -> tuple[dict, list[str]]:
    """Outcome metrics read from the artifacts, and every failed check."""
    work = cfg.workdir
    expected = DETERMINISTIC + [f"{s}.prov.json" for s in STAGES]
    missing = [name for name in expected if not (work / name).is_file()]
    if missing:
        return {}, [f"missing artifacts: {missing}"]
    problems = []
    graph = corpus.load_graph(work / "graph.json")
    triples = mining.load_triples(work / "triples.tsv", cfg.sampling_cfg)
    known = set(graph.ids)
    unknown = {
        pid for t in triples.triples for pid in (t.query, t.positive, t.negative)
        if pid not in known
    }
    if unknown:
        problems.append(f"{len(unknown)} triple ids are not graph nodes")
    if len(triples) == 0:
        problems.append("no triples mined")
    link = json.loads((work / "graph_metrics.json").read_text())["link_prediction"]
    report = json.loads((work / "report.json").read_text())
    outcome = {
        "link_auc": link.get("auc"),
        "link_mrr": link.get("mrr"),
        "ranking_map": report.get(f"ranking.{cfg.ranking_task_path.stem}.map"),
        "probe_f1": report.get(f"classification.{cfg.labels_path.stem}.f1"),
        "triples": len(triples),
    }
    problems += [f"{key} missing from the artifacts"
                 for key, value in outcome.items() if value is None]
    return outcome, problems


def main(argv: list[str]) -> int:
    config, stage_dir, out = argv[:3]
    traced = "--trace" in argv[3:]
    cfg = pipeline.load_config(config, stage_dir=stage_dir)
    cfg.workdir.mkdir(parents=True, exist_ok=True)

    # query_yield needs the skip count, which no artifact records.
    mined: list[tuple[int, int]] = []
    mine_triples = mining.mine_triples

    def keep_result(queries, *args, **kwargs):
        result = mine_triples(queries, *args, **kwargs)
        mined.append((len(queries), len(result.skipped)))
        return result

    mining.mine_triples = keep_result
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)

    result: dict = {}
    try:
        cpu0, wall0 = _cpu_seconds(), time.monotonic()
        run_stages(cfg, tracer)
        result["interval"] = [wall0, time.monotonic()]
        result["pipeline_s"] = result["interval"][1] - wall0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["peak_rss_mb"] = spans.peak_rss() / spans.MB
    except Exception:
        result["problems"] = ["stage failed:\n" + traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.remove()
        mining.mine_triples = mine_triples

    if "problems" not in result:
        try:
            outcome, problems = check_outputs(cfg)
        except Exception:
            outcome, problems = {}, ["output check raised:\n" + traceback.format_exc()]
        result.update(outcome)
        result["problems"] = problems
    if not result["problems"]:
        queries, skipped = mined[0]
        result["query_yield"] = (queries - skipped) / queries
        result["digests"] = {
            name: _sha256(cfg.workdir / name) for name in DETERMINISTIC
        }
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, STAGES)
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
