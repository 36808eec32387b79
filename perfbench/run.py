"""Pipeline benchmark: generate a workload from a seed, run the stage chain,
check its outputs and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus-mine --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root; it imports ``nbcontrast`` from ``src/``.
One run sets up the workload several times (input generation plus
``load_config``) and reports the median as ``setup_s``. It then runs chains
(``ingest -> graph-train -> mine -> encode-train -> eval``), each in a fresh
process, while one more as long as the last still fits in ``--seconds``,
and reports per-metric medians. With ``--trace 1`` it alternates untraced
and traced chains and reports the per-layer metrics of the traced ones,
plus ``trace_overhead_s``. Every chain is closed-loop: the next starts when
the previous has ended.

Times are scaled to a nominal machine speed measured by the probes of
``calibrate.py``, which run on every CPU for the whole run in the idle
scheduling class. The factor, the unscaled times and the Python, NumPy and
BLAS versions and BLAS thread count are printed with the results.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a chain counts as
failed when a stage raises, an artifact is missing, ``triples.tsv`` does not
load or names ids outside the graph, or its artifact digests differ from
the other chains' (same code and seed must give identical bytes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# Set-up repeats at least three times and, while it is fast, for at least
# six seconds (up to two hundred times): the machine's speed flickers within
# seconds, and a median over a shorter span spread 9-21% across seeds.
MIN_SETUPS, SETUP_SPAN_S, MAX_SETUPS = 3, 6.0, 200
CHAIN_TIMEOUT_S = 120
# CPU seconds of one probe slice on a quiet 2 GHz Xeon vCPU; reported times
# are scaled to that speed.
NOMINAL_SLICE_S = 0.0016


def units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    import ctypes

    import numpy  # noqa: F401  (loads BLAS)

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def environment() -> dict:
    """What the numbers depend on beyond the code, printed with every run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class SpeedProbes:
    """One ``calibrate.py`` probe per CPU, running for one workload."""

    def __init__(self, work: Path) -> None:
        self.files = {cpu: work / f"speed-{cpu}.txt" for cpu in os.sched_getaffinity(0)}
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py"), str(cpu), str(path)],
                stdout=subprocess.DEVNULL,
            )
            for cpu, path in self.files.items()
        ]
        deadline = time.monotonic() + 30
        while not all(p.is_file() and p.stat().st_size for p in self.files.values()):
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed probes did not start")
            time.sleep(0.05)

    @staticmethod
    def _slices(path: Path) -> list[tuple[float, float]]:
        lines = path.read_text().splitlines()
        return [tuple(map(float, line.split())) for line in lines if line.count(" ") == 1]

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to nominal speed.

        Each CPU's speed is the mean slice time of its probe (slices that
        ended in the interval, widened until there are three). A probe on an
        idle CPU runs a quarter of the time, so four times its CPU time is
        the share of the interval the benchmark left that CPU; CPUs are
        weighted by the rest, the time the benchmark held them.
        """
        weighted = busy_total = 0.0
        for path in self.files.values():
            slices = self._slices(path)
            inside = [c for t, c in slices if start <= t <= end]
            busy = max(0.0, (end - start) - 4 * sum(inside))
            pad = 0.0
            while len(inside) < 3 and pad < 60:
                pad += 0.25
                inside = [c for t, c in slices if start - pad <= t <= end + pad]
            weighted += busy * NOMINAL_SLICE_S / statistics.fmean(inside)
            busy_total += busy
        return weighted / busy_total if busy_total else 1.0

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()


def _digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir()) if p.name != "config.ini"
    }


def set_up(
    w: workloads.Workload, seed: int, work: Path, probe: SpeedProbes
) -> tuple[list[Path], list[float], bool]:
    """Generate the inputs repeatedly; returns configs, times, agreement."""
    from nbcontrast import pipeline

    configs, times, digests = [], [], []
    first = time.monotonic()
    while len(configs) < MIN_SETUPS or (
        time.monotonic() - first < SETUP_SPAN_S and len(configs) < MAX_SETUPS
    ):
        start = time.monotonic()
        config = workloads.generate(w, seed, work / f"inputs-{len(configs)}")
        pipeline.load_config(config)
        end = time.monotonic()
        times.append((end - start) * probe.scale(start, end))
        configs.append(config)
        digests.append(_digest_dir(config.parent))
    return configs, times, all(d == digests[0] for d in digests)


def run_chain(config: Path, stage_dir: Path, traced: bool) -> dict:
    """One chain in a fresh interpreter; returns its result record."""
    out = stage_dir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "chain.py"), str(config), str(stage_dir), str(out)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHAIN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"chain exceeded {CHAIN_TIMEOUT_S} s"]}
    result = json.loads(out.read_text()) if out.is_file() else {}
    if proc.returncode != 0 and not result.get("problems"):
        result["problems"] = [f"chain exited {proc.returncode}: {proc.stderr[-2000:]}"]
    shutil.rmtree(stage_dir, ignore_errors=True)
    return result


def rescale(result: dict, factor: float, unit: dict[str, str]) -> None:
    """Bring one chain's times and rates to nominal machine speed."""
    result["speed_factor"] = factor
    result["pipeline_raw_s"], result["cpu_raw_s"] = result["pipeline_s"], result["cpu_s"]
    result["pipeline_s"] *= factor
    result["cpu_s"] *= factor
    for key, value in result.get("layers", {}).items():
        if unit[key] in ("s", "ms"):
            result["layers"][key] = value * factor
        elif unit[key] == "1/s":
            result["layers"][key] = value / factor


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    unit = units()
    probe = SpeedProbes(work)
    try:
        configs, setup_times, inputs_agree = set_up(w, seed, work, probe)
        chains: list[tuple[bool, dict]] = []
        start, round_s = time.monotonic(), 0.0
        # Start another round only while one as long as the last still fits.
        while not chains or time.monotonic() - start + round_s <= seconds:
            round_start = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                i = len(chains)
                result = run_chain(configs[i % len(configs)], work / f"chain-{i}", traced)
                if "interval" in result:
                    rescale(result, probe.scale(*result["interval"]), unit)
                chains.append((traced, result))
            round_s = time.monotonic() - round_start
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    ok = [(traced, r) for traced, r in chains if not r.get("problems")]
    problems = [p for _, r in chains for p in r.get("problems", [])]
    if ok:
        reference = ok[0][1]["digests"]
        drifted = [r for _, r in ok if r["digests"] != reference]
        if drifted:
            problems.append(f"{len(drifted)} chains wrote different artifact bytes")
            ok = [(t, r) for t, r in ok if r["digests"] == reference]
    if not inputs_agree:
        problems.append("the same seed generated different inputs")
    for p in problems:
        print(f"{name}: check failed: {p}", file=sys.stderr)

    def median(key: str, traced: bool) -> float | None:
        values = [r[key] for t, r in ok if t == traced]
        return statistics.median(values) if values else None

    if trace:
        traced_ok = [r for t, r in ok if t]
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced_ok)
            for key in (traced_ok[0]["layers"] if traced_ok else {})
        }
        untraced = median("pipeline_s", False)
        if traced_ok and untraced is not None:
            metrics["trace_overhead_s"] = median("pipeline_s", True) - untraced
            metrics["pipeline_raw_s"] = median("pipeline_raw_s", False)
            metrics["cpu_raw_s"] = median("cpu_raw_s", False)
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        for key in ("pipeline_s", "cpu_s", "peak_rss_mb", "link_auc", "link_mrr",
                    "ranking_map", "probe_f1", "triples", "query_yield"):
            value = median(key, False)
            if value is not None:
                metrics[key] = value
    return {
        "correct": not problems,
        "attempted": len(chains),
        "failed": len(chains) - len(ok),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
        "samples": len([1 for t, _ in ok if t == trace]),
        "speed": median("speed_factor", trace),
        "raw": (median("pipeline_raw_s", False), median("cpu_raw_s", False)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "nbcontrast" / "__init__.py").is_file():
        print(f"no nbcontrast sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("env: " + json.dumps(environment(), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = workloads.WORKLOADS[name].default_seed if args.seed is None else args.seed
        results[name] = res = run_workload(name, seed, args.seconds, bool(args.trace))
        if not res["samples"]:
            print(f"{name}: no chain completed", file=sys.stderr)
            return 1
        raw_wall, raw_cpu = res.pop("raw")
        raw = (f"; unscaled untraced chain {raw_wall:.3f} s wall, {raw_cpu:.3f} s CPU"
               if raw_wall is not None else "")
        print(f"{name} (seed {seed}, median of {res.pop('samples')} chains, "
              f"{res['failed']}/{res['attempted']} failed, times scaled by "
              f"{res.pop('speed'):.3f} to nominal speed{raw}):")
        for key, m in res["metrics"].items():
            print(f"  {key:45s} {m['value']:>14.6g} {m['unit']}")

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
