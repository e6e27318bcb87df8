"""Benchmark for the emocluster package: one workload, one seed, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: protocol, analysis, cli_pipeline (BENCHMARK.json says why each
exists).  A run sets up the workload's inputs from the seed several times,
then repeats passes for --seconds (at least three), checking every pass's
outputs after timing it.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer ones, from passes that alternate untraced and traced, so
the tracing overhead is the difference of their medians.  Traced spans go
to .perfbench/trace-<workload>-seed<seed>.jsonl in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("protocol", "analysis", "cli_pipeline")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3  # set-ups before the first pass; untraced runs add one after each pass
MIN_PASSES = 3
PASS_DEADLINE_S = 120.0  # start no pass after this; a run must end within 180 s
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import emocluster.cli; print(time.perf_counter() - t)"
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def timing_stats(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median={statistics.median(values):.6g} n={n}"
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return text + f" p{p:g}={q:.6g}"
    return text + " (no percentile has 10 samples beyond it)"


def environment(workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "parallel_worker_count": workers,
    }


def resolved_workers() -> int:
    try:
        from emocluster.parallel import worker_count
    except ImportError:
        return 1
    return worker_count()


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(workload, seed: int):
    started = time.perf_counter()
    inputs = workload.setup(seed)
    return inputs, time.perf_counter() - started


def make_workload(name: str):
    import workloads

    if name == "protocol":
        return workloads.Protocol()
    if name == "analysis":
        return workloads.Analysis()
    return workloads.CliPipeline(str(OUT / "work"))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, results) -> None:
        for op, err in results:
            self.attempted += 1
            if err is not None:
                self.failed += 1
                print(f"FAILED {op}: {err}", file=sys.stderr)


def run_pass(workload, inputs, first, tally: Tally, tracer=None, phase=None):
    """One timed pass then its untimed checks; (wall seconds, outputs), or (None, None) if it raised.

    With a tracer, the pass (not its checks) runs traced under a root span.
    """
    started = time.perf_counter()
    try:
        if tracer is None:
            outputs = workload.run(inputs)
        else:
            tracer.install()
            tracer.phase = phase
            try:
                with tracer.root("bench.pass"):
                    outputs = workload.run(inputs)
            finally:
                tracer.uninstall()
        wall = time.perf_counter() - started
        results = workload.check(inputs, outputs, first)
    except Exception:  # a failed pass counts its ops as failed; the run goes on
        traceback.print_exc()
        tally.record([(op, "pass raised") for op in workload.ops(inputs)])
        return None, None
    tally.record(results)
    return wall, outputs


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import resource

    import tracing

    workload = make_workload(name)
    tracer = tracing.Tracer()
    tally = Tally()
    workers = resolved_workers()
    env = environment(workers)
    print("env: " + json.dumps(env, sort_keys=True))

    try:
        if traced:
            tracer.install()
        gen_times, import_times = [], []
        for i in range(SETUP_REPS):
            tracer.phase = f"setup-{i}"
            inputs, took = timed_setup(workload, seed)
            gen_times.append(took)
        tracer.uninstall()
        if not traced:
            import_seconds()  # warm-up: fills the page cache and writes bytecode

        # the first pass that completes is the reference later passes must
        # reproduce exactly
        first = None
        walls, traced_walls, passes = [], [], 0
        started = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - started < seconds:
            if time.perf_counter() - started > PASS_DEADLINE_S:
                break
            passes += 1
            wall, out = run_pass(workload, inputs, first, tally)
            first = first if first is not None else out
            if wall is not None:
                walls.append(wall)
            if not traced:
                # set-up is sampled between passes, so that it sees the same
                # machine load as the passes rather than only the run's start
                import_times.append(import_seconds())
                gen_times.append(timed_setup(workload, seed)[1])
            else:
                wall, out = run_pass(workload, inputs, first, tally, tracer, f"pass-{len(traced_walls)}")
                if wall is not None:
                    traced_walls.append(wall)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality = workload.quality(first) if first is not None else {}
    finally:
        tracer.uninstall()
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    print(f"workload={name} seed={seed} passes={len(walls)} traced_passes={len(traced_walls)}")
    print(f"error_rate={tally.failed}/{tally.attempted} ops failed")
    print("wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    if traced:
        print("traced wall_s samples: " + " ".join(f"{w:.4f}" for w in traced_walls))
    print("quality: " + json.dumps(quality, sort_keys=True))
    if not walls or (traced and not traced_walls):
        raise SystemExit("every pass raised; no result")

    if not traced:
        import_s, inputs_s = statistics.median(import_times), statistics.median(gen_times)
        setup_s = import_s + inputs_s
        print(f"wall_s (s): {timing_stats(walls)}")
        print(f"setup_s (s): {setup_s:.6g} = import median {import_s:.6g} (n={len(import_times)}) "
              f"+ inputs median {inputs_s:.6g} (n={len(gen_times)})")
        print(f"peak_rss_mb (MB): {peak_rss_mb:.6g}")
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        summary = tracing.Summary(tracer)
        untraced = statistics.median(walls)
        overhead = statistics.median(traced_walls) - untraced
        print(f"untraced wall_s (s): {timing_stats(walls)}")
        print(f"traced wall_s (s): {timing_stats(traced_walls)}")
        print(f"tracing overhead: {overhead:.6g} s ({100 * overhead / untraced:.1f} %)")
        print("self time per layer, per set-up plus pass:")
        print(tracing.self_time_table(summary))
        metrics = tracing.layer_metrics(summary, workers, overhead, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"trace-{name}-seed{seed}.jsonl"))
        for metric, (value, unit) in metrics.items():
            print(f"{metric} ({unit}): {value:.6g}")

    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is its own; results merged."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {done.returncode} without a result")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "emocluster" / "__init__.py").is_file():
        print(f"perfbench: no emocluster sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    # one BLAS thread, so the per-speaker worker pool is the only parallelism
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.setdefault("EMOCLUSTER_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
