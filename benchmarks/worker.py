"""One workload process: set up, then run the fixed job list in a closed loop.

Started by ``run.py``; prints one JSON object on its last stdout line.  With
``--setup-only`` it stops once set-up is done, which lets ``run.py`` time
set-up several times.  With ``--trace 1`` untraced and traced passes
alternate, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import loccsim  # noqa: E402

if Path(loccsim.__file__).resolve().parent != SRC / "loccsim":
    sys.exit(f"error: imported loccsim from {loccsim.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

# candidate tail percentiles; job_tail_ms uses the highest one that leaves at
# least TAIL_BEYOND samples above it in the MIN_PASSES passes every run makes,
# so the percentile is fixed per workload and runs compare
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_BEYOND = 10

# one ALS sweep: 32 restarts at rank 6 on a (4, 4, 4) party tensor.  The stall
# rule needs more than 100 history entries, so max_iters=100 runs exactly 100.
ALS_SWEEPS = 100
ALS_RANK = 6
ALS_REPEATS = 5

# every run makes at least this many passes, so the medians are taken over
# repetitions spread across the run; a traced run alternates and ends with as
# many traced passes as untraced ones
MIN_PASSES = 3


def tail_spec(n_samples: int) -> float | None:
    """The highest candidate percentile with at least TAIL_BEYOND of
    ``n_samples`` beyond it; None when there are too few samples."""
    for q in TAIL_PERCENTILES:
        if round(n_samples * (100 - q) / 100, 6) >= TAIL_BEYOND:
            return q
    return None


def run_pass(jobs, tracer=None) -> tuple[list[float], list[list[str]]]:
    """Run every job once; returns (job times, problems)."""
    times, problems = [], []
    for i, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            answer = tracer.run_job(i, job.run) if tracer else job.run()
        except Exception as exc:  # a failed job is counted, never fatal
            times.append(time.perf_counter() - start)
            problems.append([f"{job.label}: {type(exc).__name__}: {exc}"])
            continue
        times.append(time.perf_counter() - start)
        try:
            problems.append(job.check(answer))
        except Exception as exc:
            problems.append([f"{job.label}: check raised {type(exc).__name__}: {exc}"])
    return times, problems


def als_sweep_us() -> float:
    """Median time of one ALS sweep, in microseconds, outside any pass."""
    from loccsim import invariants, prebuilt

    source, _ = prebuilt.tripartite_catalysis_pair("w")
    tensor = invariants.PartyTensor.from_state(source)
    cfg = invariants.ProbeConfig(max_iters=ALS_SWEEPS)
    samples = []
    for _ in range(ALS_REPEATS):
        start = time.perf_counter()
        invariants.cp_rank_probe(tensor, ALS_RANK, cfg)
        samples.append((time.perf_counter() - start) / ALS_SWEEPS * 1e6)
    return statistics.median(samples)


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "seed": seed,
        "probe_seed": workloads.PROBE_SEED,
    }


def end_to_end(passes: list[list[float]]) -> tuple[dict, dict]:
    """Medians and the tail over every timed sample of every pass, so a
    slowdown that hits only some repetitions of a job still shows.

    ``wall_s`` is the median pass, ``job_p50_ms`` and ``job_tail_ms`` are
    taken over all job samples pooled.  Without a percentile that has ten
    samples beyond it in every run, the tail is the slowest job by its median
    over the passes.
    """
    walls = [sum(ts) for ts in passes]
    pooled = [t for ts in passes for t in ts]
    q = tail_spec(len(passes[0]) * MIN_PASSES)
    if q:
        tail = float(np.percentile(pooled, q))
    else:
        tail = max(statistics.median(ts) for ts in zip(*passes))
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_ms": statistics.median(pooled) * 1e3,
        "job_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": len(passes),
        "jobs_per_pass": len(passes[0]),
        "pass_wall_s": walls,
        "tail_percentile": q,
        "job_samples": len(pooled),
        "tail_samples_beyond": sum(t > tail for t in pooled) if q else 0,
    }
    return metrics, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the first traced pass's spans here (JSON lines)")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        jobs = workloads.build(args.workload, args.seed, tmp)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            result = measure(jobs, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["ready"] = ready
    result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


def measure(jobs, args) -> dict:
    """Closed loop over the job list until another pass would end after
    ``--seconds``; at least MIN_PASSES passes."""
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, traced_layers = [], [], []
    first_spans: list[list] = []
    problems: list[list[str]] = []
    start = time.perf_counter()
    while True:
        if tracer and len(untraced) > len(traced):
            tracer.install()
            try:
                times, probs = run_pass(jobs, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layers = tracing.layer_metrics(spans)
            for record in tracing.probe_records(spans):
                bad = tracing.probe_pattern_problems(record)
                probs[record["job"]] = probs[record["job"]] + bad
            traced_layers.append(layers)
            traced.append(times)
            if not first_spans:
                first_spans = spans
        else:
            times, probs = run_pass(jobs)
            untraced.append(times)
        problems.extend(probs)
        elapsed = time.perf_counter() - start
        balanced = not tracer or len(traced) == len(untraced)
        enough = balanced and len(untraced) + len(traced) >= MIN_PASSES
        if enough and elapsed + sum(times) > args.seconds:
            break

    metrics, details = end_to_end(untraced)
    failed = [p for p in problems if p]
    result = {
        "attempted": len(problems),
        "failed": len(failed),
        "problems": [msg for p in failed[:20] for msg in p],
        "end_to_end": metrics,
        "details": details,
    }
    if tracer:
        layers = tracing.median_metrics(traced_layers)
        layers["invariants.als_sweep_us"] = als_sweep_us()
        traced_wall = statistics.median(sum(ts) for ts in traced)
        layers["trace.overhead_ratio"] = traced_wall / metrics["wall_s"]
        result["per_layer"] = {name: layers[name] for name, _, _ in tracing.PER_LAYER}
        result["details"].update(
            traced_passes=len(traced),
            traced_wall_s=traced_wall,
            untraced_wall_s=metrics["wall_s"],
            per_layer_not_called=tracing.not_called(first_spans),
            probes=[
                dict(r, job=jobs[r["job"]].label) for r in tracing.probe_records(first_spans)
            ],
        )
        if args.spans:
            write_spans(first_spans, args.spans)
    return result


def write_spans(spans: list[list], path: str) -> None:
    t0 = spans[0][tracing.START] if spans else 0.0
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i,
                "name": s[tracing.NAME],
                "start_us": round((s[tracing.START] - t0) * 1e6, 3),
                "end_us": round((s[tracing.END] - t0) * 1e6, 3),
                "parent": s[tracing.PARENT],
                "job": s[tracing.JOB],
            }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
