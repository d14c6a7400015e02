#!/usr/bin/env python3
"""loccsim benchmark: one workload, one run, every metric by name and unit.

    python3 benchmarks/run.py --workload verdicts|engine|classify \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up is timed in SETUP_SAMPLES fresh
workload processes, half before and half after the one that runs the jobs,
and reported as the median.  The jobs run in one process with no extra
threads, one after another.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  Details, including the machine
and the per-probe residuals, go to ``.bench_out/``.  The last stdout line is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("verdicts", "engine", "classify")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def spawn(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start a workload process and wait for it; returns (start time, result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(args, deadline: float) -> float:
    start, res = spawn(args, ["--setup-only"], deadline)
    return res["ready"] - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "loccsim" / "__init__.py").is_file():
        print(f"error: no loccsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = [setup_time(args, deadline) for _ in range(SETUP_SAMPLES // 2)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(OUT / f"{tag}-spans.jsonl")]
        start, res = spawn(args, extra, deadline)
        setups.append(res["ready"] - start)
        setups += [setup_time(args, deadline) for _ in range(SETUP_SAMPLES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = dict(res["end_to_end"], setup_s=statistics.median(setups))
    details = dict(res["details"], setup_samples_s=setups)
    report(args, res, e2e, details)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"env": res["env"], "end_to_end": e2e, "per_layer": res.get("per_layer"),
                   "attempted": res["attempted"], "failed": res["failed"],
                   "problems": res["problems"], "details": details}, fh, indent=1)

    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u, _ in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in UNITS.items()}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def report(args, res, e2e, d) -> None:
    env = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine: {env['nproc']} CPUs, {env['cpu_model']}; Python {env['python']}, "
          f"numpy {env['numpy']}, BLAS {env['blas']}, threads {env['blas_threads']}; "
          f"commit {env['git_commit']}")
    n = d["job_samples"]
    print(f"setup_s      {e2e['setup_s']:.4f} s   median of {len(d['setup_samples_s'])} process starts")
    print(f"wall_s       {e2e['wall_s']:.4f} s   median of {d['passes']} passes of {d['jobs_per_pass']} jobs")
    print(f"job_p50_ms   {e2e['job_p50_ms']:.4f} ms  median of {n} job samples")
    if d["tail_percentile"]:
        print(f"job_tail_ms  {e2e['job_tail_ms']:.4f} ms  p{d['tail_percentile']:g} of {n} job samples "
              f"({d['tail_samples_beyond']} beyond)")
    else:
        print(f"job_tail_ms  {e2e['job_tail_ms']:.4f} ms  slowest job by its median over {d['passes']} "
              f"passes (no percentile has ten samples beyond it in every run)")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.2f} MB")
    print(f"error_rate   {res['failed'] / res['attempted']:.6f}  "
          f"({res['failed']} failed of {res['attempted']} jobs)")
    for msg in res["problems"]:
        print(f"  problem: {msg}", file=sys.stderr)
    if args.trace:
        print(f"trace.overhead_ratio {res['per_layer']['trace.overhead_ratio']:.4f} = traced "
              f"{d['traced_wall_s']:.4f} s / untraced {d['untraced_wall_s']:.4f} s wall_s")
        idle = set(d["per_layer_not_called"])
        for name, value in res["per_layer"].items():
            print(f"  {name:<42} {'n/a (not called)' if name in idle else f'{value:.6g}'}")
        for rec in d.get("probes", []):
            ranks = "  ".join(
                f"r{p['rank']}:{'conv' if p['converged'] else 'no'} {p['best_residual']:.2e}"
                for p in rec["probes"]
            )
            print(f"  probe {rec['job']:<18} terms {rec['terms']}  {ranks}")


if __name__ == "__main__":
    sys.exit(main())
