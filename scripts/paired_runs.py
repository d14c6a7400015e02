#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, for a claim about a change.

    python3 scripts/paired_runs.py PARENT CHANGE --workload W --seed S \\
        --pairs N --out BENCH_name.json [--what TEXT]

Each pair runs ``python3 benchmarks/run.py --workload W --seed SEED
--seconds 25 --trace 0`` once in the tree PARENT and once in the tree
CHANGE, with the same seed; pair k uses seed S + k, and the side that runs
first alternates from pair to pair.  Every run goes into the JSON file
``--out`` under ``workloads.W.runs``, which is rewritten after each pair, so
an interrupted series keeps the pairs it finished; a file that exists keeps
its other workloads.  At the end each end-to-end metric is printed, and
stored under ``workloads.W.summary``, with each side's median and quartiles
(``statistics.quantiles(n=4)``) and the number of pairs in which the change
read lower.  Each metric's ``gain_shown`` applies the rule for claiming a
gain: at least ten pairs, the change reads lower in at least nine tenths
of them, and the medians differ by more than the parent's interquartile
spread.  Its
``vs_bound`` compares the change's median with the parent's against the
metric's bound in the parent tree's ``BENCHMARK.json``, which is only read:
"worse" when it is higher by more than that fraction of the parent's
median, "unresolved" when the parent's own interquartile spread exceeds
that fraction and not every change run reads lower than every parent run,
and "within" otherwise.  Beside ``peak_rss_mb`` each side's median passes
and median peak RSS per pass are printed and stored, as the worker keeps
what every pass made, so more passes in the same time raise the RSS alone.

Only the standard library is used, and nothing in either tree changes
except its ``.bench_out/`` run records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 25
METRICS = ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")
MIN_PAIRS = 10  # the fewest pairs on which a gain may be claimed


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run of ``workload`` in ``tree``: its metrics, whether
    it was correct, its failures and passes, and the machine it ran on."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited with {proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    env = record["env"]
    run = {"correct": last["correct"], "failed": last["failed"], "passes": record["details"]["passes"]}
    run.update((name, last["metrics"][name]["value"]) for name in METRICS)
    machine = {"cpus": env["nproc"], "cpu_model": env["cpu_model"], "python": env["python"], "numpy": env["numpy"]}
    return {"run": run, "machine": machine}


def quartiles(xs: list[float]) -> list[float]:
    """The first and third quartiles of ``xs``."""
    if len(xs) < 2:
        return [xs[0], xs[0]]
    first, _, third = statistics.quantiles(xs, n=4)
    return [round(first, 6), round(third, 6)]


def bounds_of(tree: Path) -> dict[str, float]:
    """Each end-to-end metric's bound in the ``BENCHMARK.json`` of ``tree``:
    the fraction of the parent's median by which it may read higher."""
    doc = json.loads((tree / "BENCHMARK.json").read_text())
    return {row["name"]: row["bound"] for row in doc["end_to_end"]}


def summarize(runs: dict, bounds: dict[str, float]) -> dict:
    """Per metric: each side's median and quartiles, the pairs in which the
    change read lower (a tie counts for neither side), whether that shows a
    gain, and how the change's median stands against the metric's bound
    (None for a metric without one)."""
    summary = {}
    for name in METRICS:
        parent = [pair["parent"][name] for pair in runs.values()]
        change = [pair["change"][name] for pair in runs.values()]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q = quartiles(parent)
        lower = sum(c < p for p, c in zip(parent, change))
        vs_bound = None
        if name in bounds:
            bound = bounds[name] * p_med
            if p_q[1] - p_q[0] > bound and max(change) >= min(parent):
                vs_bound = "unresolved"
            else:
                vs_bound = "worse" if c_med - p_med > bound else "within"
        summary[name] = {
            "parent_median": round(p_med, 6),
            "parent_quartiles": p_q,
            "change_median": round(c_med, 6),
            "change_quartiles": quartiles(change),
            "change_lower_in": f"{lower}/{len(runs)}",
            "gain_shown": (len(runs) >= MIN_PAIRS and 10 * lower >= 9 * len(runs)
                           and p_med - c_med > p_q[1] - p_q[0]),
            "vs_bound": vs_bound,
        }
    for side in ("parent", "change"):
        sides = [pair[side] for pair in runs.values()]
        summary["peak_rss_mb"][f"{side}_passes"] = statistics.median(run["passes"] for run in sides)
        summary["peak_rss_mb"][f"{side}_mb_per_pass"] = round(
            statistics.median(run["peak_rss_mb"] / run["passes"] for run in sides), 6)
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True, help="BENCH_*.json file to write")
    ap.add_argument("--what", default="", help="one line saying what the change is")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "benchmarks" / "run.py").is_file():
            ap.error(f"{side} tree {tree} has no benchmarks/run.py")
    bounds = bounds_of(trees["parent"])

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("what", args.what)
    doc["command"] = f"python3 benchmarks/run.py --workload W --seed SEED --seconds {SECONDS} --trace 0"
    doc["pairing"] = ("parent and change alternate which runs first, one seed per pair; "
                      "quartiles are statistics.quantiles(n=4)")
    entry = doc.setdefault("workloads", {}).setdefault(args.workload, {})
    runs = entry.setdefault("runs", {})
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for position, side in enumerate(order):
            result = run_once(trees[side], args.workload, seed)
            pair[side] = {"first": position == 0, **result["run"]}
            doc["machine"] = result["machine"]
        runs[str(seed)] = {side: pair[side] for side in ("parent", "change")}
        print(f"{args.workload} seed {seed}: " + "  ".join(
            f"{side} job_p50_ms {pair[side]['job_p50_ms']:.4f} ({'correct' if pair[side]['correct'] else 'WRONG'}, "
            f"{pair[side]['failed']} failed)" for side in ("parent", "change")), flush=True)
        entry["pairs"] = len(runs)
        entry["summary"] = summarize(runs, bounds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"{args.workload}: {len(runs)} pairs, median [quartiles], change lower in, gain shown, against the bound")
    for name, row in entry["summary"].items():
        print(f"  {name:<12} parent {row['parent_median']:.6g} {row['parent_quartiles']}  "
              f"change {row['change_median']:.6g} {row['change_quartiles']}  {row['change_lower_in']}  "
              f"{'gain' if row['gain_shown'] else 'no gain'}  {row['vs_bound']}")
    rss = entry["summary"]["peak_rss_mb"]
    print(f"  {'passes':<12} parent {rss['parent_passes']:g} ({rss['parent_mb_per_pass']:.4g} MB a pass)  "
          f"change {rss['change_passes']:g} ({rss['change_mb_per_pass']:.4g} MB a pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
