"""The tracer: self times add up, wrappers come off cleanly, probe records
and the metric list match BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import loccsim
import tracing
import worker
import workloads
from loccsim import cli, convert, invariants, states

ROOT = Path(__file__).resolve().parents[2]


def _traced_pass(workload, tmp_path, n):
    jobs = workloads.build(workload, 5, str(tmp_path))[:n]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, problems = worker.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    assert not any(problems)
    return tracer.take()


@pytest.mark.parametrize("workload", ["engine", "classify"])
def test_self_times_sum_to_each_job_duration(workload, tmp_path):
    spans = _traced_pass(workload, tmp_path, 120)
    selfs = tracing.self_times(spans)
    jobs = {}
    for span, own in zip(spans, selfs):
        assert own >= -1e-9
        total, duration = jobs.get(span[tracing.JOB], (0.0, None))
        if span[tracing.NAME] == tracing.JOB_SPAN:
            duration = span[tracing.END] - span[tracing.START]
        jobs[span[tracing.JOB]] = (total + own, duration)
    assert len(jobs) == 120
    for job, (total, duration) in jobs.items():
        assert total == pytest.approx(duration, abs=1e-9), job
    names = {s[tracing.NAME] for s in spans}
    assert {"states.PureState", "states.Register", "convert.splitting_bound", "cli.main"} <= names
    idle = tracing.not_called(spans)
    assert "invariants.probe.converged_ratio" in idle and "invariants.cp_rank_probe.calls" in idle
    assert "states.PureState.self_ms" not in idle and "trace.overhead_ratio" not in idle


def test_uninstall_restores_every_attribute():
    before = {
        (m.__name__, k): v
        for m in (loccsim, cli, convert, invariants, states)
        for k, v in vars(m).items()
    }
    post_init = states.PureState.__dict__["__post_init__"]
    from_state = invariants.PartyTensor.__dict__["from_state"]
    tracer = tracing.Tracer()
    tracer.install()
    assert convert.product_term_estimate is invariants.product_term_estimate
    assert convert.product_term_estimate.__wrapped__ is before[("loccsim.invariants", "product_term_estimate")]
    assert cli.splitting_bound is convert.splitting_bound
    assert states.PureState.__dict__["__post_init__"] is not post_init
    tracer.uninstall()
    after = {
        (m.__name__, k): v
        for m in (loccsim, cli, convert, invariants, states)
        for k, v in vars(m).items()
    }
    assert after == before
    assert states.PureState.__dict__["__post_init__"] is post_init
    assert invariants.PartyTensor.__dict__["from_state"] is from_state


def test_probe_records_and_pattern_on_a_small_scan():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reg = states.Register((1, 2, 3), ("A", "B", "C"))
        est = tracer.run_job(0, lambda: convert.default_rank_probe()(states.w_state(reg)))
    finally:
        tracer.uninstall()
    spans = tracer.take()
    (record,) = tracing.probe_records(spans)
    assert record["terms"] == est.terms == 3
    assert [p["rank"] for p in record["probes"]] == [2, 3]
    assert tracing.probe_pattern_problems(record) == []
    metrics = tracing.layer_metrics(spans)
    assert metrics["invariants.cp_rank_probe.calls"] == 2
    assert metrics["invariants.probe.converged_ratio"] == 0.5
    assert "invariants.probe.converged_ratio" not in tracing.not_called(spans)


def _record(flags, lower=4):
    return {
        "flattening_lower_bound": lower,
        "terms": lower + len(flags) - 1,
        "probes": [
            {"rank": lower + i, "converged": c, "best_residual": 0.0 if c else 0.1}
            for i, c in enumerate(flags)
        ],
    }


def test_probe_pattern_catches_each_violation():
    assert tracing.probe_pattern_problems(_record([False, False, True])) == []
    assert tracing.probe_pattern_problems(_record([True, False, True]))
    assert tracing.probe_pattern_problems(_record([False, False, False]))
    gap = _record([False, True])
    gap["probes"][0]["rank"] = 3
    assert tracing.probe_pattern_problems(gap)


def test_end_to_end_takes_medians_over_every_pass():
    passes = [[0.3, 0.1, 0.5], [0.2, 0.4, 0.6], [0.9, 0.2, 0.4]]
    metrics, details = worker.end_to_end(passes)
    assert metrics["wall_s"] == pytest.approx(1.2)
    assert metrics["job_p50_ms"] == pytest.approx(400)
    # three jobs: the slowest by its median over the passes
    assert metrics["job_tail_ms"] == pytest.approx(500)
    assert details["pass_wall_s"] == pytest.approx([0.9, 1.2, 1.5])


def test_tail_pools_every_pass():
    # 40 jobs are slow in one pass only: the median pass hides it, the tail
    # over all 3000 samples shows it
    slow = [0.010 if i < 40 else 0.001 for i in range(1000)]
    metrics, details = worker.end_to_end([[0.001] * 1000, slow, [0.001] * 1000])
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["job_tail_ms"] == pytest.approx(10.0)
    assert details["tail_percentile"] == 99.0
    assert details["job_samples"] == 3000


def test_tail_spec():
    assert worker.tail_spec(3000) == 99.0
    assert worker.tail_spec(10000) == 99.9
    assert worker.tail_spec(999) == 90.0
    assert worker.tail_spec(9) is None


def test_benchmark_json_matches_the_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
