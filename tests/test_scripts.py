"""The repository's scripts, on synthetic input."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paired_runs = _load("paired_runs")


def _runs(parent: list[float], change: list[float], name: str = "job_tail_ms") -> dict:
    """Paired runs in which ``name`` reads ``parent[k]`` and ``change[k]`` in
    pair k and every other metric, and the passes, read 1 on both sides."""
    flat = dict.fromkeys(paired_runs.METRICS + ("passes",), 1.0)
    return {
        str(k): {"parent": {**flat, name: p}, "change": {**flat, name: c}}
        for k, (p, c) in enumerate(zip(parent, change))
    }


PARENT = [3.0, 3.1, 3.2, 3.3, 3.4, 3.0, 3.1, 3.2, 3.3, 3.4]


@pytest.mark.parametrize(
    "change, lower_in, shown",
    [
        ([2.0] * 10, "10/10", True),
        ([2.0] * 9 + [3.5], "9/10", True),
        ([2.0] * 8 + [3.5] * 2, "8/10", False),
        # lower in every pair, but by less than the parent's quartile spread
        ([p - 0.05 for p in PARENT], "10/10", False),
        # a tie counts for neither side
        ([2.0] * 8 + PARENT[8:], "8/10", False),
    ],
)
def test_summarize_shows_a_gain_by_the_documented_rule(change, lower_in, shown):
    row = paired_runs.summarize(_runs(PARENT, change), {"job_tail_ms": 0.25})["job_tail_ms"]
    assert row["change_lower_in"] == lower_in
    assert row["gain_shown"] is shown
    assert row["parent_median"] == 3.2
    assert row["parent_quartiles"] == [3.075, 3.325]


def test_summarize_shows_no_gain_on_fewer_than_ten_pairs():
    row = paired_runs.summarize(_runs(PARENT[:9], [2.0] * 9), {})["job_tail_ms"]
    assert row["change_lower_in"] == "9/9"
    assert row["gain_shown"] is False


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        # +30% against a parent spread of 0.08 of its median
        (PARENT, [4.16] * 10, "worse"),
        (PARENT, [3.9] * 10, "within"),
        (PARENT, [2.0] * 10, "within"),
        # the parent's own spread exceeds the bound: a worse median is unresolved,
        ([1.0, 2.0] * 5, [2.5] * 10, "unresolved"),
        # and so is a better one, unless every change run reads below every parent run
        ([1.0, 2.0] * 5, [1.2] * 10, "unresolved"),
        ([1.0, 2.0] * 5, [0.9] * 10, "within"),
    ],
)
def test_summarize_holds_each_median_to_its_bound(parent, change, verdict):
    summary = paired_runs.summarize(_runs(parent, change), {"job_tail_ms": 0.25, "wall_s": 0.25})
    assert summary["job_tail_ms"]["vs_bound"] == verdict
    assert summary["wall_s"]["vs_bound"] == "within"
    assert summary["setup_s"]["vs_bound"] is None  # no bound given
    assert summary["setup_s"]["gain_shown"] is False


def test_summarize_reads_peak_rss_per_pass():
    # 40 MB over 50 passes against 44 MB over 88 passes: the change's median
    # RSS is higher, but lower per pass
    runs = _runs([40.0, 40.0, 41.0], [44.0, 44.0, 45.0], "peak_rss_mb")
    for pair, passes in zip(runs.values(), ([50, 88], [50, 88], [41, 90])):
        pair["parent"]["passes"], pair["change"]["passes"] = passes
    row = paired_runs.summarize(runs, {})["peak_rss_mb"]
    assert (row["parent_median"], row["change_median"]) == (40.0, 44.0)
    assert (row["parent_passes"], row["change_passes"]) == (50, 88)
    assert (row["parent_mb_per_pass"], row["change_mb_per_pass"]) == (0.8, 0.5)


def test_bounds_come_from_the_benchmark_declaration():
    bounds = paired_runs.bounds_of(REPO)
    assert set(paired_runs.METRICS) <= set(bounds)
    assert all(0 < b < 1 for b in bounds.values())
