"""Every reference check accepts the program's answer and catches a perturbed one.

Run from the repository root: ``python3 -m pytest benchmarks/tests``.
"""

import json

import numpy as np
import pytest

import workloads


def _doc(demo):
    (src, dst), ranks = workloads.VERDICT_REFERENCE[demo]
    return {
        "feasible": "impossible",
        "party_ranks": [
            {"party": p, "source_rank": s, "target_rank": t} for p, (s, t) in ranks.items()
        ],
        "product_term_obstruction": {"source_terms": src, "target_terms": dst, "heuristic": True},
    }


@pytest.mark.parametrize("demo", list(workloads.DEMOS))
def test_verdict_check_catches_perturbed_reports(demo):
    assert workloads.check_verdict(demo, _doc(demo)) == []

    doc = _doc(demo)
    doc["feasible"] = "undetermined"
    assert workloads.check_verdict(demo, doc)

    doc = _doc(demo)
    doc["product_term_obstruction"]["source_terms"] -= 1
    assert workloads.check_verdict(demo, doc)

    doc = _doc(demo)
    doc["product_term_obstruction"] = None
    assert workloads.check_verdict(demo, doc)

    doc = _doc(demo)
    doc["party_ranks"][0]["target_rank"] += 1
    assert workloads.check_verdict(demo, doc)


def test_verdict_job_check_reads_the_report_and_exit_code(tmp_path):
    jobs = workloads.build("verdicts", 0, str(tmp_path))
    assert sorted(j.label for j in jobs) == sorted(workloads.DEMOS)
    for job in jobs:
        with open(tmp_path / "verdict.json", "w") as fh:
            json.dump(_doc(job.label), fh)
        assert job.check(0) == []
        assert job.check(1)


def _perturbations(answer):
    """Wrong answers of the same shape as ``answer``."""
    if isinstance(answer, float):
        return [answer + 1e-9, answer - 1e-9, float("nan")]
    if isinstance(answer, tuple) and len(answer) == 2:  # (probability, bound)
        p, b = answer
        return [(p + 1e-9, b), (p, b + 1e-8), (p, float("nan"))]
    if isinstance(answer, tuple) and len(answer) == 3 and isinstance(answer[0], tuple):
        labels, bound, per_cut = answer
        flipped = {"w-class": "ghz-class", "ghz-class": "w-class"}
        return [
            ((flipped[labels[0]], labels[1]), bound, per_cut),
            ((labels[0], flipped[labels[1]]), bound, per_cut),
            (labels, bound + 1e-9 if bound < 1 else bound - 1e-9, per_cut),
        ]
    if isinstance(answer, tuple):  # CLI exit codes of a classify job
        return [(1,) + answer[1:], answer[:2] + (2,)]
    return [1, 2, None]  # CLI exit code


@pytest.mark.parametrize("workload", ["engine", "classify"])
def test_job_checks_accept_answers_and_catch_perturbations(workload, tmp_path):
    jobs = workloads.build(workload, 7, str(tmp_path))[:200]
    seen = set()
    for job in jobs:
        answer = job.run()
        assert job.check(answer) == [], job.label
        for wrong in _perturbations(answer):
            assert job.check(wrong), (job.label, wrong)
        seen.add(job.label)
    assert len(seen) >= 3


def test_cli_file_run_check_catches_a_perturbed_report(tmp_path):
    job = next(j for j in workloads.build("engine", 7, str(tmp_path)) if j.label == "file run")
    assert job.check(job.run()) == []
    path = tmp_path / "run.json"
    doc = json.loads(path.read_text())
    doc["success_probability"] += 1e-9
    path.write_text(json.dumps(doc))
    assert job.check(0)


def test_cli_classify_check_catches_a_perturbed_report(tmp_path):
    job = next(j for j in workloads.build("classify", 7, str(tmp_path)) if j.label.startswith("cli"))
    assert job.check(job.run()) == []
    path = tmp_path / "classify-0.json"
    doc = json.loads(path.read_text())
    doc["label"] = "product"
    path.write_text(json.dumps(doc))
    assert job.check((0, 0, 0))


def test_classify_check_rules():
    cuts = {"A|BC": 1.0, "AB|C": 1.0, "AC|B": 1.0}
    ok = (("w-class", "w-class"), 1.0, cuts)
    assert workloads.check_classify(ok, ("w", "w"), same=True) == []
    assert workloads.check_classify((ok[0], 0.9, cuts), ("w", "w"), same=True)
    assert workloads.check_classify(ok, ("w", "ghz"), same=False)
    low = {"A|BC": 0.5, "AB|C": 0.7, "AC|B": 0.9}
    assert workloads.check_classify((("w-class", "ghz-class"), 0.5, low), ("w", "ghz"), False) == []
    assert workloads.check_classify((("w-class", "ghz-class"), 0.7, low), ("w", "ghz"), False)
    assert workloads.check_classify((("w-class", "ghz-class"), np.nan, low), ("w", "ghz"), False)


def test_same_seed_gives_the_same_jobs(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = [j.label for j in workloads.build("engine", 3, str(tmp_path / "a"))]
    b = [j.label for j in workloads.build("engine", 3, str(tmp_path / "b"))]
    c = [j.label for j in workloads.build("engine", 4, str(tmp_path / "c"))]
    assert a == b and a != c
