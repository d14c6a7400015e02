import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from loccsim import cli, convert, invariants
from loccsim.cli import main
from loccsim.errors import ParameterOutOfRange
from loccsim.invariants import ProbeConfig
from loccsim.states import (
    PureState,
    Register,
    _sig12,
    computational,
    epr,
    ghz,
    ghz_class,
    load_state,
    save_state,
    w_state,
)

ABC = Register.of([(1, "A"), (2, "B"), (3, "C")])

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

PROP3_TEXT = """
state w 2/5 2/5 1/5 0 parties A B C
attach epr parties B C
step measure party C site 3 basis Z accept 0
step cnot party B control 2 target 4
step measure party B site 4 basis Z accept *
target ghz-lu sites 1 2 5
"""


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    save_state(w_state(ABC), path)
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    save_state(ghz(ABC), path)
    return str(path)


@pytest.fixture
def prop3_file(tmp_path):
    path = tmp_path / "prop3.loccsim"
    path.write_text(PROP3_TEXT)
    return str(path)


# ---------------------------------------------------------------------------
# state serialization used by the CLI


def test_state_json_round_trip(tmp_path, w_file):
    loaded = load_state(w_file)
    assert np.array_equal(loaded.amplitudes, w_state(ABC).amplitudes)
    assert loaded.register == ABC


# ---------------------------------------------------------------------------
# classify / bound / verdict


def test_classify_w(w_file, tmp_path, capsys):
    report = tmp_path / "out.json"
    assert main(["classify", w_file, "--json", str(report)]) == 0
    text = capsys.readouterr().out
    assert "w" in text.lower()
    doc = json.loads(report.read_text())
    assert doc["label"] == "w-class"
    assert doc["tangle"] == pytest.approx(0.0, abs=1e-9)


def test_classify_ghz(ghz_file, capsys):
    assert main(["classify", ghz_file]) == 0
    out = capsys.readouterr().out.lower()
    assert "ghz" in out


def test_bound_w_to_ghz(w_file, ghz_file, tmp_path, capsys):
    report = tmp_path / "bound.json"
    assert main(["bound", w_file, ghz_file, "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    # every single-site cut of the flat triple has spectrum {2/3, 1/3},
    # the balanced triple {1/2, 1/2}; the tail ratio gives 2/3 per cut
    assert doc["bound"] == pytest.approx(2 / 3, abs=1e-9)
    assert set(doc["per_cut"]) == {"A|BC", "AB|C", "AC|B"}
    for value in doc["per_cut"].values():
        assert value == pytest.approx(2 / 3, abs=1e-9)


@pytest.mark.parametrize("side", ["source", "target"])
def test_bound_takes_a_state_at_the_edge_of_the_norm_tolerance(side, w_file, ghz_file, tmp_path, capsys):
    loose = tmp_path / "loose.json"
    save_state(PureState(ABC, ghz(ABC).amplitudes * (1 + 0.9e-9)), loose)
    bounds = []
    for other in (str(loose), ghz_file):
        report = tmp_path / "bound.json"
        files = [other, w_file] if side == "source" else [w_file, other]
        assert main(["bound", *files, "--json", str(report)]) == 0
        bounds.append(json.loads(report.read_text())["bound"])
    assert abs(bounds[0] - bounds[1]) <= 1e-9


def test_bounds_hash_no_state(monkeypatch, tmp_path, capsys):
    # a bound is only its numbers; the commands that print labels write them
    from loccsim.prebuilt import prop3_input, prop3_target
    from loccsim.states import PureState

    def refuse(self):
        raise AssertionError("a bound hashed a state")

    monkeypatch.setattr(PureState, "fingerprint", refuse)
    for pair in [(w_state(ABC), ghz(ABC)), (prop3_input(0.4), prop3_target())]:
        convert.splitting_bound(*pair)
    assert main(["sweep", "prop3", "--from", "1/3", "--to", "0.49", "--points", "3"]) == 0
    report = tmp_path / "prop3.json"
    assert main(["demo", "prop3", "2/5", "--json", str(report)]) == 0
    bound = json.loads(report.read_text())["bound"]
    assert list(bound) == ["source_id", "target_id", "per_cut", "bound"]
    assert (bound["source_id"], bound["target_id"]) == ("prop3 input a=0.4", "prop3 target")


def test_verdict_exit_code_for_impossible(tmp_path, capsys):
    from loccsim.prebuilt import bipartite_catalysis_pair

    src, dst = bipartite_catalysis_pair()
    s = tmp_path / "src.json"
    d = tmp_path / "dst.json"
    save_state(src, s)
    save_state(dst, d)
    rc = main(["verdict", str(s), str(d), "--json", str(tmp_path / "v.json")])
    assert rc == 3
    out = capsys.readouterr().out.lower()
    assert "impossible" in out
    doc = json.loads((tmp_path / "v.json").read_text())
    assert doc["feasible"] == "impossible"
    ranks = {row["party"]: (row["source_rank"], row["target_rank"])
             for row in doc["party_ranks"]}
    assert ranks == {"A": (2, 2), "B": (4, 4), "C": (4, 4)}


def test_verdict_same_state_is_undetermined(w_file, capsys):
    rc = main(["verdict", w_file, w_file])
    assert rc == 0
    assert "undetermined" in capsys.readouterr().out.lower()


# ---------------------------------------------------------------------------
# run


def test_run_protocol_file(prop3_file, tmp_path, capsys):
    report = tmp_path / "run.json"
    assert main(["run", prop3_file, "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "0.800000000000" in out
    doc = json.loads(report.read_text())
    assert doc["success_probability"] == pytest.approx(0.8, abs=1e-12)
    assert doc["tree"]["prob"] == pytest.approx(1.0)


def test_run_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.loccsim")]) == 2


def test_run_bad_syntax(tmp_path):
    bad = tmp_path / "bad.loccsim"
    bad.write_text("state w 1/3 1/3 parties A B C\n")
    assert main(["run", str(bad)]) == 2


def test_run_semantic_error(tmp_path):
    bad = tmp_path / "bad2.loccsim"
    bad.write_text(
        "state ghz parties A B C\n"
        "step measure party A site 2 basis Z\n"
        "target ghz-lu sites 1 2 3\n"
    )
    assert main(["run", str(bad)]) == 2


def test_run_rejects_a_register_past_the_site_limit(tmp_path, capsys):
    # each attach ghz multiplies the amplitude vector by 8; the sixth makes 21 sites
    big = tmp_path / "big.loccsim"
    big.write_text("state ghz parties A B C\n" + "attach ghz parties A B C\n" * 6 + "target ghz-lu sites 1 2 3\n")
    assert main(["run", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 7: ") and "21 sites" in err and err.count("\n") == 1


def test_classify_malformed_json(tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["classify", str(garbled)]) == 2


def test_classify_nan_amplitude(tmp_path, capsys):
    path = tmp_path / "nan.json"
    save_state(w_state(ABC), path)
    doc = json.loads(path.read_text())
    doc["amplitudes"][1] = [float("nan"), 0.0]
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_rejects_a_party_that_is_not_a_string(tmp_path, capsys):
    path = tmp_path / "party.json"
    save_state(w_state(ABC), path)
    doc = json.loads(path.read_text())
    doc["sites"][0]["party"] = 7
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed state document") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "part", [[True, False], [1.0, False], ["1", 0.0], [10**400, 0.0]], ids=["bools", "bool", "string", "huge-int"]
)
def test_classify_rejects_an_amplitude_part_that_is_not_a_real_number(tmp_path, capsys, part):
    # with real parts, [1.0, 0.0] here would make a valid product state
    path = tmp_path / "amplitude.json"
    save_state(computational(ABC, "000"), path)
    doc = json.loads(path.read_text())
    doc["amplitudes"][0] = part
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed state document") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# edge inputs: tiny states held by one, two and three parties

TINY = {
    1: (epr(Register.of([(1, "A"), (2, "A")])), computational(Register.of([(1, "A"), (2, "A")]), "00")),
    2: (epr(Register.of([(1, "A"), (2, "B")])), computational(Register.of([(1, "A"), (2, "B")]), "01")),
    3: (w_state(ABC), ghz(ABC)),
}


def _tiny_files(tmp_path, parties: int) -> tuple[str, str]:
    paths = (str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    for state, path in zip(TINY[parties], paths):
        save_state(state, path)
    return paths


def test_one_party_state_is_one_error_line(tmp_path, capsys):
    a, b = _tiny_files(tmp_path, 1)
    for command in ("bound", "verdict"):
        assert main([command, a, b]) == 1
        err = capsys.readouterr().err
        assert err == "error: a conversion between parties needs two or more of them, got ('A',)\n"


@pytest.mark.parametrize("parties", sorted(TINY))
@pytest.mark.parametrize("command", ["classify", "bound", "verdict"])
def test_edge_inputs_exit_cleanly(command, parties, tmp_path):
    # a separate interpreter, so that a traceback or a warning would reach stderr
    a, b = _tiny_files(tmp_path, parties)
    report = tmp_path / "report.json"
    argv = [command, a] if command == "classify" else [command, a, b]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "loccsim.cli", *argv, "--json", str(report)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode in (0, 1, 2, 3)
    assert "Traceback" not in run.stderr
    assert run.stderr == "" or (run.stderr.startswith("error: ") and run.stderr.count("\n") == 1)
    if report.exists():
        json.dumps(json.loads(report.read_text()), allow_nan=False)


@pytest.mark.parametrize("command", ["classify", "bound"])
def test_overflowing_norm_is_one_plain_error_line(command, tmp_path):
    # the squared amplitudes overflow: no numpy warning, and the norm reads
    # as a plain float
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"sites": [{"label": 1, "party": "A"}], "amplitudes": [[1e308, 0], [1e308, 0]]}))
    argv = [command, str(path)] + ([str(path)] if command == "bound" else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "loccsim.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "np.float64" not in run.stderr


# inputs that fail where the file is read or decoded, before any check of ours
UNREADABLE = {
    "binary": b"\xff",
    "binary-protocol": b"state ghz parties A B C\n\xff\ntarget ghz-lu sites 1 2 3\n",
    "deep": b"[" * 100_000,
    "long-label": b'{"sites": [{"label": ' + b"9" * 5000 + b', "party": "A"}], "amplitudes": [[1, 0]]}',
}


@pytest.mark.parametrize(
    "command, content",
    [
        ("classify", "binary"),
        ("bound", "binary"),
        ("verdict", "binary"),
        ("run", "binary-protocol"),
        ("classify", "deep"),
        ("classify", "long-label"),
    ],
)
def test_unreadable_inputs_exit_cleanly(command, content, tmp_path):
    # a separate interpreter, so that a traceback would reach stderr
    path, report = tmp_path / "input", tmp_path / "report.json"
    path.write_bytes(UNREADABLE[content])
    argv = [command, str(path)] + ([str(path)] if command in ("bound", "verdict") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "loccsim.cli", *argv, "--json", str(report)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert not report.exists()


# ---------------------------------------------------------------------------
# demos and sweep (only the fast ones here)


def test_demo_prop3(capsys):
    assert main(["demo", "prop3", "2/5"]) == 0
    out = capsys.readouterr().out
    assert "0.800000000000" in out
    assert "optimal: achieved" in out


def test_demo_prop3_ac_placement(capsys):
    assert main(["demo", "prop3", "0.45", "--placement", "AC"]) == 0
    out = capsys.readouterr().out
    assert "0.900000000000" in out


def test_demo_prop3_bad_value(capsys):
    assert main(["demo", "prop3", "0.2"]) == 1  # out of the family's domain


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "prop3", "1e400"],
        ["sweep", "prop3", "--from", "1e400", "--to", "0.4", "--points", "2"],
        ["run", "overflow.loccsim"],
    ],
    ids=["demo", "sweep", "run"],
)
def test_number_beyond_float_range_is_an_error(argv, tmp_path, monkeypatch, capsys):
    # 1e400 parses as an exact fraction but overflows a float
    monkeypatch.chdir(tmp_path)
    Path("overflow.loccsim").write_text(
        "state ghzclass 1e400 0 0 0 0 parties A B C\ntarget ghz-lu sites 1 2 3\n"
    )
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "'1e400'" in err


def test_demo_ghz2epr(capsys):
    assert main(["demo", "ghz2epr"]) == 0
    out = capsys.readouterr().out
    assert "1.000000000000" in out


def test_demo_intro(capsys):
    assert main(["demo", "intro"]) == 0
    assert "0.666666666667" in capsys.readouterr().out


def test_sweep(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    rc = main(
        ["sweep", "prop3", "--from", "1/3", "--to", "0.49", "--points", "4",
         "--json", str(report)]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert row["engine"] == pytest.approx(2 * row["a"], abs=1e-9)
        assert row["engine"] == pytest.approx(row["bound"], abs=1e-9)


@pytest.mark.parametrize("points", ["0", "-1"])
def test_sweep_rejects_empty_grid(points, capsys):
    rc = main(["sweep", "prop3", "--from", "0.34", "--to", "0.45", "--points", points])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sweep_rejects_points_past_the_limit_before_building_any(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "prop3", lambda *args: built.append(args))
    rc = main(["sweep", "prop3", "--from", "0.34", "--to", "0.45", "--points", str(cli.MAX_POINTS + 1)])
    assert rc == 2 and built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: argument --points: want an integer in [1, {cli.MAX_POINTS}]")


def test_sweep_accepts_points_at_the_limit(monkeypatch, capsys):
    # the grid reaches the builder, which stops it at its first point
    built = []

    def first_point_only(a, placement):
        built.append(a)
        raise ParameterOutOfRange("stop after one point")

    monkeypatch.setattr(cli, "prop3", first_point_only)
    rc = main(["sweep", "prop3", "--from", "0.34", "--to", "0.45", "--points", str(cli.MAX_POINTS)])
    assert rc == 1 and built == [0.34]
    assert capsys.readouterr().err == "error: stop after one point\n"


@pytest.mark.parametrize(
    "grid", [["0.2", "0.4", "2"], ["0.4", "0.6", "3"]], ids=["first-point", "last-point"]
)
def test_sweep_rejects_out_of_range_grid_before_output(grid, capsys):
    start, stop, points = grid
    rc = main(["sweep", "prop3", "--from", start, "--to", stop, "--points", points])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "s.json"],
        ["bound", "s.json", "t.json"],
        ["run", "p.loccsim"],
        ["sweep", "prop3", "--from", "0.34", "--to", "0.45"],
    ],
)
def test_seed_rejected_where_no_probe_runs(argv, capsys):
    assert main([*argv, "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_seed_reaches_both_estimates(monkeypatch, capsys):
    configs = []
    estimate = convert.product_term_estimate

    def recording(t, config):
        configs.append(config)
        return estimate(t, config)

    monkeypatch.setattr(convert, "product_term_estimate", recording)
    assert main(["demo", "prop1", "--seed", "7"]) == 0
    assert configs == [ProbeConfig(seed=7)] * 2
    assert "verdict: impossible" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["intro"], ["ghz2epr"], ["prop3", "0.4"]])
def test_demo_seed_rejected_without_probe(argv, capsys):
    assert main(["demo", *argv, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["intro"], ["ghz2epr"], ["prop1"], ["prop2", "w"]])
def test_demo_placement_rejected_without_pair(argv, capsys):
    assert main(["demo", *argv, "--placement", "AC"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


USAGE_ERRORS = {
    "no-command": [],
    "demo-alone": ["demo"],
    "unknown-demo": ["demo", "nonsense"],
    "unknown-catalyst": ["demo", "prop2", "xyz"],
    "unknown-family": ["sweep", "orbit", "--from", "0.4", "--to", "0.45"],
    "seed-without-probe": ["demo", "intro", "--seed", "1"],
    "placement-without-pair": ["demo", "prop1", "--placement", "AC"],
    "prop3-missing-value": ["demo", "prop3"],
    "prop3-non-numeric": ["demo", "prop3", "abc"],
    "points-zero": ["sweep", "prop3", "--from", "0.34", "--to", "0.45", "--points", "0"],
    "points-non-numeric": ["sweep", "prop3", "--from", "0.34", "--to", "0.45", "--points", "x"],
    "demo-negative-seed": ["demo", "prop1", "--seed", "-1"],
    "verdict-negative-seed": ["verdict", "s.json", "t.json", "--seed", "-5"],
    "json-empty-path": ["classify", "s.json", "--json", ""],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_one_line(argv, tmp_path, monkeypatch, capsys):
    # real state files, so that only the flags can be at fault
    monkeypatch.chdir(tmp_path)
    save_state(w_state(ABC), "s.json")
    save_state(ghz(ABC), "t.json")
    # argparse's own rejections too: a return code, not SystemExit
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_huge_exponent_is_rejected_at_once(capsys):
    start = time.perf_counter()
    assert main(["demo", "prop3", "1e3000000"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("error: argument VALUE: not a number")


def test_unreadable_paths_are_one_line(tmp_path, ghz_file, capsys):
    assert main(["classify", str(tmp_path)]) == 2
    assert main(["classify", ghz_file, "--json", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_unwritable_report_fails_before_the_command_runs(capsys):
    missing_dir = "/nonexistent-loccsim-dir/report.json"
    assert main(["demo", "prop3", "0.4", "--json", missing_dir]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_failed_command_leaves_report_paths_as_they_were(tmp_path, capsys):
    made, kept = tmp_path / "made.json", tmp_path / "kept.json"
    # longer than the report, so that a report written over it must cut it
    earlier = b"earlier report\n" * 2000
    kept.write_bytes(earlier)
    for report in (made, kept):
        assert main(["demo", "prop3", "0.2", "--json", str(report)]) == 1
    assert not made.exists()
    assert kept.read_bytes() == earlier
    assert main(["demo", "prop3", "0.4", "--json", str(kept)]) == 0
    assert json.loads(kept.read_text())["demo"] == "prop3"


def test_report_that_cannot_encode_touches_no_file(tmp_path, monkeypatch, capsys):
    # the report is encoded before a byte of it is written
    monkeypatch.setattr(cli, "state_to_dict", lambda s: {"amplitudes": object()})
    made, kept = tmp_path / "made.json", tmp_path / "kept.json"
    kept.write_bytes(b"earlier report\n")
    for report in (made, kept):
        with pytest.raises(TypeError):
            main(["classify", str(GOLDEN / "ghz.json"), "--json", str(report)])
    assert not made.exists()
    assert kept.read_bytes() == b"earlier report\n"


def test_report_to_dev_null(capsys):
    assert main(["demo", "intro", "--json", os.devnull]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo_intro.out").read_text()


def test_report_to_stdout_through_a_pipe_follows_the_table():
    # a special file is written and not cut; the table is flushed first, so
    # the report ends the output also when standard output is block-buffered
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    run = subprocess.run(
        [sys.executable, "-m", "loccsim.cli", "demo", "intro", "--json", "/dev/stdout"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    table, report = ((GOLDEN / f"demo_intro.{ext}").read_text() for ext in ("out", "json"))
    assert run.stdout == table + report


@pytest.mark.parametrize("mode, before", [("w", ""), ("a", "earlier output\n")], ids=[">", ">>"])
def test_report_to_stdout_redirected_to_a_file_follows_the_table(tmp_path, mode, before):
    # `> out` and `>> out`: the report goes after the table, through standard
    # output, and the file is not cut back to the report's length
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    out = tmp_path / "out.txt"
    out.write_text(before)
    with open(out, mode) as fh:
        run = subprocess.run(
            [sys.executable, "-m", "loccsim.cli", "demo", "intro", "--json", "/dev/stdout"],
            stdout=fh, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert (run.returncode, run.stderr) == (0, "")
    table, report = ((GOLDEN / f"demo_intro.{ext}").read_text() for ext in ("out", "json"))
    assert out.read_text() == before + table + report


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["demo", "intro"]) == 0
    assert main(["demo", "nonsense"]) == 2
    assert built == []


# ---------------------------------------------------------------------------
# golden reports: stdout and --json of each report path, byte for byte


VERDICT_DEMOS = {
    "demo_prop1": ["demo", "prop1"],
    "demo_prop2_w": ["demo", "prop2", "w"],
    "demo_prop2_ghz": ["demo", "prop2", "ghz"],
}

GOLDEN_CASES = {
    **VERDICT_DEMOS,
    "demo_prop3_2-5": ["demo", "prop3", "2/5"],
    "demo_prop3_0.45_AC": ["demo", "prop3", "0.45", "--placement", "AC"],
    "demo_intro": ["demo", "intro"],
    "demo_ghz2epr": ["demo", "ghz2epr"],
    # a relative path, so that the report's "protocol" field is fixed
    "run_conversion": ["run", "tests/golden/conversion.loccsim"],
    "sweep_prop3": ["sweep", "prop3", "--from", "1/3", "--to", "0.49", "--points", "4"],
    # verdicts no bundled demo reaches: a rank-1 party C (EPR between A and B
    # beside |0> at C) against GHZ, the reverse, and W against W
    "verdict_rank_increase": ["verdict", "tests/golden/epr_ab_zero_c.json", "tests/golden/ghz.json"],
    "verdict_ranks_differ": ["verdict", "tests/golden/ghz.json", "tests/golden/epr_ab_zero_c.json"],
    "verdict_equal_counts": ["verdict", "tests/golden/w.json", "tests/golden/w.json"],
    "classify_biseparable": ["classify", "tests/golden/epr_ab_zero_c.json"],
    "bound_w_ghz": ["bound", "tests/golden/w.json", "tests/golden/ghz.json"],
}

# exit codes other than 0
GOLDEN_EXIT = {"verdict_rank_increase": 3}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    report = tmp_path / "report.json"
    golden = (GOLDEN / f"{name}.json").read_bytes()
    # the report path absent, holding a longer file and holding a shorter one
    for before in (None, golden + b" stale" * 1000, b"{}"):
        if before is not None:
            report.write_bytes(before)
        assert main([*GOLDEN_CASES[name], "--json", str(report)]) == GOLDEN_EXIT.get(name, 0)
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
        assert report.read_bytes() == golden


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES) + ["classify_ghz_class"])
def test_report_floats_carry_12_significant_digits(name, tmp_path, monkeypatch, capsys):
    # every float of a --json report is rounded, except in a state document,
    # which keeps full precision so that it loads back bit for bit
    monkeypatch.chdir(REPO)
    argv = GOLDEN_CASES.get(name)
    if argv is None:
        state = tmp_path / "ghz_class.json"
        save_state(ghz_class(0.7, 1.1, 0.5, 0.9, 1.2, ABC), state)
        argv = ["classify", str(state)]
    report = tmp_path / "report.json"
    assert main([*argv, "--json", str(report)]) == GOLDEN_EXIT.get(name, 0)
    doc = json.loads(report.read_text())
    doc.pop("state", None)
    floats = []
    json.loads(json.dumps(doc), parse_float=lambda text: floats.append(float(text)))
    assert [x for x in floats if x != _sig12(x)] == []


def test_verdict_demos_run_no_probe(monkeypatch, capsys):
    # every bundled product-term count is met by an exact decomposition
    called = []
    probe = invariants.cp_rank_probe

    def recording(t, r, config=None):
        called.append(r)
        return probe(t, r, config)

    monkeypatch.setattr(invariants, "cp_rank_probe", recording)
    for argv in VERDICT_DEMOS.values():
        assert main(argv) == 0
    assert called == []
    assert capsys.readouterr().out.count("verdict: impossible") == 3
