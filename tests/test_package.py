import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import loccsim

SRC = Path(loccsim.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_once():
    names = loccsim.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(loccsim, name)
        assert not isinstance(obj, types.ModuleType), name


def test_no_unused_imports():
    # __init__ imports names to export them, so it is left out
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, unused


def test_no_unreferenced_private_names():
    # a private module-level name that no code in the package reads is dead
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [f"{module}: {name}" for module, name in defined if name not in referenced]
    assert not unreferenced, unreferenced


def test_reports_have_one_rule():
    # report data comes from states._doc alone: it is the one caller of the
    # rounding rule, and only the record mixin and the branch tree, whose
    # report leaves out its states, define to_dict
    rounding, to_dict = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
                if "to_dict" in methods:
                    to_dict.append(node.name)
            elif "_sig12" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                rounding.append(path.name)
    assert set(rounding) == {"states.py"}
    assert sorted(to_dict) == ["BranchNode", "_Report"]


def test_ranks_have_one_rule():
    # every rank is decided by states._rank: it alone compares against
    # RANK_TOL, which SloccClass only reports, and invariants keeps no rank
    # helper of its own
    readers, helpers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if "RANK_TOL" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    if not isinstance(node.ctx, ast.Store):
                        readers.append(f"{path.name}:{getattr(top, 'name', '<module>')}")
                elif path.name == "invariants.py" and isinstance(node, ast.FunctionDef):
                    if node.name.startswith("_") and "rank" in node.name:
                        helpers.append(node.name)
    assert sorted(readers) == ["invariants.py:SloccClass", "states.py:_rank"]
    assert helpers == []


def test_probe_config_is_read_by_the_probe_alone():
    # the probe settings mean something only where ALS runs: ProbeConfig
    # checks them, cp_rank_probe reads them, and no record copies them out
    settings, readers = {"seed", "restarts", "max_iters"}, []
    for name in ("invariants.py", "convert.py"):
        tree = ast.parse((SRC / name).read_text())
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{getattr(m, 'name', '')}", m) for m in top.body]
            else:
                scopes = [(getattr(top, "name", "<module>"), top)]
            for owner, scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Attribute) and node.attr in settings and isinstance(node.ctx, ast.Load):
                        readers.append(f"{name}:{owner}")
    assert sorted(set(readers)) == ["invariants.py:ProbeConfig.__post_init__", "invariants.py:cp_rank_probe"]


def test_readme_paths_exist():
    # a deleted script or golden file must not stay named in the README
    text = (ROOT / "README.md").read_text()
    named = set(re.findall(r"\b(?:scripts|tests/golden)/[\w./-]*\w", text))
    assert named
    missing = sorted(p for p in named if not (ROOT / p).exists())
    assert not missing, missing


def test_traced_names_exist():
    # the benchmark's --trace 1 runs wrap these names and fail if one is gone
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, *_ in tracing.FUNCTIONS:
        if not hasattr(importlib.import_module(f"loccsim.{module}"), attr):
            missing.append(f"{module}.{attr}")
    for module, cls, method, _span in tracing.METHODS:
        owner = getattr(importlib.import_module(f"loccsim.{module}"), cls, None)
        if not hasattr(owner, method):
            missing.append(f"{module}.{cls}.{method}")
    assert not missing, missing


def test_cli_imports_only_numpy_and_the_standard_library():
    # an installed package the code starts to import would be an undeclared
    # dependency, and every import adds to each command's start-up time
    code = (
        "import sys; before = set(sys.modules); import loccsim.cli; "
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    added = set(run.stdout.split())
    assert {"loccsim", "numpy"} <= added
    assert sorted(added - {"loccsim", "numpy"} - sys.stdlib_module_names) == []


def test_importing_the_package_plans_no_cut():
    # cut layouts are planned on first use, so start-up pays for none
    code = (
        "import loccsim, loccsim.cli; from loccsim import convert, invariants; "
        "print(convert._cut_plan.cache_info().currsize, invariants._unfolding_plan.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "0"]


def test_rank_residuals_script_runs():
    # the profiling script builds party tensors and reads their proven bounds
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rank_residuals.py"), "--restarts", "4"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    headers = re.findall(r"^=== .*: proven bound (\d+) \((.*)\) ===$", run.stdout, re.M)
    assert headers == [("3", "pencil"), ("2", "pencil"), ("6", "pencil"), ("4", "pencil")]
