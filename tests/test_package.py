import ast
import re
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


def test_readme_paths_exist():
    # a deleted script or golden file must not stay named in the README
    text = (ROOT / "README.md").read_text()
    named = set(re.findall(r"\b(?:scripts|tests/golden)/[\w./-]*\w", text))
    assert named
    missing = sorted(p for p in named if not (ROOT / p).exists())
    assert not missing, missing
