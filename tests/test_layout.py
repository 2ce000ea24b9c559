"""Where the family split lives, and what importing the states loads."""

import ast
import os
import pathlib
import subprocess
import sys

import ghcs

SRC = pathlib.Path(ghcs.__file__).parent

# (module, outermost enclosing definition) allowed to compare a family with
# Family.BESSEL or Family.JACOBI: the family code, the params and the bessel
# guard of the dynamics
ALLOWED = {("families", None), ("states", "FamilyParams"), ("dynamics", "_require_bessel")}


def _family_tests(tree):
    """(outermost definition name or None, line) of every is / is not / == /
    != comparison with Family.BESSEL or Family.JACOBI in a module."""
    hits = []

    def walk(node, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and outer is None:
                walk(child, child.name)
                continue
            if isinstance(child, ast.Compare) and all(
                    isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in child.ops):
                for side in (child.left, *child.comparators):
                    if (isinstance(side, ast.Attribute) and side.attr in ("BESSEL", "JACOBI")
                            and isinstance(side.value, ast.Name) and side.value.id == "Family"):
                        hits.append((outer, child.lineno))
            walk(child, outer)

    walk(tree, None)
    return hits


def _imported_modules(tree):
    """The ghcs modules a module imports, by their short names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def test_only_the_family_code_tests_the_family():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer, line in _family_tests(tree):
            key = (path.stem, None if path.stem == "families" else outer)
            if key not in ALLOWED:
                found.append(f"{path.name}:{line} ({outer})")
    assert found == []


def test_the_walk_finds_a_family_test():
    tree = ast.parse("def f(p):\n    return p.family is Family.JACOBI\n"
                     "x = Family.BESSEL == y\n")
    assert _family_tests(tree) == [("f", 2), (None, 3)]


def test_family_code_and_thermal_imports():
    imports = {path.stem: _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               for path in SRC.glob("*.py")}
    assert not {"states", "measure"} & imports["families"]
    assert "measure" not in imports["thermal"]


def test_importing_the_states_loads_no_scipy():
    code = ("import sys, ghcs, ghcs.states\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
