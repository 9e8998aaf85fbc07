"""Every name the package exports has a consumer outside the tests, and
the package keeps one representation of each value.

A name that only the tests call belongs in tests/oracles.py or nowhere; this
keeps such names from coming back into pentaset/__init__.  A number of Z[phi]
is a (p, q) pair and a point a coordinate tuple; the views GoldenInt and
CycInt, which only perfbench builds, stay out of the rest of the package.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pentaset"
INIT = PACKAGE / "__init__.py"
VIEWS = {"CycInt", "GoldenInt"}


def _exported() -> set[str]:
    tree = ast.parse(INIT.read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references() -> set[str]:
    """The names used as code (not in comments or strings) in src/, scripts/
    and perfbench/, leaving out pentaset/__init__ and the name that a def or
    class line defines."""
    used = set()
    for directory in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path == INIT:
                continue
            previous = None
            for tok in _names(path):
                if previous not in ("def", "class"):
                    used.add(tok.string)
                previous = tok.string
    return used


def _names(path: Path):
    """The NAME tokens of a file: its code, not its comments or strings."""
    return [tok for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if tok.type == tokenize.NAME]


def _point_view_lines() -> set[int]:
    """The lines of modelset that PointRecord.z needs: its body and the
    imports from cyclotomic."""
    tree = ast.parse((PACKAGE / "modelset.py").read_text())
    z = next(f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "PointRecord"
             for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "z")
    spans = [z] + [n for n in tree.body
                   if isinstance(n, ast.ImportFrom) and n.module == "cyclotomic"]
    return {line for n in spans for line in range(n.lineno, n.end_lineno + 1)}


def test_every_export_has_a_consumer():
    exported = _exported()
    assert "enumerate_points" in exported and "__version__" not in exported
    assert sorted(exported - _references()) == []


def test_no_second_representation():
    assert not VIEWS & _exported()
    found = {(path.name, tok.start[0], tok.string) for path in sorted(PACKAGE.rglob("*.py"))
             for tok in _names(path) if tok.string in VIEWS and path.name != "cyclotomic.py"}
    lines = _point_view_lines()
    assert {name for _, _, name in found} == {"CycInt"}  # the guard sees PointRecord.z
    assert sorted(f for f in found if f[0] != "modelset.py" or f[1] not in lines) == []
