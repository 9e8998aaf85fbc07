"""Every name the package exports has a consumer outside the tests, the
package keeps one representation of each value, and the enumeration's row
search decides without a float.

A name that only the tests call belongs in tests/oracles.py or nowhere; this
keeps such names from coming back into pentaset/__init__.  A number of Z[phi]
is a (p, q) pair and a point a coordinate tuple; the views GoldenInt and
CycInt, which only perfbench builds, stay out of the rest of the package.
"""

import ast
import io
import tokenize
from pathlib import Path

from pentaset import verify

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


def _floats_reached(*roots: str) -> tuple[set[str], list[str]]:
    """The top-level functions, classes and constants of verify, modelset
    and cyclotomic that the named functions reach by name, and each float
    literal, float() call or math.sqrt/ceil/floor call among them."""
    defs = {}
    for name in ("cyclotomic.py", "modelset.py", "verify.py"):  # the later module's names win
        for node in ast.parse((PACKAGE / name).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            defs[t.id] = node.value
    seen, todo, found = set(), list(roots), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for n in ast.walk(defs[name]):
            if isinstance(n, ast.Name) and n.id in defs:
                todo.append(n.id)
            if isinstance(n, ast.Constant) and isinstance(n.value, (float, complex)):
                found.append(f"{name}: {n.value!r}")
            if isinstance(n, ast.Call) and (
                    isinstance(n.func, ast.Name) and n.func.id == "float"
                    or isinstance(n.func, ast.Attribute) and isinstance(n.func.value, ast.Name)
                    and n.func.value.id == "math" and n.func.attr in ("sqrt", "ceil", "floor")):
                found.append(f"{name}: {ast.unparse(n)}")
    return seen, found


def test_no_float_in_the_search():
    # the row search and every helper it calls decide in integers alone
    reached, floats = _floats_reached("_members", "_rows")
    assert {"_floor_sqrt5", "_PHI_S", "_membership", "_at_most", "golden_cmp", "sqrt5_sign",
            "abs_sq_coords"} <= reached
    assert floats == []
    # the guard sees a float where there is one: the places enumerate_points writes
    assert _floats_reached("enumerate_points")[1]


def test_no_float_in_the_checks_or_analyze():
    # every check and analyze decide in integers alone, on the neighbour
    # primitive, the split and its turn
    checks = [f.__name__ for f in verify._CHECKS.values()]
    assert len(checks) == 5
    reached, floats = _floats_reached(*checks, "analyze")
    assert {"_inner_nearest", "_nearest", "_split", "_turned", "_turn", "_walk", "_is_inner",
            "displacement_candidates", "_unit_lemma_list", "golden_cmp"} <= reached
    assert floats == []
