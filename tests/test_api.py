"""Every name the package exports has a consumer outside the tests.

A name that only the tests call belongs in tests/oracles.py or nowhere; this
keeps such names from coming back into pentaset/__init__.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "pentaset" / "__init__.py"


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
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    used.add(tok.string)
                previous = tok.string
    return used


def test_every_export_has_a_consumer():
    exported = _exported()
    assert "enumerate_points" in exported and "__version__" not in exported
    assert sorted(exported - _references()) == []
