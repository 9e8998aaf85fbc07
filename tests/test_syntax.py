"""The package and its scripts parse as Python 3.10, the oldest version
pyproject.toml allows, although the test suite may run on a newer one.

ast.parse with feature_version refuses syntax newer than 3.10 (except*,
type parameter lists, ...); it cannot see a newer library call.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts") for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)
    assert any(p.parent.name == "scripts" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
