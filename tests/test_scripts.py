"""The runnable scripts under scripts/, run as a user would run them."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pentaset.modelset import analyze, enumerate_points, stats

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("radius, points", [("3.5", 61), ("7/2", 61), ("0.8", 1)])
def test_reproduce_figure_squares_the_radius_exactly(tmp_path, radius, points):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "figure.svg"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figure.py"), radius, str(out)],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    assert proc.stdout.strip() == f"wrote {out} with {points} points"
    assert out.read_text().count('class="pt-') == points


def test_distance_census_rows_match_the_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "distance_census.py"), "6"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert [int(row[0]) for row in rows] == [2, 4, 6]
    for r, count, short, long_, ratio, density in rows:
        summary = stats(analyze(enumerate_points(int(r) ** 2)))
        assert int(count) == summary["count"]
        assert int(count) % 10 == 1  # the origin plus orbits of the ten roots of unity
        assert (int(short), int(long_)) == (summary["classes"]["short"],
                                            summary["classes"]["long"])
        assert ratio == f"{summary['short_long_ratio']:.3f}"
        assert density == f"{summary['density']:.4f}"
    assert lines[-1] == f"model-set density limit: {4 * math.pi / math.sqrt(125):.4f}"


def test_src_lines_counts_code_not_comments_or_docstrings(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""A module\n'          # docstring
        'docstring."""\n'
        '\n'
        '# a comment\n'
        'X = """a string\n'      # code, both lines
        'that is not a docstring"""\n'
        '\n'
        '\n'
        'class C:\n'             # code
        '    """Doc."""\n'       # docstring
        '\n'
        '    def f(self):\n'     # code
        '        """Doc."""\n'   # docstring
        '        return (1,  # a trailing comment\n'  # code
        '                2)\n',  # code
        encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(module)],
        capture_output=True, text=True, check=True, timeout=60)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["module", "lines", "code"], ["module.py", "15", "6"],
                    ["total", "15", "6"]]


def test_src_lines_totals_the_package():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py")],
        capture_output=True, text=True, check=True, timeout=60)
    *modules, total = [line.split() for line in proc.stdout.splitlines()[1:]]
    names = sorted(p.name for p in (ROOT / "src" / "pentaset").glob("*.py"))
    assert [m[0] for m in modules] == names
    assert total == ["total", str(sum(int(m[1]) for m in modules)),
                     str(sum(int(m[2]) for m in modules))]
