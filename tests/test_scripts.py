"""The runnable scripts under scripts/, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
