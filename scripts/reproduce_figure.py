#!/usr/bin/env python3
"""Render the point set near the origin with 0 and the fifth roots of
unity circled, matching the defaults used throughout the project.

Usage: python scripts/reproduce_figure.py [radius] [out.svg]

The radius is a rational such as 6, 3.5 or 7/2; it is squared exactly.
"""

import sys
from fractions import Fraction
from pathlib import Path

from pentaset.modelset import enumerate_points
from pentaset.io_render import RenderOptions, render_svg


def main() -> None:
    radius = Fraction(sys.argv[1]) if len(sys.argv) > 1 else Fraction(6)
    out = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("figure.svg")
    snap = enumerate_points(radius * radius)  # exact, as the CLI's --radius
    svg = render_svg(snap, RenderOptions(highlight_roots=True))
    out.write_text(svg, encoding="utf-8")
    print(f"wrote {out} with {len(snap.points)} points")


if __name__ == "__main__":
    main()
