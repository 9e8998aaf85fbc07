"""Command-line interface: generate, analyze, verify, stats, render.

Exit codes: 0 success (verify: all selected checks pass), 1 verification
violation, 2 usage error, 3 I/O error, 4 arithmetic overflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import __version__
from .io_render import RenderOptions, parse_rational, render_svg, write_snapshot
from .modelset import SearchRangeError, Window, analyze, brief_rational, enumerate_points, stats
from .verify import CHECK_NAMES, verify_all

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_OVERFLOW = 4


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentaset",
        description="Enumerate and verify the discrete golden-ratio point set "
                    "of fifth-cyclotomic integers.")
    parser.add_argument("--version", action="version", version=f"pentaset {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, fmt=False):
        radius = p.add_mutually_exclusive_group(required=True)
        radius.add_argument("--radius", type=_rational,
                            help="physical radius R (R^2 is computed exactly)")
        radius.add_argument("--radius-sq", type=_rational, help="R^2 as a rational")
        p.add_argument("--window-sq", type=_rational, default=Fraction(1),
                       help="internal window squared radius w (default 1)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    common(sub.add_parser("generate", help="enumerate and write a snapshot"), fmt=True)
    common(sub.add_parser("analyze", help="enumerate, classify nearest-neighbor "
                                          "distances, and write a snapshot"), fmt=True)
    p_verify = sub.add_parser("verify", help="run the theorem checks; JSON to stdout")
    common(p_verify)
    p_verify.add_argument("--check", choices=("all",) + CHECK_NAMES, default="all")
    common(sub.add_parser("stats", help="summary counts, density, class ratio"))
    p_render = sub.add_parser("render", help="render the point set as SVG")
    common(p_render)
    p_render.add_argument("--highlight-roots", action="store_true",
                          help="circle 0 and the five fifth roots of unity")
    p_render.add_argument("--color-classes", action="store_true",
                          help="color dots by nearest-neighbor class")
    p_render.add_argument("--canvas", type=int, default=1000)
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parsed arguments, with radius_sq filled in exactly from --radius."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.radius_sq is None:
        # check the sign before squaring hides it
        if ns.radius < 0:
            parser.error("radius must be nonnegative")
        try:
            ns.radius_sq = parse_rational(ns.radius * ns.radius)
        except ValueError as e:
            parser.error(f"radius squared: {e}")
    if ns.radius_sq < 0:
        parser.error("radius must be nonnegative")
    if ns.window_sq <= 0:
        parser.error("window squared radius must be positive")
    if ns.subcommand == "render" and ns.canvas <= 0:
        parser.error("canvas must be positive")
    return ns


@contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f


def run_cli(argv) -> int:
    try:
        cfg = parse_config(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE

    try:
        return _dispatch(cfg)
    except OverflowError as e:
        print(f"arithmetic overflow: {e}", file=sys.stderr)
        return EXIT_OVERFLOW
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except SearchRangeError as e:
        print(f"pentaset: error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(cfg: argparse.Namespace) -> int:
    window = Window(cfg.window_sq)
    print(f"pentaset {cfg.subcommand}: radius_sq={brief_rational(cfg.radius_sq)} "
          f"window_sq={brief_rational(cfg.window_sq)}", file=sys.stderr)

    if cfg.subcommand in ("generate", "analyze"):
        snap = enumerate_points(cfg.radius_sq, window)
        if cfg.subcommand == "analyze":
            snap = analyze(snap)
        with _open_out(cfg.out) as out:
            write_snapshot(snap, cfg.format, out)
        return EXIT_OK

    if cfg.subcommand == "verify":
        checks = CHECK_NAMES if cfg.check == "all" else (cfg.check,)
        reports = verify_all(cfg.radius_sq, cfg.window_sq, checks)
        all_pass = all(r.passed for r in reports)
        doc = {"parameters": {"radius_sq": str(cfg.radius_sq),
                              "window_sq": str(cfg.window_sq)},
               "reports": [r.to_json_dict() for r in reports],
               "all_pass": all_pass}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return EXIT_OK if all_pass else EXIT_VIOLATION

    if cfg.subcommand == "stats":
        snap = analyze(enumerate_points(cfg.radius_sq, window))
        summary = stats(snap)
        summary["radius_sq"] = str(cfg.radius_sq)
        summary["window_sq"] = str(cfg.window_sq)
        with _open_out(cfg.out) as out:
            out.write(json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
        return EXIT_OK

    if cfg.subcommand == "render":
        snap = enumerate_points(cfg.radius_sq, window)
        if cfg.color_classes:
            snap = analyze(snap)
        opts = RenderOptions(canvas=cfg.canvas,
                             highlight_roots=cfg.highlight_roots,
                             color_classes=cfg.color_classes)
        with _open_out(cfg.out) as out:
            out.write(render_svg(snap, opts))
        return EXIT_OK

    raise AssertionError(f"unreachable subcommand {cfg.subcommand}")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
