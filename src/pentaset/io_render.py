"""Snapshot persistence (JSONL / CSV) and SVG rendering.

Integer data round-trips exactly; doubles are written with 17 significant
digits so they reparse to the same bits.  Output is deterministic: identical
snapshots and options give identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import __version__
from .cyclotomic import ZETA_POWERS, abs_sq_coords, embed_approx
from .modelset import PointRecord, Snapshot, Window, _membership

CSV_COLUMNS = ["a0", "a1", "a2", "a3", "x", "y", "iabs_p", "iabs_q", "class"]
_CLASSES = {"short", "long", "other", "unknown"}


class SnapshotFormatError(ValueError):
    """Malformed or inconsistent snapshot file."""


#: by default Python converts no int of more digits to or from a string
MAX_DIGITS = 4300
_DIGITS_LIMIT = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(value) -> Fraction:
    """Fraction(value); ValueError when value is no rational number, or when
    a decimal exponent of the text, a run of digits in it, or the numerator
    or denominator has more than MAX_DIGITS digits: such an R^2 or w could
    not be printed.  The text is checked first, because Fraction("1e999999999")
    alone runs for minutes and Python refuses to parse a longer run."""
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent[1])) > MAX_DIGITS:
            raise ValueError(f"{value!r} has a decimal exponent beyond {MAX_DIGITS}")
        if any(len(run) - run.count("_") > MAX_DIGITS for run in re.findall(r"[\d_]+", value)):
            raise ValueError(f"{value[:20]!r}... has a run of more than {MAX_DIGITS} digits")
    try:
        r = Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"not a rational number: {value!r}") from e
    if abs(r.numerator) >= _DIGITS_LIMIT or r.denominator >= _DIGITS_LIMIT:
        raise ValueError(f"numerator or denominator has more than {MAX_DIGITS} digits")
    return r


# One record per line; %.17g is format(x, ".17g").  No CSV field holds a
# comma, quote or line break, so the CSV lines are csv.writer's bytes.
_JSONL_RECORD = '{"a":[%d,%d,%d,%d],"x":%.17g,"y":%.17g,"iabs":[%d,%d],"class":"%s"}\n'
_CSV_RECORD = "%d,%d,%d,%d,%.17g,%.17g,%d,%d,%s\n"


def write_snapshot(snapshot: Snapshot, fmt: str, destination) -> None:
    """Write one record per point in canonical order, preceded by a header
    carrying R^2, w, and the tool version.  destination is a text stream."""
    if fmt == "jsonl":
        _write_jsonl(snapshot, destination)
    elif fmt == "csv":
        _write_csv(snapshot, destination)
    else:
        raise ValueError(f"unsupported format {fmt!r}")


def _write_jsonl(snapshot: Snapshot, out) -> None:
    header = {"format": "pentaset-snapshot",
              "radius_sq": str(snapshot.radius_sq),
              "window_sq": str(snapshot.window.w),
              "version": __version__}
    out.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    out.write(_records(_JSONL_RECORD, snapshot))


def _write_csv(snapshot: Snapshot, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["radius_sq", str(snapshot.radius_sq),
                     "window_sq", str(snapshot.window.w),
                     "version", __version__])
    writer.writerow(CSV_COLUMNS)
    out.write(_records(_CSV_RECORD, snapshot))


def _records(line: str, snapshot: Snapshot) -> str:
    return "".join([line % (*p.coords, p.x, p.y, *p.iabs, p.dist_class)
                    for p in snapshot.points])


def _add_record(snapshot: Snapshot, seen: set, inside, lineno, c, x, y, iabs, cls) -> None:
    """Append the record of one line, with coordinates c, to snapshot; seen
    holds the coordinates read so far, inside is _membership's memo."""
    if cls not in _CLASSES:
        raise SnapshotFormatError(f"line {lineno}: unknown class {cls!r}")
    _, intr = moduli = abs_sq_coords(*c)
    if list(intr) != list(iabs):
        raise SnapshotFormatError(
            f"line {lineno}: stored iabs {list(iabs)} does not match "
            f"recomputed {list(intr)} for a = {list(c)}")
    if not inside[moduli]:
        raise SnapshotFormatError(f"line {lineno}: point {list(c)} is outside the disc or window")
    if c in seen:
        raise SnapshotFormatError(f"line {lineno}: point {list(c)} appears more than once")
    x, y = float(x), float(y)
    e = embed_approx(c)
    # relative tolerance 1e-9; written as "not <=" so that a NaN fails
    if not (abs(x - e.real) <= 1e-9 * max(1.0, abs(e.real))
            and abs(y - e.imag) <= 1e-9 * max(1.0, abs(e.imag))):
        raise SnapshotFormatError(
            f"line {lineno}: stored x, y = {x!r}, {y!r} do not match the embedding "
            f"{e.real!r}, {e.imag!r} of a = {list(c)}")
    seen.add(c)
    snapshot.points.append(PointRecord(c, intr, x, y, dist_class=cls))


def _header_snapshot(fields: dict):
    """An empty snapshot, set of coordinates seen and _membership memo for
    R^2 and the window of a header's fields; every fault is a line-1 error."""
    try:
        text = fields["radius_sq"], fields["window_sq"]
    except KeyError as e:
        raise SnapshotFormatError(f"line 1: header lacks {e}") from e
    if not all(isinstance(t, str) for t in text):
        raise SnapshotFormatError("line 1: radius_sq and window_sq must be strings")
    try:
        radius_sq = parse_rational(text[0])
        window = Window(parse_rational(text[1]))
    except ValueError as e:
        raise SnapshotFormatError(f"line 1: bad header value: {e}") from e
    if radius_sq < 0:
        raise SnapshotFormatError(f"line 1: radius_sq must be nonnegative, got {radius_sq}")
    return Snapshot(window, radius_sq), set(), _membership(radius_sq, window.w)


def read_snapshot(source) -> Snapshot:
    """Read a snapshot written by write_snapshot; the internal squared
    modulus of every record is recomputed and checked against the file, and
    a record outside the header's disc or window is rejected."""
    first = source.readline()
    if not first:
        raise SnapshotFormatError("empty file: header required")
    if first.lstrip().startswith("{"):
        return _read_jsonl(first, source)
    return _read_csv(first, source)


def _read_jsonl(first: str, source) -> Snapshot:
    try:
        header = json.loads(first)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SnapshotFormatError(f"line 1: bad header: {e}") from e
    if header.get("format") != "pentaset-snapshot":
        raise SnapshotFormatError("line 1: missing snapshot header")
    snapshot, seen, inside = _header_snapshot(header)
    for lineno, line in enumerate(source, start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            a, x, y, iabs = rec["a"], rec["x"], rec["y"], rec["iabs"]
            a0, a1, a2, a3 = a
            p, q = iabs
            # JSON true and 1.0 would pass as coordinates
            if not (type(a0) is type(a1) is type(a2) is type(a3) is type(p) is type(q) is int):
                raise SnapshotFormatError(f"line {lineno}: a and iabs must hold integers")
            if type(x) not in (int, float) or type(y) not in (int, float):
                raise SnapshotFormatError(f"line {lineno}: x and y must be numbers")
            _add_record(snapshot, seen, inside, lineno, (a0, a1, a2, a3), x, y, iabs, rec["class"])
        except SnapshotFormatError:
            raise
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as e:
            raise SnapshotFormatError(f"line {lineno}: malformed record: {e}") from e
    return snapshot


def _read_csv(first: str, source) -> Snapshot:
    rows = csv.reader(chain([first], source))
    try:
        head = next(rows)
        if len(head) < 4 or head[0] != "radius_sq" or head[2] != "window_sq":
            raise SnapshotFormatError("line 1: missing snapshot header")
        snapshot, seen, inside = _header_snapshot({"radius_sq": head[1], "window_sq": head[3]})
        if next(rows, None) != CSV_COLUMNS:
            raise SnapshotFormatError(f"line 2: expected columns {CSV_COLUMNS}")
        for row in rows:
            if not row:
                continue
            lineno = rows.line_num
            try:
                c = (int(row[0]), int(row[1]), int(row[2]), int(row[3]))
                iabs = [int(row[6]), int(row[7])]
                _add_record(snapshot, seen, inside, lineno, c, row[4], row[5], iabs, row[8])
            except SnapshotFormatError:
                raise
            except (ValueError, IndexError, OverflowError) as e:
                raise SnapshotFormatError(f"line {lineno}: malformed record: {e}") from e
    except csv.Error as e:
        raise SnapshotFormatError(f"line {rows.line_num}: malformed CSV: {e}") from e
    return snapshot


@dataclass(frozen=True)
class RenderOptions:
    canvas: int = 1000
    highlight_roots: bool = False
    color_classes: bool = False


_DOT_RADIUS = 3
_HIGHLIGHT_RADIUS = 10


_CLASS_COLORS = {"short": "#d62728", "long": "#000000",
                 "other": "#ff7f0e", "unknown": "#808080"}


def render_svg(snapshot: Snapshot, options: RenderOptions | None = None) -> str:
    """One dot per point, y axis flipped, disc of radius R scaled to the
    canvas; optional unfilled circles around 0 and the five fifth roots of
    unity, optional coloring by nearest-neighbor class."""
    opt = options or RenderOptions()
    try:
        r = math.sqrt(float(snapshot.radius_sq))
        scale = opt.canvas / (2.0 * r) if r > 0 else 1.0
    except OverflowError:  # R^2 beyond float range: canvas/(2R) by logarithms
        n, d = snapshot.radius_sq.numerator, snapshot.radius_sq.denominator
        scale = opt.canvas / 2.0 * math.exp((math.log(d) - math.log(n)) / 2)
    c = opt.canvas / 2.0

    def place(x: float, y: float) -> tuple[str, str]:
        return format(c + x * scale, ".6f"), format(c - y * scale, ".6f")

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opt.canvas}" height="{opt.canvas}" '
        f'viewBox="0 0 {opt.canvas} {opt.canvas}">',
        f'<rect width="{opt.canvas}" height="{opt.canvas}" fill="#ffffff"/>',
    ]
    for p in snapshot.points:
        fill = _CLASS_COLORS[p.dist_class] if opt.color_classes else "#000000"
        px, py = place(p.x, p.y)
        lines.append(f'<circle cx="{px}" cy="{py}" r="{_DOT_RADIUS}" '
                     f'fill="{fill}" class="pt-{p.dist_class}"/>')
    if opt.highlight_roots:
        members = snapshot.coord_set()
        for z in ((0, 0, 0, 0),) + ZETA_POWERS:
            if z not in members:
                continue
            e = embed_approx(z)
            px, py = place(e.real, e.imag)
            lines.append(f'<circle cx="{px}" cy="{py}" r="{_HIGHLIGHT_RADIUS}" '
                         f'fill="none" stroke="#000000" stroke-width="1.5" '
                         f'class="highlight"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
