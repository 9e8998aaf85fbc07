"""Snapshot persistence (JSONL / CSV) and SVG rendering.

Integer data round-trips exactly, doubles (17 significant digits) to the
same bits, and identical snapshots and options give identical bytes.  Reading
rechecks every record; the C scanner of json.loads parses a JSONL record line.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from itertools import chain

from . import __version__
from .cyclotomic import ZETA_POWERS, _Frozen, _Value, abs_sq_coords, embed_approx
from .modelset import (DIST_CLASSES, PointRecord, Snapshot, Window, _keep_split, _key_base,
                       _keys, _membership, _split)

CSV_COLUMNS = ["a0", "a1", "a2", "a3", "x", "y", "iabs_p", "iabs_q", "class"]


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


# Each format's header and record line; %.17g is format(x, ".17g").  No
# rational, version or class string holds a quote, backslash, comma or line
# break, so these are the bytes of json.dumps(sort_keys=True, compact
# separators) and of csv.writer (tests/oracles.py pins the headers).
_LAYOUTS = {
    "jsonl": ('{"format":"pentaset-snapshot","radius_sq":"%(radius_sq)s",'
              '"version":"%(version)s","window_sq":"%(window_sq)s"}\n',
              '{"a":[%d,%d,%d,%d],"x":%.17g,"y":%.17g,"iabs":[%d,%d],"class":"%s"}\n'),
    "csv": ("radius_sq,%(radius_sq)s,window_sq,%(window_sq)s,version,%(version)s\n"
            + ",".join(CSV_COLUMNS) + "\n",
            "%d,%d,%d,%d,%.17g,%.17g,%d,%d,%s\n"),
}

# The JSONL record's keys in order, and json.loads' scanner with the C tuple as
# pairs hook: an object scans to its (key, value) pairs, running no Python code
_KEYS = tuple(re.findall(r'"(\w+)":', _LAYOUTS["jsonl"][1]))
_scan = json.JSONDecoder(object_pairs_hook=tuple).scan_once


# The layouts with each float as %s, filled from a _Floats memo
_WRITTEN = {f: (h, r.replace("%.17g", "%s")) for f, (h, r) in _LAYOUTS.items()}
_CHUNK = 4096  # records per write, so that the output is never held whole


class _Floats(dict):
    """"%.17g" % x, formatted once per write for each x: a model set's x and y repeat.
    Equal keys print alike but 0.0 and -0.0, so no zero is stored; a NaN hits only itself."""

    def __missing__(self, x):
        text = "%.17g" % x
        if x:
            self[x] = text
        return text


def write_snapshot(snapshot: Snapshot, fmt: str, destination) -> None:
    """Write one record per point in canonical order, preceded by a header
    carrying R^2, w, and the tool version.  destination is a text stream."""
    if fmt not in _WRITTEN:
        raise ValueError(f"unsupported format {fmt!r}")
    header, record = _WRITTEN[fmt]
    destination.write(header % {"radius_sq": snapshot.radius_sq,
                                "window_sq": snapshot.window.w, "version": __version__})
    text, points = _Floats(), snapshot.points
    for i in range(0, len(points), _CHUNK):
        destination.write("".join([record % (*p.coords, text[p.x], text[p.y], *p.iabs,
                                             p.dist_class) for p in points[i:i + _CHUNK]]))


def _add_record(points: list, seen: dict, inside, lineno, c, x, y, iabs, cls) -> None:
    """Append the record of one line, with coordinates c and iabs int tuples,
    to points; seen maps the coordinates read so far to |z|^2, inside is
    _membership's memo."""
    if cls not in DIST_CLASSES:
        raise SnapshotFormatError(f"line {lineno}: unknown class {cls!r}")
    _, intr = moduli = abs_sq_coords(*c)
    if intr != iabs:
        raise SnapshotFormatError(
            f"line {lineno}: stored iabs {list(iabs)} does not match "
            f"recomputed {list(intr)} for a = {list(c)}")
    if not inside[moduli]:
        raise SnapshotFormatError(f"line {lineno}: point {list(c)} is outside the disc or window")
    if c in seen:
        raise SnapshotFormatError(f"line {lineno}: point {list(c)} appears more than once")
    x, y = float(x), float(y)
    e = embed_approx(c)
    # a written x, y equals the embedding bit for bit; any other must be within
    # the relative tolerance 1e-9, written as "not <=" so that a NaN fails
    if not (x == e.real and y == e.imag) and not (
            abs(x - e.real) <= 1e-9 * max(1.0, abs(e.real))
            and abs(y - e.imag) <= 1e-9 * max(1.0, abs(e.imag))):
        raise SnapshotFormatError(
            f"line {lineno}: stored x, y = {x!r}, {y!r} do not match the embedding "
            f"{e.real!r}, {e.imag!r} of a = {list(c)}")
    seen[c] = moduli[0]
    points.append(PointRecord(c, intr, x, y, None, cls))


def _header_snapshot(fields: dict):
    """An empty snapshot, map of coordinates seen and _membership memo for
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
    return Snapshot(window, radius_sq), {}, _membership(radius_sq, window.w)


def _with_split(snapshot: Snapshot, seen: dict) -> Snapshot:
    """The snapshot of records all read, keeping the split their reading
    decided: each point exactly in the disc and the window, once
    (modelset._split), keyed as the enumerator keys them."""
    coords = list(seen)
    b = _key_base(coords)
    return _keep_split(snapshot, list(seen.values()), _keys(coords, b), b)


def read_snapshot(source) -> Snapshot:
    """Read a snapshot written by write_snapshot; the internal squared
    modulus of every record is recomputed and checked against the file, and
    a record outside the header's disc or window is rejected.  The snapshot
    keeps the split (modelset._split) that these exact decisions make, so
    the checks look its points up by key, as on a fresh enumeration."""
    try:
        first = source.readline()
    except UnicodeDecodeError as e:
        raise SnapshotFormatError(f"line 1: undecodable text: {e}") from e
    if not first:
        raise SnapshotFormatError("empty file: header required")
    return (_read_jsonl if first.lstrip().startswith("{") else _read_csv)(first, source)


def _unique_keys(pairs: list) -> dict:
    """json.loads' object_pairs_hook: a dict, refusing a repeated key."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ValueError(f"repeated key among {[k for k, _ in pairs]}")
    return obj


def _read_jsonl(first: str, source) -> Snapshot:
    """A record line that _scan parses up to its final newline into the pairs
    of _KEYS, with int a and iabs, int or float x and y and a str class, takes
    the scanned values; json.loads, with the same decoder, reads the others."""
    try:
        header = json.loads(first, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        raise SnapshotFormatError(f"line 1: bad header: {e}") from e
    if header.get("format") != "pentaset-snapshot":
        raise SnapshotFormatError("line 1: missing snapshot header")
    snapshot, seen, inside = _header_snapshot(header)
    points, lineno = snapshot.points, 1
    try:
        for lineno, line in enumerate(source, start=2):
            try:
                rec, end = _scan(line, 0)
                (ka, (a0, a1, a2, a3)), (kx, x), (ky, y), (ki, (p, q)), (kc, cls) = rec
            except (StopIteration, ValueError, TypeError, RecursionError):
                rec = None
            if not (type(rec) is tuple and line[end:] == "\n" and (ka, kx, ky, ki, kc) == _KEYS
                    and type(a0) is type(a1) is type(a2) is type(a3) is type(p) is type(q) is int
                    and type(x) in (int, float) and type(y) in (int, float) and type(cls) is str):
                if not line.strip():
                    continue
                rec = json.loads(line, object_pairs_hook=_unique_keys)
                if not isinstance(rec, dict) or rec.keys() != set(_KEYS):
                    raise SnapshotFormatError(f"line {lineno}: malformed record: wrong keys")
                (a0, a1, a2, a3), x, y, (p, q), cls = map(rec.get, _KEYS)
                # JSON true and 1.0 would pass as coordinates
                if not (type(a0) is type(a1) is type(a2) is type(a3) is type(p) is type(q) is int):
                    raise SnapshotFormatError(f"line {lineno}: a and iabs must hold integers")
                if type(x) not in (int, float) or type(y) not in (int, float):
                    raise SnapshotFormatError(f"line {lineno}: x and y must be numbers")
            _add_record(points, seen, inside, lineno, (a0, a1, a2, a3), x, y, (p, q), cls)
    except SnapshotFormatError:
        raise
    except UnicodeDecodeError as e:  # in reading the line after lineno
        raise SnapshotFormatError(f"line {lineno + 1}: undecodable text: {e}") from e
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as e:
        raise SnapshotFormatError(f"line {lineno}: malformed record: {e}") from e
    return _with_split(snapshot, seen)


def _read_csv(first: str, source) -> Snapshot:
    rows = csv.reader(chain([first], source))
    try:
        head = next(rows)
        if len(head) < 4 or head[0] != "radius_sq" or head[2] != "window_sq":
            raise SnapshotFormatError("line 1: missing snapshot header")
        snapshot, seen, inside = _header_snapshot({"radius_sq": head[1], "window_sq": head[3]})
        if next(rows, None) != CSV_COLUMNS:
            raise SnapshotFormatError(f"line 2: expected columns {CSV_COLUMNS}")
        for a0, a1, a2, a3, x, y, p, q, cls in filter(None, rows):  # a row of 9 fields
            c, iabs = (int(a0), int(a1), int(a2), int(a3)), (int(p), int(q))
            _add_record(snapshot.points, seen, inside, rows.line_num, c, x, y, iabs, cls)
    except SnapshotFormatError:
        raise
    except csv.Error as e:
        raise SnapshotFormatError(f"line {rows.line_num}: malformed CSV: {e}") from e
    except UnicodeDecodeError as e:  # in reading the line after rows.line_num
        raise SnapshotFormatError(f"line {rows.line_num + 1}: undecodable text: {e}") from e
    except (ValueError, OverflowError) as e:
        raise SnapshotFormatError(f"line {rows.line_num}: malformed record: {e}") from e
    return _with_split(snapshot, seen)


class RenderOptions(_Frozen, _Value):
    __slots__ = ("canvas", "highlight_roots", "color_classes")

    def __init__(self, canvas: int = 1000, highlight_roots: bool = False,
                 color_classes: bool = False):
        for name, value in zip(self.__slots__, (canvas, highlight_roots, color_classes)):
            object.__setattr__(self, name, value)


# A dot and a highlight ring at (cx, cy); "%.6f" % v is format(v, ".6f"),
# -0.000000 included.
_DOT = '<circle cx="%.6f" cy="%.6f" r="3" fill="%s" class="pt-%s"/>'
_RING = ('<circle cx="%.6f" cy="%.6f" r="10" fill="none" stroke="#000000" '
         'stroke-width="1.5" class="highlight"/>')


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
    colored = opt.color_classes
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opt.canvas}" height="{opt.canvas}" '
        f'viewBox="0 0 {opt.canvas} {opt.canvas}">',
        f'<rect width="{opt.canvas}" height="{opt.canvas}" fill="#ffffff"/>',
    ]
    lines += [_DOT % (c + p.x * scale, c - p.y * scale,
                      _CLASS_COLORS[p.dist_class] if colored else "#000000", p.dist_class)
              for p in snapshot.points]
    if opt.highlight_roots:
        # six key lookups on the split (modelset._split): a root's key names
        # it, as the roots lie in [-3M, 3M]^4 when M >= 1, and when M = 0
        # (B = 1, the origin alone) only the origin's key is 0
        roots = ((0, 0, 0, 0),) + ZETA_POWERS
        _, _, keys, good, bad, b = _split(snapshot)
        present = set(keys) if bad else good
        for z, k in zip(roots, _keys(roots, b)):
            if k in present:
                e = embed_approx(z)
                lines.append(_RING % (c + e.real * scale, c - e.imag * scale))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
