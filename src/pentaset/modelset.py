"""Enumeration and nearest-neighbor analysis of the cut-and-project set.

The point set is S = {z in Z[zeta_5] : |sigma(z)|^2 <= w} intersected with a
physical disc |z|^2 <= R^2; both constraints are tested exactly.  The key
bound is Q(a) = |z|^2 + |sigma(z)|^2, a positive definite integer quadratic
form, which confines the search to finitely many coordinate vectors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cmp_to_key

from .cyclotomic import (
    CycInt,
    GoldenInt,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
    golden_cmp_golden,
    quad_form,
    sqrt5_sign,
    LONG_DIST_SQ,
    SHORT_DIST_SQ,
)

Coords = tuple[int, int, int, int]

DIST_SHORT = "short"
DIST_LONG = "long"
DIST_OTHER = "other"
DIST_UNKNOWN = "unknown"


@dataclass(frozen=True)
class Window:
    """Closed disc |u|^2 <= w in the internal embedding; w a positive rational."""

    w: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "w", Fraction(self.w))
        if self.w <= 0:
            raise ValueError(f"window squared radius must be positive, got {self.w}")

    @property
    def diam_sq(self) -> Fraction:
        return 4 * self.w


@dataclass
class PointRecord:
    z: CycInt
    abs_sq_physical: GoldenInt
    abs_sq_internal: GoldenInt
    x: float
    y: float
    min_dist_sq: GoldenInt | None = None
    dist_class: str = DIST_UNKNOWN


@dataclass
class Snapshot:
    window: Window
    radius_sq: Fraction
    points: list[PointRecord] = field(default_factory=list)
    class_counts: dict[str, int] | None = None

    def coord_set(self) -> set[Coords]:
        return {p.z.coords() for p in self.points}


def contains(z: CycInt, window: Window) -> bool:
    """Exact membership test; the window boundary is included."""
    return _in_window(z.coords(), window.w)


def _in_window(c: Coords, w: Fraction) -> bool:
    p, q = abs_sq_coords(*c)[1]
    return golden_cmp(p, q, w.numerator, w.denominator) <= 0


def _make_record(coords: Coords,
                 phys: tuple[int, int], intr: tuple[int, int]) -> PointRecord:
    z = CycInt(*coords)
    e = embed_approx(z, "physical")
    return PointRecord(z, GoldenInt(*phys), GoldenInt(*intr), e.real, e.imag)


def _form_bounded_vectors(cb: int):
    """Yield all integer vectors a with Q(a) <= cb.

    Layered search: for fixed (a1, a2, a3), Q is a quadratic in a0 whose
    real root interval is computed with integer square roots (padded by one
    and re-checked exactly).
    """
    if cb < 0:
        return
    m = math.isqrt(2 * cb)  # smallest eigenvalue of the Gram matrix is 1/2
    for a1 in range(-m, m + 1):
        for a2 in range(-m, m + 1):
            for a3 in range(-m, m + 1):
                t = a1 + a2 + a3
                big_t = a1 * a1 + a2 * a2 + a3 * a3
                # Q <= cb  <=>  4*a0^2 - 2*t*a0 + (5T - t^2 - 2cb) <= 0
                disc = 5 * t * t - 20 * big_t + 8 * cb
                if disc < 0:
                    continue
                s = math.isqrt(disc)
                lo = -((s - t) // 4) - 1
                hi = (t + s) // 4 + 1
                for a0 in range(lo, hi + 1):
                    if quad_form(a0, a1, a2, a3) <= cb:
                        yield (a0, a1, a2, a3)


def enumerate_points(radius_sq: Fraction | int, window: Window | None = None) -> Snapshot:
    """All z with |z|^2 <= radius_sq and |sigma(z)|^2 <= w, exactly.

    The quadratic form Q prunes the search layer by layer; every candidate
    is then filtered exactly.
    """
    window = window or Window()
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        raise ValueError(f"radius_sq must be nonnegative, got {radius_sq}")
    rn, rd = radius_sq.numerator, radius_sq.denominator
    wn, wd = window.w.numerator, window.w.denominator
    records = []
    for coords in _form_bounded_vectors(math.floor(radius_sq + window.w)):
        phys, intr = abs_sq_coords(*coords)
        if golden_cmp(phys[0], phys[1], rn, rd) <= 0 and \
           golden_cmp(intr[0], intr[1], wn, wd) <= 0:
            records.append(_make_record(coords, phys, intr))
    records.sort(key=lambda p: (quad_form(*p.z.coords()), p.z.coords()))
    return Snapshot(window, radius_sq, records)


_DISPLACEMENT_CACHE: dict[Fraction, list[tuple[Coords, GoldenInt]]] = {}


def displacement_candidates(window: Window) -> list[tuple[Coords, GoldenInt]]:
    """All nonzero d, as coordinate tuples with |d|^2, that can separate two
    window members at distance <= 1.

    Both endpoints in the window force |sigma(d)|^2 <= 4w, and the nearest
    neighbor is at distance <= 1, so Q(d) <= 1 + 4w confines the search;
    the list is finite because model sets have finite local complexity.
    Sorted by exact squared length, then lexicographic coordinates, so a
    scan hits the minimal candidate first.
    """
    cached = _DISPLACEMENT_CACHE.get(window.w)
    if cached is not None:
        return cached
    diam_sq = window.diam_sq
    out = []
    for coords in _form_bounded_vectors(math.floor(1 + diam_sq)):
        if coords == (0, 0, 0, 0):
            continue
        phys, intr = abs_sq_coords(*coords)
        if golden_cmp(phys[0], phys[1], 1) <= 0 and \
           golden_cmp(intr[0], intr[1], diam_sq.numerator, diam_sq.denominator) <= 0:
            out.append((coords, GoldenInt(*phys)))

    def cmp(a, b):
        return golden_cmp_golden(a[1], b[1]) or (-1 if a[0] < b[0] else 1)

    out.sort(key=cmp_to_key(cmp))
    _DISPLACEMENT_CACHE[window.w] = out
    return out


def _scan(c: Coords, window: Window, hit):
    """The first displacement d of the sorted list with hit(c + d), as
    (|d|^2, c + d), or None when no d up to length 1 hits."""
    a0, a1, a2, a3 = c
    for (d0, d1, d2, d3), dsq in displacement_candidates(window):
        t = (a0 + d0, a1 + d1, a2 + d2, a3 + d3)
        if hit(t):
            return dsq, t
    return None


def min_distance(z: CycInt, window: Window) -> tuple[GoldenInt, CycInt]:
    """Exact squared distance from z to its nearest neighbor in the full
    (infinite) set, with the lexicographically smallest witness on ties."""
    if not contains(z, window):
        raise ValueError(f"{z.coords()} is not in the set for this window")
    found = _scan(z.coords(), window, lambda t: _in_window(t, window.w))
    if found is None:
        raise RuntimeError(
            "no neighbor within distance 1; window too small for the step bound")
    return found[0], CycInt(*found[1])


def classify_distance(d_sq: GoldenInt) -> str:
    if d_sq.sign() <= 0:
        raise ValueError(f"squared distance must be positive, got ({d_sq.p},{d_sq.q})")
    if d_sq == SHORT_DIST_SQ:
        return DIST_SHORT
    if d_sq == LONG_DIST_SQ:
        return DIST_LONG
    return DIST_OTHER


def is_inner(abs_sq_physical: GoldenInt, radius_sq: Fraction) -> bool:
    """Exact test |z| <= R - 1, i.e. the unit neighborhood of z fits in the disc.

    Squared twice to stay rational: |z| + 1 <= R iff R^2 - 1 - |z|^2 >= 0
    and 4|z|^2 <= (R^2 - 1 - |z|^2)^2.
    """
    g = abs_sq_physical
    hp = Fraction(radius_sq) - 1 - g.p
    hq = Fraction(-g.q)
    if sqrt5_sign(2 * hp + hq, hq) < 0:
        return False
    # h^2 in (p, q) form, minus 4g
    sp = hp * hp + hq * hq - 4 * g.p
    sq = 2 * hp * hq + hq * hq - 4 * g.q
    return sqrt5_sign(2 * sp + sq, sq) >= 0


def _closest(c: Coords, others, best: tuple[int, int] | None):
    """The exact minimum of best and the squared distances from c to others,
    as a (p, q) pair, or None when both are empty."""
    a0, a1, a2, a3 = c
    for o in others:
        p, q = abs_sq_coords(a0 - o[0], a1 - o[1], a2 - o[2], a3 - o[3])[0]
        if best is None or golden_cmp(p - best[0], q - best[1], 0) < 0:
            best = (p, q)
    return best


def analyze(snapshot: Snapshot) -> Snapshot:
    """Fill min_dist_sq and dist_class for every inner point.

    Inner means |z| <= R - 1 (exact); other points stay "unknown", as does
    an inner point that is the snapshot's only point.  min_dist_sq is the
    exact squared distance to the nearest other point of this snapshot,
    whatever the snapshot holds.  A repeated inner point raises ValueError.

    The displacement list holds every difference of two window members up
    to length 1, so a scan from a window member, looking its neighbors up
    in the snapshot, can miss only snapshot points outside the window.
    Those are compared with every inner point directly; an inner point
    outside the window, or one whose scan finds nothing, is compared with
    the whole snapshot.
    """
    window = snapshot.window
    radius_sq = snapshot.radius_sq
    coords = [p.z.coords() for p in snapshot.points]
    members = Counter(coords)
    outside = {j for j, c in enumerate(coords) if not _in_window(c, window.w)}
    loose = [coords[j] for j in sorted(outside)]

    new_points = []
    counts = {DIST_SHORT: 0, DIST_LONG: 0, DIST_OTHER: 0, DIST_UNKNOWN: 0}
    for i, (c, rec) in enumerate(zip(coords, snapshot.points)):
        best = None
        if is_inner(GoldenInt(*abs_sq_coords(*c)[0]), radius_sq):
            if members[c] > 1:
                raise ValueError(f"point {c} appears more than once in the snapshot")
            found = None if i in outside else _scan(c, window, members.__contains__)
            if found is None:
                others = (o for j, o in enumerate(coords) if j != i)
                best = _closest(c, others, None)
            else:
                best = _closest(c, loose, (found[0].p, found[0].q))
        if best is None:
            mds, cls = None, DIST_UNKNOWN
        else:
            mds = GoldenInt(*best)
            cls = classify_distance(mds)
        new_points.append(replace(rec, min_dist_sq=mds, dist_class=cls))
        counts[cls] += 1
    return Snapshot(window, radius_sq, new_points, counts)


def stats(snapshot: Snapshot) -> dict:
    """Summary counts, empirical density, and short:long ratio."""
    counts = snapshot.class_counts
    if counts is None:
        counts = {DIST_SHORT: 0, DIST_LONG: 0, DIST_OTHER: 0, DIST_UNKNOWN: 0}
        for p in snapshot.points:
            counts[p.dist_class] += 1
    n = len(snapshot.points)
    r_sq = float(snapshot.radius_sq)
    density = n / (math.pi * r_sq) if r_sq > 0 else None
    ratio = counts[DIST_SHORT] / counts[DIST_LONG] if counts[DIST_LONG] else None
    return {
        "count": n,
        "classes": dict(counts),
        "density": density,
        "short_long_ratio": ratio,
    }
