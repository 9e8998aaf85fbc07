"""Enumeration and nearest-neighbor analysis of the cut-and-project set.

The point set is S = {z in Z[zeta_5] : |sigma(z)|^2 <= w} intersected with a
physical disc |z|^2 <= R^2; both constraints are tested exactly.  The
search runs over one half of the ellipsoid |z|^2/R^2 + |sigma(z)|^2/w <= 2,
which holds one of each pair +-z of members and about as many lattice
vectors as there are members.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache

from .cyclotomic import (
    CycInt,
    GoldenInt,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
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


@dataclass(slots=True)
class PointRecord:
    """One point z: its coordinates, |sigma(z)|^2 as a (p, q) pair, its
    place (x, y) in the plane, and the nearest-neighbour result of analyze."""

    coords: Coords
    iabs: tuple[int, int]
    x: float
    y: float
    min_dist_sq: GoldenInt | None = None
    dist_class: str = DIST_UNKNOWN

    @property
    def z(self) -> CycInt:
        """The point as a CycInt; only perfbench reads it."""
        return CycInt(*self.coords)


@dataclass
class Snapshot:
    window: Window
    radius_sq: Fraction
    points: list[PointRecord] = field(default_factory=list)

    def coord_set(self) -> set[Coords]:
        return {p.coords for p in self.points}


class _Memo(dict):
    """fn(*key) once per distinct key; one per call, as fn may bind R^2 and w."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(*key)
        return value


def _at_most(bound: Fraction) -> _Memo:
    """A memo of p + q*phi <= bound, keyed by (p, q), decided exactly."""
    n, d = bound.numerator, bound.denominator
    return _Memo(lambda p, q: golden_cmp(p, q, n, d) <= 0)


def _membership(radius_sq: Fraction, w: Fraction) -> _Memo:
    """|z|^2 <= radius_sq and |sigma(z)|^2 <= w, memoised by abs_sq_coords(*c)."""
    disc, window = _at_most(radius_sq), _at_most(w)
    return _Memo(lambda phys, intr: disc[phys] and window[intr])


# Every member has F(a) = |z|^2/R^2 + |sigma(z)|^2/w <= 2.  Fincke-Pohst
# search (Math. Comp. 44, 1985) writes F(a) = sum_i d_i (a_i - c_i)^2, the
# centre c_i linear in a_{i+1}..a_3, and fixes a_3, ..., a_0 in turn within
# the interval the partial sum leaves.  F(-a) = F(a), so it searches only
# the a != 0 whose last nonzero coordinate is positive: where a_{i+1}..a_3
# are 0, c_i = 0 and a_i starts at 0 (a_0 at 1).  That half-ellipsoid has the
# volume of disc x window, so it yields about n vectors for n members; the
# exact filter in _members decides membership once per pair +-a.  -a is
# placed at 0.0 - x, not -x: embed_approx never returns -0.0 and rounds
# symmetrically, so that is embed_approx(-a) bit for bit.
#
# Completeness: floats only widen the search.  The form that the float Gram
# matrix G and its LDL^T factors represent, evaluated in floats, is within
# C*u*(sum_j |y_j| sqrt(G_jj))^2 of F(y) at every real y, u = 2^-53, C < 100
# (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3).  With
# G_jj = 1/R^2 + 1/w and G >= min(1/R^2, 1/w)/2 (|z|^2 + |sigma z|^2 has
# eigenvalues 1/2 and 5/2) that is at most 8*C*u*(1 + rho)*F(y),
# rho = max(R^2/w, w/R^2), below 1e-7 * F(y) for rho <= 10^6.  A partial sum
# is the minimum of the form over the coordinates not yet fixed, so for a
# member it is computed below 2*(1 + 1e-7) < 2*(1 + _SLACK) and is never
# pruned.  For R^2, w <= 10^12 coordinates stay below 10^7, so rounding the
# interval ends errs far less than the unit each end is widened by.  Outside
# that range the search raises SearchRangeError rather than risk a miss.
_SLACK = 1e-6
_MAX_RATIO = 10 ** 6
_MAX_SQ = 10 ** 12
_COS1, _COS2 = math.cos(2 * math.pi / 5), math.cos(4 * math.pi / 5)


class SearchRangeError(ValueError):
    """R^2 and w outside the range the enumeration is proven complete for."""


def brief_rational(r: Fraction) -> str:
    """str(r), with each part past 40 digits as its first 12 and a count."""
    return "/".join(t if len(t) <= 40 else f"{t[:12]}...({len(t)} digits)"
                    for t in str(r).split("/"))


def _ellipsoid_vectors(radius_sq: Fraction, w: Fraction):
    """Yield every a != 0 with F(a) <= 2 and last nonzero coordinate
    positive: one of each pair +-a of members at (radius_sq, w), and few others."""
    if radius_sq * w < 1:
        # a nonzero z has |z|^2 |sigma z|^2 = N(z) >= 1; this covers R^2 = 0,
        # where G is singular
        return
    if not (radius_sq <= _MAX_RATIO * w and w <= _MAX_RATIO * radius_sq
            and radius_sq <= _MAX_SQ and w <= _MAX_SQ):
        raise SearchRangeError(
            f"R^2 = {brief_rational(radius_sq)}, w = {brief_rational(w)} is outside the "
            f"range the enumeration is proven complete for (R^2/w and w/R^2 <= {_MAX_RATIO}, "
            f"R^2 and w <= {_MAX_SQ})")
    r, s = 1 / float(radius_sq), 1 / float(w)
    # G_jk = cos(2 pi k/5)/R^2 + cos(4 pi k/5)/w at lag k = |j - k|; lags 2, 3 agree
    lag = (r + s, _COS1 * r + _COS2 * s, _COS2 * r + _COS1 * s)
    g = [[lag[min(abs(j - k), 2)] for k in range(4)] for j in range(4)]
    # LDL^T: F(a) = sum_i d[i] * (a_i + sum_{j>i} m[i][j] a_j)^2
    d, m = [], []
    for i in range(4):
        d.append(g[i][i])
        m.append([gij / g[i][i] for gij in g[i]])
        for j in range(i + 1, 4):
            for k in range(i + 1, 4):
                g[j][k] -= g[i][j] * m[i][k]
    bound = 2 * (1 + _SLACK)
    d0, d1, d2, d3 = d
    (_, m01, m02, m03), (_, _, m12, m13), m23 = m[0], m[1], m[2][3]
    for a3 in range(math.floor(math.sqrt(bound / d3)) + 2):
        t3 = d3 * a3 ** 2
        if t3 > bound:
            continue
        c2 = -m23 * a3
        h2 = math.sqrt((bound - t3) / d2)
        for a2 in range(math.ceil(c2 - h2) - 1 if a3 else 0, math.floor(c2 + h2) + 2):
            t2 = t3 + d2 * (a2 - c2) ** 2
            if t2 > bound:
                continue
            c1 = -m12 * a2 - m13 * a3
            h1 = math.sqrt((bound - t2) / d1)
            for a1 in range(math.ceil(c1 - h1) - 1 if a3 or a2 else 0,
                            math.floor(c1 + h1) + 2):
                t1 = t2 + d1 * (a1 - c1) ** 2
                if t1 > bound:
                    continue
                c0 = -m01 * a1 - m02 * a2 - m03 * a3
                h0 = math.sqrt((bound - t1) / d0)
                for a0 in range(math.ceil(c0 - h0) - 1 if a3 or a2 or a1 else 1,
                                math.floor(c0 + h0) + 2):
                    if t1 + d0 * (a0 - c0) ** 2 <= bound:
                        yield a0, a1, a2, a3


def _members(radius_sq: Fraction, w: Fraction):
    """(coords, |z|^2, |sigma z|^2) of every z with |z|^2 <= radius_sq and
    |sigma(z)|^2 <= w, decided exactly; squared moduli are (p, q) pairs.
    The origin comes first, then pairs a, -a, a's last nonzero coordinate > 0."""
    inside = _membership(radius_sq, w)
    yield (0, 0, 0, 0), (0, 0), (0, 0)
    for a0, a1, a2, a3 in _ellipsoid_vectors(radius_sq, w):
        phys, intr = moduli = abs_sq_coords(a0, a1, a2, a3)
        if inside[moduli]:
            yield (a0, a1, a2, a3), phys, intr
            yield (-a0, -a1, -a2, -a3), phys, intr


def enumerate_points(radius_sq: Fraction | int, window: Window | None = None) -> Snapshot:
    """All z with |z|^2 <= radius_sq and |sigma(z)|^2 <= w, exactly, in
    canonical order (Q(a) = |z|^2 + |sigma(z)|^2, then coordinates).

    Raises ValueError for a negative radius_sq, and SearchRangeError for R^2
    and w outside the range the search is proven complete for.
    """
    window = window or Window()
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        raise ValueError(f"radius_sq must be nonnegative, got {radius_sq}")
    found = _members(radius_sq, window.w)
    origin, _, intr = next(found)
    rows = [(0, origin, intr, 0.0, 0.0)]
    for (c, _, intr), (neg, _, _) in zip(found, found):
        q, e = quad_form(*c), embed_approx(c)
        rows += (q, c, intr, e.real, e.imag), (q, neg, intr, 0.0 - e.real, 0.0 - e.imag)
    rows.sort()
    return Snapshot(window, radius_sq, [PointRecord(*row[1:]) for row in rows])


@lru_cache(maxsize=8)
def displacement_candidates(window: Window) -> list[tuple[Coords, GoldenInt]]:
    """All nonzero d, as coordinate tuples with |d|^2, that can separate two
    window members at squared distance <= L: the points of the set at
    R^2 = L with window 4w (both ends in the window force |sigma(d)|^2 <= 4w),
    minus 0, finite as model sets have finite local complexity.  Sorted by
    exact squared length, then coordinates, so a scan hits the nearest first.

    L = 1 for w >= 1, where every member has a neighbour at distance 1 (the
    step argument in verify_two_distance).  For w < 1, S_w = phi^k S_{w phi^2k}
    (eps = phi^-1), so once w (L_2k - 1) >= 1, and so w phi^2k > 1, the nearest
    squared distance is at most phi^2k < L_2k (Lucas); L is the least such
    L_2k, capped at 4w * _MAX_RATIO (proven range) and at least 1.  A point
    with no hit is compared with every point, so L affects only the time.
    The lists of the last eight windows are kept, so that the calls at one
    window build the list once.
    """
    w, lucas, step = window.w, 3, 7  # L_2k, L_2k+2; L_2k+4 = 3 L_2k+2 - L_2k
    while w * (lucas - 1) < 1:
        lucas, step = step, 3 * step - lucas
    length = Fraction(max(1, min(lucas, 4 * w * _MAX_RATIO)) if w < 1 else 1)
    out = [(coords, GoldenInt(*phys))
           for coords, phys, _ in _members(length, window.diam_sq)
           if coords != (0, 0, 0, 0)]

    def cmp(a, b):
        g, h = a[1], b[1]
        return golden_cmp(g.p - h.p, g.q - h.q, 0) or (-1 if a[0] < b[0] else 1)

    out.sort(key=cmp_to_key(cmp))
    return out


def _split(snapshot: Snapshot, ds: list):
    """(coords, phys, keys, good, bad, walk) for walks along ds, a list of
    (d, x) pairs: each point's coordinates, |z|^2 as a (p, q) pair and key
    k(c); good, mapping the key of each point in the disc and the window
    that appears once to its index; bad, the other indices; and walk, the
    (k(d), x) of ds.

    k(c) = ((c0*B + c1)*B + c2)*B + c3 is linear, so a lookup of c + d costs
    one addition.  B = 2(M + D) + 1, M the largest |coordinate| of a point
    in the disc and the window, D that of a d.  k is injective on
    [-(M + D), M + D]^4: if k(c) = k(c'), each |c_i - c'_i| < B, so
    reducing modulo B gives c3 = c'3, then c2 = c'2 after dividing by B,
    and so on.  Every good point, and a good point plus a d, lies in that
    box, so k(c) + k(d) is the key of the good point j only if c + d is j.
    A bad point outside the box can share a good point's key, so a walk
    starts only from a point i with good.get(keys[i]) == i.
    """
    member = _membership(snapshot.radius_sq, snapshot.window.w)
    coords = [p.coords for p in snapshot.points]
    moduli = [abs_sq_coords(*c) for c in coords]
    inside = [i for i, m in enumerate(moduli) if member[m]]
    m = max((abs(a) for i in inside for a in coords[i]), default=0)
    b = 2 * (m + max((abs(a) for d, _ in ds for a in d), default=0)) + 1
    keys = [((a0 * b + a1) * b + a2) * b + a3 for a0, a1, a2, a3 in coords]
    counts = Counter(keys[i] for i in inside)
    good = {keys[i]: i for i in inside if counts[keys[i]] == 1}
    bad = [i for i in range(len(coords)) if good.get(keys[i]) != i]
    walk = [(((d0 * b + d1) * b + d2) * b + d3, x) for (d0, d1, d2, d3), x in ds]
    return coords, [phys for phys, _ in moduli], keys, good, bad, walk


def classify_distance(d_sq: GoldenInt) -> str:
    if d_sq.sign() <= 0:
        raise ValueError(f"squared distance must be positive, got ({d_sq.p},{d_sq.q})")
    if d_sq == SHORT_DIST_SQ:
        return DIST_SHORT
    if d_sq == LONG_DIST_SQ:
        return DIST_LONG
    return DIST_OTHER


def _is_inner(p: int, q: int, rn: int, rd: int) -> bool:
    """Exact test |z| <= R - 1, i.e. the unit neighborhood of z fits in the
    disc, for |z|^2 = p + q*phi and R^2 = rn/rd (rd > 0), in ints.

    Squared twice to stay rational: |z| + 1 <= R iff h = R^2 - 1 - |z|^2 >= 0
    and 4|z|^2 <= h^2; both sides are scaled by rd (rd^2) to clear R^2's
    denominator.
    """
    hp = rn - rd - rd * p
    hq = -rd * q
    if sqrt5_sign(2 * hp + hq, hq) < 0:
        return False
    # (rd*h)^2 - 4 rd^2 |z|^2 in (p, q) form
    r4 = 4 * rd * rd
    sp = hp * hp + hq * hq - r4 * p
    sq = 2 * hp * hq + hq * hq - r4 * q
    return sqrt5_sign(2 * sp + sq, sq) >= 0


def _nearest(i: int, coords: list[Coords], keys: list[int], good: dict,
             bad: list[int], walk: list):
    """The exact squared distance from point i to the nearest other point,
    as a (p, q) pair, or None when there is no other point.

    walk is _split's keyed displacement_candidates: every difference d of two
    window members with |d|^2 <= L, sorted by length.  So from a good point
    the first hit along it is the nearest good point, and only the bad
    points remain to compare; a bad point, or a good one with no hit, is
    compared with every point.
    """
    k, best, others = keys[i], None, bad
    for kd, d in walk if good.get(k) == i else ():
        if k + kd in good:
            best = (d.p, d.q)
            break
    else:  # a bad point, or a good one with no hit
        others = (j for j in range(len(coords)) if j != i)
    a0, a1, a2, a3 = coords[i]
    for j in others:
        o = coords[j]
        p, q = abs_sq_coords(a0 - o[0], a1 - o[1], a2 - o[2], a3 - o[3])[0]
        if best is None or golden_cmp(p - best[0], q - best[1], 0) < 0:
            best = (p, q)
    return best


def analyze(snapshot: Snapshot) -> Snapshot:
    """Fill min_dist_sq and dist_class for every inner point.

    Inner means |z| <= R - 1 (exact); other points stay "unknown", as does
    an inner point that is the snapshot's only point.  min_dist_sq is the
    exact squared distance to the nearest other point of this snapshot
    (_nearest), whatever the snapshot holds.  A repeated inner point, at
    distance 0 from its copy, raises ValueError.  Each distinct |z|^2 and
    min_dist_sq is tested once; records share that frozen GoldenInt.
    """
    radius_sq = snapshot.radius_sq
    coords, phys, keys, good, bad, walk = _split(
        snapshot, displacement_candidates(snapshot.window))
    inner = _Memo(lambda p, q: _is_inner(p, q, radius_sq.numerator, radius_sq.denominator))
    def classified(p, q):
        g = GoldenInt(p, q)
        return g, classify_distance(g)
    nearest = _Memo(classified)
    nearest[None] = None, DIST_UNKNOWN  # not inner, or no other point
    new_points = []
    for i, rec in enumerate(snapshot.points):
        best = None
        if inner[phys[i]]:
            best = _nearest(i, coords, keys, good, bad, walk)
            if best == (0, 0):
                raise ValueError(f"point {coords[i]} appears more than once in the snapshot")
        new_points.append(PointRecord(rec.coords, rec.iabs, rec.x, rec.y, *nearest[best]))
    return Snapshot(snapshot.window, radius_sq, new_points)


def stats(snapshot: Snapshot) -> dict:
    """Summary counts, empirical density, and short:long ratio."""
    counts = {DIST_SHORT: 0, DIST_LONG: 0, DIST_OTHER: 0, DIST_UNKNOWN: 0}
    for p in snapshot.points:
        counts[p.dist_class] += 1
    n = len(snapshot.points)
    try:
        r_sq = float(snapshot.radius_sq)
        density = n / (math.pi * r_sq) if r_sq > 0 else None
    except OverflowError:  # R^2 beyond float range: exact, then rounded once
        density = float(n / (Fraction(math.pi) * snapshot.radius_sq))
    ratio = counts[DIST_SHORT] / counts[DIST_LONG] if counts[DIST_LONG] else None
    return {
        "count": n,
        "classes": dict(counts),
        "density": density,
        "short_long_ratio": ratio,
    }
