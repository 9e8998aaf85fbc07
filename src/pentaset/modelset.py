"""Enumeration and nearest-neighbor analysis of the cut-and-project set.

The point set is S = {z in Z[zeta_5] : |sigma(z)|^2 <= w} intersected with a
physical disc |z|^2 <= R^2; both constraints are tested exactly.  As
z = alpha + beta*zeta, alpha, beta in Z[phi], S is a stack of 1-dimensional
model sets; the search visits its rows for one of each pair +-z (below).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import chain, islice

from .cyclotomic import CycInt, _Frozen, _Value, abs_sq_coords, embed_approx, golden_cmp, sqrt5_sign

Coords = tuple[int, int, int, int]

#: the nearest-neighbour classes; a point nearer the rim than 1 is "unknown"
DIST_SHORT, DIST_LONG, DIST_OTHER, DIST_UNKNOWN = DIST_CLASSES = (
    "short", "long", "other", "unknown")
#: the class of each of the two nearest squared distances, as (p, q) pairs:
#: short (phi - 1)^2 = 2 - phi and long 1; any other is DIST_OTHER
DIST_CLASS_OF = {(2, -1): DIST_SHORT, (1, 0): DIST_LONG}


class Window(_Frozen, _Value):
    """Closed disc |u|^2 <= w in the internal embedding; w a positive rational."""

    __slots__ = ("w",)

    def __init__(self, w: Fraction = Fraction(1)):
        w = Fraction(w)
        if w <= 0:
            raise ValueError(f"window squared radius must be positive, got {w}")
        object.__setattr__(self, "w", w)

    @property
    def diam_sq(self) -> Fraction:
        return 4 * self.w


class PointRecord(_Value):
    """One point z: its coordinates, |sigma(z)|^2 as a (p, q) pair, its
    place (x, y) in the plane, and the nearest-neighbour result of analyze:
    the squared distance as a (p, q) pair, or None, and its class."""

    __slots__ = ("coords", "iabs", "x", "y", "min_dist_sq", "dist_class")

    def __init__(self, coords: Coords, iabs: tuple[int, int], x: float, y: float,
                 min_dist_sq: tuple[int, int] | None = None, dist_class: str = DIST_UNKNOWN):
        self.coords = coords
        self.iabs = iabs
        self.x = x
        self.y = y
        self.min_dist_sq = min_dist_sq
        self.dist_class = dist_class

    @property
    def z(self) -> CycInt:
        """The point as a CycInt; only perfbench reads it."""
        return CycInt(*self.coords)


class Snapshot(_Value):
    __slots__ = ("window", "radius_sq", "points", "_split_memo")

    def __init__(self, window: Window, radius_sq: Fraction,
                 points: list[PointRecord] | None = None):
        self.window, self.radius_sq = window, radius_sq
        self.points = [] if points is None else points
        #: (radius_sq, w, split) of the last split (_split), kept for reuse
        self._split_memo = None

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


# Rows.  z = alpha + beta*zeta, alpha = m1 + n1*phi, beta = m2 + n2*phi in
# Z[phi], has coordinates (m1 + n2, m2 + n2, n2 - n1, -n1), a unimodular
# change of basis.  With c = cos 72 deg = (phi - 1)/2 and s^2 = (2 + phi)/4,
# |z|^2 = (alpha + beta c)^2 + beta^2 s^2, and |sigma z|^2 is its conjugate
# (phi -> psi = 1 - phi; alpha', beta', c' = -phi/2, s'^2 = (2 + psi)/4).  So
# for fixed beta and n1 the disc holds the m1 in -n1 phi - beta c +- sqrt(h),
# h = R^2 - beta^2 s^2, the window those in -n1 psi - beta' c' +- sqrt(h'),
# h' = w - beta'^2 s'^2, and the members are the integers of both, [lo, hi].
# |beta| <= R/s and |beta'| <= sqrt(w)/s' bound n2 = (beta - beta')/sqrt(5),
# then m2; n1 = (alpha - alpha')/sqrt(5) lies between differences of the ends
# of alpha's intervals.  Of each pair +-z the search visits the one with
# (n2, m2) > (0, 0), or beta = 0 and (n1, m1) > (0, 0), lexicographically.
#
# Every m1 of [ceil(lo - D), floor(hi + D)] is decided by the exact
# _membership memo, so no float accepts a point.  Completeness: each range is
# widened by D = 2^-20 (T + 1), T = R + sqrt(w), over four times the error of
# any float end.  Proof, u = 2^-53: each float operation and stored constant,
# R^2 and w included, errs by a factor within 1 +- u, so a value with k <= 12
# roundings errs by at most 1.01 k u |e|, |e| its expression with every term
# made nonnegative.  D <= 2 for R^2, w <= 10^12, so the visited beta have
# |beta| <= R/s + 2 and |beta'| <= sqrt(w)/s' + 2; as n2 = (beta - beta')/
# sqrt(5) and m2 = (phi beta' - psi beta)/sqrt(5), |e| <= |beta| + 1.45|beta'|
# for beta and 0.56|beta| + |beta'| for beta'.  So h errs by at most
# 12.2u (2.4T + 5)^2 and, as |sqrt(a) - sqrt(b)| <= sqrt|a - b| for a, b >= 0,
# sqrt(max(h, 0)) by at most 3.7e-8 (2.4T + 5) where h >= 0 (a row with h < 0
# holds no member); sqrt(max(h', 0)) by at most 3.7e-8 (2T + 5).  This term
# grows with T: at a near-tangent row h ~ 0, and sqrt(h) errs by ~sqrt(u) T.
# The rest of an end has |e| < 20(T + 5) and errs by < 1e-13 (T + 5).  So an
# m1 end errs by < 9e-8 T + 2e-7 < D/4, an n1 end (two such, over sqrt(5)) by
# less, the n2 and m2 bounds by far less.  Outside R^2, w <= 10^12 and R^2/w,
# w/R^2 <= 10^6 the search raises SearchRangeError.
_MAX_RATIO, _MAX_SQ = 10 ** 6, 10 ** 12
_SQRT5 = math.sqrt(5)
_PHI, _PSI = (1 + _SQRT5) / 2, (1 - _SQRT5) / 2
_C, _S2, _C_I, _S2_I = (_PHI - 1) / 2, (2 + _PHI) / 4, -_PHI / 2, (2 + _PSI) / 4


class SearchRangeError(ValueError):
    """R^2 and w outside the range the enumeration is proven complete for."""


def brief_rational(r: Fraction) -> str:
    """str(r), with each part past 40 digits as its first 12 and a count."""
    return "/".join(t if len(t) <= 40 else f"{t[:12]}...({len(t)} digits)"
                    for t in str(r).split("/"))


def _margin(r2: float, wf: float) -> float:
    """D, by which every float range of the search is widened (above)."""
    return 2.0 ** -20 * (math.sqrt(r2) + math.sqrt(wf) + 1)


def _rows(n2: int, m2: int, r2: float, wf: float, d: float):
    """(n1, first, last) for each row of beta = m2 + n2*phi in the search:
    every member m1 + n1*phi + beta*zeta has first <= m1 <= last."""
    b, bi = m2 + n2 * _PHI, m2 + n2 * _PSI
    hp = math.sqrt(max(r2 - _S2 * b * b, 0.0))
    hw = math.sqrt(max(wf - _S2_I * bi * bi, 0.0))
    cp, ci = -b * _C, -bi * _C_I
    p0, p1, i0, i1 = cp - hp, cp + hp, ci - hw, ci + hw
    start = math.ceil((p0 - i1) / _SQRT5 - d)
    origin_row = not (n2 or m2)  # beta = 0: only (n1, m1) > (0, 0)
    for n1 in range(max(start, 0) if origin_row else start,
                    math.floor((p1 - i0) / _SQRT5 + d) + 1):
        fp, fi = n1 * _PHI, n1 * _PSI
        first = math.ceil(max(p0 - fp, i0 - fi) - d)
        yield n1, max(first, 1) if origin_row and not n1 else first, \
            math.floor(min(p1 - fp, i1 - fi) + d)


def _members(radius_sq: Fraction, w: Fraction):
    """(coords, |z|^2, |sigma z|^2) of every z with |z|^2 <= radius_sq and
    |sigma(z)|^2 <= w, decided exactly, moduli as (p, q) pairs: the origin,
    then pairs z, -z in the row search's order (above), z the one it visits."""
    inside = _membership(radius_sq, w)
    yield (0, 0, 0, 0), (0, 0), (0, 0)
    if radius_sq * w < 1:  # z != 0 has |z|^2 |sigma z|^2 = N(z) >= 1
        return
    if not (radius_sq <= _MAX_RATIO * w and w <= _MAX_RATIO * radius_sq
            and radius_sq <= _MAX_SQ and w <= _MAX_SQ):
        raise SearchRangeError(
            f"R^2 = {brief_rational(radius_sq)}, w = {brief_rational(w)} is outside the "
            f"range the enumeration is proven complete for (R^2/w and w/R^2 <= {_MAX_RATIO}, "
            f"R^2 and w <= {_MAX_SQ})")
    r2, wf = float(radius_sq), float(w)
    d = _margin(r2, wf)
    bp, bw = math.sqrt(r2 / _S2), math.sqrt(wf / _S2_I)
    for n2 in range(math.floor((bp + bw) / _SQRT5 + d) + 1):
        cp, ci = -n2 * _PHI, -n2 * _PSI
        for m2 in range(math.ceil(max(cp - bp, ci - bw) - d) if n2 else 0,
                        math.floor(min(cp + bp, ci + bw) + d) + 1):
            a1 = m2 + n2
            for n1, first, last in _rows(n2, m2, r2, wf, d):
                a2 = n2 - n1
                for a0 in range(first + n2, last + n2 + 1):
                    phys, intr = moduli = abs_sq_coords(a0, a1, a2, -n1)
                    if inside[moduli]:
                        yield (a0, a1, a2, -n1), phys, intr
                        yield (-a0, -a1, -a2, n1), phys, intr


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
    origin, phys, intr = next(found)
    half = list(islice(found, 0, None, 2))  # of each pair z, -z the z visited
    # the split (_split) by the search's exact decisions: each point is in the
    # disc and the window once, so all are good; and as S = -S, M = max |c_i|
    b = 6 * max(map(abs, chain.from_iterable(c for c, _, _ in half)), default=0) + 1
    b4 = b ** 4
    points, moduli, keys, order = [PointRecord(origin, intr, 0.0, 0.0)], [phys], [0], [0]
    for c, phys, intr in half:  # -z at 0.0 - e is embed_approx(-z), never -0.0
        a0, a1, a2, a3 = c
        k, q, e = ((a0 * b + a1) * b + a2) * b + a3, (phys[0] + intr[0]) * b4, embed_approx(c)
        points += (PointRecord(c, intr, e.real, e.imag),
                   PointRecord((-a0, -a1, -a2, -a3), intr, 0.0 - e.real, 0.0 - e.imag))
        moduli += phys, phys
        keys += k, -k  # k is linear
        order += q + k, q - k  # Q(a) B^4 + k(c); the phi parts of Q(a) cancel
    # This sorts as (Q(a), coords): B > 2M + 1 makes k on [-M, M]^4 a balanced base-B
    # numeral, ordered lexicographically, and two differ by <= 2M (B^4 - 1)/(B - 1) < B^4.
    order = sorted(range(len(points)), key=order.__getitem__)
    points, moduli, keys = (list(map(v.__getitem__, order)) for v in (points, moduli, keys))
    snapshot = Snapshot(window, radius_sq, points)
    snapshot._split_memo = radius_sq, window.w, (
        [p.coords for p in points], moduli, keys, dict(zip(keys, range(len(keys)))), [], b)
    return snapshot


@lru_cache(maxsize=8)
def displacement_candidates(window: Window) -> list[tuple[Coords, tuple[int, int]]]:
    """All nonzero d, as coordinate tuples with |d|^2 as a (p, q) pair, that
    can separate two window members at squared distance <= L: the points of
    the set at R^2 = L with window 4w (both ends in the window force
    |sigma(d)|^2 <= 4w), minus 0, finite as model sets have finite local
    complexity.  Sorted by exact squared length, then coordinates, so a
    scan hits the nearest first.

    L = 1 for w >= 1, where every member has a neighbour at distance 1 (the
    step argument in verify_two_distance).  For w < 1, S_w = phi^k S_{w phi^2k}
    (eps = phi^-1), so once w (L_2k - 1) >= 1, and so w phi^2k > 1, the nearest
    squared distance is at most phi^2k < L_2k (Lucas); L is the least such
    L_2k, capped at 4w * _MAX_RATIO (proven range) and at least 1.  A point
    with no hit is compared with every point, so L affects only the time.
    Its search leaves the proven range exactly when w > _MAX_RATIO / 4 (L = 1).
    The lists of the last eight windows are kept, so that the calls at one
    window build the list once.
    """
    w, lucas, step = window.w, 3, 7  # L_2k, L_2k+2; L_2k+4 = 3 L_2k+2 - L_2k
    while w * (lucas - 1) < 1:
        lucas, step = step, 3 * step - lucas
    length = Fraction(max(1, min(lucas, 4 * w * _MAX_RATIO)) if w < 1 else 1)
    try:
        out = [(coords, phys) for coords, phys, _ in _members(length, window.diam_sq)
               if coords != (0, 0, 0, 0)]
    except SearchRangeError as e:  # name the caller's w, not this search's (L, 4w)
        raise SearchRangeError(
            f"w = {brief_rational(w)} is outside the range its displacement list "
            f"is proven complete for (w <= {_MAX_RATIO // 4})") from e

    def cmp(a, b):
        (p, q), (r, s) = a[1], b[1]
        return golden_cmp(p - r, q - s, 0) or (-1 if a[0] < b[0] else 1)

    out.sort(key=cmp_to_key(cmp))
    return out


def _split(snapshot: Snapshot):
    """(coords, phys, keys, good, bad, b) of a snapshot: each point's
    coordinates, |z|^2 as a (p, q) pair and key k(c); good, mapping the key
    of each point in the disc and the window that appears once to its index;
    bad, the other indices; and the key base b, for which _walk keys a
    displacement list.

    k(c) = ((c0*B + c1)*B + c2)*B + c3 is linear, so a lookup of c + d costs
    one addition.  B = 6M + 1, M the largest |coordinate| of a point in the
    disc and the window.  k is injective on [-3M, 3M]^4: if k(c) = k(c'),
    each |c_i - c'_i| <= 6M < B, so reducing modulo B gives c3 = c'3, then
    c2 = c'2 after dividing by B, and so on.  Two good points c and c + d lie
    in [-M, M]^4, so only a d in [-2M, 2M]^4 can join them, and _walk keeps
    only those; c + d then lies in [-3M, 3M]^4, so k(c) + k(d) is the key of
    the good point j only if c + d is j.  A bad point outside the box can
    share a good point's key, so a walk starts only from a point i with
    good.get(keys[i]) == i.  B depends on the points alone, so one split
    serves every walk over the snapshot.  The split is a function of the
    coordinates, R^2 and w alone, so the split kept in snapshot._split_memo
    is returned while all three equal those it was made from.
    """
    radius_sq, w = snapshot.radius_sq, snapshot.window.w
    coords = [p.coords for p in snapshot.points]
    if (memo := snapshot._split_memo) and memo[:2] == (radius_sq, w) and memo[2][0] == coords:
        return memo[2]
    member = _membership(radius_sq, w)
    moduli = [abs_sq_coords(*c) for c in coords]
    inside = [i for i, m in enumerate(moduli) if member[m]]
    b = 6 * max(map(abs, chain.from_iterable([coords[i] for i in inside])), default=0) + 1
    keys = [((a0 * b + a1) * b + a2) * b + a3 for a0, a1, a2, a3 in coords]
    counts = Counter(keys[i] for i in inside)
    good = {keys[i]: i for i in inside if counts[keys[i]] == 1}
    bad = [i for i in range(len(coords)) if good.get(keys[i]) != i]
    snapshot._split_memo = radius_sq, w, (coords, [p for p, _ in moduli], keys, good, bad, b)
    return snapshot._split_memo[2]


def _walk(ds: list, b: int) -> list:
    """(k(d), x) for each (d, x) of ds that can join two good points of a
    split with key base b = 6M + 1 (_split): the d with every |d_i| <= 2M."""
    reach = (b - 1) // 3
    return [(((d0 * b + d1) * b + d2) * b + d3, x) for (d0, d1, d2, d3), x in ds
            if max(abs(d0), abs(d1), abs(d2), abs(d3)) <= reach]


def classify_distance(d_sq: tuple[int, int]) -> str:
    """The class of the squared distance p + q*phi, given as (p, q)."""
    p, q = d_sq
    if golden_cmp(p, q, 0) <= 0:
        raise ValueError(f"squared distance must be positive, got ({p},{q})")
    return DIST_CLASS_OF.get(d_sq, DIST_OTHER)


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

    walk is displacement_candidates keyed by _walk: every difference d of
    two window members with |d|^2 <= L that can join two good points,
    sorted by length.  So from a good point the first hit along it is the
    nearest good point, and only the bad points remain to compare; a bad
    point, or a good one with no hit, is compared with every point.
    """
    k, best, others = keys[i], None, bad
    for kd, d_sq in walk if good.get(k) == i else ():
        if k + kd in good:
            best = d_sq
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
    """Fill min_dist_sq and dist_class of each record in place; return the snapshot.

    Inner means |z| <= R - 1 (exact); other points get "unknown", as does an
    inner point that is the snapshot's only point.  min_dist_sq is the exact
    squared distance to the nearest other point of this snapshot (_nearest),
    whatever the snapshot holds.  A repeated inner point, at distance 0 from
    its copy, raises ValueError before any record is written.  Each distinct
    |z|^2 and min_dist_sq is tested once.  min_dist_sq is the (p, q) pair
    _nearest returns, so the records share the displacement list's pairs.
    """
    radius_sq = snapshot.radius_sq
    coords, phys, keys, good, bad, b = _split(snapshot)
    walk = _walk(displacement_candidates(snapshot.window), b)
    inner = _Memo(lambda p, q: _is_inner(p, q, radius_sq.numerator, radius_sq.denominator))
    classes = _Memo(lambda p, q: classify_distance((p, q)))
    classes[None] = DIST_UNKNOWN  # not inner, or no other point
    # a repeated point is bad, as its key occurs twice: so the bad points first
    found = {i: _nearest(i, coords, keys, good, bad, walk) for i in bad if inner[phys[i]]}
    for i, best in found.items():
        if best == (0, 0):
            raise ValueError(f"point {coords[i]} appears more than once in the snapshot")
    for i, rec in enumerate(snapshot.points):
        best = found[i] if i in found else \
            _nearest(i, coords, keys, good, bad, walk) if inner[phys[i]] else None
        rec.min_dist_sq, rec.dist_class = best, classes[best]
    return snapshot


def stats(snapshot: Snapshot) -> dict:
    """Summary counts, empirical density, and short:long ratio."""
    counts = dict.fromkeys(DIST_CLASSES, 0)
    for p in snapshot.points:
        counts[p.dist_class] += 1
    n = len(snapshot.points)
    density = None  # R^2 = 0
    if snapshot.radius_sq > 0:
        try:
            density = n / (math.pi * float(snapshot.radius_sq))
        except OverflowError:  # R^2 beyond float range: exact, then rounded once
            density = float(n / (Fraction(math.pi) * snapshot.radius_sq))
        except ZeroDivisionError:  # R^2 rounds to 0.0, so n/(pi R^2) > 1e323
            density = math.inf
    ratio = counts[DIST_SHORT] / counts[DIST_LONG] if counts[DIST_LONG] else None
    return {
        "count": n,
        "classes": dict(counts),
        "density": None if density == math.inf else density,  # JSON has no inf
        "short_long_ratio": ratio,
    }
