"""Enumeration and nearest-neighbor analysis of the cut-and-project set.

The point set is S = {z in Z[zeta_5] : |sigma(z)|^2 <= w} intersected with a
physical disc |z|^2 <= R^2; both constraints are tested exactly.  As
z = alpha + beta*zeta, alpha, beta in Z[phi], S is a stack of 1-dimensional
model sets; the search visits its rows for one z of each orbit of ten (below).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat

from .cyclotomic import (CycInt, _Frozen, _golden_key, _Value, abs_sq_coords, embed_approx,
                         golden_cmp, sqrt5_sign)

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
    __slots__ = ("window", "radius_sq", "points", "_split_memo", "_turn_memo", "_rep_memo")

    def __init__(self, window: Window, radius_sq: Fraction,
                 points: list[PointRecord] | None = None):
        self.window, self.radius_sq = window, radius_sq
        self.points = [] if points is None else points
        #: (radius_sq, w, split) of the last split (_split), kept for reuse
        self._split_memo = None
        #: (split, turn) of the last split turned (_turned), kept for reuse
        self._turn_memo = None
        #: (split, rep) of the last split's orbit representatives (_orbits)
        self._rep_memo = None


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
# (phi -> psi = 1 - phi).  The ten units +-zeta^k keep |z| and |sigma z|, so
# the set is 0 and whole orbits of ten, and the search visits one point of
# each orbit.  It is complete, in four steps:
# (1) The units turn z by the multiples of 36 deg, so the half-open sector
#     0 <= arg z < 36 deg holds exactly one point of each orbit of z != 0.
# (2) Im z = beta s, and -zeta^2 turns by -36 deg with Im(-zeta^2 z) =
#     -sin 36 deg (alpha - beta); so the sector is beta >= 0 and alpha > beta.
# (3) There alpha + beta c > beta (1 + c) = beta phi^2/2 >= 0, so |z|^2 >=
#     beta^2 ((1 + c)^2 + s^2) = beta^2 phi^2, and beta <= R/phi.  And
#     n2 = (beta - beta')/sqrt(5) with |beta'| <= sqrt(w)/s' bounds n2, then m2
#     by m2 >= -floor(n2 phi) (beta >= 0), R^2/phi^2 = R^2 (3 - sqrt(5))/2 and
#     w/s'^2 = w (10 + 2 sqrt(5))/5.
# (4) For fixed beta and n1 the sector and the disc hold the m1 with
#     alpha + beta c in (beta phi^2/2, sqrt(h)], h = R^2 - beta^2 s^2, and the
#     window those within sqrt(h'), h' = w - beta'^2 s'^2, of its centre.  With
#     t = m2 + 2 n1 and S = 2^_P the centres -beta c - n1 phi and
#     -beta' c' - n1 psi times 4S are (2m2 - 2n2 - t)S -+ t sqrt(5) S, t sqrt(5)/2
#     apart, so a row with a member has (beta phi^2 - 2 sqrt(h'))/sqrt(5) <= t
#     <= 2(sqrt(h) + sqrt(h'))/sqrt(5); along n1 they move by -phi and -psi.
#     With beta^2 = u + v phi, 8 beta^2 s^2 = 5(u + v) + (u + 3v) sqrt(5),
#     conjugated for beta', and 2 beta phi^2 = (3m2 + 4n2) + (m2 + 2n2) sqrt(5).
#     In a row alpha > beta is m1 > m2 + (n2 - n1) phi, exactly m1 >= m2 +
#     floor((n2 - n1) phi) + 1; every other end is an integer bound in units
#     of 1/S rounded outward, and the exact _membership memo decides every
#     candidate.
# _members yields each point found with its images (-zeta^4)^j z, j = 1..4,
# turned by 108, 216, 324 and 72 deg: with z, one point of each pair +-z.
_MAX_RATIO, _MAX_PRODUCT = 10 ** 6, 250000
_P = 24


class SearchRangeError(ValueError):
    """R^2 and w outside the range the enumeration accepts."""


def brief_rational(r: Fraction) -> str:
    """str(r), with each part past 40 digits as its first 12 and a count."""
    return "/".join(t if len(t) <= 40 else f"{t[:12]}...({len(t)} digits)"
                    for t in str(r).split("/"))


def _floor_sqrt5(b: int) -> int:
    """floor(b*sqrt(5)), exactly: for b != 0, |b|*sqrt(5) lies strictly
    between r = isqrt(5 b^2) and r + 1."""
    r = math.isqrt(5 * b * b)
    return r if b >= 0 else -r - 1


_PHI_S = ((1 << _P) + _floor_sqrt5(1 << _P)) // 2  # floor(phi S), S = 2^_P


def _rows(n2: int, m2: int, rq: int, wq: int):
    """(n1, first, last) for each row of beta = m2 + n2*phi >= 0 in the search
    at S^2 R^2 < rq and S^2 w < wq: every member m1 + n1*phi + beta*zeta in
    the sector (above) has first <= m1 <= last."""
    u, v = m2 * m2 + n2 * n2, (2 * m2 + n2) * n2  # beta^2 = u + v phi
    e, r = 5 * (u + v) << 2 * _P - 3, _floor_sqrt5((u + 3 * v) << 2 * _P - 3)
    h, h_i = rq - e - r, wq + 1 - e + r  # above S^2 h and S^2 h'
    if h <= 0 or h_i <= 0:  # h < 0 or h' < 0: no member
        return
    rh, rw = math.isqrt(h) + 1, math.isqrt(h_i) + 1  # above S sqrt(h), S sqrt(h')
    b2 = ((3 * m2 + 4 * n2 << _P) + _floor_sqrt5(m2 + 2 * n2 << _P)) >> 1  # <= beta phi^2 S
    # t from ceil((beta phi^2 - 2 sqrt(h'))/sqrt(5)) to floor(2(sqrt(h) + sqrt(h'))/sqrt(5)),
    # each rounded outward
    start = -((m2 + _floor_sqrt5(2 * rw - b2) // (5 << _P)) // 2)
    t = m2 + 2 * start
    a, c = (2 * m2 - 2 * n2 - t) << _P - 2, _floor_sqrt5(t << _P - 2)
    # ends times S, the window's lower one negated; a row moves the centres by
    # -phi S, phi S - S
    hi, nlo_i, hi_i = a - c + rh, rw - a - c, a + c + 1 + rw
    p, f, g, g1 = _P, _PHI_S, _PHI_S - (1 << _P), _PHI_S + 1 - (1 << _P)
    for n1 in range(start, (_floor_sqrt5(2 * (rh + rw)) // (5 << _P) - m2) // 2 + 1):
        j = n2 - n1  # the sector's alpha > beta: m1 > m2 + j phi
        yield n1, max(-(nlo_i >> p), m2 + (j + _floor_sqrt5(j) >> 1) + 1), min(hi, hi_i) >> p
        hi -= f
        nlo_i -= g
        hi_i += g1


def _members(radius_sq: Fraction, w: Fraction):
    """(coords, |z|^2, |sigma z|^2) of every z with |z|^2 <= radius_sq and
    |sigma(z)|^2 <= w, decided exactly, moduli as (p, q) pairs: the origin,
    then of each orbit of ten the point in the sector 0 <= arg z < 36 deg,
    tested once, followed by its four images (-zeta^4)^j z (above); these are
    one z of each pair +-z, and -z, with the same moduli, is the caller's to
    add."""
    inside = _membership(radius_sq, w)
    yield (0, 0, 0, 0), (0, 0), (0, 0)
    if radius_sq * w < 1:  # z != 0 has |z|^2 |sigma z|^2 = N(z) >= 1
        return
    if not (radius_sq <= _MAX_RATIO * w and w <= _MAX_RATIO * radius_sq
            and radius_sq * w <= _MAX_PRODUCT):
        raise SearchRangeError(
            f"R^2 = {brief_rational(radius_sq)}, w = {brief_rational(w)} is outside the "
            f"range the enumeration accepts (R^2/w and w/R^2 <= {_MAX_RATIO}, "
            f"R^2 w <= {_MAX_PRODUCT})")
    rq, wq = ((b.numerator << 2 * _P) // b.denominator + 1 for b in (radius_sq, w))
    bp = math.isqrt((3 * rq + _floor_sqrt5(-rq)) // 2) + 1  # above S R/phi
    bw = math.isqrt((10 * wq + _floor_sqrt5(2 * wq)) // 5) + 1  # above S sqrt(w)/s'
    for n2 in range(-(_floor_sqrt5(bw) // (5 << _P)), _floor_sqrt5(bp + bw) // (5 << _P) + 1):
        # -n2 phi S lies in [-c - 1, -c], and -n2 psi S = n2 phi S - n2 S in [c_i, c_i + 1]
        c = ((n2 << _P) + _floor_sqrt5(n2 << _P)) // 2
        c_i = c - (n2 << _P)
        for m2 in range(max(-(c >> _P), -(bw - c_i >> _P)), (min(bp - c, c_i + 1 + bw) >> _P) + 1):
            a1 = m2 + n2
            for n1, first, last in _rows(n2, m2, rq, wq):
                a2 = n2 - n1
                for a0 in range(first + n2, last + n2 + 1):
                    z = a0, a1, a2, -n1
                    phys, intr = moduli = abs_sq_coords(*z)
                    if inside[moduli]:
                        yield z, phys, intr
                        for _ in range(4):  # z -> -zeta^4 z
                            c0, c1, c2, c3 = z
                            z = c0 - c1, c0 - c2, c0 - c3, c0
                            yield z, phys, intr


def enumerate_points(radius_sq: Fraction | int, window: Window | None = None) -> Snapshot:
    """All z with |z|^2 <= radius_sq and |sigma(z)|^2 <= w, exactly, in
    canonical order (Q(a) = |z|^2 + |sigma(z)|^2, then coordinates).

    Raises ValueError for a negative radius_sq, and SearchRangeError for R^2
    and w outside the range the search accepts.
    """
    window = window or Window()
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        raise ValueError(f"radius_sq must be nonnegative, got {radius_sq}")
    # the origin, then of each pair +-z the z the search yielded, in blocks of
    # five that each start with an orbit's sector point
    (origin, phys, intr), *half = _members(radius_sq, window.w)
    # the split (_split) by the search's exact decisions: each point is in the
    # disc and the window once, so all are good.  Its key base is B = 6M + 1,
    # M the largest |coordinate| of any point: with c~ = (c0, c1, c2, c3, 0)
    # and indices mod 5, zeta^k c has the coordinates c~_(j-k) - c~_(4-k),
    # j = 0..3, and -1 reverses each difference, so over the orbit of c it is
    # max c~ - min c~, read off the sector points
    b = 6 * max((max(0, *c) - min(0, *c) for c, _, _ in half[::5]), default=0) + 1
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
    # each point's representative (_orbits) is its orbit's sector point: here,
    # before the sort, the points 1 + 10t to 10 + 10t are an orbit, the first
    # its sector point
    sector = [0, *chain.from_iterable(repeat(k, 10) for k in keys[1::10])]
    # This sorts as (Q(a), coords): B > 2M + 1 makes k on [-M, M]^4 a balanced base-B
    # numeral, ordered lexicographically, and two differ by <= 2M (B^4 - 1)/(B - 1) < B^4.
    order = sorted(range(len(points)), key=order.__getitem__)
    points, moduli, keys, sector = (list(map(v.__getitem__, order))
                                    for v in (points, moduli, keys, sector))
    snapshot = _keep_split(Snapshot(window, radius_sq, points), moduli, keys, b)
    split = snapshot._split_memo[2]
    snapshot._rep_memo = split, list(map(split[3].__getitem__, sector))  # good: key -> index
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
    L_2k, capped at 4w * _MAX_RATIO (accepted range) and at least 1.  A point
    with no hit is compared with every point, so L affects only the time.
    Its search leaves the accepted range exactly when w > _MAX_PRODUCT / 4 (L = 1):
    for w < 1, 4w L < 12 (w + 1), as L < 3 L_2k-2 < 3 (1 + 1/w).
    The lists of the last eight windows are kept, so that the calls at one
    window build the list once.
    """
    w, lucas, step = window.w, 3, 7  # L_2k, L_2k+2; L_2k+4 = 3 L_2k+2 - L_2k
    while w * (lucas - 1) < 1:
        lucas, step = step, 3 * step - lucas
    length = Fraction(max(1, min(lucas, 4 * w * _MAX_RATIO)) if w < 1 else 1)
    try:  # each z the search yields, and -z
        out = [(c, phys) for z, phys, _ in _members(length, window.diam_sq) if any(z)
               for c in (z, tuple(-a for a in z))]
    except SearchRangeError as e:  # name the caller's w, not this search's (L, 4w)
        raise SearchRangeError(
            f"w = {brief_rational(w)} is outside the range the search for its "
            f"displacement list accepts (w <= {_MAX_PRODUCT // 4})") from e

    out.sort(key=lambda e: (_golden_key(e[1]), e[0]))
    return out


def _key_base(box) -> int:
    """The key base B = 6M + 1 of _split, M the largest |coordinate| of the
    coordinate tuples in box."""
    return 6 * max(map(abs, chain.from_iterable(box)), default=0) + 1


def _keys(coords: list, b: int) -> list[int]:
    """The key k(c) = ((c0*B + c1)*B + c2)*B + c3 of each of coords (_split)."""
    return [((a0 * b + a1) * b + a2) * b + a3 for a0, a1, a2, a3 in coords]


def _keep_split(snapshot: Snapshot, phys: list, keys: list[int], b: int) -> Snapshot:
    """Keep with the snapshot, and return it, the split (_split) of points
    each decided exactly to lie in the disc and the window, once: the
    enumerator's and the reader's.  Every point is good and bad is empty;
    phys holds |z|^2 and keys k(c) to base b, both in point order."""
    snapshot._split_memo = snapshot.radius_sq, snapshot.window.w, (
        [p.coords for p in snapshot.points], phys, keys, dict(zip(keys, range(len(keys)))), [], b)
    return snapshot


# The key as a ring homomorphism.  Put N = Phi_5(B) = B^4 + B^3 + B^2 + B + 1.
# B^5 - 1 = (B - 1) N, so B^-1 = B^4 mod N, and Phi_5(B^-1) = B^-4 N = 0 mod
# N: zeta -> B^-1 extends to a ring map Z[zeta] = Z[X]/Phi_5 -> Z/N, and
# k(c) = B^3 c(B^-1) mod N.  So k(zeta^j c) = B^-j k(c) mod N; for j = 4,
# k(zeta^4 c) = B k(c) - c0 N, the numeral shifted one place with its
# leading digit wrapped round.  For c in [-M, M]^4 every zeta^j c lies in
# [-2M, 2M]^4 (zeta c = (-c3, c0 - c3, c1 - c3, c2 - c3), zeta^4 c =
# (c1 - c0, c2 - c0, c3 - c0, -c0)), and a key of that box has
# |k| <= 2M (B^4 - 1)/(B - 1) = (B^4 - 1)/3 < N/2.  So k(+-zeta^j c) is the
# balanced residue of +-B^-j k(c) mod N, in (-N/2, N/2), and by the
# injectivity below it is a point's key only if +-zeta^j c is that point
# (_turn, and verify_rotation's walk).
def _split(snapshot: Snapshot):
    """(coords, phys, keys, good, bad, b) of a snapshot: each point's
    coordinates, |z|^2 as a (p, q) pair and key k(c); good, mapping the key
    of each point in the disc and the window that appears once to its index;
    bad, the other indices; and the key base b, for which _walk keys a
    displacement list.

    k(c) = ((c0*B + c1)*B + c2)*B + c3 is linear, so a lookup of c + d costs
    one addition.  B = 6M + 1, M the largest |coordinate| of any point.  k
    is injective on [-3M, 3M]^4: if k(c) = k(c'), each |c_i - c'_i| <= 6M < B,
    so reducing modulo B gives c3 = c'3, then c2 = c'2 after dividing by B,
    and so on.  That box holds every point, every c + d of a walk (_walk
    keeps the d in [-2M, 2M]^4) and every +-zeta^j c, so a key names one
    point, and bad is exactly the points outside the disc or the window and
    the repeated ones.  The displacement lists hold only differences of two
    window members, so separation, analyze and the unit lemma compare a bad
    point with every point, and step existence tests its ten roots exactly.
    The split is a function of the coordinates, R^2 and w alone, so the
    split kept in snapshot._split_memo (by _keep_split, or by an earlier
    call) is returned while all three equal those it was made from.
    """
    radius_sq, w = snapshot.radius_sq, snapshot.window.w
    coords = [p.coords for p in snapshot.points]
    if (memo := snapshot._split_memo) and memo[:2] == (radius_sq, w) and memo[2][0] == coords:
        return memo[2]
    member = _membership(radius_sq, w)
    moduli = [abs_sq_coords(*c) for c in coords]
    inside = [i for i, m in enumerate(moduli) if member[m]]
    b = _key_base(coords)
    keys = _keys(coords, b)
    counts = Counter(keys)
    good = {keys[i]: i for i in inside if counts[keys[i]] == 1}
    bad = [i for i in range(len(coords)) if keys[i] not in good]
    snapshot._split_memo = radius_sq, w, (coords, [p for p, _ in moduli], keys, good, bad, b)
    return snapshot._split_memo[2]


def _turn(split) -> list[int] | None:
    """The index of -zeta^4 c for each point c of a split with no bad point;
    None if the split has a bad point or some -zeta^4 c is not a point.  The
    key of -zeta^4 c is c0 N - B k(c) (above _split), its balanced residue."""
    coords, _, keys, good, bad, b = split
    if bad:
        return None
    n = (((b + 1) * b + 1) * b + 1) * b + 1
    turned = [c[0] * n - b * k for c, k in zip(coords, keys)]
    return list(map(good.__getitem__, turned)) if all(map(good.__contains__, turned)) else None


def _turned(snapshot: Snapshot):
    """(split, turn): _split(snapshot) and its _turn, kept in
    snapshot._turn_memo and computed again only when _split returns another
    split object, so the passes over one split share one turn."""
    split = _split(snapshot)
    if (memo := snapshot._turn_memo) is None or memo[0] is not split:
        memo = snapshot._turn_memo = split, _turn(split)
    return memo


def _orbits(snapshot: Snapshot):
    """(split, rep): _split(snapshot) and, for each point i, the index rep[i]
    of the point that stands for i's orbit of ten in the passes that take
    one point per orbit.  enumerate_points keeps its orbits' sector points.
    Any other split, on which _turn maps the points, takes the first point
    of each of the turn's cycles, and on one where _turn gives None each
    point represents itself.  Kept in snapshot._rep_memo while _split
    returns the same split object."""
    split = _split(snapshot)
    if (memo := snapshot._rep_memo) is None or memo[0] is not split:
        turn = _turned(snapshot)[1]
        rep = list(range(len(split[0])))
        for i, j in enumerate(turn or ()):
            while rep[j] > i:
                rep[j], j = i, turn[j]
        memo = snapshot._rep_memo = split, rep
    return memo


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


def _nearest(split, walk: list, points) -> list:
    """The exact squared distance from each point i of points, indices of
    the split's (_split) snapshot, to the nearest other point, as a (p, q)
    pair, or None when there is no other point; in the order of points.

    walk is displacement_candidates keyed by _walk: every difference d of
    two window members with |d|^2 <= L that can join two good points,
    sorted by length.  So from a good point the first hit along it is the
    nearest good point, and only the bad points remain to compare; a bad
    point, or a good one with no hit, is compared with every point.
    """
    coords, _, keys, good, bad, _ = split
    out = []
    for i in points:
        k, best, others = keys[i], None, bad
        for kd, d_sq in walk if k in good else ():
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
        out.append(best)
    return out


def _inner_nearest(snapshot: Snapshot) -> list:
    """The exact squared distance from each inner point, |z| <= R - 1
    (exact), to the nearest other point of the snapshot, whatever the
    snapshot holds, as a (p, q) pair, in point order; None for a point that
    is not inner, or is the snapshot's only point.  A repeated inner point
    gets (0, 0).  One _nearest pass over inner points (below); each distinct
    |z|^2 is tested once, and the pairs are the displacement list's own.

    It takes one inner point per orbit of ten, its representative
    (_orbits), whose result fills the orbit; on a split that _turn does not
    map, each point is its own orbit.  When _turn maps the points, z ->
    -zeta^4 z maps the finite set P injectively into P, so onto P; an
    isometry fixing 0, it keeps |z|, so the inner status, and the distance
    to the nearest other point of P; it generates the ten units; and a
    squared distance has one (p, q) pair.  The enumerator's set is closed
    under the units by construction, and its sector points stand for it.
    """
    split, rep = _orbits(snapshot)
    _, phys, _, _, _, b = split
    inner = _Memo(lambda p, q: _is_inner(p, q, *snapshot.radius_sq.as_integer_ratio()))
    inners = [i for i, r in enumerate(rep) if r == i and inner[phys[i]]]  # these walk the list
    walk = _walk(displacement_candidates(snapshot.window), b) if inners else []
    by_rep = dict(zip(inners, _nearest(split, walk, inners)))
    return [by_rep.get(r) for r in rep]


def analyze(snapshot: Snapshot) -> Snapshot:
    """Fill min_dist_sq and dist_class of each record in place from
    _inner_nearest; return the snapshot.  Points that are not inner get
    "unknown", as does an inner point that is the snapshot's only point.  A
    repeated inner point, at distance 0 from its copy, raises ValueError
    before any record is written.  Each distinct min_dist_sq is classified
    once.
    """
    found = _inner_nearest(snapshot)
    if (0, 0) in found:
        raise ValueError(f"point {snapshot.points[found.index((0, 0))].coords} appears "
                         "more than once in the snapshot")
    classes = _Memo(lambda p, q: classify_distance((p, q)))
    for rec, best in zip(snapshot.points, found):
        rec.min_dist_sq, rec.dist_class = best, classes[best] if best else DIST_UNKNOWN
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
