"""Brute-force reference implementations that the tests compare against.

They share no search logic with the package: enumeration scans the whole
coordinate box, nearest-neighbor distances, separation and the unit lemma
come from every pair, and conjugates, moduli and norms from ring products
(ring_mul), the reference for the package's closed forms.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from pentaset import __version__
from pentaset.cyclotomic import (
    ArithmeticConsistencyError,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
)
from pentaset.io_render import _LAYOUTS, CSV_COLUMNS, write_snapshot
from pentaset.modelset import (
    DIST_CLASS_OF,
    DIST_CLASSES,
    DIST_OTHER,
    DIST_UNKNOWN,
    PointRecord,
    Snapshot,
    Window,
    _is_inner,
    classify_distance,
)
from pentaset.verify import VerificationReport

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Elements of Z[zeta] are coordinate tuples (a0, a1, a2, a3) in the power
# basis (1, zeta, zeta^2, zeta^3), as in the package.
ZERO = (0, 0, 0, 0)
ONE = (1, 0, 0, 0)
ZETA = (0, 1, 0, 0)

#: the fundamental unit eps = zeta + zeta^4 = phi - 1 (as a real number)
EPSILON = (-1, 0, -1, -1)
#: eps^-1 = phi = eps + 1
EPSILON_INV = (0, 0, -1, -1)


def ring_add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def ring_sub(x: tuple, y: tuple) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def ring_neg(x: tuple) -> tuple:
    return tuple(-a for a in x)


def ring_mul(x: tuple, y: tuple) -> tuple:
    """The product in Z[zeta]: polynomial product, then zeta^5 = 1 and
    zeta^4 = -1 - zeta - zeta^2 - zeta^3."""
    c = [0] * 7
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            c[i + j] += xi * yj
    # zeta^5 = 1, zeta^6 = zeta
    c[0] += c[5]
    c[1] += c[6]
    e = c[4]
    return (c[0] - e, c[1] - e, c[2] - e, c[3] - e)


def galois_apply(z: tuple, k: int) -> tuple:
    """Apply the field automorphism zeta -> zeta^k; k = 1 is the identity."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"Galois exponent must be in 1..4, got {k}")
    acc = [0] * 5
    for i, ai in enumerate(z):
        acc[(i * k) % 5] += ai
    e = acc[4]
    return (acc[0] - e, acc[1] - e, acc[2] - e, acc[3] - e)


def _to_golden(w: tuple) -> tuple[int, int]:
    """Convert a totally real element to Z[phi], as the pair (p, q) of p + q*phi.

    Real elements have coordinates (a0, 0, a2, a2): a0 + a2*(zeta^2 + zeta^3)
    with zeta^2 + zeta^3 = -phi.
    """
    a0, a1, a2, a3 = w
    if a1 != 0 or a2 != a3:
        raise ArithmeticConsistencyError(
            f"element {w} is not fixed by complex conjugation")
    return a0, -a2


def abs_sq(z: tuple, which: str = "physical") -> tuple[int, int]:
    """Squared modulus by ring multiplication.

    physical: |z|^2 = z * conj(z); internal: |sigma(z)|^2 with sigma the
    embedding zeta -> zeta^2.
    """
    if which == "physical":
        w = ring_mul(z, galois_apply(z, 4))
    elif which == "internal":
        w = ring_mul(galois_apply(z, 2), galois_apply(z, 3))
    else:
        raise ValueError(f"unknown embedding {which!r}")
    return _to_golden(w)


def field_norm(z: tuple) -> int:
    """Product of the four Galois conjugates; a rational integer, >= 1 for z != 0."""
    w = ring_mul(ring_mul(ring_mul(z, galois_apply(z, 2)), galois_apply(z, 3)),
                 galois_apply(z, 4))
    if w[1:] != (0, 0, 0):
        raise ArithmeticConsistencyError(
            f"norm product {w} is not rational")
    return w[0]


def golden_add(g: tuple[int, int], h: tuple[int, int]) -> tuple[int, int]:
    return g[0] + h[0], g[1] + h[1]


def golden_mul(g: tuple[int, int], h: tuple[int, int]) -> tuple[int, int]:
    # phi^2 = phi + 1
    (p, q), (r, s) = g, h
    return p * r + q * s, p * s + q * r + q * s


def golden_cmp_golden(g: tuple[int, int], h: tuple[int, int]) -> int:
    return golden_cmp(g[0] - h[0], g[1] - h[1], 0)


def golden_to_float(g: tuple[int, int]) -> float:
    p, q = g
    if (p >= 0) == (q >= 0):
        return float(p) + float(q) * PHI
    # p and q*phi nearly cancel; divide the exact norm by the conjugate
    # p + q*(1 - phi), whose two terms share a sign
    return (p * p + p * q - q * q) / (p + q * (1.0 - PHI))


def quad_form(a0: int, a1: int, a2: int, a3: int) -> int:
    """Q(a) = |z|^2 + |sigma(z)|^2 = (5*sum(ai^2) - (sum ai)^2) / 2, an integer."""
    s = a0 + a1 + a2 + a3
    return (5 * (a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3) - s * s) // 2


def _box_vectors(norm_bound: int):
    """All integer vectors with a0^2 + a1^2 + a2^2 + a3^2 <= norm_bound."""
    if norm_bound < 0:
        return
    m = math.isqrt(norm_bound)
    for a0 in range(-m, m + 1):
        n0 = a0 * a0
        for a1 in range(-m, m + 1):
            n1 = n0 + a1 * a1
            if n1 > norm_bound:
                continue
            for a2 in range(-m, m + 1):
                n2 = n1 + a2 * a2
                if n2 > norm_bound:
                    continue
                for a3 in range(-m, m + 1):
                    if n2 + a3 * a3 <= norm_bound:
                        yield (a0, a1, a2, a3)


def box_enumerate(radius_sq, window: Window | None = None) -> Snapshot:
    """enumerate_points by scanning the full box ||a||^2 <= 2*(R^2 + w).

    Q(a) >= ||a||^2 / 2 (the Gram matrix's smallest eigenvalue is 1/2), so
    the box holds every member; each is filtered exactly and the records are
    put in the package's canonical order (Q, then coordinates).
    """
    window = window or Window()
    radius_sq = Fraction(radius_sq)
    records = []
    for a in _box_vectors(math.floor(2 * (radius_sq + window.w))):
        phys, intr = abs_sq_coords(*a)
        if golden_cmp(*phys, radius_sq.numerator, radius_sq.denominator) <= 0 and \
           golden_cmp(*intr, window.w.numerator, window.w.denominator) <= 0:
            e = embed_approx(a)
            records.append(PointRecord(a, intr, e.real, e.imag))
    records.sort(key=lambda p: (quad_form(*p.coords), p.coords))
    return Snapshot(window, radius_sq, records)


def floor_sqrt5(a: int, b: int, den: int) -> int:
    """floor((a + b*sqrt(5)) / den) for integers a, b and den > 0, exactly.

    sqrt(5 b^2) lies in [r, r + 1), r = isqrt(5 b^2), and is irrational for
    b != 0, so no multiple of den lies strictly between the value times den
    and the integer a + r (b >= 0) or a - r - 1 (b < 0) below it."""
    r = math.isqrt(5 * b * b)
    return (a + r) // den if b >= 0 else (a - r - 1) // den


def _run(inside, anchor: int, half: int) -> tuple[int, int] | None:
    """(lo, hi), the integers m with inside(m), or None if there are none.

    inside must hold on one real interval whose centre has floor anchor,
    and half estimates its half-length.  A nonempty run holds anchor or
    anchor + 1, so each end is reached by exact +-1 steps from
    anchor -+ half."""
    a = next((m for m in (anchor, anchor + 1) if inside(m)), None)
    if a is None:
        return None
    lo, hi = min(a, anchor - half), max(a, anchor + half)
    if inside(lo):
        while inside(lo - 1):
            lo -= 1
    else:
        while not inside(lo):
            lo += 1
    if inside(hi):
        while inside(hi + 1):
            hi += 1
    else:
        while not inside(hi):
            hi -= 1
    return lo, hi


def _overlap(a, b) -> tuple[int, int] | None:
    """The integers in both runs a and b, each (lo, hi) or None."""
    if a and b and max(a[0], b[0]) <= min(a[1], b[1]):
        return max(a[0], b[0]), min(a[1], b[1])
    return None


def _parts(r) -> tuple[int, int]:
    r = Fraction(r)
    return r.numerator, r.denominator


def row_runs(radius_sq, w, n2: int, m2: int,
             sector: bool = False) -> dict[int, tuple[int, int]]:
    """{n1: (lo, hi)} for every row of beta = m2 + n2*phi that holds a
    member z = alpha + beta*zeta, alpha = m1 + n1*phi, of the set at
    (radius_sq, w): its members are the m1 in [lo, hi].  No floats.
    With sector, only the members in 0 <= arg z < 36 deg, where beta >= 0
    and alpha > beta (Im z = beta sin 72 deg, Im(-zeta^2 z) = (beta - alpha)
    sin 36 deg): each run is cut to m1 > m2 + (n2 - n1) phi.

    4|z|^2 = X^2 + beta^2 (2 + phi) with X = 2 alpha + beta (phi - 1) =
    x + y*phi, x = 2 m1 - m2 + n2, y = 2 n1 + m2, and 4|sigma z|^2 is its
    conjugate (p + q*phi -> (p + q) - q*phi).  So the disc holds the m1
    within sqrt(H)/2 of the zero of X, H = 4R^2 - beta^2 (2 + phi), and the
    window those within sqrt(H')/2 of the zero of sigma(X),
    H' = 4w - sigma(beta^2 (2 + phi)); the zeros are y*sqrt(5)/2 apart, so a
    row with a member has |y| <= (sqrt(H) + sqrt(H'))/sqrt(5).
    """
    rn, rd = _parts(radius_sq)
    wn, wd = _parts(w)
    a, b = m2 * m2 + n2 * n2, 2 * m2 * n2 + n2 * n2  # beta^2 = a + b*phi
    h = floor_sqrt5(8 * rn - 5 * rd * (a + b), -rd * (a + 3 * b), 2 * rd)
    h_i = floor_sqrt5(8 * wn - 5 * wd * (a + b), wd * (a + 3 * b), 2 * wd)
    if h < 0 or h_i < 0:
        return {}
    root, root_i = math.isqrt(h), math.isqrt(h_i)
    k = (root + root_i + 2) // 2  # > (sqrt(H) + sqrt(H'))/2
    n1s = range(-((k + m2) // 2), (k - m2) // 2 + 1)
    if sector:
        if floor_sqrt5(2 * m2 + n2, n2, 2) < 0:  # beta < 0
            return {}
        # n1 sqrt(5) = alpha - sigma(alpha), and a member has beta < alpha <=
        # sqrt(H)/2 - beta c and |sigma(alpha) + beta' c'| <= sqrt(H')/2, where
        # c = (phi - 1)/2, c' = -phi/2, 4(beta + beta' c') = (3 m2 + 4 n2) +
        # (2 n2 - m2) sqrt(5) and beta' c' - beta c = -m2 sqrt(5)/2
        n1s = range(floor_sqrt5(5 * (2 * n2 - m2), 3 * m2 + 4 * n2 - 2 * root_i - 2, 20),
                    floor_sqrt5(-5 * m2, root + root_i + 2, 10) + 1)
    runs = {}
    for n1 in n1s:
        y = 2 * n1 + m2
        p0, q0 = y * y + 2 * a + b, y * y + a + 3 * b

        def disc(m1):
            x = 2 * m1 - m2 + n2
            return golden_cmp(x * x + p0, 2 * x * y + q0, 4 * rn, rd) <= 0

        def window(m1):
            x = 2 * m1 - m2 + n2
            p, q = x * x + p0, 2 * x * y + q0
            return golden_cmp(p + q, -q, 4 * wn, wd) <= 0

        c = 2 * (m2 - n2) - y
        run = _overlap(_run(disc, floor_sqrt5(c, -y, 4), root // 2),
                       _run(window, floor_sqrt5(c, y, 4), root_i // 2))
        if run and sector:
            j = n2 - n1
            run = _overlap(run, (m2 + floor_sqrt5(j, j, 2) + 1, run[1]))
        if run:
            runs[n1] = run
    return runs


def beta_run(radius_sq, w, n2: int, sector: bool = False) -> tuple[int, int] | None:
    """(lo, hi), the m2 with s^2 beta^2 <= R^2 and s'^2 beta'^2 <= w for
    beta = m2 + n2*phi (s = sin 72 deg, s' = sin 144 deg), or None: the
    betas whose rows can hold a member, |z|^2 = (alpha + beta c)^2 + s^2 beta^2.
    With sector, 0 <= beta <= R/phi in place of s^2 beta^2 <= R^2: the betas
    whose rows can hold a member z in 0 <= arg z < 36 deg, where alpha > beta
    >= 0, so alpha + beta c > beta (1 + c) = beta phi^2/2 and |z| >= beta phi."""
    rn, rd = _parts(radius_sq)
    wn, wd = _parts(w)

    def square(m2):  # beta^2 = a + b*phi
        return m2 * m2 + n2 * n2, 2 * m2 * n2 + n2 * n2

    def disc(m2):  # (2 + phi) beta^2 <= 4 R^2
        a, b = square(m2)
        return golden_cmp(2 * a + b, a + 3 * b, 4 * rn, rd) <= 0

    def tip(m2):  # phi^2 beta^2 = (a + b) + (a + 2b) phi <= R^2
        a, b = square(m2)
        return golden_cmp(a + b, a + 2 * b, rn, rd) <= 0

    def window(m2):
        a, b = square(m2)
        return golden_cmp(3 * a + 4 * b, -a - 3 * b, 4 * wn, wd) <= 0

    if sector:  # from the least m2 with beta >= 0, up by about R/phi, then exact steps
        lo = -floor_sqrt5(n2, n2, 2)
        hi = lo + math.isqrt(floor_sqrt5(3 * rn, -rn, 2 * rd))  # R^2/phi^2 = R^2 (3 - sqrt 5)/2
        while tip(hi + 1):
            hi += 1
        while hi >= lo and not tip(hi):
            hi -= 1
        run = (lo, hi) if lo <= hi else None
    else:  # R^2/s^2 = 2R^2 (5 - sqrt 5)/5
        run = _run(disc, floor_sqrt5(-n2, -n2, 2),
                   math.isqrt(max(floor_sqrt5(10 * rn, -2 * rn, 5 * rd), 0)))
    # w/s'^2 = 2w (5 + sqrt 5)/5
    return _overlap(run, _run(window, floor_sqrt5(-n2, n2, 2),
                              math.isqrt(max(floor_sqrt5(10 * wn, 2 * wn, 5 * wd), 0))))


def row_enumerate(radius_sq, window: Window | None = None) -> set[tuple]:
    """The coordinates of every member at (radius_sq, window), both of each
    pair +-z, from exact row runs: z = (m1 + n1*phi) + (m2 + n2*phi)*zeta has
    coordinates (m1 + n2, m2 + n2, n2 - n1, -n1).  |n2| = |beta -
    beta'|/sqrt(5) <= (R/s + sqrt(w)/s')/sqrt(5) < R + sqrt(w)."""
    w = (window or Window()).w
    big = math.isqrt(math.ceil(Fraction(radius_sq))) + math.isqrt(math.ceil(w)) + 2
    out = set()
    for n2 in range(-big, big + 1):
        betas = beta_run(radius_sq, w, n2)
        for m2 in range(betas[0], betas[1] + 1) if betas else ():
            for n1, (lo, hi) in row_runs(radius_sq, w, n2, m2).items():
                out.update((m1 + n2, m2 + n2, n2 - n1, -n1) for m1 in range(lo, hi + 1))
    return out


def snapshot_to_jsonl_bytes(snapshot: Snapshot) -> bytes:
    buf = io.StringIO()
    write_snapshot(snapshot, "jsonl", buf)
    return buf.getvalue().encode("utf-8")


def written_snapshot(snapshot: Snapshot, fmt: str) -> str:
    """write_snapshot's text without its memo or chunks: the header, then one
    layout % fields per record, joined."""
    header, record = _LAYOUTS[fmt]
    return header % {"radius_sq": snapshot.radius_sq, "window_sq": snapshot.window.w,
                     "version": __version__} + "".join(
        [record % (*p.coords, p.x, p.y, *p.iabs, p.dist_class) for p in snapshot.points])


def snapshot_header(snapshot: Snapshot, fmt: str) -> str:
    """The header line(s) of a snapshot in format fmt as json.dumps and
    csv.writer write them, the reference for write_snapshot's layouts."""
    buf = io.StringIO()
    if fmt == "jsonl":
        header = {"format": "pentaset-snapshot",
                  "radius_sq": str(snapshot.radius_sq),
                  "window_sq": str(snapshot.window.w),
                  "version": __version__}
        buf.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["radius_sq", str(snapshot.radius_sq),
                         "window_sq", str(snapshot.window.w),
                         "version", __version__])
        writer.writerow(CSV_COLUMNS)
    return buf.getvalue()


def nearest_in_snapshot(snapshot: Snapshot,
                        indices=None) -> list[tuple[tuple[int, int] | None, str]]:
    """(min_dist_sq, dist_class) per point, or per point of indices, from
    every pair: the exact squared distance from each inner point to the
    nearest other point of the snapshot; other points, and an inner point
    with no other point, get (None, "unknown")."""
    coords = [p.coords for p in snapshot.points]
    r = snapshot.radius_sq
    out = []
    for i in range(len(coords)) if indices is None else indices:
        c, best = coords[i], None
        if _is_inner(*abs_sq_coords(*c)[0], r.numerator, r.denominator):
            best = nearest_dist_sq(coords, i)
        if best is None:
            out.append((None, DIST_UNKNOWN))
        else:
            out.append((best, classify_distance(best)))
    return out


def nearest_dist_sq(coords: list, i: int) -> tuple[int, int] | None:
    """The exact squared distance from coords[i] to the nearest other point
    of coords, as a (p, q) pair, from every pair; None when there is none."""
    best = None
    for j, o in enumerate(coords):
        if j != i:
            p, q = _pair_dist_sq(coords[i], o)
            if best is None or golden_cmp(p - best[0], q - best[1], 0) < 0:
                best = (p, q)
    return best


def two_distance(snapshot: Snapshot) -> VerificationReport:
    """verify_two_distance at the unit window, with each inner point's
    nearest distance from nearest_dist_sq (every pair), not from the
    snapshot's records; a repeated inner point's 0 is other."""
    coords = [p.coords for p in snapshot.points]
    r = snapshot.radius_sq
    counts = dict.fromkeys(DIST_CLASSES[:3], 0)
    violations, tested = [], 0
    for i, c in enumerate(coords):
        if not _is_inner(*abs_sq_coords(*c)[0], r.numerator, r.denominator):
            continue
        best = nearest_dist_sq(coords, i)
        if best is not None:
            tested += 1
            cls = DIST_CLASS_OF.get(best, DIST_OTHER)
            counts[cls] += 1
            if cls == DIST_OTHER:
                violations.append({"point": list(c), "min_dist_sq": list(best)})
    both_present = all(counts[c] > 0 for c in DIST_CLASS_OF.values())
    if snapshot.radius_sq >= 4 and not both_present:
        violations.append({"clause": "missing-distance-class", "counts": dict(counts)})
    return VerificationReport("two-distance", not violations, tested, violations,
                              _params(snapshot),
                              details={"counts": dict(counts), "both_classes_present": both_present})


def _params(snapshot: Snapshot) -> dict:
    return {"radius_sq": str(snapshot.radius_sq), "window_sq": str(snapshot.window.w)}


def _pair_dist_sq(ci, cj) -> tuple[int, int]:
    return abs_sq_coords(ci[0] - cj[0], ci[1] - cj[1],
                         ci[2] - cj[2], ci[3] - cj[3])[0]


def separation(snapshot: Snapshot) -> VerificationReport:
    """verify_separation over every pair (i, j), i < j."""
    w = snapshot.window.w
    weak = Fraction(1, 16) / w
    strong = Fraction(1, 4) / w
    coords = [p.coords for p in snapshot.points]
    n = len(coords)
    violations = []
    strong_violations = 0
    min_pq = None
    tested = 0
    for i in range(n):
        ci = coords[i]
        for j in range(i + 1, n):
            tested += 1
            p, q = _pair_dist_sq(ci, coords[j])
            if golden_cmp(p, q, weak.numerator, weak.denominator) < 0:
                violations.append({"pair": [list(ci), list(coords[j])],
                                   "dist_sq": [p, q]})
            if golden_cmp(p, q, strong.numerator, strong.denominator) < 0:
                strong_violations += 1
            if min_pq is None or golden_cmp_golden((p, q), min_pq) < 0:
                min_pq = (p, q)
    return VerificationReport(
        "separation", not violations, tested, violations, _params(snapshot),
        details={
            "stated_constant_sq": str(weak),
            "proof_constant_sq": str(strong),
            "proof_constant_holds": strong_violations == 0,
            "min_pair_dist_sq": list(min_pq) if min_pq else None,
        })


def unit_lemma(snapshot: Snapshot) -> VerificationReport:
    """verify_unit_lemma over every pair (i, j), i < j, with field_norm."""
    coords = [p.coords for p in snapshot.points]
    n = len(coords)
    violations = []
    tested = 0
    close_pairs = 0
    for i in range(n):
        ci = coords[i]
        for j in range(i + 1, n):
            tested += 1
            cj = coords[j]
            p, q = _pair_dist_sq(ci, cj)
            norm = field_norm(ring_sub(ci, cj))
            close = golden_cmp(p, q, 5, 4) < 0
            if close:
                close_pairs += 1
            if close and norm != 1:
                violations.append({"pair": [list(ci), list(cj)],
                                   "dist_sq": [p, q], "norm": norm,
                                   "clause": "close-pair-not-unit"})
            elif norm in (2, 3, 4):
                violations.append({"pair": [list(ci), list(cj)],
                                   "norm": norm, "clause": "norm-gap"})
    return VerificationReport("unit-lemma", not violations, tested,
                              violations, _params(snapshot),
                              details={"close_pairs": close_pairs})


def tenth_roots() -> list[tuple]:
    """zeta^k and -zeta^k for k = 0..4 in turn, built by ring products."""
    roots, z = [], ONE
    for _ in range(5):
        roots += [z, ring_neg(z)]
        z = ring_mul(z, ZETA)
    return roots


def rotation(snapshot: Snapshot) -> VerificationReport:
    """verify_rotation by multiplying each distinct point, in sorted order,
    by each of the ten units tenth_roots() lists."""
    members = {p.coords for p in snapshot.points}
    violations = [{"point": list(c), "multiplier_index": m}
                  for c in sorted(members) for m, mu in enumerate(tenth_roots())
                  if ring_mul(mu, c) not in members]
    return VerificationReport("rotation", not violations, 10 * len(members),
                              violations, _params(snapshot))


def step_existence(snapshot: Snapshot) -> VerificationReport:
    """verify_step_existence trying all ten tenth roots +-zeta^k at every
    point, built by ring products, with |sigma(c + mu)|^2 from abs_sq."""
    w = snapshot.window.w
    roots = tenth_roots()
    violations = []
    for p in snapshot.points:
        stays = []
        for mu in roots:
            g, h = abs_sq(ring_add(p.coords, mu), "internal")
            stays.append(golden_cmp(g, h, w.numerator, w.denominator) <= 0)
        if not any(stays):
            violations.append({"point": list(p.coords)})
    return VerificationReport("step-existence", not violations, len(snapshot.points),
                              violations, _params(snapshot))
