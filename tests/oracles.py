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
    GoldenInt,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
    quad_form,
)
from pentaset.io_render import CSV_COLUMNS, write_snapshot
from pentaset.modelset import (
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


def _to_golden(w: tuple) -> GoldenInt:
    """Convert a totally real element to Z[phi].

    Real elements have coordinates (a0, 0, a2, a2): a0 + a2*(zeta^2 + zeta^3)
    with zeta^2 + zeta^3 = -phi.
    """
    a0, a1, a2, a3 = w
    if a1 != 0 or a2 != a3:
        raise ArithmeticConsistencyError(
            f"element {w} is not fixed by complex conjugation")
    return GoldenInt(a0, -a2)


def abs_sq(z: tuple, which: str = "physical") -> GoldenInt:
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


def golden_add(g: GoldenInt, h: GoldenInt) -> GoldenInt:
    return GoldenInt(g.p + h.p, g.q + h.q)


def golden_mul(g: GoldenInt, h: GoldenInt) -> GoldenInt:
    # phi^2 = phi + 1
    return GoldenInt(g.p * h.p + g.q * h.q, g.p * h.q + g.q * h.p + g.q * h.q)


def golden_cmp_golden(g: GoldenInt, h: GoldenInt) -> int:
    return golden_cmp(g.p - h.p, g.q - h.q, 0)


def golden_to_float(g: GoldenInt) -> float:
    p, q = g.p, g.q
    if (p >= 0) == (q >= 0):
        return float(p) + float(q) * PHI
    # p and q*phi nearly cancel; divide the exact norm by the conjugate
    # p + q*(1 - phi), whose two terms share a sign
    return (p * p + p * q - q * q) / (p + q * (1.0 - PHI))


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


def snapshot_to_jsonl_bytes(snapshot: Snapshot) -> bytes:
    buf = io.StringIO()
    write_snapshot(snapshot, "jsonl", buf)
    return buf.getvalue().encode("utf-8")


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


def nearest_in_snapshot(snapshot: Snapshot) -> list[tuple[GoldenInt | None, str]]:
    """(min_dist_sq, dist_class) per point, from every pair: the exact squared
    distance from each inner point to the nearest other point of the
    snapshot; other points, and an inner point with no other point, get
    (None, "unknown")."""
    coords = [p.coords for p in snapshot.points]
    r = snapshot.radius_sq
    out = []
    for i, c in enumerate(coords):
        best = None
        if _is_inner(*abs_sq_coords(*c)[0], r.numerator, r.denominator):
            best = nearest_dist_sq(coords, i)
        if best is None:
            out.append((None, DIST_UNKNOWN))
        else:
            out.append((GoldenInt(*best), classify_distance(GoldenInt(*best))))
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
            if min_pq is None or golden_cmp_golden(GoldenInt(p, q), GoldenInt(*min_pq)) < 0:
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


def step_existence(snapshot: Snapshot) -> VerificationReport:
    """verify_step_existence trying all ten tenth roots +-zeta^k at every
    point, built by ring products, with |sigma(c + mu)|^2 from abs_sq."""
    w = snapshot.window.w
    roots, z = [], ONE
    for _ in range(5):
        roots += [z, ring_neg(z)]
        z = ring_mul(z, ZETA)
    violations = []
    for p in snapshot.points:
        stays = []
        for mu in roots:
            g = abs_sq(ring_add(p.coords, mu), "internal")
            stays.append(golden_cmp(g.p, g.q, w.numerator, w.denominator) <= 0)
        if not any(stays):
            violations.append({"point": list(p.coords)})
    return VerificationReport("step-existence", not violations, len(snapshot.points),
                              violations, _params(snapshot))
