"""Brute-force reference implementations that the tests compare against.

They share no search logic with the package: enumeration scans the whole
coordinate box, and nearest-neighbor distances come from every pair.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction

from pentaset.cyclotomic import CycInt, GoldenInt, abs_sq_coords, embed_approx, golden_cmp, quad_form
from pentaset.io_render import write_snapshot
from pentaset.modelset import (
    DIST_UNKNOWN,
    PointRecord,
    Snapshot,
    Window,
    classify_distance,
    is_inner,
)


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
            z = CycInt(*a)
            e = embed_approx(z, "physical")
            records.append(PointRecord(z, GoldenInt(*phys), GoldenInt(*intr), e.real, e.imag))
    records.sort(key=lambda p: (quad_form(*p.z.coords()), p.z.coords()))
    return Snapshot(window, radius_sq, records)


def snapshot_to_jsonl_bytes(snapshot: Snapshot) -> bytes:
    buf = io.StringIO()
    write_snapshot(snapshot, "jsonl", buf)
    return buf.getvalue().encode("utf-8")


def nearest_in_snapshot(snapshot: Snapshot) -> list[tuple[GoldenInt | None, str]]:
    """(min_dist_sq, dist_class) per point, from every pair: the exact squared
    distance from each inner point to the nearest other point of the
    snapshot; other points, and an inner point with no other point, get
    (None, "unknown")."""
    coords = [p.z.coords() for p in snapshot.points]
    out = []
    for i, c in enumerate(coords):
        best = None
        if is_inner(GoldenInt(*abs_sq_coords(*c)[0]), snapshot.radius_sq):
            for j, o in enumerate(coords):
                if j == i:
                    continue
                d = GoldenInt(*abs_sq_coords(*(x - y for x, y in zip(c, o)))[0])
                if best is None or (d - best).sign() < 0:
                    best = d
        out.append((None, DIST_UNKNOWN) if best is None else (best, classify_distance(best)))
    return out
