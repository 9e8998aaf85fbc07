"""Machine checks of the stated properties of the point set.

Every accept/reject decision is exact integer arithmetic; floats only appear
as annotations in report details.  Reports serialize to a stable JSON shape.
The pair checks' tested_count is the n(n-1)/2 pairs their verdict covers.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import (
    TENTH_ROOTS,
    abs_sq_coords,
    golden_cmp,
    norm_coords,
    LONG_DIST_SQ,
    SHORT_DIST_SQ,
)
from .modelset import (
    DIST_LONG,
    DIST_OTHER,
    DIST_SHORT,
    Snapshot,
    Window,
    _in_window,
    _members,
    analyze,
    displacement_candidates,
    enumerate_points,
)


@dataclass
class VerificationReport:
    check_name: str
    passed: bool
    tested_count: int
    violations: list = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    skipped: bool = False
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "pass": self.passed,
            "skipped": self.skipped,
            "tested_count": self.tested_count,
            "violations": self.violations,
            "parameters": self.parameters,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _params(snapshot: Snapshot) -> dict:
    return {"radius_sq": str(snapshot.radius_sq), "window_sq": str(snapshot.window.w)}


def _require_unit_window(snapshot: Snapshot, check: str) -> None:
    if snapshot.window.w != 1:
        raise ValueError(f"{check} applies only to the unit window, got w = {snapshot.window.w}")


def _pairs(snapshot: Snapshot, ds):
    """n, and ([c_i, c_j], c_j - c_i, |c_j - c_i|^2) in (i, j) order for each
    pair i < j that has a bad point (outside the disc or the window, or
    repeated) or whose difference is in ds; for every pair when ds is None.
    Two good points differ by a d with |d|^2 <= 4R^2 and |sigma(d)|^2 <= 4w,
    so a finite list of d, looked up from every good point, finds them."""
    coords = [p.z.coords() for p in snapshot.points]
    rn, rd = snapshot.radius_sq.numerator, snapshot.radius_sq.denominator
    counts = Counter(coords)
    good = {c: i for i, c in enumerate(coords)
            if ds is not None and counts[c] == 1 and _in_window(c, snapshot.window.w)
            and golden_cmp(*abs_sq_coords(*c)[0], rn, rd) <= 0}
    bad = [i for i, c in enumerate(coords) if c not in good]
    pairs = {(min(b, j), max(b, j)) for b in bad for j in range(len(coords)) if j != b}
    rows = [(i, j, tuple(y - x for x, y in zip(coords[i], coords[j]))) for i, j in pairs]
    for d0, d1, d2, d3 in ds or ():
        for (a0, a1, a2, a3), i in good.items():
            j = good.get((a0 + d0, a1 + d1, a2 + d2, a3 + d3))
            if j is not None and i < j:
                rows.append((i, j, (d0, d1, d2, d3)))
    return len(coords), [([list(coords[i]), list(coords[j])], d, abs_sq_coords(*d)[0])
                         for i, j, d in sorted(rows)]


def verify_separation(snapshot: Snapshot) -> VerificationReport:
    """Uniform discreteness: every pairwise squared distance >= 1/(4*diam^2).

    The stated constant gives |dz|^2 >= 1/(16w); the norm argument in the
    proof actually supports the stronger 1/(4w), which is tracked separately
    in the details rather than enforced.

    Good pairs come from the displacement list (differences of window members
    up to length 1); when 1/(4w) > 1 or no pair lies within distance 1 (a
    tiny or sparse snapshot), every pair is compared instead.
    """
    w = snapshot.window.w
    weak = Fraction(1, 16) / w
    strong = Fraction(1, 4) / w
    n, rows = _pairs(snapshot, [d for d, _ in displacement_candidates(snapshot.window)])
    if strong > 1 or all(golden_cmp(*dsq, 1) > 0 for *_, dsq in rows):
        n, rows = _pairs(snapshot, None)
    violations = []
    strong_violations = 0
    min_pq = None
    for pair, _, (p, q) in rows:
        if golden_cmp(p, q, weak.numerator, weak.denominator) < 0:
            violations.append({"pair": pair, "dist_sq": [p, q]})
        if golden_cmp(p, q, strong.numerator, strong.denominator) < 0:
            strong_violations += 1
        if min_pq is None or golden_cmp(p - min_pq[0], q - min_pq[1], 0) < 0:
            min_pq = (p, q)
    return VerificationReport(
        "separation", not violations, n * (n - 1) // 2, violations, _params(snapshot),
        details={
            "stated_constant_sq": str(weak),
            "proof_constant_sq": str(strong),
            "proof_constant_holds": strong_violations == 0,
            "min_pair_dist_sq": list(min_pq) if min_pq else None,
        })


def verify_rotation(snapshot: Snapshot) -> VerificationReport:
    """Closure of the snapshot under all ten unit multipliers +-zeta^k."""
    members = snapshot.coord_set()
    violations = []
    tested = 0
    for c in sorted(members):
        t = c
        for k in range(5):  # t = zeta^k * c; multiplier 2k is zeta^k, 2k + 1 is -zeta^k
            a0, a1, a2, a3 = t
            for m, u in ((2 * k, t), (2 * k + 1, (-a0, -a1, -a2, -a3))):
                tested += 1
                if u not in members:
                    violations.append({"point": list(c), "multiplier_index": m})
            t = (-a3, a0 - a3, a1 - a3, a2 - a3)
    return VerificationReport("rotation", not violations, tested,
                              violations, _params(snapshot))


def verify_unit_lemma(snapshot: Snapshot) -> VerificationReport:
    """Pairs closer than sqrt(5)/2 differ by a unit; non-unit differences
    have norm at least 5 (norms 2, 3, 4 never occur).

    Good pairs are looked up along the difference window, |d|^2 <= 4R^2 and
    |sigma(d)|^2 <= 4, for the d that are close or have norm 2, 3 or 4.
    """
    _require_unit_window(snapshot, "unit lemma")
    n, rows = _pairs(snapshot, [
        d for d, dsq, _ in _members(4 * snapshot.radius_sq, Fraction(4))
        if golden_cmp(*dsq, 5, 4) < 0 or norm_coords(*d) in (2, 3, 4)])
    violations = []
    close_pairs = 0
    for pair, d, (p, q) in rows:
        norm = norm_coords(*d)
        close = golden_cmp(p, q, 5, 4) < 0
        if close:
            close_pairs += 1
        if close and norm != 1:
            violations.append({"pair": pair, "dist_sq": [p, q], "norm": norm,
                               "clause": "close-pair-not-unit"})
        elif norm in (2, 3, 4):
            violations.append({"pair": pair, "norm": norm, "clause": "norm-gap"})
    return VerificationReport("unit-lemma", not violations, n * (n - 1) // 2,
                              violations, _params(snapshot),
                              details={"close_pairs": close_pairs})


def verify_two_distance(snapshot: Snapshot) -> VerificationReport:
    """Every inner point's exact minimal distance is (sqrt(5)-1)/2 or 1;
    both values occur once the radius allows (R >= 2)."""
    _require_unit_window(snapshot, "two-distance")
    violations = []
    counts = {DIST_SHORT: 0, DIST_LONG: 0, DIST_OTHER: 0}
    tested = 0
    for p in snapshot.points:
        if p.min_dist_sq is None:
            continue
        tested += 1
        if p.min_dist_sq == SHORT_DIST_SQ:
            counts[DIST_SHORT] += 1
        elif p.min_dist_sq == LONG_DIST_SQ:
            counts[DIST_LONG] += 1
        else:
            counts[DIST_OTHER] += 1
            violations.append({"point": list(p.z.coords()),
                               "min_dist_sq": [p.min_dist_sq.p, p.min_dist_sq.q]})
    both_required = snapshot.radius_sq >= 4
    both_present = counts[DIST_SHORT] > 0 and counts[DIST_LONG] > 0
    if both_required and not both_present:
        violations.append({"clause": "missing-distance-class", "counts": dict(counts)})
    return VerificationReport("two-distance", not violations, tested,
                              violations, _params(snapshot),
                              details={"counts": dict(counts),
                                       "both_classes_present": both_present})


def verify_step_existence(snapshot: Snapshot) -> VerificationReport:
    """Every point (boundary included) has a tenth-root-of-unity step that
    stays in the infinite set; tested by exact membership."""
    _require_unit_window(snapshot, "step existence")
    violations = []
    tested = 0
    for p in snapshot.points:
        tested += 1
        c = p.z.coords()
        if not any(_in_window(tuple(a + m for a, m in zip(c, mu.coords())), snapshot.window.w)
                   for mu in TENTH_ROOTS):
            violations.append({"point": list(c)})
    return VerificationReport("step-existence", not violations, tested,
                              violations, _params(snapshot))


UNIT_WINDOW_CHECKS = ("unit-lemma", "two-distance", "step-existence")

_CHECKS = {
    "separation": verify_separation,
    "rotation": verify_rotation,
    "unit-lemma": verify_unit_lemma,
    "two-distance": verify_two_distance,
    "step-existence": verify_step_existence,
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, snapshot: Snapshot) -> VerificationReport:
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}")
    if name in UNIT_WINDOW_CHECKS and snapshot.window.w != 1:
        return VerificationReport(name, True, 0, [], _params(snapshot),
                                  skipped=True,
                                  details={"reason": "requires unit window"})
    return _CHECKS[name](snapshot)


def verify_all(radius_sq: Fraction | int, window_sq: Fraction | int = 1,
               checks: tuple[str, ...] = CHECK_NAMES) -> list[VerificationReport]:
    """Enumerate, analyze, and run the selected checks."""
    snap = enumerate_points(Fraction(radius_sq), Window(Fraction(window_sq)))
    snap = analyze(snap)
    return [run_check(name, snap) for name in checks]
