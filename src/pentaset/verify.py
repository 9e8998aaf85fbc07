"""Machine checks of the stated properties of the point set.

Every accept/reject decision is exact integer arithmetic; floats only appear
as annotations in report details.  Reports serialize to a stable JSON shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import (
    CycInt,
    GoldenInt,
    TENTH_ROOTS,
    abs_sq_coords,
    field_norm,
    golden_cmp,
    golden_cmp_golden,
    LONG_DIST_SQ,
    SHORT_DIST_SQ,
)
from .modelset import (
    DIST_LONG,
    DIST_OTHER,
    DIST_SHORT,
    Snapshot,
    Window,
    analyze,
    contains,
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


def _pair_dist_sq(ci, cj) -> tuple[int, int]:
    return abs_sq_coords(ci[0] - cj[0], ci[1] - cj[1],
                         ci[2] - cj[2], ci[3] - cj[3])[0]


def _require_unit_window(snapshot: Snapshot, check: str) -> None:
    if snapshot.window.w != 1:
        raise ValueError(f"{check} applies only to the unit window, got w = {snapshot.window.w}")


def verify_separation(snapshot: Snapshot) -> VerificationReport:
    """Uniform discreteness: every pairwise squared distance >= 1/(4*diam^2).

    The stated constant gives |dz|^2 >= 1/(16w); the norm argument in the
    proof actually supports the stronger 1/(4w), which is tracked separately
    in the details rather than enforced.
    """
    w = snapshot.window.w
    weak = Fraction(1, 16) / w
    strong = Fraction(1, 4) / w
    weak_num, weak_den = weak.numerator, weak.denominator
    strong_num, strong_den = strong.numerator, strong.denominator
    coords = [p.z.coords() for p in snapshot.points]
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
            if golden_cmp(p, q, weak_num, weak_den) < 0:
                violations.append({"pair": [list(ci), list(coords[j])],
                                   "dist_sq": [p, q]})
            if golden_cmp(p, q, strong_num, strong_den) < 0:
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


def verify_rotation(snapshot: Snapshot) -> VerificationReport:
    """Closure of the snapshot under all ten unit multipliers +-zeta^k."""
    members = snapshot.coord_set()
    violations = []
    tested = 0
    for c in sorted(members):
        z = CycInt(*c)
        for m, mult in enumerate(TENTH_ROOTS):
            tested += 1
            if (mult * z).coords() not in members:
                violations.append({"point": list(c), "multiplier_index": m})
    return VerificationReport("rotation", not violations, tested,
                              violations, _params(snapshot))


def verify_unit_lemma(snapshot: Snapshot) -> VerificationReport:
    """Pairs closer than sqrt(5)/2 differ by a unit; non-unit differences
    have norm at least 5 (norms 2, 3, 4 never occur)."""
    _require_unit_window(snapshot, "unit lemma")
    coords = [p.z.coords() for p in snapshot.points]
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
            norm = field_norm(CycInt(ci[0] - cj[0], ci[1] - cj[1],
                                     ci[2] - cj[2], ci[3] - cj[3]))
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
        if not any(contains(p.z + mu, snapshot.window) for mu in TENTH_ROOTS):
            violations.append({"point": list(p.z.coords())})
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
