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
from functools import cache

from .cyclotomic import (
    TENTH_ROOTS,
    abs_sq_coords,
    golden_cmp,
    norm_coords,
    LONG_DIST_SQ,
    SHORT_DIST_SQ,
)
from .modelset import (
    Coords,
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


def _pairs(snapshot: Snapshot, ds, flagged=frozenset()):
    """n, hits and rows for the pairs i < j of the snapshot.

    A point is good when it lies in the disc and the window and appears
    once; two good points differ by a d with |d|^2 <= 4R^2 and
    |sigma(d)|^2 <= 4w, so a list of d, looked up from every good point,
    finds every good pair whose difference c_j - c_i is on the list.  The
    squared length, norm and clause of such a pair depend only on d, so
    hits[d] counts the good pairs of each d of ds not in flagged, and rows
    are built only where a report names the pair: ([c_i, c_j], c_j - c_i,
    |c_j - c_i|^2) in (i, j) order for each pair with a bad point and each
    good pair whose d is in flagged.  ds None makes every pair a row.
    """
    coords = [p.z.coords() for p in snapshot.points]
    rn, rd = snapshot.radius_sq.numerator, snapshot.radius_sq.denominator
    wn, wd = snapshot.window.w.numerator, snapshot.window.w.denominator
    counts = Counter(coords)
    good = {}
    for i, c in enumerate(coords if ds is not None else ()):
        phys, intr = abs_sq_coords(*c)
        if counts[c] == 1 and golden_cmp(*phys, rn, rd) <= 0 and golden_cmp(*intr, wn, wd) <= 0:
            good[c] = i
    bad = [i for i, c in enumerate(coords) if c not in good]
    pairs = {(min(b, j), max(b, j)) for b in bad for j in range(len(coords)) if j != b}
    rows = [(i, j, tuple(y - x for x, y in zip(coords[i], coords[j]))) for i, j in pairs]
    hits = {}
    for d in ds or ():
        d0, d1, d2, d3 = d
        if d in flagged:
            for (a0, a1, a2, a3), i in good.items():
                j = good.get((a0 + d0, a1 + d1, a2 + d2, a3 + d3), -1)
                if i < j:
                    rows.append((i, j, d))
        else:
            hits[d] = sum(i < good.get((a0 + d0, a1 + d1, a2 + d2, a3 + d3), -1)
                          for (a0, a1, a2, a3), i in good.items())
    return len(coords), hits, [([list(coords[i]), list(coords[j])], d, abs_sq_coords(*d)[0])
                               for i, j, d in sorted(rows)]


def verify_separation(snapshot: Snapshot) -> VerificationReport:
    """Uniform discreteness: every pairwise squared distance >= 1/(4*diam^2).

    The stated constant gives |dz|^2 >= 1/(16w); the norm argument in the
    proof actually supports the stronger 1/(4w), which is tracked separately
    in the details rather than enforced.

    Good pairs come from the displacement list (differences of window members
    up to length 1), judged once per displacement; when 1/(4w) > 1 or no
    pair lies within distance 1 (a tiny or sparse snapshot), every pair is
    compared instead.
    """
    w = snapshot.window.w
    weak = Fraction(1, 16) / w
    strong = Fraction(1, 4) / w
    cands = displacement_candidates(snapshot.window)
    n, hits, rows = _pairs(snapshot, [d for d, _ in cands], {
        d for d, g in cands if golden_cmp(g.p, g.q, weak.numerator, weak.denominator) < 0})
    if strong > 1 or (not any(hits.values())
                      and all(golden_cmp(*dsq, 1) > 0 for *_, dsq in rows)):
        n, hits, rows = _pairs(snapshot, None)
    violations = [{"pair": pair, "dist_sq": [p, q]} for pair, _, (p, q) in rows
                  if golden_cmp(p, q, weak.numerator, weak.denominator) < 0]
    lengths = [(g.p, g.q) for d, g in cands if hits.get(d)] + [dsq for *_, dsq in rows]
    min_pq = None
    for p, q in lengths:
        if min_pq is None or golden_cmp(p - min_pq[0], q - min_pq[1], 0) < 0:
            min_pq = (p, q)
    return VerificationReport(
        "separation", not violations, n * (n - 1) // 2, violations, _params(snapshot),
        details={
            "stated_constant_sq": str(weak),
            "proof_constant_sq": str(strong),
            "proof_constant_holds": all(golden_cmp(p, q, strong.numerator, strong.denominator) >= 0
                                        for p, q in lengths),
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


def _times_eps_inv(a0: int, a1: int, a2: int, a3: int) -> Coords:
    """eps^-1 * a for the fundamental unit eps = zeta + zeta^4 = phi - 1;
    eps^-1 = phi = 1 + eps, and eps * a is the zeta-shift plus its inverse."""
    return (a1 - a3, a1 + a2 - a3, a1 + a2 - a0, a2 - a0)


@cache
def _norm_gap_seeds() -> tuple[Coords, ...]:
    """The 60 nonzero x with |x|^2 <= 4 and |sigma(x)|^2 <= 4."""
    return tuple(x for x, _, _ in _members(Fraction(4), Fraction(4)) if any(x))


def _unit_lemma_list(radius_sq: Fraction) -> list[Coords]:
    """verify_unit_lemma's lookup list: the d with |d|^2 <= 1, and each seed
    of norm 2, 3 or 4 (none, on real norms) times eps^-k, k >= 0, up to
    |d|^2 <= 4R^2."""
    r4 = 4 * radius_sq
    ds = dict.fromkeys(d for d, _ in displacement_candidates(Window()))
    for d in _norm_gap_seeds():
        if norm_coords(*d) in (2, 3, 4):
            while golden_cmp(*abs_sq_coords(*d)[0], r4.numerator, r4.denominator) <= 0:
                ds[d] = None
                d = _times_eps_inv(*d)
    return list(ds)


def verify_unit_lemma(snapshot: Snapshot) -> VerificationReport:
    """Pairs closer than sqrt(5)/2 differ by a unit; non-unit differences
    have norm at least 5 (norms 2, 3, 4 never occur).

    Two good points differ by a d with |d|^2 <= 4R^2 and |sigma(d)|^2 <= 4,
    and only the d that are close or have norm 2, 3 or 4 can change the
    report; _unit_lemma_list holds all of them, in a list that does not
    grow with R, and each d on it is judged once and its hits counted.

    Close: no d with |sigma(d)|^2 <= 4 has 1 < |d|^2 < 5/4 (the tests pin
    this), so every close d is in displacement_candidates(Window()), the d
    with |d|^2 <= 1: the twenty units +-zeta^k and +-zeta^k eps.

    Norm gap: N(d) = |d|^2 |sigma(d)|^2.  Multiplying by the unit
    eps = zeta + zeta^4 = phi - 1 maps (|d|^2, |sigma(d)|^2) to
    (|d|^2/phi^2, phi^2 |sigma(d)|^2), dividing their ratio by phi^4, so
    some x = eps^k d has a ratio within [1/phi^2, phi^2], and then |x|^2
    and |sigma(x)|^2 are at most phi sqrt(N(d)) <= 2 phi < 4 when
    N(d) <= 4.  If k <= 0, d = eps^-k x has |d|^2 <= |x|^2 < 4 and is
    itself in _members(4, 4); so every such d is eps^-k x, k >= 0, for a
    seed x of _members(4, 4) of norm 2, 3 or 4.  eps^-1 scales |d|^2 by
    phi^2 and |sigma(d)|^2 by 1/phi^2, so the walk from each seed stays in
    the window until |d|^2 > 4R^2, where it stops.  On real norms there
    is no such seed: every conjugation fixes the prime (1 - zeta) over 5
    and d == a0 + a1 + a2 + a3 modulo it, so N(d) == (a0 + a1 + a2 + a3)^4
    (mod 5), which is 0 or 1 (Kummer; Fermat).  The seeds' norms are still
    computed on every call, so a faulty norm is caught.
    """
    _require_unit_window(snapshot, "unit lemma")

    def judge(d, p, q):
        norm = norm_coords(*d)
        close = golden_cmp(p, q, 5, 4) < 0
        if close and norm != 1:
            return close, {"dist_sq": [p, q], "norm": norm, "clause": "close-pair-not-unit"}
        if norm in (2, 3, 4):
            return close, {"norm": norm, "clause": "norm-gap"}
        return close, None

    ds = _unit_lemma_list(snapshot.radius_sq)
    judged = {d: judge(d, *abs_sq_coords(*d)[0]) for d in ds}
    n, hits, rows = _pairs(snapshot, ds, {d for d, (_, v) in judged.items() if v})
    close_pairs = sum(h for d, h in hits.items() if judged[d][0])
    violations = []
    for pair, d, (p, q) in rows:
        close, v = judge(d, p, q)
        close_pairs += close
        if v:
            violations.append({"pair": pair, **v})
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
