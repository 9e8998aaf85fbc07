"""Machine checks of the stated properties of the point set.

Every accept/reject decision is exact integer arithmetic, and no report
holds a float.  Reports serialize to a stable JSON shape.
The pair checks' tested_count is the n(n-1)/2 pairs their verdict covers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cmp_to_key

from .cyclotomic import (
    TENTH_ROOTS,
    _Value,
    abs_sq_coords,
    golden_cmp,
    norm_coords,
)
from .modelset import (
    Coords,
    DIST_CLASS_OF,
    DIST_CLASSES,
    DIST_OTHER,
    Snapshot,
    Window,
    _Memo,
    _at_most,
    _members,
    _nearest,
    _split,
    _walk,
    analyze,
    displacement_candidates,
    enumerate_points,
)


class VerificationReport(_Value):
    __slots__ = ("check_name", "passed", "tested_count", "violations", "parameters",
                 "skipped", "details")

    def __init__(self, check_name: str, passed: bool, tested_count: int,
                 violations: list | None = None, parameters: dict | None = None,
                 skipped: bool = False, details: dict | None = None):
        self.check_name, self.passed, self.tested_count = check_name, passed, tested_count
        self.violations = [] if violations is None else violations
        self.parameters = {} if parameters is None else parameters
        self.skipped = skipped
        self.details = {} if details is None else details

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


def _params(snapshot: Snapshot) -> dict:
    return {"radius_sq": str(snapshot.radius_sq), "window_sq": str(snapshot.window.w)}


def _require_unit_window(snapshot: Snapshot, check: str) -> None:
    if snapshot.window.w != 1:
        raise ValueError(f"{check} applies only to the unit window, got w = {snapshot.window.w}")


def verify_separation(snapshot: Snapshot) -> VerificationReport:
    """Uniform discreteness: every pairwise squared distance >= 1/(4*diam^2).

    The stated constant gives |dz|^2 >= 1/(16w); the norm argument in the
    proof actually supports the stronger 1/(4w), which is tracked separately
    in the details rather than enforced.

    The minimum pair distance is the least distinct exact distance from a
    point to its nearest other point (_nearest), each tested once against
    1/(16w).  Both ends of a pair closer than 1/(16w) have their nearest
    point that close, so only those points are compared pairwise.
    """
    w = snapshot.window.w
    weak = Fraction(1, 16) / w
    strong = Fraction(1, 4) / w
    coords, _, keys, good, bad, b = _split(snapshot)
    walk = _walk(displacement_candidates(snapshot.window), b)
    n = len(coords)
    below_weak = _Memo(lambda p, q: golden_cmp(p, q, weak.numerator, weak.denominator) < 0)
    close = []
    for i in range(n):
        pq = _nearest(i, coords, keys, good, bad, walk)
        if pq is not None and below_weak[pq]:
            close.append(coords[i])
    min_pq = min(below_weak, default=None,
                 key=cmp_to_key(lambda a, b: golden_cmp(a[0] - b[0], a[1] - b[1], 0)))
    violations = []
    for k, a in enumerate(close):
        for b in close[k + 1:]:
            p, q = abs_sq_coords(*(y - x for x, y in zip(a, b)))[0]
            if golden_cmp(p, q, weak.numerator, weak.denominator) < 0:
                violations.append({"pair": [list(a), list(b)], "dist_sq": [p, q]})
    return VerificationReport(
        "separation", not violations, n * (n - 1) // 2, violations, _params(snapshot),
        details={
            "stated_constant_sq": str(weak),
            "proof_constant_sq": str(strong),
            "proof_constant_holds": min_pq is None or golden_cmp(
                *min_pq, strong.numerator, strong.denominator) >= 0,
            "min_pair_dist_sq": list(min_pq) if min_pq else None,
        })


def verify_rotation(snapshot: Snapshot) -> VerificationReport:
    """Closure of the snapshot under all ten unit multipliers +-zeta^k.

    zeta and -1 generate the ten units and are injective on Z^4, so for the
    finite set S of coordinates zeta S <= S and -S <= S force zeta S = S = -S,
    and every +-zeta^k maps S onto S.  The 2n lookups zeta c, -c in S decide the
    verdict; tested_count is the 10n memberships it covers.  Only a failure
    walks the ten multipliers, to list the violations in order."""
    members = snapshot.coord_set()
    violations = []
    if not all((-a3, a0 - a3, a1 - a3, a2 - a3) in members and (-a0, -a1, -a2, -a3) in members
               for a0, a1, a2, a3 in members):
        for c in sorted(members):
            t = c
            for k in range(5):  # t = zeta^k * c; multiplier 2k is zeta^k, 2k + 1 is -zeta^k
                a0, a1, a2, a3 = t
                for m, u in ((2 * k, t), (2 * k + 1, (-a0, -a1, -a2, -a3))):
                    if u not in members:
                        violations.append({"point": list(c), "multiplier_index": m})
                t = (-a3, a0 - a3, a1 - a3, a2 - a3)
    return VerificationReport("rotation", not violations, 10 * len(members),
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

    Two good points (_split) differ by a d with |d|^2 <= 4R^2 and
    |sigma(d)|^2 <= 4, and only the d that are close or have norm 2, 3 or 4
    can change the report; _unit_lemma_list holds all of them, in a list
    that does not grow with R.  It is closed under d -> -d, and -d gets d's
    judgement, so only the d > -d are walked: each good pair i, j is hit
    once, along c_j - c_i or c_i - c_j, and kept as (min(i, j), max(i, j)).

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

    judged = [(d, judge(d, *abs_sq_coords(*d)[0]))
              for d in _unit_lemma_list(snapshot.radius_sq) if d > tuple(-a for a in d)]
    coords, _, _, good, bad, b = _split(snapshot)
    walk = _walk(judged, b)
    n = len(coords)
    close_pairs, rows = 0, []
    for k, i in good.items():
        for kd, (close, v) in walk:
            j = good.get(k + kd)
            if j is not None:
                close_pairs += close
                if v:
                    rows.append((min(i, j), max(i, j), v))
    for i, j in {(min(b, j), max(b, j)) for b in bad for j in range(n) if j != b}:
        d = tuple(y - x for x, y in zip(coords[i], coords[j]))
        close, v = judge(d, *abs_sq_coords(*d)[0])
        close_pairs += close
        if v:
            rows.append((i, j, v))
    violations = [{"pair": [list(coords[i]), list(coords[j])], **v} for i, j, v in sorted(rows)]
    return VerificationReport("unit-lemma", not violations, n * (n - 1) // 2,
                              violations, _params(snapshot),
                              details={"close_pairs": close_pairs})


def verify_two_distance(snapshot: Snapshot) -> VerificationReport:
    """Every inner point's exact minimal distance is (sqrt(5)-1)/2 or 1;
    both values occur once the radius allows (R >= 2).

    This holds for the whole infinite set.  At w = 1 the displacement list
    is exactly the twenty units, ten of squared length 2 - phi and ten of
    length 1 (the tests pin both), and it holds every difference of two
    members up to length 1.  Every window point u has a tenth root v with
    |u + v| <= 1, because |u| <= 1 < 2 cos 18 deg, so every member z has a
    neighbor z + mu at distance 1 (step existence).  So the nearest
    neighbor of every member is a hit along the list, at 2 - phi or 1.
    """
    _require_unit_window(snapshot, "two-distance")
    violations = []
    counts = dict.fromkeys(DIST_CLASSES[:3], 0)  # short, long, other
    tested = 0
    for p in snapshot.points:
        if p.min_dist_sq is None:
            continue
        tested += 1
        # not classify_distance, which rejects a nonpositive distance
        cls = DIST_CLASS_OF.get(p.min_dist_sq, DIST_OTHER)
        counts[cls] += 1
        if cls == DIST_OTHER:
            violations.append({"point": list(p.coords),
                               "min_dist_sq": list(p.min_dist_sq)})
    both_required = snapshot.radius_sq >= 4
    both_present = all(counts[c] > 0 for c in DIST_CLASS_OF.values())
    if both_required and not both_present:
        violations.append({"clause": "missing-distance-class", "counts": dict(counts)})
    return VerificationReport("two-distance", not violations, tested,
                              violations, _params(snapshot),
                              details={"counts": dict(counts),
                                       "both_classes_present": both_present})


def verify_step_existence(snapshot: Snapshot) -> VerificationReport:
    """Every point (boundary included) has a tenth-root-of-unity step that
    stays in the infinite set; exact, once per distinct |sigma(c + mu)|^2."""
    _require_unit_window(snapshot, "step existence")
    in_window = _at_most(snapshot.window.w)
    violations = []
    for p in snapshot.points:
        a0, a1, a2, a3 = p.coords
        for m0, m1, m2, m3 in TENTH_ROOTS:
            if in_window[abs_sq_coords(a0 + m0, a1 + m1, a2 + m2, a3 + m3)[1]]:
                break
        else:
            violations.append({"point": list(p.coords)})
    return VerificationReport("step-existence", not violations, len(snapshot.points),
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
    """One check's report."""
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}")
    if name in UNIT_WINDOW_CHECKS and snapshot.window.w != 1:
        return VerificationReport(name, True, 0, [], _params(snapshot),
                                  skipped=True,
                                  details={"reason": "requires unit window"})
    return _CHECKS[name](snapshot)


def verify_all(radius_sq: Fraction | int, window_sq: Fraction | int = 1,
               checks: tuple[str, ...] = CHECK_NAMES) -> list[VerificationReport]:
    """Enumerate, analyze the snapshot's records in place, and run the
    selected checks, all on the split enumerate_points keeps with it."""
    snap = analyze(enumerate_points(Fraction(radius_sq), Window(Fraction(window_sq))))
    return [run_check(name, snap) for name in checks]
