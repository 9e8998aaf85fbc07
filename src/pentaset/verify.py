"""Machine checks of the stated properties of the point set.

Every accept/reject decision is exact integer arithmetic, and no report
holds a float.  Reports serialize to a stable JSON shape.
The pair checks' tested_count is the n(n-1)/2 pairs their verdict covers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cyclotomic import (
    TENTH_ROOTS,
    _golden_key,
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
    _inner_nearest,
    _members,
    _nearest,
    _split,
    _turned,
    _walk,
    displacement_candidates,
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


def _skipped(check: str, snapshot: Snapshot) -> VerificationReport:
    """The report of a check that applies only to the unit window (unit-lemma,
    two-distance, step-existence) on another window: passed, tested nothing."""
    return VerificationReport(check, True, 0, [], _params(snapshot), skipped=True,
                              details={"reason": "requires unit window"})


def verify_separation(snapshot: Snapshot) -> VerificationReport:
    """Uniform discreteness: every pairwise squared distance >= 1/(4*diam^2).

    The stated constant gives |dz|^2 >= 1/(16w); the norm argument in the
    proof actually supports the stronger 1/(4w), which is tracked separately
    in the details rather than enforced.

    On a split with no bad point (_split) the walk decides it.  Both ends
    of a pair lie in the window and in [-M, M]^4, so every difference of
    two points with |d|^2 <= L is in the walk, sorted by length: the first
    d for which some good c has c + d good is the minimum pair distance.
    If the walk's first d is at least 1/(16w), no pair is closer.  Else
    (no d has a hit, the first d is below 1/(16w), or a point is bad) the
    minimum is the least distinct distance from a point to its nearest
    other point, from one _nearest pass over every point, each tested once
    against 1/(16w).  Both ends of a pair closer than 1/(16w) have their
    nearest point that close, so only those points are compared pairwise.
    A lone point has no neighbour, so no displacement list is built for it.
    """
    w = snapshot.window.w
    weak = Fraction(1, 16) / w
    strong = Fraction(1, 4) / w
    split = coords, _, _, good, bad, b = _split(snapshot)
    n = len(coords)
    walk = _walk(displacement_candidates(snapshot.window), b) if n > 1 else []
    min_pq, violations = None, []
    if walk and not bad and golden_cmp(*walk[0][1], weak.numerator, weak.denominator) >= 0:
        min_pq = next((d_sq for kd, d_sq in walk if any(k + kd in good for k in good)), None)
    if min_pq is None:
        below_weak = _Memo(lambda p, q: golden_cmp(p, q, weak.numerator, weak.denominator) < 0)
        close = [c for c, pq in zip(coords, _nearest(split, walk, range(n)))
                 if pq is not None and below_weak[pq]]
        min_pq = min(below_weak, default=None, key=_golden_key)
        for k, u in enumerate(close):
            for v in close[k + 1:]:
                p, q = abs_sq_coords(*(y - x for x, y in zip(u, v)))[0]
                if golden_cmp(p, q, weak.numerator, weak.denominator) < 0:
                    violations.append({"pair": [list(u), list(v)], "dist_sq": [p, q]})
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

    -zeta^4 is a primitive tenth root, so it alone generates the ten units,
    and multiplying by it is injective: for the finite set S of points,
    -zeta^4 S <= S forces -zeta^4 S = S, and every +-zeta^k maps S onto S.
    So on a split with no bad point (_split) the n key lookups of _turn
    decide the verdict; tested_count is the 10n memberships it covers, n the
    distinct points.  Otherwise the check walks the ten multipliers on keys,
    k(zeta c) the residue of B^4 k(c) mod Phi_5(B), in key order, which is
    coordinate order as keys are balanced base-B numerals."""
    (coords, _, keys, good, bad, b), turn = _turned(snapshot)
    present = set(keys) if bad else good
    violations = []
    if turn is None:
        n = (((b + 1) * b + 1) * b + 1) * b + 1
        half, point, b4 = n // 2, dict(zip(keys, coords)), b ** 4
        for k in sorted(present):
            t = k
            for m in range(0, 10, 2):  # t = k(zeta^j c), j = m/2; m is zeta^j, m + 1 is -zeta^j
                if t not in present:
                    violations.append({"point": list(point[k]), "multiplier_index": m})
                if -t not in present:
                    violations.append({"point": list(point[k]), "multiplier_index": m + 1})
                t = r if (r := b4 * t % n) <= half else r - n
    return VerificationReport("rotation", not violations, 10 * len(present),
                              violations, _params(snapshot))


def _times_eps_inv(a0: int, a1: int, a2: int, a3: int) -> Coords:
    """eps^-1 * a for the fundamental unit eps = zeta + zeta^4 = phi - 1;
    eps^-1 = phi = 1 + eps, and eps * a is the zeta-shift plus its inverse."""
    return (a1 - a3, a1 + a2 - a3, a1 + a2 - a0, a2 - a0)


def _judge(d: Coords) -> tuple[bool, dict | None]:
    """The unit lemma's verdict on a difference d: whether it is close
    (|d|^2 < 5/4), and the clause it breaks, if any."""
    p, q = abs_sq_coords(*d)[0]
    norm = norm_coords(*d)
    close = golden_cmp(p, q, 5, 4) < 0
    if close and norm != 1:
        return close, {"dist_sq": [p, q], "norm": norm, "clause": "close-pair-not-unit"}
    if norm in (2, 3, 4):
        return close, {"norm": norm, "clause": "norm-gap"}
    return close, None


@cache
def _norm_gap_seeds() -> tuple[Coords, ...]:
    """The 60 nonzero x with |x|^2 <= 4 and |sigma(x)|^2 <= 4: each x the
    search visits (modelset._members), and -x."""
    return tuple(s for x, _, _ in _members(Fraction(4), Fraction(4)) if any(x)
                 for s in (x, tuple(-a for a in x)))


def _unit_lemma_list(radius_sq: Fraction) -> list[tuple[Coords, tuple[bool, dict | None]]]:
    """verify_unit_lemma's lookup list, each d > -d with its _judge verdict:
    the d with |d|^2 <= 1, and each seed of norm 2, 3 or 4 (none, on real
    norms) times eps^-k, k >= 0, up to |d|^2 <= 4R^2."""
    r4 = 4 * radius_sq
    ds = dict.fromkeys(d for d, _ in displacement_candidates(Window()))
    for d in _norm_gap_seeds():
        if norm_coords(*d) in (2, 3, 4):
            while golden_cmp(*abs_sq_coords(*d)[0], r4.numerator, r4.denominator) <= 0:
                ds[d] = None
                d = _times_eps_inv(*d)
    return [(d, _judge(d)) for d in ds if d > tuple(-a for a in d)]


def verify_unit_lemma(snapshot: Snapshot) -> VerificationReport:
    """Pairs closer than sqrt(5)/2 differ by a unit; non-unit differences
    have norm at least 5 (norms 2, 3, 4 never occur).

    Two good points (_split) differ by a d with |d|^2 <= 4R^2 and
    |sigma(d)|^2 <= 4, and only the d that are close or have norm 2, 3 or 4
    can change the report; _unit_lemma_list holds all of them, in a list
    that does not grow with R.  It is closed under d -> -d, and -d gets d's
    judgement, so only the d > -d are kept: each good pair i, j is hit
    once, along c_j - c_i or c_i - c_j, and kept as (min(i, j), max(i, j)).
    A close d that flags nothing is only counted, in one pass over the good
    points; only the flagged d are walked for rows.  A pair with a bad point
    is judged from its bad end, once: a bad j < i was judged from j.

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
    if snapshot.window.w != 1:
        return _skipped("unit-lemma", snapshot)

    coords, _, _, good, bad, b = _split(snapshot)
    walk = _walk(_unit_lemma_list(snapshot.radius_sq), b)
    n = len(coords)
    counted = [kd for kd, (close, v) in walk if close and not v]
    flagged = [(kd, close, v) for kd, (close, v) in walk if v]
    close_pairs = len([1 for k in good for kd in counted if k + kd in good])
    rows = []
    for k, i in good.items() if flagged else ():
        for kd, close, v in flagged:
            j = good.get(k + kd)
            if j is not None:
                close_pairs += close
                rows.append((min(i, j), max(i, j), v))
    is_bad = set(bad)
    for i in bad:
        a0, a1, a2, a3 = coords[i]
        for j, (c0, c1, c2, c3) in enumerate(coords):
            if j == i or j < i and j in is_bad:
                continue
            d = (c0 - a0, c1 - a1, c2 - a2, c3 - a3)
            close, v = _judge(d)
            close_pairs += close
            if v:
                rows.append((min(i, j), max(i, j), v))
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

    The distances come from the points alone, by analyze's pass
    (modelset._inner_nearest), not from the records, so a snapshot read
    from a file is checked as a fresh one; a repeated inner point, at 0
    from its copy, counts as other.
    """
    if snapshot.window.w != 1:
        return _skipped("two-distance", snapshot)
    violations = []
    counts = dict.fromkeys(DIST_CLASSES[:3], 0)  # short, long, other
    tested = 0
    for p, best in zip(snapshot.points, _inner_nearest(snapshot)):
        if best is None:
            continue
        tested += 1
        # not classify_distance, which rejects a nonpositive distance
        cls = DIST_CLASS_OF.get(best, DIST_OTHER)
        counts[cls] += 1
        if cls == DIST_OTHER:
            violations.append({"point": list(p.coords), "min_dist_sq": list(best)})
    both_required = snapshot.radius_sq >= 4
    both_present = all(counts[c] > 0 for c in DIST_CLASS_OF.values())
    if both_required and not both_present:
        violations.append({"clause": "missing-distance-class", "counts": dict(counts)})
    return VerificationReport("two-distance", not violations, tested,
                              violations, _params(snapshot),
                              details={"counts": dict(counts),
                                       "both_classes_present": both_present})


#: the tenth roots as a displacement list for _walk
_ROOTS = [(mu, None) for mu in TENTH_ROOTS]


def verify_step_existence(snapshot: Snapshot) -> VerificationReport:
    """Every point (boundary included) has a tenth-root-of-unity step that
    stays in the infinite set; exact, once per distinct |sigma(c + mu)|^2.

    Lookups first: a good point c (_split) passes as soon as c + mu is a
    good point for one of the roots mu that _walk keeps, found by the one
    lookup k(c) + k(mu) in good.  _walk keeps the mu with every
    |mu_i| <= 2M (none when M = 0), for which that key is a good point's
    only if c + mu is the point.  A good point was decided exactly to lie in
    the window, so this adds no float and no decision.  Only the bad points, and the good points
    with no good neighbour c + mu, try the ten roots by the exact window
    test, in point order, so the violations and their order are those of the
    ten-root test at every point.
    """
    if snapshot.window.w != 1:
        return _skipped("step-existence", snapshot)
    coords, _, _, good, bad, b = _split(snapshot)
    unstepped = good
    for kd, _ in _walk(_ROOTS, b):
        unstepped = [k for k in unstepped if k + kd not in good]
    in_window = _at_most(snapshot.window.w)
    violations = []
    for i in sorted(bad + [good[k] for k in unstepped]):
        a0, a1, a2, a3 = coords[i]
        for m0, m1, m2, m3 in TENTH_ROOTS:
            if in_window[abs_sq_coords(a0 + m0, a1 + m1, a2 + m2, a3 + m3)[1]]:
                break
        else:
            violations.append({"point": list(coords[i])})
    return VerificationReport("step-existence", not violations, len(coords),
                              violations, _params(snapshot))


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
    return _CHECKS[name](snapshot)

