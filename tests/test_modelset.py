"""Enumeration, membership, and nearest-neighbor classification tests."""

import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pentaset import cyclotomic, modelset
from pentaset.cyclotomic import (
    CycInt,
    GoldenInt,
    TENTH_ROOTS,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
    norm_coords,
    sqrt5_sign,
)
from pentaset.modelset import (
    PointRecord,
    Snapshot,
    Window,
    _at_most,
    analyze,
    classify_distance,
    displacement_candidates,
    enumerate_points,
    stats,
)
from pentaset.io_render import read_snapshot, write_snapshot
from pentaset.modelset import SearchRangeError, _is_inner, _members
from pentaset.verify import verify_separation, verify_step_existence

from oracles import (
    EPSILON,
    EPSILON_INV,
    ONE,
    ZERO,
    ZETA,
    abs_sq,
    beta_run,
    box_enumerate,
    floor_sqrt5,
    galois_apply,
    golden_cmp_golden,
    golden_to_float,
    nearest_in_snapshot,
    ring_add,
    ring_mul,
    ring_neg,
    ring_sub,
    row_enumerate,
    row_runs,
)


def coord_list(snapshot):
    return [p.coords for p in snapshot.points]


class TestWindow:
    def test_default_is_unit(self):
        assert Window().w == 1

    def test_diam_sq(self):
        assert Window(Fraction(1, 4)).diam_sq == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Window(0)


def in_window(z, window):
    """Exact window membership of the coordinates z, boundary included."""
    return _at_most(window.w)[abs_sq_coords(*z)[1]]


class TestContains:
    def test_zero(self):
        assert in_window(ZERO, Window())

    def test_fifth_root_on_boundary(self):
        # the closed window keeps the roots of unity in the set
        assert in_window(ONE, Window())
        assert in_window(ZETA, Window())

    def test_epsilon_excluded(self):
        assert not in_window(EPSILON, Window())


class TestEnumerate:
    def test_radius_zero(self):
        assert coord_list(enumerate_points(0)) == [(0, 0, 0, 0)]

    def test_radius_one_is_eleven_points(self):
        got = set(coord_list(enumerate_points(1)))
        expected = {(0, 0, 0, 0)} | set(TENTH_ROOTS)
        assert got == expected

    def test_brute_force_oracle_radius_one(self):
        # direct scan over the full coordinate box ||a||^2 <= 4
        found = set()
        for a0 in range(-2, 3):
            for a1 in range(-2, 3):
                for a2 in range(-2, 3):
                    for a3 in range(-2, 3):
                        if a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 > 4:
                            continue
                        phys, intr = abs_sq_coords(a0, a1, a2, a3)
                        if golden_cmp(*phys, 1) <= 0 and golden_cmp(*intr, 1) <= 0:
                            found.add((a0, a1, a2, a3))
        assert found == set(coord_list(enumerate_points(1)))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            enumerate_points(-1)

    def test_exactness_of_both_constraints(self):
        snap = enumerate_points(Fraction(25, 2), Window(Fraction(1, 2)))
        r, w = snap.radius_sq, snap.window.w
        for p in snap.points:
            g, h = abs_sq_coords(*p.coords)[0], p.iabs
            assert golden_cmp(*g, r.numerator, r.denominator) <= 0
            assert golden_cmp(*h, w.numerator, w.denominator) <= 0

    @pytest.mark.parametrize("r_sq", [1, 4, Fraction(25, 4), 16])
    def test_symmetry_closure(self, r_sq):
        members = set(coord_list(enumerate_points(r_sq)))
        for z in members:
            for mu in TENTH_ROOTS:
                assert ring_mul(mu, z) in members
            assert galois_apply(z, 4) in members

    # windows 1 and 49/4 have members on the window boundary
    @pytest.mark.parametrize("w", [Fraction(1), Fraction(1, 4), Fraction(4),
                                   Fraction(49, 4), Fraction(1, 3)])
    @pytest.mark.parametrize("r_sq", [0, Fraction(7, 2), 9, 36, Fraction(1, 1000)])
    def test_box_and_fast_agree(self, r_sq, w):
        fast = enumerate_points(r_sq, Window(w))
        box = box_enumerate(r_sq, Window(w))
        assert coord_list(fast) == coord_list(box)

    @given(st.fractions(0, 12, max_denominator=12),
           st.fractions(Fraction(1, 12), 5, max_denominator=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_box_oracle_on_rational_parameters(self, r_sq, w):
        assert coord_list(enumerate_points(r_sq, Window(w))) == \
               coord_list(box_enumerate(r_sq, Window(w)))

    def test_search_is_output_sensitive(self, monkeypatch):
        # the row search decides one candidate per pair +-z, plus the few
        # that end rows: at R = 40 it visits 1836 rows and makes 2822 exact
        # tests for the 2820 pairs
        rows, tests = [], 0
        visit, membership = modelset._rows, modelset._membership

        def counted_rows(*args):
            for row in visit(*args):
                rows.append(row)
                yield row

        class Counted(dict):
            def __init__(self, memo):
                self.memo = memo

            def __getitem__(self, key):
                nonlocal tests
                tests += 1
                return self.memo[key]

        monkeypatch.setattr(modelset, "_rows", counted_rows)
        monkeypatch.setattr(modelset, "_membership", lambda r, w: Counted(membership(r, w)))
        n = len(enumerate_points(1600).points)
        assert n == 5641
        assert tests == sum(max(0, last - first + 1) for _, first, last in rows)
        assert (n - 1) // 2 <= tests <= 0.5 * n + 50
        assert len(rows) <= 0.4 * n + 50

    @pytest.mark.parametrize("r_sq, w", [(400, 1), (Fraction(73, 2), Fraction(49, 4))])
    def test_places_are_the_embedding_bit_for_bit(self, r_sq, w):
        # -z is placed by negating z's place; float.hex tells 0.0 from -0.0
        for p in enumerate_points(r_sq, Window(w)).points:
            e = embed_approx(p.coords)
            assert (p.x.hex(), p.y.hex()) == (e.real.hex(), e.imag.hex()), p.coords

    def test_count_matches_density_at_radius_80(self):
        # density 4*pi*w/sqrt(125) (Baake-Grimm, Aperiodic Order 1, ch. 7)
        n = len(enumerate_points(6400).points)
        assert n == pytest.approx(4 * math.pi / math.sqrt(125) * math.pi * 6400, rel=0.02)

    @pytest.mark.parametrize("r_sq, w", [(Fraction(1, 10 ** 9), 1),
                                         (Fraction(999, 1000), 1), (3, Fraction(1, 4))])
    def test_below_unit_norm_only_origin(self, r_sq, w):
        # a nonzero z has |z|^2 |sigma z|^2 = N(z) >= 1, so R^2 w < 1 leaves 0
        assert coord_list(enumerate_points(r_sq, Window(w))) == [(0, 0, 0, 0)]

    @pytest.mark.parametrize("r_sq, w", [(10 ** 7, 1), (1, 10 ** 7), (10 ** 13, 10 ** 12)])
    def test_outside_proven_range_rejected(self, r_sq, w):
        with pytest.raises(SearchRangeError, match="proven complete"):
            enumerate_points(r_sq, Window(w))

    def test_displacement_list_outside_proven_range_names_w(self):
        with pytest.raises(SearchRangeError, match=r"^w = 250001 .*\(w <= 250000\)$") as e:
            displacement_candidates(Window(250001))
        assert isinstance(e.value.__cause__, SearchRangeError)
        assert "w = 1000004" in str(e.value.__cause__)

    def test_unit_scaling_maps_into_larger_disc(self):
        # eps^-1 scales physical space by phi and internal space by 1/phi,
        # so eps^-1 * S(R) lies in S(R') for R'^2 >= phi^2 R^2
        assert ring_mul(EPSILON, EPSILON_INV) == ONE
        r_sq, r2_sq = 20, 53  # phi^2 * 20 = 52.36...
        larger = set(coord_list(enumerate_points(r2_sq)))
        for c in coord_list(enumerate_points(r_sq)):
            img = ring_mul(EPSILON_INV, c)
            p, q = abs_sq(img, "physical")
            # |eps^-1 z|^2 <= phi^2 R^2 = R^2 + R^2 phi, exactly
            assert golden_cmp(p - r_sq, q - r_sq, 0) <= 0
            assert img in larger

    # the TestSplitMemo cases too: M large, w != 1, and M = 0 (key base B = 1)
    @pytest.mark.parametrize("r_sq, w", [
        (9, 1), (0, 1), (Fraction(1, 1000), 1), (Fraction(73, 2), Fraction(49, 4)),
        (400, Fraction(1, 5)), (6400, 1), (10 ** 4, Fraction(1, 100)),
        (Fraction(1, 100), 10 ** 4)],
        ids=["9-1", "0-1", "1/1000-1", "73/2-49/4", "400-1/5", "6400-1", "10^4-1/100",
             "1/100-10^4"])
    def test_deterministic_order(self, r_sq, w):
        a = coord_list(enumerate_points(r_sq, Window(w)))
        b = coord_list(enumerate_points(r_sq, Window(w)))
        assert a == b == sorted(a, key=lambda c: (sum(
            5 * x * x for x in c) - sum(c) ** 2, c))  # Q then lex, doubled Q is fine


@pytest.fixture(scope="module")
def analyzed25():
    return analyze(enumerate_points(25))


def _min_dist_sq(snap, z):
    return next(p.min_dist_sq for p in snap.points if p.coords == z)


class TestMinDistance:
    def test_origin(self, analyzed25):
        assert _min_dist_sq(analyzed25, ZERO) == (1, 0)

    def test_one(self, analyzed25):
        assert _min_dist_sq(analyzed25, ONE) == (2, -1)

    def test_rotation_invariance(self, analyzed25):
        # |zeta z| = |z|, so an inner point's image is inner too
        by_coords = {p.coords: p.min_dist_sq for p in analyzed25.points}
        inner = [p for p in analyzed25.points if p.min_dist_sq is not None]
        assert len(inner) > 10
        for p in inner:
            assert by_coords[ring_mul(ZETA, p.coords)] == p.min_dist_sq

    def test_candidate_set_completeness(self, analyzed25):
        # an inner point's nearest neighbor in the snapshot is its nearest
        # neighbor in the infinite set: a full pairwise scan over an
        # enlarged snapshot must agree
        window = Window()
        sample = [p for p in analyzed25.points if p.min_dist_sq is not None][::7]
        for p in sample:
            c = p.coords
            r = math.sqrt(golden_to_float(abs_sq(c, "physical")))
            oracle_snap = enumerate_points(math.ceil((r + 1.5) ** 2), window)
            best = None
            for c2 in coord_list(oracle_snap):
                if c2 == c:
                    continue
                d = abs_sq(ring_sub(c2, c), "physical")
                if best is None or golden_cmp_golden(d, best) < 0:
                    best = d
            assert p.min_dist_sq == best

    def test_unit_window_displacements(self):
        # the ten short steps +-zeta^k eps, then the ten long steps +-zeta^k
        cands = displacement_candidates(Window())
        assert [d for d, _ in cands] == \
            sorted(ring_mul(mu, EPSILON) for mu in TENTH_ROOTS) + \
            sorted(TENTH_ROOTS)
        assert [g for _, g in cands] == [(2, -1)] * 10 + [(1, 0)] * 10
        assert all(norm_coords(*d) == 1 for d, _ in cands)
        # no difference of unit-window members has 1 < |d|^2 < 5/4, so this
        # list holds every d closer than sqrt(5)/2
        assert [d for d, _, _ in _members(Fraction(5, 4), Fraction(4))] == \
            [d for d, _, _ in _members(Fraction(1), Fraction(4))]

    def test_displacement_lists_are_bounded(self):
        # a list is kept per window; many windows must not grow the cache
        for k in range(2, 202):
            displacement_candidates(Window(Fraction(1, k)))
        maxsize = displacement_candidates.cache_parameters()["maxsize"]
        assert maxsize is not None
        assert displacement_candidates.cache_info().currsize <= maxsize

    def test_displacements_sorted_and_nonzero(self):
        cands = displacement_candidates(Window())
        assert all(d != (0, 0, 0, 0) for d, _ in cands)
        for (_, a), (_, b) in zip(cands, cands[1:]):
            assert golden_cmp_golden(a, b) <= 0


class TestClassify:
    def test_short(self):
        assert classify_distance((2, -1)) == "short"

    def test_long(self):
        assert classify_distance((1, 0)) == "long"

    def test_other(self):
        assert classify_distance((3, -1)) == "other"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_distance((0, 0))
        with pytest.raises(ValueError):
            classify_distance((-1, 0))


def _members_pm(r_sq, w) -> set:
    """_members' coordinates as a set, checked to be the origin, then pairs
    z, -z, each point once, z with (n2, m2, n1, m1) > 0 lexicographically in
    the row coordinates z = (m1 + n1 phi) + (m2 + n2 phi) zeta."""
    found = [c for c, _, _ in _members(Fraction(r_sq), Fraction(w))]
    assert found[0] == ZERO
    for (a0, a1, a2, a3), neg in zip(found[1::2], found[2::2]):
        assert neg == ring_neg((a0, a1, a2, a3))
        assert (a2 - a3, a1 - a2 + a3, -a3, a0 - a2 + a3) > (0, 0, 0, 0)
    assert len(set(found)) == len(found)
    return set(found)


class TestRowOracle:
    """_members against oracles.row_enumerate, whose row ends are exact."""

    @pytest.mark.parametrize("r_sq, w, n", [
        (400, 1, 1411), (6400, 1, 22621), (25600, 1, 90381),
        (Fraction(73, 2), Fraction(49, 4), 1581), (1600, Fraction(1, 5), 1131),
        (1000, Fraction(49, 4), 43261),
        # the two ends of the ratio range, R^2/w = 10^6 and 10^-6
        (10 ** 4, Fraction(1, 100), 351), (Fraction(1, 100), 10 ** 4, 351)])
    def test_members_match_row_oracle(self, r_sq, w, n):
        members = _members_pm(r_sq, w)
        assert len(members) == n
        assert members == row_enumerate(r_sq, Window(w))

    # beta = 2 phi^6 = 10 + 16 phi has beta*c = phi^5, so z = -phi^5 + beta*zeta
    # = (13, 26, 21, 5) has alpha + beta*c = 0: its row touches the circle
    # |z|^2 = s^2 beta^2 = 322 + 521 phi at z.  Likewise beta = 2 psi^6 =
    # 26 - 16 phi touches the window's circle |sigma z|^2 = 123 + 199 phi at
    # (5, 10, -3, 13).  R^2, or w, is set 10^-30 below or above the touch.
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("z, which, p, q", [((13, 26, 21, 5), 0, 322, 521),
                                                ((5, 10, -3, 13), 1, 123, 199)])
    def test_near_tangent_rows(self, z, which, p, q, above):
        assert abs_sq_coords(*z)[which] == (p, q)
        hair = 10 ** 30  # p + q phi = (2p + q + q sqrt 5)/2
        edge = Fraction(floor_sqrt5((2 * p + q) * hair, q * hair, 2) + above, hair)
        r_sq, w = (edge, 1) if which == 0 else (1, edge)
        members = _members_pm(r_sq, w)
        assert (z in members) == above
        assert members == row_enumerate(r_sq, Window(w))

    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("which", [0, 1], ids=["disc", "window"])
    def test_near_tangent_rows_at_the_range_edge(self, which, s):
        # beta = 2 phi^25 with alpha = s - phi^24 (disc), or beta = -2 psi^25
        # with alpha = -(s + psi^26) (window), puts z one unit from where its
        # row touches the circle: alpha + beta c = s, or alpha' + beta' c' = -s.
        # R^2, or w, is set 10^-40 above |z|^2 ~ 1e11, or |sigma z|^2 ~ 4e10,
        # the other at 10^6, so z ends its row; there D is 0.2 to 0.3, and
        # with D = 0 these rows lose z
        f = [0, 1]
        while len(f) < 28:
            f.append(f[-1] + f[-2])
        n2, m2, n1, m1 = ((2 * f[25], 2 * f[24], -f[24], s - f[23]) if which == 0
                          else (2 * f[25], -2 * f[26], f[26], -s - f[27]))
        p, q = abs_sq_coords(m1 + n2, m2 + n2, n2 - n1, -n1)[which]
        hair = 10 ** 40
        edge = Fraction(floor_sqrt5((2 * p + q) * hair, q * hair, 2) + 1, hair)
        r_sq, w = (edge, 10 ** 6) if which == 0 else (10 ** 6, edge)
        exact = row_runs(r_sq, w, n2, m2)
        assert m1 in exact[n1]
        r2, wf = float(r_sq), float(w)
        rows = {k: (first, last) for k, first, last
                in modelset._rows(n2, m2, r2, wf, modelset._margin(r2, wf))}
        for k, (lo, hi) in exact.items():
            assert rows[k][0] <= lo and hi <= rows[k][1], k

    @pytest.mark.parametrize("r_sq, w", [(10 ** 12, 10 ** 6), (10 ** 6, 10 ** 12),
                                         (10 ** 12, 10 ** 12)])
    def test_float_rows_hold_the_exact_rows_at_the_range_edges(self, r_sq, w):
        # at the corners of the range the search accepts, D is 1 to 2; the
        # three largest n2 hold the betas nearest both rims, and the ends of
        # their m2 runs the near-tangent rows
        r2, wf = float(r_sq), float(w)
        d = modelset._margin(r2, wf)
        n2 = math.floor((math.sqrt(r2 / modelset._S2) + math.sqrt(wf / modelset._S2_I))
                        / math.sqrt(5)) + 3
        checked = 0
        while checked < 3:
            betas = beta_run(r_sq, w, n2)
            for m2 in sorted(set(betas or ())):
                exact = row_runs(r_sq, w, n2, m2)
                rows = {n1: (first, last)
                        for n1, first, last in modelset._rows(n2, m2, r2, wf, d)}
                assert exact and exact.keys() <= rows.keys()
                for n1, (lo, hi) in exact.items():
                    assert rows[n1][0] <= lo and hi <= rows[n1][1], (n2, m2, n1)
            checked += betas is not None
            n2 -= 1


def _record(z: tuple) -> PointRecord:
    e = embed_approx(z)
    return PointRecord(z, abs_sq_coords(*z)[1], e.real, e.imag)


def _mutated():
    # the first inner point other than the origin moved by eps, off the set
    snap = enumerate_points(25)
    pts = list(snap.points)
    r = snap.radius_sq
    idx = next(i for i, p in enumerate(pts)
               if any(p.coords)
               and _is_inner(*abs_sq_coords(*p.coords)[0], r.numerator, r.denominator))
    pts[idx] = _record(ring_add(pts[idx].coords, EPSILON))
    return Snapshot(snap.window, snap.radius_sq, pts)


def _missing_orbit():
    snap = enumerate_points(25)
    roots = set(TENTH_ROOTS)
    return Snapshot(snap.window, snap.radius_sq,
                    [p for p in snap.points if p.coords not in roots])


def _stray():
    # 1 + eps^3 lies outside the window, at distance eps^3 from 1
    snap = enumerate_points(25)
    eps3 = ring_mul(EPSILON, ring_mul(EPSILON, EPSILON))
    return Snapshot(snap.window, snap.radius_sq,
                    snap.points + [_record(ring_add(ONE, eps3))])


_ORACLE_SNAPSHOTS = {
    "clean-unit": lambda: enumerate_points(25),
    "clean-49/4": lambda: enumerate_points(9, Window(Fraction(49, 4))),
    "mutated": _mutated,
    "missing-orbit": _missing_orbit,
    "stray": _stray,
}


class TestAnalyze:
    def test_no_other_class(self):
        snap = analyze(enumerate_points(4))
        assert stats(snap)["classes"]["other"] == 0

    def test_origin_only_snapshot_is_unknown(self):
        snap = analyze(enumerate_points(0))
        assert stats(snap)["classes"] == {"short": 0, "long": 0, "other": 0, "unknown": 1}

    def test_classes_partition_inner_points(self):
        snap = analyze(enumerate_points(25))
        inner = sum(1 for p in snap.points if p.dist_class != "unknown")
        classes = stats(snap)["classes"]
        assert classes["short"] + classes["long"] == inner

    @pytest.mark.parametrize("snapshot", [
        "clean-unit", "clean-49/4", "mutated", "missing-orbit", "stray"])
    def test_matches_brute_force_oracle(self, snapshot):
        # the exact distance to the nearest other point of the snapshot,
        # also where the snapshot is not a clean enumeration
        snap = _ORACLE_SNAPSHOTS[snapshot]()
        got = analyze(snap)
        assert [(p.min_dist_sq, p.dist_class) for p in got.points] == \
               nearest_in_snapshot(snap)

    def test_repeated_inner_point_rejected(self):
        snap = enumerate_points(25)
        one = next(p for p in snap.points if p.coords == ONE)
        with pytest.raises(ValueError):
            analyze(Snapshot(snap.window, snap.radius_sq, snap.points + [one]))

    def test_fills_its_own_records(self):
        snap = enumerate_points(25)
        records = list(snap.points)
        assert analyze(snap) is snap
        assert all(a is b for a, b in zip(snap.points, records, strict=True))
        assert any(p.dist_class != "unknown" for p in records)

    def test_reanalysis_overwrites_stale_fields(self):
        # re-analysing after dropping the ten roots (as _missing_orbit does)
        # equals analysing fresh records; stale results, None and "unknown"
        # included, are overwritten
        roots = set(TENTH_ROOTS)
        snap = analyze(enumerate_points(25))
        holed = Snapshot(snap.window, snap.radius_sq,
                         [p for p in snap.points if p.coords not in roots])
        inner = [p for p in holed.points if p.dist_class != "unknown"]
        outer = [p for p in holed.points if p.dist_class == "unknown"]
        assert inner and outer
        inner[0].min_dist_sq, inner[0].dist_class = None, "unknown"
        outer[0].min_dist_sq, outer[0].dist_class = (1, 0), "short"
        fresh = Snapshot(holed.window, holed.radius_sq,
                         [_record(p.coords) for p in holed.points])
        got = analyze(holed)
        assert [(p.min_dist_sq, p.dist_class) for p in got.points] == \
               [(p.min_dist_sq, p.dist_class) for p in analyze(fresh).points]
        origin = next(p for p in got.points if p.coords == ZERO)
        assert (origin.min_dist_sq, origin.dist_class) == ((1, 1), "other")

    @pytest.mark.parametrize("analysed", [False, True])
    def test_repeated_point_writes_no_record(self, analysed):
        snap = enumerate_points(25)
        if analysed:
            snap = analyze(snap)
        before = [(p.min_dist_sq, p.dist_class) for p in snap.points]
        one = next(p for p in snap.points if p.coords == ONE)
        with pytest.raises(ValueError) as err:
            analyze(Snapshot(snap.window, snap.radius_sq, snap.points + [_record(ONE)]))
        assert str(err.value) == f"point {ONE} appears more than once in the snapshot"
        assert [(p.min_dist_sq, p.dist_class) for p in snap.points] == before
        assert one.dist_class == ("short" if analysed else "unknown")

    def test_inner_margin(self):
        # a point is classified iff its unit neighborhood fits in the disc
        snap = analyze(enumerate_points(9))
        r = snap.radius_sq
        for p in snap.points:
            assert (p.dist_class != "unknown") == _is_inner(*abs_sq_coords(*p.coords)[0],
                                                            r.numerator, r.denominator)

    @given(st.integers(0, 20), st.fractions(0, 10, max_denominator=16))
    @settings(max_examples=80, deadline=None)
    def test_is_inner_matches_floats(self, g_p, r_sq):
        # pure integer golden values stay far from the boundary cases
        expected = math.sqrt(g_p) <= math.sqrt(r_sq) - 1
        if abs(math.sqrt(g_p) - (math.sqrt(r_sq) - 1)) > 1e-9:
            assert _is_inner(g_p, 0, r_sq.numerator, r_sq.denominator) == expected


def _memo_free(snap: Snapshot) -> Snapshot:
    return Snapshot(snap.window, snap.radius_sq, list(snap.points))


class TestSplitMemo:
    """enumerate_points keeps its snapshot's split (modelset._split), made
    from the search's own decisions; _split serves a kept split only while
    the coordinates, R^2 and w are those it was made from."""

    @pytest.mark.parametrize("radius_sq, w", [
        (0, 1), (Fraction(1, 1000), 1), (4, 1), (Fraction(73, 2), Fraction(49, 4)),
        (248, 1), (30, 4), (400, Fraction(1, 5)), (6400, 1),
        (10 ** 4, Fraction(1, 100)), (Fraction(1, 100), 10 ** 4)])
    def test_enumerator_split_is_the_general_split(self, radius_sq, w):
        snap = enumerate_points(radius_sq, Window(w))
        kept = snap._split_memo
        assert modelset._split(snap) is kept[2]
        assert kept[2] == modelset._split(_memo_free(snap))

    @pytest.mark.parametrize("change", [
        "append", "swap", "assign-coords", "reverse", "radius", "window"])
    def test_changed_snapshot_takes_the_general_path(self, change):
        snap = enumerate_points(400)
        kept, pts = snap._split_memo[2], snap.points
        if change == "append":
            pts.append(_record((5, 0, 0, 0)))
        elif change == "swap":
            pts[7] = _record(ring_add(pts[7].coords, EPSILON))
        elif change == "assign-coords":
            pts[7].coords = pts[8].coords
        elif change == "reverse":
            pts.reverse()
        elif change == "radius":
            snap.radius_sq = Fraction(100)
        else:
            snap.window = Window(Fraction(1, 2))
        split = modelset._split(snap)
        assert split != kept
        assert split == modelset._split(_memo_free(snap))


class TestNoRingObjectPerPoint:
    """Points travel as coordinate tuples and distances as (p, q) pairs:
    enumerating, analysing, reading and writing build no CycInt or GoldenInt."""

    @pytest.fixture
    def built(self, monkeypatch):
        displacement_candidates(Window())  # fill the cache before counting
        built = {CycInt: 0, GoldenInt: 0}
        for cls in built:
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        return built

    def test_counts_at_radius_20(self, built):
        snap = enumerate_points(400)
        assert len(snap.points) == 1411
        assert built == {CycInt: 0, GoldenInt: 0}
        analyzed = analyze(snap)
        assert built == {CycInt: 0, GoldenInt: 0}
        for fmt in ("jsonl", "csv"):
            buf = io.StringIO()
            write_snapshot(analyzed, fmt, buf)
            buf.seek(0)
            assert len(read_snapshot(buf).points) == 1411
        assert built == {CycInt: 0, GoldenInt: 0}

    def test_one_record_per_point(self, monkeypatch):
        # enumerate_points builds each record once; analyze builds none
        displacement_candidates(Window())
        calls = []
        init = PointRecord.__init__

        def counting(self, *args, **kwargs):
            calls.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(PointRecord, "__init__", counting)
        snap = enumerate_points(400)
        assert len(calls) == len(snap.points) == 1411
        assert set(map(id, calls)) == set(map(id, snap.points))
        calls.clear()
        assert analyze(snap) is snap and calls == []


class TestOneDecisionPerValue:
    """Each exact test runs once per distinct value, not once per point: at
    R^2 = 400 (n = 1411, 79 distinct (|z|^2, |sigma z|^2) pairs, two nearest
    distances) no layer makes more than n/3 exact sign decisions."""

    @pytest.mark.parametrize("layer", ["enumerate", "analyze", "read-jsonl", "read-csv",
                                       "separation", "step-existence"])
    def test_sign_decisions_per_layer(self, monkeypatch, layer):
        displacement_candidates(Window())  # fill the cache before counting
        snap = analyze(enumerate_points(400))
        texts = {}
        for fmt in ("jsonl", "csv"):
            buf = io.StringIO()
            write_snapshot(snap, fmt, buf)
            texts[fmt] = buf.getvalue()
        run = {"enumerate": lambda: enumerate_points(400),
               "analyze": lambda: analyze(snap),
               "read-jsonl": lambda: read_snapshot(io.StringIO(texts["jsonl"])),
               "read-csv": lambda: read_snapshot(io.StringIO(texts["csv"])),
               "separation": lambda: verify_separation(snap),
               "step-existence": lambda: verify_step_existence(snap)}[layer]
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return sqrt5_sign(a, b)
        monkeypatch.setattr(cyclotomic, "sqrt5_sign", counting)
        monkeypatch.setattr(modelset, "sqrt5_sign", counting)
        run()
        assert len(snap.points) == 1411
        assert 0 < len(calls) <= len(snap.points) / 3


class TestStats:
    def test_count_radius_one(self):
        assert stats(analyze(enumerate_points(1)))["count"] == 11

    def test_order_independent(self):
        snap = analyze(enumerate_points(9))
        reordered = Snapshot(snap.window, snap.radius_sq,
                             list(reversed(snap.points)))
        a, b = stats(snap), stats(reordered)
        assert a["count"] == b["count"] and a["classes"] == b["classes"]

    def test_density_near_theoretical(self):
        summary = stats(analyze(enumerate_points(225)))
        assert summary["density"] == pytest.approx(4 * math.pi / math.sqrt(125),
                                                   rel=0.1)

    def test_no_density_for_degenerate_disc(self):
        assert stats(analyze(enumerate_points(0)))["density"] is None
