"""Theorem-check tests: clean snapshots pass, seeded corruptions fail."""

import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracles
from oracles import EPSILON, EPSILON_INV, ONE, ZETA, ring_add, ring_mul, ring_sub
from pentaset import modelset, verify
from pentaset.cyclotomic import (
    TENTH_ROOTS,
    abs_sq_coords,
    embed_approx,
    norm_coords,
)
from pentaset.io_render import read_snapshot, write_snapshot
from pentaset.modelset import (
    PointRecord,
    Snapshot,
    Window,
    analyze,
    displacement_candidates,
    enumerate_points,
)
from pentaset.verify import (
    CHECK_NAMES,
    run_check,
    verify_all,
    verify_rotation,
    verify_separation,
    verify_step_existence,
    verify_two_distance,
    verify_unit_lemma,
)


@pytest.fixture(scope="module")
def snap4():
    return analyze(enumerate_points(4))


@pytest.fixture(scope="module")
def snap25():
    return analyze(enumerate_points(25))


def make_record(z: tuple) -> PointRecord:
    e = embed_approx(z)
    return PointRecord(z, abs_sq_coords(*z)[1], e.real, e.imag)


def with_extra_point(snap: Snapshot, z: tuple) -> Snapshot:
    return Snapshot(snap.window, snap.radius_sq, snap.points + [make_record(z)])


EPS3 = ring_mul(ring_mul(EPSILON, EPSILON), EPSILON)

coords = st.integers(min_value=-50, max_value=50)
cycints = st.tuples(coords, coords, coords, coords)


def _key_base(snap: Snapshot) -> int:
    """The base B of modelset._split's point key for snap at w = 1: the key
    of zeta^2 = (0, 0, 1, 0) is B."""
    coords, _, keys, *_ = modelset._split(snap)
    return keys[coords.index((0, 0, 1, 0))]


def _corrupted(name: str) -> Snapshot:
    """A seeded corruption: a point outside the window (1 + eps^3), two such
    points on either side of 1 (1 +- eps^3), a close non-unit neighbour
    (1 + eps^3 (1 - zeta)), a repeated point, a point outside disc and
    window ((5, 0, 0, 0)), a window member outside the disc, a far point
    whose key is that of the good point 1, or three kinds at once."""
    snap4 = analyze(enumerate_points(4))
    if name == "eps3":
        return with_extra_point(snap4, ring_add(ONE, EPS3))
    if name == "eps3-pair":
        return with_extra_point(with_extra_point(snap4, ring_add(ONE, EPS3)),
                                ring_sub(ONE, EPS3))
    if name == "eps3-non-unit":
        return with_extra_point(snap4, ring_add(ONE, ring_mul(EPS3, (1, -1, 0, 0))))
    if name == "duplicate":
        return with_extra_point(snap4, snap4.points[5].coords)
    if name == "far":
        return with_extra_point(enumerate_points(1), (5, 0, 0, 0))
    if name == "key-collision":
        # k(c + (0, 0, 1, -B)) = k(c) + B - B
        return with_extra_point(snap4, ring_add(ONE, (0, 0, 1, -_key_base(snap4))))
    if name == "outside-disc":
        # zeta is in the window but not in the disc R^2 = 1/10
        return with_extra_point(enumerate_points(Fraction(1, 10)), ZETA)
    snap25 = analyze(enumerate_points(25))
    for z in (ring_add(ONE, EPS3), snap25.points[7].coords, (5, 0, 0, 0)):
        snap25 = with_extra_point(snap25, z)
    return snap25


CORRUPTIONS = ("eps3", "eps3-pair", "eps3-non-unit", "duplicate", "far", "key-collision",
               "outside-disc", "mix")


class TestAgainstAllPairsOracle:
    """The lookup checks give the same report as comparing every pair."""

    @pytest.mark.parametrize("radius_sq", [0, 1, 4, 25])
    def test_clean_unit_window(self, radius_sq):
        snap = enumerate_points(radius_sq)
        assert verify_separation(snap).to_json_dict() == oracles.separation(snap).to_json_dict()
        assert verify_unit_lemma(snap).to_json_dict() == oracles.unit_lemma(snap).to_json_dict()

    @pytest.mark.parametrize("window_sq,radius_sq", [
        (Fraction(4), Fraction(30)), (Fraction(49, 4), Fraction(9)),
        (Fraction(1, 5), Fraction(30)), (Fraction(1, 5), Fraction(3))])
    def test_separation_other_windows(self, window_sq, radius_sq):
        # w = 1/5 has 1/(4w) > 1, so the displacement list reaches past length 1
        snap = enumerate_points(radius_sq, Window(window_sq))
        assert verify_separation(snap).to_json_dict() == oracles.separation(snap).to_json_dict()

    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_corruptions(self, name):
        snap = _corrupted(name)
        assert verify_separation(snap).to_json_dict() == oracles.separation(snap).to_json_dict()
        assert verify_unit_lemma(snap).to_json_dict() == oracles.unit_lemma(snap).to_json_dict()

    @pytest.mark.parametrize("name", ["eps3", "duplicate"])
    def test_corruptions_in_place(self, name):
        # the corruption made in an analyzed enumeration, which keeps the
        # enumerator's split: the checks see the change
        snap = analyze(enumerate_points(4))
        z = ring_add(ONE, EPS3) if name == "eps3" else snap.points[5].coords
        snap.points.append(make_record(z))
        sep, unit = verify_separation(snap), verify_unit_lemma(snap)
        assert sep.to_json_dict() == oracles.separation(snap).to_json_dict()
        assert unit.to_json_dict() == oracles.unit_lemma(snap).to_json_dict()
        assert not sep.passed and not unit.passed

    def test_corruptions_are_caught(self):
        # the oracle comparisons above are not all vacuous passes
        failed = {name: (not verify_separation(_corrupted(name)).passed,
                         not verify_unit_lemma(_corrupted(name)).passed)
                  for name in CORRUPTIONS}
        assert failed == {"eps3": (True, True), "eps3-pair": (True, True),
                          "eps3-non-unit": (False, True),
                          "duplicate": (True, True), "far": (False, False),
                          "key-collision": (False, False),
                          "outside-disc": (False, False), "mix": (True, True)}

    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_nearest_matches_all_pairs(self, name):
        # every point's nearest distance, bad points included, so that a walk
        # started from a bad point that shares a good point's key shows here
        # and not only through the reports above
        snap = _corrupted(name)
        coords, _, keys, good, bad, b = modelset._split(snap)
        walk = modelset._walk(displacement_candidates(snap.window), b)
        if name == "key-collision":
            assert good.get(keys[-1]) == coords.index((1, 0, 0, 0))
        got = [modelset._nearest(i, coords, keys, good, bad, walk) for i in range(len(coords))]
        assert got == [oracles.nearest_dist_sq(coords, i) for i in range(len(coords))]

    @pytest.mark.parametrize("m,radius_sq", [(1, 1), (2, 7)])
    def test_key_injective_on_box(self, m, radius_sq):
        # every point of [-3M, 3M]^4, the members among them giving M
        box = itertools.product(range(-3 * m, 3 * m + 1), repeat=4)
        snap = Snapshot(Window(), Fraction(radius_sq), [make_record(c) for c in box])
        *_, keys, _, _, b = modelset._split(snap)
        assert b == 6 * m + 1
        assert len(set(keys)) == len(keys) == (6 * m + 1) ** 4

    @pytest.mark.parametrize("window_sq,radius_sq", [
        (Fraction(1, 5), Fraction(3)), (Fraction(4), Fraction(1, 10)),
        (Fraction(4), Fraction(1)), (Fraction(49, 4), Fraction(1, 2))])
    def test_nearest_with_displacements_beyond_2m(self, window_sq, radius_sq):
        # the walk drops the d with a coordinate beyond 2M, which join no
        # two good points; at w = 4, R^2 = 1/10 the origin alone gives B = 1,
        # and (1, -1, 1, -1) in the list has the origin's key
        snap = enumerate_points(radius_sq, Window(window_sq))
        coords, _, keys, good, bad, b = modelset._split(snap)
        ds = displacement_candidates(snap.window)
        assert any(max(map(abs, d)) > (b - 1) // 3 for d, _ in ds)
        walk = modelset._walk(ds, b)
        got = [modelset._nearest(i, coords, keys, good, bad, walk) for i in range(len(coords))]
        assert got == [oracles.nearest_dist_sq(coords, i) for i in range(len(coords))]

    def test_norm_gap_clause(self, snap25, monkeypatch):
        # no difference has norm 2, 3 or 4, so pretend +-2 has norm 4 in both
        def fake_norm(*c):
            return 4 if c in {(2, 0, 0, 0), (-2, 0, 0, 0)} else norm_coords(*c)
        monkeypatch.setattr(verify, "norm_coords", fake_norm)
        monkeypatch.setattr(oracles, "field_norm", lambda z: fake_norm(*z))
        r = verify_unit_lemma(snap25)
        assert r.to_json_dict() == oracles.unit_lemma(snap25).to_json_dict()
        assert not r.passed
        assert {v["clause"] for v in r.violations} == {"norm-gap"}

    def test_norm_gap_orbit(self, snap25, monkeypatch):
        # an eps-invariant fake, N = 4 on every eps^k * (+-2): only +-2 lies in
        # _members(4, 4), so the other flagged differences (eps^-1 * 2 has
        # |sigma|^2 ~ 1.53) are found only by walking the orbit
        orbit = set()
        for unit in (EPSILON, EPSILON_INV):
            for z in ((2, 0, 0, 0), (-2, 0, 0, 0)):
                for _ in range(12):
                    orbit.add(z)
                    z = ring_mul(z, unit)

        def fake_norm(*c):
            return 4 if c in orbit else norm_coords(*c)
        monkeypatch.setattr(verify, "norm_coords", fake_norm)
        monkeypatch.setattr(oracles, "field_norm", lambda z: fake_norm(*z))
        r = verify_unit_lemma(snap25)
        assert r.to_json_dict() == oracles.unit_lemma(snap25).to_json_dict()
        flagged = {tuple(b - a for a, b in zip(*v["pair"])) for v in r.violations}
        assert flagged - {(2, 0, 0, 0), (-2, 0, 0, 0)}

    def test_no_two_points_within_one(self):
        # 0 and 1 + zeta are both in the window, |1 + zeta|^2 = phi^2 > 1:
        # the displacement list finds no pair, so every pair is compared
        snap = Snapshot(Window(), Fraction(100), [make_record((0, 0, 0, 0)),
                                                  make_record((1, 1, 0, 0))])
        r = verify_separation(snap)
        assert r.to_json_dict() == oracles.separation(snap).to_json_dict()
        assert r.details["min_pair_dist_sq"] == [1, 1]


class TestWorkBound:
    """analyze and separation compute O(n) distances, not one per pair, at
    small windows too, where the displacement list reaches past length 1.
    Each stage runs on a copy without the enumerator's split, so the bound
    holds for the general path of modelset._split."""

    @staticmethod
    def _count_distances(monkeypatch, stage, snap) -> int:
        calls = []

        def counting(*c):
            calls.append(c)
            return abs_sq_coords(*c)
        monkeypatch.setattr(modelset, "abs_sq_coords", counting)
        stage(snap)
        return len(calls)

    def _check_linear(self, monkeypatch, stage, window_sq, radius_sq, n):
        snap = enumerate_points(radius_sq, Window(window_sq))
        copy = Snapshot(snap.window, snap.radius_sq, list(snap.points))
        assert len(snap.points) == n
        assert 0 < self._count_distances(monkeypatch, stage, copy) <= 4 * n

    def test_fresh_enumeration_computes_no_distance(self, monkeypatch):
        # the enumerator's split holds every |z|^2, and every inner point
        # finds its nearest neighbour along the displacement list
        assert self._count_distances(monkeypatch, analyze, enumerate_points(400)) == 0

    @pytest.mark.parametrize("stage", [analyze, verify_separation], ids=["analyze", "separation"])
    def test_linear_in_points(self, monkeypatch, stage):
        self._check_linear(monkeypatch, stage, Fraction(1), 400, 1411)

    @pytest.mark.parametrize("stage", [analyze, verify_separation], ids=["analyze", "separation"])
    @pytest.mark.parametrize("window_sq,radius_sq,n", [
        (Fraction(1, 5), 1600, 1131), (Fraction(1, 3), 400, 481),
        (Fraction(1, 10), 1600, 561)],
        ids=["w=1/5", "w=1/3", "w=1/10"])
    def test_linear_in_points_small_windows(self, monkeypatch, stage, window_sq, radius_sq, n):
        self._check_linear(monkeypatch, stage, window_sq, radius_sq, n)


class TestUnitLemmaList:
    """The unit lemma looks up a fixed list instead of the difference window."""

    def test_no_seed_has_norm_2_3_or_4(self):
        seeds = verify._norm_gap_seeds()
        assert len(seeds) == 60
        assert not [x for x in seeds if norm_coords(*x) in (2, 3, 4)]

    def test_list_does_not_grow_with_radius(self):
        units = [d for d, _ in displacement_candidates(Window())]
        assert verify._unit_lemma_list(Fraction(1)) == units
        assert verify._unit_lemma_list(Fraction(6400)) == units

    def test_walks_one_of_each_pair(self, monkeypatch):
        # d and -d get one judgement, so only one of them is walked
        judged = []
        walk = verify._walk

        def capture(ds, b):
            judged.append([d for d, _ in ds])
            return walk(ds, b)
        monkeypatch.setattr(verify, "_walk", capture)
        assert verify_unit_lemma(analyze(enumerate_points(37))).passed
        [ds] = judged
        assert len(ds) == 10
        assert not {tuple(-a for a in d) for d in ds} & set(ds)

    @given(cycints)
    def test_eps_inv_map_matches_ring_multiplication(self, z):
        assert verify._times_eps_inv(*z) == ring_mul(EPSILON_INV, z)


class TestSeparation:
    def test_passes_with_tight_minimum(self, snap4):
        r = verify_separation(snap4)
        assert r.passed
        assert r.details["min_pair_dist_sq"] == [2, -1]
        assert r.details["proof_constant_holds"]

    def test_single_point_vacuous(self):
        r = verify_separation(analyze(enumerate_points(0)))
        assert r.passed and r.tested_count == 0

    def test_larger_window_constant(self):
        snap = enumerate_points(4, Window(Fraction(4)))
        r = verify_separation(snap)
        assert r.passed
        assert r.details["stated_constant_sq"] == "1/64"

    def test_detects_seeded_close_pair(self, snap4):
        # |eps^3|^2 = (phi-1)^6 ~ 0.0557 < 1/16, so this neighbor of 1 is too close
        eps3 = ring_mul(ring_mul(EPSILON, EPSILON), EPSILON)
        bad = with_extra_point(snap4, ring_add((1, 0, 0, 0), eps3))
        r = verify_separation(bad)
        assert not r.passed
        assert r.violations


ROTATION_CASES = ("removed", "zeta-orbit-removed", "eps-shift", "duplicated", "clean-w49/4",
                  "clean-w1/5")


def _rotation_case(snap4: Snapshot, case: str) -> Snapshot:
    """snap4 with a non-origin point removed, the five zeta^k multiples of
    one removed (the set stays closed under zeta, not under -1), a point
    replaced by its eps-shift or a record repeated; or a clean set at a
    non-unit window."""
    pts = list(snap4.points)
    k = next(i for i, p in enumerate(pts) if any(p.coords))
    if case == "removed":
        del pts[k]
    elif case == "zeta-orbit-removed":
        orbit = {ring_mul(mu, pts[k].coords) for mu in TENTH_ROOTS[::2]}
        pts = [p for p in pts if p.coords not in orbit]
    elif case == "eps-shift":
        pts[k] = make_record(ring_add(pts[k].coords, EPSILON))
    elif case == "duplicated":
        pts.append(pts[k])
    else:
        return (enumerate_points(9, Window(Fraction(49, 4))) if case == "clean-w49/4"
                else enumerate_points(100, Window(Fraction(1, 5))))
    return Snapshot(snap4.window, snap4.radius_sq, pts)


def _ten_multiplier_violations(snap: Snapshot) -> list:
    """The rotation violations by ring multiplication with each of the ten
    units, in the order verify_rotation lists them."""
    members = snap.coord_set()
    return [{"point": list(c), "multiplier_index": m}
            for c in sorted(members) for m, mu in enumerate(TENTH_ROOTS)
            if ring_mul(mu, c) not in members]


def _assert_rotation_report(snap: Snapshot, expected: list) -> None:
    r = verify_rotation(snap)
    assert r.violations == expected
    assert r.passed == (not expected)
    assert r.tested_count == 10 * len(snap.coord_set())


class TestRotation:
    def test_clean_pass(self, snap4):
        assert verify_rotation(snap4).passed

    def test_origin_only(self):
        assert verify_rotation(enumerate_points(0)).passed

    def test_injected_point_fails(self, snap4):
        bad = with_extra_point(snap4, ring_mul(ZETA, EPSILON))
        r = verify_rotation(bad)
        assert not r.passed
        assert {"point": [1, 0, 1, 0], "multiplier_index":
                r.violations[0]["multiplier_index"]} in r.violations

    def test_violations_match_ring_multiplication(self, snap4):
        bad = with_extra_point(snap4, ring_mul(ZETA, EPSILON))
        expected = _ten_multiplier_violations(bad)
        assert len(expected) == 9
        _assert_rotation_report(bad, expected)

    @pytest.mark.parametrize("case", ROTATION_CASES)
    def test_more_sets_match_ring_multiplication(self, snap4, case):
        snap = _rotation_case(snap4, case)
        expected = _ten_multiplier_violations(snap)
        assert bool(expected) == (case in ("removed", "zeta-orbit-removed", "eps-shift"))
        _assert_rotation_report(snap, expected)

    def test_lookups_at_most_2n(self, monkeypatch):
        # zeta and -1 generate the ten units: a clean set needs only the
        # lookups of zeta c and -c, where the ten multipliers would make 10n
        lookups = []

        class CountingSet(set):
            def __contains__(self, c):
                lookups.append(c)
                return super().__contains__(c)

        snap = enumerate_points(400)
        n = len(snap.points)
        assert n == 1411
        coord_set = Snapshot.coord_set
        monkeypatch.setattr(Snapshot, "coord_set", lambda s: CountingSet(coord_set(s)))
        r = verify_rotation(snap)
        assert r.passed and r.tested_count == 10 * n
        assert 0 < len(lookups) <= 2 * n

    def test_mutated_point_fails(self, snap25):
        # fresh records, as analyze fills in place the records it is given
        idx = next(i for i, p in enumerate(snap25.points)
                   if p.dist_class != "unknown" and any(p.coords))
        pts = [make_record(p.coords) for p in snap25.points]
        pts[idx] = make_record(ring_add(pts[idx].coords, EPSILON))
        assert not verify_rotation(Snapshot(snap25.window, snap25.radius_sq,
                                            pts)).passed


class TestUnitLemma:
    def test_clean_pass(self, snap25):
        r = verify_unit_lemma(snap25)
        assert r.passed
        assert r.details["close_pairs"] > 0

    def test_rejects_non_unit_window(self):
        snap = enumerate_points(4, Window(Fraction(4)))
        with pytest.raises(ValueError):
            verify_unit_lemma(snap)

    def test_large_radius(self):
        r = verify_unit_lemma(enumerate_points(400))
        assert r.passed
        assert r.details["close_pairs"] == 3330
        assert r.tested_count == 1411 * 1410 // 2

    def test_close_non_unit_pair_detected(self, snap4):
        # eps^3 * (1 - zeta) has norm 5 but squared length ~ 0.077 < 5/4
        delta = ring_mul(ring_mul(ring_mul(EPSILON, EPSILON), EPSILON), (1, -1, 0, 0))
        bad = with_extra_point(snap4, ring_add((1, 0, 0, 0), delta))
        r = verify_unit_lemma(bad)
        assert not r.passed
        assert any(v["clause"] == "close-pair-not-unit" for v in r.violations)


class TestTwoDistance:
    def test_clean_pass(self, snap25):
        r = verify_two_distance(snap25)
        assert r.passed
        assert r.details["both_classes_present"]

    def test_origin_min_is_long(self, snap25):
        origin = next(p for p in snap25.points if not any(p.coords))
        assert origin.min_dist_sq == (1, 0)

    def test_one_min_is_short(self, snap25):
        one = next(p for p in snap25.points if p.coords == (1, 0, 0, 0))
        assert one.min_dist_sq == (2, -1)

    def test_mutated_point_fails(self, snap25):
        # fresh records, as analyze fills in place the records it is given
        idx = next(i for i, p in enumerate(snap25.points)
                   if p.dist_class != "unknown" and any(p.coords))
        pts = [make_record(p.coords) for p in snap25.points]
        pts[idx] = make_record(ring_add(pts[idx].coords, EPSILON))
        mutated = analyze(Snapshot(snap25.window, snap25.radius_sq, pts))
        assert not verify_two_distance(mutated).passed

    def test_missing_orbit_fails(self, snap25):
        # without the ten points +-zeta^k the origin's nearest neighbor in
        # the snapshot is at distance phi, which is neither class
        pts = [make_record(p.coords) for p in snap25.points
               if p.coords not in set(TENTH_ROOTS)]
        assert len(pts) == 91
        holed = analyze(Snapshot(snap25.window, snap25.radius_sq, pts))
        origin = next(p for p in holed.points if not any(p.coords))
        assert origin.min_dist_sq == (1, 1)
        assert origin.dist_class == "other"
        r = verify_two_distance(holed)
        assert not r.passed
        assert {"point": [0, 0, 0, 0], "min_dist_sq": [1, 1]} in r.violations

    def test_missing_short_class_fails(self, snap4):
        # the short-class points removed and the rest not re-analyzed: the
        # origin keeps its long distance and no short one is left
        pts = [p for p in snap4.points if p.dist_class != "short"]
        r = verify_two_distance(Snapshot(snap4.window, snap4.radius_sq, pts))
        assert not r.passed
        assert r.violations == [{"clause": "missing-distance-class",
                                 "counts": {"short": 0, "long": 1, "other": 0}}]

    @pytest.mark.parametrize("pq", [(0, 0), (-1, 0)])
    def test_nonpositive_distance_is_other(self, pq):
        # a hand-built record; classify_distance would reject the value
        rec = make_record((0, 0, 0, 0))
        rec.min_dist_sq = pq
        r = verify_two_distance(Snapshot(Window(), Fraction(0), [rec]))
        assert r.violations == [{"point": [0, 0, 0, 0], "min_dist_sq": list(pq)}]
        assert r.details["counts"] == {"short": 0, "long": 0, "other": 1}

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the reader does not restore min_dist_sq, so a snapshot "
                              "read from disk fails with missing-distance-class")
    def test_clean_snapshot_read_from_disk_passes(self, snap25):
        passed = []
        for fmt in ("jsonl", "csv"):
            buf = io.StringIO()
            write_snapshot(snap25, fmt, buf)
            buf.seek(0)
            passed.append(run_check("two-distance", read_snapshot(buf)).passed)
        assert passed == [True, True]


class TestStepExistence:
    def test_origin_all_steps_stay(self):
        r = verify_step_existence(enumerate_points(0))
        assert r.passed and r.tested_count == 1

    def test_clean_pass_includes_boundary(self, snap25):
        assert verify_step_existence(snap25).passed

    def test_point_with_no_step_fails(self):
        # sigma(3 + mu) = 3 + sigma(mu) has modulus at least 2 for every
        # tenth root mu, so 3 has no step that stays in the unit window
        pts = [make_record((0, 0, 0, 0)), make_record((3, 0, 0, 0))]
        r = verify_step_existence(Snapshot(Window(), Fraction(100), pts))
        assert not r.passed
        assert r.violations == [{"point": [3, 0, 0, 0]}]

    def test_rejects_non_unit_window(self):
        with pytest.raises(ValueError):
            verify_step_existence(enumerate_points(1, Window(Fraction(4))))

    @pytest.mark.parametrize("positions", [(0, 1, 2), (0, 40, 200), (5, 6, 317)],
                             ids=["front", "spread", "back"])
    def test_stepless_points_match_ten_root_oracle(self, positions):
        # 3, 3 zeta and -3 have no step that stays in the unit window
        pts = list(enumerate_points(100).points)
        for k, z in zip(positions, [(3, 0, 0, 0), (0, 3, 0, 0), (-3, 0, 0, 0)]):
            pts.insert(k, make_record(z))
        snap = Snapshot(Window(), Fraction(100), pts)
        r = verify_step_existence(snap)
        assert not r.passed and len(r.violations) == 3
        assert r.to_json_dict() == oracles.step_existence(snap).to_json_dict()

    @given(st.lists(st.tuples(*[st.integers(-4, 4)] * 4), max_size=12))
    def test_box_points_match_ten_root_oracle(self, extra):
        pts = list(enumerate_points(4).points) + [make_record(z) for z in extra]
        snap = Snapshot(Window(), Fraction(100), pts)
        assert (verify_step_existence(snap).to_json_dict()
                == oracles.step_existence(snap).to_json_dict())


class TestRunAll:
    def test_all_pass(self):
        reports = verify_all(9, 1)
        assert all(r.passed for r in reports)
        assert [r.check_name for r in reports] == list(CHECK_NAMES)

    def test_vacuous_radius_zero(self):
        assert all(r.passed for r in verify_all(0, 1))

    def test_non_unit_window_skips(self):
        reports = verify_all(4, 4)
        by_name = {r.check_name: r for r in reports}
        assert not by_name["separation"].skipped
        assert not by_name["rotation"].skipped
        for name in ("unit-lemma", "two-distance", "step-existence"):
            assert by_name[name].skipped and by_name[name].passed

    @pytest.mark.parametrize("radius_sq,window_sq", [
        (0, 1), (1, 1), (25, 1), (37, 1), (30, 4), (20, Fraction(49, 4)),
        (400, Fraction(1, 5))])
    def test_shared_split_changes_nothing(self, radius_sq, window_sq):
        snap = analyze(enumerate_points(radius_sq, Window(window_sq)))
        alone = [run_check(c, snap).to_json_dict() for c in CHECK_NAMES]
        shared = [r.to_json_dict() for r in verify_all(radius_sq, window_sq)]
        assert json.dumps(shared, sort_keys=True) == json.dumps(alone, sort_keys=True)

    @pytest.mark.parametrize("window_sq", [1, 4])
    def test_one_split_per_call(self, monkeypatch, window_sq):
        # the splits not served from a snapshot's memo: none for a fresh
        # enumeration, one for a hand-built snapshot, shared by analyze,
        # separation and, at w = 1, the unit lemma
        general = []
        split = modelset._split

        def counted(snapshot):
            memo = snapshot._split_memo
            out = split(snapshot)
            if memo is None or out is not memo[2]:
                general.append(snapshot)
            return out
        monkeypatch.setattr(modelset, "_split", counted)
        monkeypatch.setattr(verify, "_split", counted)
        assert all(r.passed for r in verify_all(25, window_sq))
        assert general == []
        snap = enumerate_points(25, Window(window_sq))
        snap = analyze(Snapshot(snap.window, snap.radius_sq, list(snap.points)))
        assert all(run_check(name, snap).passed for name in CHECK_NAMES)
        assert len(general) == 1

    def test_unknown_check_rejected(self, snap4):
        with pytest.raises(ValueError):
            run_check("bogus", snap4)


class TestReportShape:
    def test_reproducible_json(self, snap4):
        a = json.dumps(verify_separation(snap4).to_json_dict(), sort_keys=True)
        b = json.dumps(verify_separation(snap4).to_json_dict(), sort_keys=True)
        assert a == b
        doc = json.loads(a)
        assert doc["pass"] is True
        assert doc["parameters"] == {"radius_sq": "4", "window_sq": "1"}

    def test_pass_iff_no_violations(self, snap25):
        for name in CHECK_NAMES:
            r = run_check(name, snap25)
            assert r.passed == (not r.violations)
