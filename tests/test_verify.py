"""Theorem-check tests: clean snapshots pass, seeded corruptions fail."""

import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import oracles
from oracles import (EPSILON, EPSILON_INV, ONE, ZERO, ZETA, ring_add, ring_mul, ring_neg,
                     ring_sub)
from pentaset import modelset, verify
from pentaset.cyclotomic import (
    TENTH_ROOTS,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
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


def run_all(radius_sq, window_sq=1):
    """Every check's report on one analysed enumeration, as `pentaset verify` runs them."""
    snap = analyze(enumerate_points(Fraction(radius_sq), Window(Fraction(window_sq))))
    return [run_check(name, snap) for name in CHECK_NAMES]


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
    whose key would be that of the good point 1 if the key base counted
    only the members (it counts every point, so the keys differ), or three
    kinds at once."""
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

#: the coordinates of the set at R^2 = 25, w = 1, from which the general
#: path's differential test builds its snapshots
_POINTS25 = [p.coords for p in enumerate_points(25).points]


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
        # started from a bad point shows here and not only through the
        # reports above
        snap = _corrupted(name)
        split = coords, _, keys, good, bad, b = modelset._split(snap)
        walk = modelset._walk(displacement_candidates(snap.window), b)
        if name == "key-collision":
            # the far point is bad, and the base over every point gives it
            # a key of its own
            assert len(coords) - 1 in bad and keys[-1] not in good
        got = modelset._nearest(split, walk, range(len(coords)))
        assert got == [oracles.nearest_dist_sq(coords, i) for i in range(len(coords))]

    def test_nearest_of_a_shuffled_subset(self):
        # _nearest answers the points it is given, in their order
        snap = _corrupted("mix")
        split = coords, *_, b = modelset._split(snap)
        walk = modelset._walk(displacement_candidates(snap.window), b)
        points = list(range(0, len(coords), 3)) + [len(coords) - 1]
        random.Random(5).shuffle(points)
        assert modelset._nearest(split, walk, points) == [
            oracles.nearest_dist_sq(coords, i) for i in points]

    @pytest.mark.parametrize("m,radius_sq", [(1, 1), (2, 7)])
    def test_key_injective_on_box(self, m, radius_sq):
        # every point of [-3m, 3m]^4: the base counts every point, members
        # or not, so B = 6 * 3m + 1, and every key is distinct
        box = list(itertools.product(range(-3 * m, 3 * m + 1), repeat=4))
        snap = Snapshot(Window(), Fraction(radius_sq), [make_record(c) for c in box])
        *_, keys, _, _, b = modelset._split(snap)
        assert b == 6 * max(abs(a) for c in box for a in c) + 1 == 18 * m + 1
        assert len(set(keys)) == len(keys) == (6 * m + 1) ** 4

    @pytest.mark.parametrize("window_sq,radius_sq", [
        (Fraction(1, 5), Fraction(3)), (Fraction(4), Fraction(1, 10)),
        (Fraction(4), Fraction(1)), (Fraction(49, 4), Fraction(1, 2))])
    def test_nearest_with_displacements_beyond_2m(self, window_sq, radius_sq):
        # the walk drops the d with a coordinate beyond 2M, which join no
        # two good points; at w = 4, R^2 = 1/10 the origin alone gives B = 1,
        # and (1, -1, 1, -1) in the list has the origin's key
        snap = enumerate_points(radius_sq, Window(window_sq))
        split = coords, *_, b = modelset._split(snap)
        ds = displacement_candidates(snap.window)
        assert any(max(map(abs, d)) > (b - 1) // 3 for d, _ in ds)
        walk = modelset._walk(ds, b)
        got = modelset._nearest(split, walk, range(len(coords)))
        assert got == [oracles.nearest_dist_sq(coords, i) for i in range(len(coords))]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=len(_POINTS25), max_size=len(_POINTS25)),
           st.lists(st.one_of(st.sampled_from(_POINTS25),
                              st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4)), max_size=3))
    def test_general_path_matches_oracles(self, keep, extra):
        # a hand-built snapshot, so modelset._split takes its general path:
        # a subset of the set at R^2 = 25 with up to three extra points,
        # repeats of its points or far points
        pts = [make_record(c) for c, k in zip(_POINTS25, keep) if k] + [
            make_record(c) for c in extra]
        snap = Snapshot(Window(), Fraction(25), pts)
        for check, oracle in ((verify_separation, oracles.separation),
                              (verify_unit_lemma, oracles.unit_lemma),
                              (verify_rotation, oracles.rotation),
                              (verify_step_existence, oracles.step_existence),
                              (verify_two_distance, oracles.two_distance)):
            assert check(snap).to_json_dict() == oracle(snap).to_json_dict()
        try:
            expected = oracles.nearest_in_snapshot(snap)
        except ValueError:  # a repeated inner point, at squared distance 0
            with pytest.raises(ValueError, match="more than once"):
                analyze(snap)
        else:
            analyze(snap)
            assert [(p.min_dist_sq, p.dist_class) for p in snap.points] == expected

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

    @pytest.mark.parametrize("stage, radius_sq, window_sq, n, calls", [
        (analyze, Fraction(1, 2), 4, 11, 0), (analyze, Fraction(1, 10 ** 6), 300000, 1, 0),
        (analyze, 1, 1, 11, 1),
        (verify_separation, 0, 1, 1, 0), (verify_separation, Fraction(1, 10 ** 6), 300000, 1, 0),
        (verify_separation, Fraction(1, 2), 4, 11, 1)],
        ids=["analyze-no-inner", "analyze-one-point-huge-w", "analyze-inner",
             "separation-one-point", "separation-one-point-huge-w", "separation-11-points"])
    def test_displacement_list_only_for_a_walk(self, monkeypatch, stage, radius_sq,
                                               window_sq, n, calls):
        # analyze walks the list from inner points only (none while R < 1),
        # and separation only when there is a second point to reach; at
        # w = 300000 the list is outside the accepted range, and building it raises
        snap = enumerate_points(radius_sq, Window(window_sq))
        assert len(snap.points) == n
        seen, real = [], modelset.displacement_candidates
        for module in (modelset, verify):
            monkeypatch.setattr(module, "displacement_candidates",
                                lambda window: seen.append(window) or real(window))
        stage(snap)
        assert len(seen) == calls


class TestUnitLemmaList:
    """The unit lemma looks up a fixed list instead of the difference window."""

    def test_no_seed_has_norm_2_3_or_4(self):
        # one seed per orbit of ten, whose ten images are the 60 nonzero x
        # with |x|^2 <= 4 and |sigma(x)|^2 <= 4
        seeds = verify._norm_gap_seeds()
        assert len(seeds) == 6
        images = {ring_mul(mu, x) for x in seeds for mu in TENTH_ROOTS}
        box = oracles.box_enumerate(4, Window(4))
        assert images == {p.coords for p in box.points if any(p.coords)}
        assert len(images) == 60
        assert not [x for x in images if norm_coords(*x) in (2, 3, 4)]

    def test_list_does_not_grow_with_radius(self):
        units = [d for d, _ in displacement_candidates(Window()) if d > ring_neg(d)]
        assert len(units) == 10
        assert [d for d, _ in verify._unit_lemma_list(Fraction(1))] == units
        assert [d for d, _ in verify._unit_lemma_list(Fraction(6400))] == units

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


#: R^2 and the coordinates of the sets whose subsets test_subsets_match_oracle draws
_SUBSET_POINTS = {w: (r, [p.coords for p in enumerate_points(r, Window(w)).points])
                  for w, r in ((Fraction(1, 5), Fraction(100)), (Fraction(49, 4), Fraction(1)))}


class TestSeparationFromTheList:
    """On a split with no bad point, separation reads the minimum off the
    sorted displacement list and makes no _nearest pass."""

    @staticmethod
    def _count_nearest(monkeypatch) -> list:
        calls, real = [], verify._nearest

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(verify, "_nearest", counting)
        return calls

    @pytest.mark.parametrize("window_sq", [
        Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1),
        Fraction(2), Fraction(49, 4)])
    def test_no_entry_below_the_stated_constant(self, window_sq):
        # N(d) >= 1 and |sigma(d)|^2 <= 4w give |d|^2 >= 1/(4w) > 1/(16w)
        weak = Fraction(1, 16) / window_sq
        assert not [d for d, pq in displacement_candidates(Window(window_sq))
                    if golden_cmp(*pq, weak.numerator, weak.denominator) < 0]

    def test_clean_enumeration_makes_no_nearest_pass(self, monkeypatch):
        calls = self._count_nearest(monkeypatch)
        snap = enumerate_points(400)
        r = verify_separation(snap)
        assert calls == []
        assert r.passed and r.details["min_pair_dist_sq"] == [2, -1]

    def test_first_entry_below_the_constant_takes_the_per_point_path(self, monkeypatch,
                                                                    snap25):
        # eps^3, with |eps^3|^2 = 13 - 8 phi < 1/16, put first: no two window
        # members differ by it (|sigma(eps^3)|^2 = phi^6 > 4), so the report
        # is unchanged, but the walk can no longer rule out a close pair
        real = verify.displacement_candidates
        monkeypatch.setattr(verify, "displacement_candidates",
                            lambda window: [(EPS3, (13, -8))] + real(window))
        calls = self._count_nearest(monkeypatch)
        assert abs_sq_coords(*EPS3)[0] == (13, -8)
        r = verify_separation(snap25)
        assert len(calls) == 1
        assert r.to_json_dict() == oracles.separation(snap25).to_json_dict()

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(_SUBSET_POINTS)),
           st.lists(st.booleans(), max_size=max(len(c) for _, c in _SUBSET_POINTS.values())))
    @example(Fraction(1, 5), [True] + [False] * 59 + [True])
    def test_subsets_match_oracle(self, window_sq, keep):
        # a sparse subset, such as the first and last points at w = 1/5
        # (the example), has no pair along the list and takes the per-point path
        radius_sq, points = _SUBSET_POINTS[window_sq]
        pts = [make_record(c) for c, k in zip(points, keep) if k]
        snap = Snapshot(Window(window_sq), radius_sq, pts)
        assert verify_separation(snap).to_json_dict() == oracles.separation(snap).to_json_dict()


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


def _assert_rotation_report(snap: Snapshot) -> list:
    """verify_rotation's report on snap is the ten-multiplier oracle's; its violations."""
    expected = oracles.rotation(snap).to_json_dict()
    assert verify_rotation(snap).to_json_dict() == expected
    return expected["violations"]


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
        assert len(_assert_rotation_report(bad)) == 9

    @pytest.mark.parametrize("case", ROTATION_CASES)
    def test_more_sets_match_ring_multiplication(self, snap4, case):
        snap = _rotation_case(snap4, case)
        expected = _assert_rotation_report(snap)
        assert bool(expected) == (case in ("removed", "zeta-orbit-removed", "eps-shift"))

    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_corruptions_match_ten_multiplier_oracle(self, name):
        # a repeated point, points outside the window ("eps3") or the disc
        # ("outside-disc", "far") make bad points, whose keys rotation looks
        # up with the good ones.  A repeated point leaves the set closed.
        assert bool(_assert_rotation_report(_corrupted(name))) == (name != "duplicate")

    @pytest.mark.parametrize("name", ["duplicate", "far", "mix"])
    def test_bad_points_build_no_coordinate_set(self, name):
        # with bad points too, rotation's key lookups give the oracle's report
        snap = _corrupted(name)
        expected = oracles.rotation(snap).to_json_dict()
        assert verify_rotation(snap).to_json_dict() == expected

    @pytest.mark.parametrize("name", ["eps3", "duplicate", "removed"])
    def test_corruptions_in_place_match_ten_multiplier_oracle(self, name):
        # made in an enumeration that keeps its split: the check sees the change
        snap = enumerate_points(25)
        if name == "removed":
            del snap.points[7]
        else:
            snap.points.append(make_record(
                ring_add(ONE, EPS3) if name == "eps3" else snap.points[5].coords))
        assert bool(_assert_rotation_report(snap)) == (name != "duplicate")

    def test_closed_set_with_a_repeated_point_passes(self):
        # the repeated record is a bad point, so modelset._turn gives no map
        # and the ten-multiplier walk decides; tested_count counts each
        # distinct point once
        snap = enumerate_points(25)
        dup = Snapshot(snap.window, snap.radius_sq,
                       snap.points + [make_record(snap.points[5].coords)])
        assert modelset._turn(modelset._split(dup)) is None
        r = verify_rotation(dup)
        assert r.passed and r.violations == []
        assert r.tested_count == 10 * len(snap.points)

    @given(st.integers(1, 12), st.lists(st.tuples(*[st.integers(-12, 12)] * 4), max_size=20))
    def test_key_of_a_unit_multiple_is_a_residue(self, m, cs):
        # on [-M, M]^4, k(zeta c) is the balanced residue of B^4 k(c) and
        # k(-zeta^4 c), which verify_rotation looks up, that of -B k(c),
        # modulo N = Phi_5(B) (the comment above modelset._split)
        b = 6 * m + 1
        n = b ** 4 + b ** 3 + b ** 2 + b + 1
        zeta4 = ring_mul(ring_mul(ZETA, ZETA), ring_mul(ZETA, ZETA))
        for c in cs:
            c = tuple(max(-m, min(m, a)) for a in c)
            k = modelset._keys([c], b)[0]
            for unit, factor in ((ZETA, b ** 4), (ring_neg(zeta4), -b)):
                r = factor * k % n
                assert (r if r <= n // 2 else r - n) == modelset._keys([ring_mul(unit, c)], b)[0]

    def test_lookups_at_most_2n(self):
        # -zeta^4 alone generates the ten units: on the kept split a clean
        # set needs n key lookups in good, where the ten multipliers would
        # make 10n
        lookups = []

        class CountingDict(dict):
            def __contains__(self, k):
                lookups.append(k)
                return super().__contains__(k)

        snap = enumerate_points(400)
        n = len(snap.points)
        assert n == 1411
        radius_sq, w, (coords, phys, keys, good, bad, b) = snap._split_memo
        snap._split_memo = radius_sq, w, (coords, phys, keys, CountingDict(good), bad, b)
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

    def test_skips_non_unit_window(self):
        r = verify_unit_lemma(enumerate_points(4, Window(Fraction(4))))
        assert r.skipped and r.passed and r.tested_count == 0
        assert r.details == {"reason": "requires unit window"}

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


class TestOneLookupPerOrbit:
    """On the closed split of a fresh enumeration the unit lemma's close-pair
    count and step existence look up one point of each orbit of ten, where
    the per-point passes make 10n and up to 10n lookups."""

    @staticmethod
    def _counting(snap: Snapshot) -> list:
        """The keys looked up in snap's kept good map from now on."""
        lookups = []

        class CountingDict(dict):
            def __contains__(self, k):
                lookups.append(k)
                return super().__contains__(k)

        radius_sq, w, split = snap._split_memo
        split = (*split[:3], CountingDict(split[3]), *split[4:])
        snap._split_memo = radius_sq, w, split
        snap._rep_memo = split, snap._rep_memo[1]
        return lookups

    @pytest.mark.parametrize("check, per_orbit", [
        (verify_unit_lemma, 20), (verify_step_existence, 10)], ids=["unit-lemma", "step"])
    def test_lookups_per_orbit(self, check, per_orbit):
        snap = enumerate_points(400)
        orbits = len(set(snap._rep_memo[1]))
        assert (len(snap.points), orbits) == (1411, 142)
        lookups = self._counting(snap)
        r = check(snap)
        assert r.passed and r.to_json_dict() == check(enumerate_points(400)).to_json_dict()
        assert 0 < len(lookups) <= per_orbit * orbits
        if check is verify_unit_lemma:
            assert r.details["close_pairs"] == 3330


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

    def test_missing_short_class_fails(self):
        # the origin and the five fifth roots at R^2 = 4, all inner: each
        # root's nearest point is the origin, at 1, as two roots are
        # sqrt(3 - phi) apart, so every distance is long
        roots = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
        snap = Snapshot(Window(), Fraction(4), [make_record(c) for c in [ZERO] + roots])
        r = verify_two_distance(snap)
        assert not r.passed
        assert r.violations == [{"clause": "missing-distance-class",
                                 "counts": {"short": 0, "long": 6, "other": 0}}]
        assert r.to_json_dict() == oracles.two_distance(snap).to_json_dict()

    @pytest.mark.parametrize("pq", [(0, 0)])
    def test_nonpositive_distance_is_other(self, pq):
        # the origin twice at R^2 = 1, where it is inner: each copy is at
        # squared distance 0 from the other, which classify_distance rejects
        snap = Snapshot(Window(), Fraction(1), [make_record(ZERO), make_record(ZERO)])
        r = verify_two_distance(snap)
        assert r.violations == [{"point": [0, 0, 0, 0], "min_dist_sq": list(pq)}] * 2
        assert r.details["counts"] == {"short": 0, "long": 0, "other": 2}

    def test_clean_snapshot_read_from_disk_passes(self, snap25):
        passed = []
        for fmt in ("jsonl", "csv"):
            buf = io.StringIO()
            write_snapshot(snap25, fmt, buf)
            buf.seek(0)
            passed.append(run_check("two-distance", read_snapshot(buf)).passed)
        assert passed == [True, True]

    @staticmethod
    def _changed(snap: Snapshot, change: str) -> Snapshot:
        """snap with the ten roots removed, its eighth point dropped, a
        stray point 1 + eps^3 (outside the window, eps^3 from 1) added or
        its first point, the origin, repeated; the records are copied."""
        pts = [make_record(p.coords) for p in snap.points]
        if change == "no-roots":
            pts = [p for p in pts if p.coords not in set(TENTH_ROOTS)]
        elif change == "drop-one":
            del pts[7:8]
        elif change == "stray":
            pts.append(make_record(ring_add(ONE, EPS3)))
        elif change == "repeat":
            pts.append(make_record(pts[0].coords))
        return Snapshot(snap.window, snap.radius_sq, pts)

    @pytest.mark.parametrize("change", [None, "no-roots", "drop-one", "stray", "repeat"])
    @pytest.mark.parametrize("source", ["fresh", "jsonl", "csv"])
    @pytest.mark.parametrize("radius_sq", ["0", "1", "4", "9", "25", "73/2", "100"])
    def test_unanalysed_snapshots_match_the_oracle(self, monkeypatch, radius_sq, source,
                                                   change):
        # the check derives each inner point's distance from the points, and
        # neither calls analyze nor writes a record
        monkeypatch.setattr(modelset, "analyze", None)
        snap = enumerate_points(Fraction(radius_sq))
        if source != "fresh":
            buf = io.StringIO()
            write_snapshot(snap, source, buf)
            buf.seek(0)
            snap = read_snapshot(buf)
        if change:
            snap = self._changed(snap, change)
        records = [(p.min_dist_sq, p.dist_class) for p in snap.points]
        r = verify_two_distance(snap)
        assert r.to_json_dict() == oracles.two_distance(snap).to_json_dict()
        # clean snapshots pass, fresh or read back, and so do those without
        # their eighth point.  From R^2 = 4 on, the origin without the roots
        # has its nearest point phi away, and 1, now inner, has the stray
        # point eps^3 away; a repeated origin fails once it is inner (R^2 >= 1)
        fails_from = {"no-roots": 4, "stray": 4, "repeat": 1}.get(change)
        assert r.passed == (fails_from is None or Fraction(radius_sq) < fails_from)
        assert records == [(p.min_dist_sq, p.dist_class) for p in snap.points]


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

    def test_skips_non_unit_window(self):
        r = verify_step_existence(enumerate_points(1, Window(Fraction(4))))
        assert r.skipped and r.passed and r.tested_count == 0
        assert r.details == {"reason": "requires unit window"}

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

    @pytest.mark.parametrize("radius_sq", [36, 400])
    @pytest.mark.parametrize("source", ["fresh", "jsonl", "csv"])
    def test_clean_snapshot_makes_no_window_test(self, monkeypatch, radius_sq, source):
        # every point steps to a good point, found by a key lookup, on a
        # fresh enumeration and on a snapshot read back, which keeps its split
        snap = enumerate_points(radius_sq)
        if source != "fresh":
            buf = io.StringIO()
            write_snapshot(snap, source, buf)
            buf.seek(0)
            snap = read_snapshot(buf)
        calls = []
        monkeypatch.setattr(verify, "abs_sq_coords", lambda *c: calls.append(c))
        r = verify_step_existence(snap)
        assert r.passed and r.tested_count == len(snap.points) and calls == []

    @given(st.lists(st.tuples(*[st.integers(-4, 4)] * 4), max_size=12))
    def test_box_points_match_ten_root_oracle(self, extra):
        pts = list(enumerate_points(4).points) + [make_record(z) for z in extra]
        snap = Snapshot(Window(), Fraction(100), pts)
        assert (verify_step_existence(snap).to_json_dict()
                == oracles.step_existence(snap).to_json_dict())


class TestRunAll:
    def test_all_pass(self):
        reports = run_all(9, 1)
        assert all(r.passed for r in reports)
        assert [r.check_name for r in reports] == list(CHECK_NAMES)

    def test_vacuous_radius_zero(self):
        assert all(r.passed for r in run_all(0, 1))

    def test_non_unit_window_skips(self):
        reports = run_all(4, 4)
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
        shared = [r.to_json_dict() for r in run_all(radius_sq, window_sq)]
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
        assert all(r.passed for r in run_all(25, window_sq))
        assert general == []
        snap = enumerate_points(25, Window(window_sq))
        snap = analyze(Snapshot(snap.window, snap.radius_sq, list(snap.points)))
        assert all(run_check(name, snap).passed for name in CHECK_NAMES)
        assert len(general) == 1

    @pytest.mark.parametrize("window_sq", [Fraction(1), Fraction(4), Fraction(1, 5)], ids=str)
    @pytest.mark.parametrize("name, check", [
        ("separation", verify_separation), ("rotation", verify_rotation),
        ("unit-lemma", verify_unit_lemma), ("two-distance", verify_two_distance),
        ("step-existence", verify_step_existence)])
    def test_direct_call_gives_the_run_check_report(self, name, check, window_sq):
        # each check decides its own skip off the unit window
        snap = analyze(enumerate_points(25, Window(window_sq)))
        assert run_check(name, snap).to_json_dict() == check(snap).to_json_dict()

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
