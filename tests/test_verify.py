"""Theorem-check tests: clean snapshots pass, seeded corruptions fail."""

import json
from fractions import Fraction

import pytest

from pentaset.cyclotomic import (
    CycInt,
    EPSILON,
    GoldenInt,
    TENTH_ROOTS,
    ZETA,
    abs_sq_coords,
    embed_approx,
)
from pentaset.modelset import (
    PointRecord,
    Snapshot,
    Window,
    analyze,
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


def make_record(z: CycInt) -> PointRecord:
    phys, intr = abs_sq_coords(*z.coords())
    e = embed_approx(z, "physical")
    return PointRecord(z, GoldenInt(*phys), GoldenInt(*intr), e.real, e.imag)


def with_extra_point(snap: Snapshot, z: CycInt) -> Snapshot:
    return Snapshot(snap.window, snap.radius_sq, snap.points + [make_record(z)])


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
        eps3 = EPSILON * EPSILON * EPSILON
        bad = with_extra_point(snap4, CycInt(1, 0, 0, 0) + eps3)
        r = verify_separation(bad)
        assert not r.passed
        assert r.violations


class TestRotation:
    def test_clean_pass(self, snap4):
        assert verify_rotation(snap4).passed

    def test_origin_only(self):
        assert verify_rotation(enumerate_points(0)).passed

    def test_injected_point_fails(self, snap4):
        bad = with_extra_point(snap4, ZETA * EPSILON)
        r = verify_rotation(bad)
        assert not r.passed
        assert {"point": [1, 0, 1, 0], "multiplier_index":
                r.violations[0]["multiplier_index"]} in r.violations

    def test_mutated_point_fails(self, snap25):
        pts = list(snap25.points)
        idx = next(i for i, p in enumerate(pts)
                   if p.dist_class != "unknown" and not p.z.is_zero())
        pts[idx] = make_record(pts[idx].z + EPSILON)
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

    def test_close_non_unit_pair_detected(self, snap4):
        # eps^3 * (1 - zeta) has norm 5 but squared length ~ 0.077 < 5/4
        delta = EPSILON * EPSILON * EPSILON * CycInt(1, -1, 0, 0)
        bad = with_extra_point(snap4, CycInt(1, 0, 0, 0) + delta)
        r = verify_unit_lemma(bad)
        assert not r.passed
        assert any(v["clause"] == "close-pair-not-unit" for v in r.violations)


class TestTwoDistance:
    def test_clean_pass(self, snap25):
        r = verify_two_distance(snap25)
        assert r.passed
        assert r.details["both_classes_present"]

    def test_origin_min_is_long(self, snap25):
        origin = next(p for p in snap25.points if p.z.is_zero())
        assert origin.min_dist_sq == GoldenInt(1, 0)

    def test_one_min_is_short(self, snap25):
        one = next(p for p in snap25.points if p.z.coords() == (1, 0, 0, 0))
        assert one.min_dist_sq == GoldenInt(2, -1)

    def test_mutated_point_fails(self, snap25):
        pts = list(snap25.points)
        idx = next(i for i, p in enumerate(pts)
                   if p.dist_class != "unknown" and not p.z.is_zero())
        pts[idx] = make_record(pts[idx].z + EPSILON)
        mutated = analyze(Snapshot(snap25.window, snap25.radius_sq, pts))
        assert not verify_two_distance(mutated).passed

    def test_missing_orbit_fails(self, snap25):
        # without the ten points +-zeta^k the origin's nearest neighbor in
        # the snapshot is at distance phi, which is neither class
        pts = [p for p in snap25.points
               if p.z.coords() not in {mu.coords() for mu in TENTH_ROOTS}]
        assert len(pts) == 91
        holed = analyze(Snapshot(snap25.window, snap25.radius_sq, pts))
        origin = next(p for p in holed.points if p.z.is_zero())
        assert origin.min_dist_sq == GoldenInt(1, 1)
        assert origin.dist_class == "other"
        r = verify_two_distance(holed)
        assert not r.passed
        assert {"point": [0, 0, 0, 0], "min_dist_sq": [1, 1]} in r.violations


class TestStepExistence:
    def test_origin_all_steps_stay(self):
        r = verify_step_existence(enumerate_points(0))
        assert r.passed and r.tested_count == 1

    def test_clean_pass_includes_boundary(self, snap25):
        assert verify_step_existence(snap25).passed

    def test_rejects_non_unit_window(self):
        with pytest.raises(ValueError):
            verify_step_existence(enumerate_points(1, Window(Fraction(4))))


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

    def test_unknown_check_rejected(self, snap4):
        with pytest.raises(ValueError):
            run_check("bogus", snap4)


class TestReportShape:
    def test_reproducible_json(self, snap4):
        a = verify_separation(snap4).to_json()
        b = verify_separation(snap4).to_json()
        assert a == b
        doc = json.loads(a)
        assert doc["pass"] is True
        assert doc["parameters"] == {"radius_sq": "4", "window_sq": "1"}

    def test_pass_iff_no_violations(self, snap25):
        for name in CHECK_NAMES:
            r = run_check(name, snap25)
            assert r.passed == (not r.violations)
