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
from pentaset.modelset import SearchRangeError, _ellipsoid_vectors, _is_inner, _members
from pentaset.verify import verify_separation, verify_step_existence

from oracles import (
    EPSILON,
    EPSILON_INV,
    ONE,
    ZERO,
    ZETA,
    abs_sq,
    box_enumerate,
    galois_apply,
    golden_cmp_golden,
    golden_to_float,
    nearest_in_snapshot,
    ring_add,
    ring_mul,
    ring_sub,
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

    def test_search_is_output_sensitive(self):
        # the half of the ellipsoid F <= 2 that is searched has the volume
        # of disc x window
        n = len(enumerate_points(1600).points)
        visited = list(_ellipsoid_vectors(Fraction(1600), Fraction(1)))
        assert n == 5641
        assert len(visited) <= 1.25 * n + 50
        # one of each pair +-a: nonzero, with the last nonzero coordinate positive
        for a in visited:
            assert next(x for x in reversed(a) if x) > 0

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

    def test_unit_scaling_maps_into_larger_disc(self):
        # eps^-1 scales physical space by phi and internal space by 1/phi,
        # so eps^-1 * S(R) lies in S(R') for R'^2 >= phi^2 R^2
        assert ring_mul(EPSILON, EPSILON_INV) == ONE
        r_sq, r2_sq = 20, 53  # phi^2 * 20 = 52.36...
        larger = set(coord_list(enumerate_points(r2_sq)))
        for c in coord_list(enumerate_points(r_sq)):
            img = ring_mul(EPSILON_INV, c)
            g = abs_sq(img, "physical")
            # |eps^-1 z|^2 <= phi^2 R^2 = R^2 + R^2 phi, exactly
            assert golden_cmp(g.p - r_sq, g.q - r_sq, 0) <= 0
            assert img in larger

    def test_deterministic_order(self):
        a = coord_list(enumerate_points(9))
        b = coord_list(enumerate_points(9))
        assert a == b == sorted(a, key=lambda c: (sum(
            5 * x * x for x in c) - sum(c) ** 2, c))  # Q then lex, doubled Q is fine


@pytest.fixture(scope="module")
def analyzed25():
    return analyze(enumerate_points(25))


def _min_dist_sq(snap, z):
    return next(p.min_dist_sq for p in snap.points if p.coords == z)


class TestMinDistance:
    def test_origin(self, analyzed25):
        assert _min_dist_sq(analyzed25, ZERO) == GoldenInt(1, 0)

    def test_one(self, analyzed25):
        assert _min_dist_sq(analyzed25, ONE) == GoldenInt(2, -1)

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
        assert [g for _, g in cands] == [GoldenInt(2, -1)] * 10 + [GoldenInt(1, 0)] * 10
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
        assert classify_distance(GoldenInt(2, -1)) == "short"

    def test_long(self):
        assert classify_distance(GoldenInt(1, 0)) == "long"

    def test_other(self):
        assert classify_distance(GoldenInt(3, -1)) == "other"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_distance(GoldenInt(0, 0))
        with pytest.raises(ValueError):
            classify_distance(GoldenInt(-1, 0))


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


class TestNoRingObjectPerPoint:
    """Points travel as coordinate tuples: enumerating, reading and writing
    build no CycInt or GoldenInt, and analyze one GoldenInt per distinct
    min_dist_sq, which the records share."""

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
        distinct = {p.min_dist_sq for p in analyzed.points if p.min_dist_sq is not None}
        assert built[CycInt] == 0 and 0 < built[GoldenInt] <= len(distinct)
        built[GoldenInt] = 0
        for fmt in ("jsonl", "csv"):
            buf = io.StringIO()
            write_snapshot(analyzed, fmt, buf)
            buf.seek(0)
            assert len(read_snapshot(buf).points) == 1411
        assert built == {CycInt: 0, GoldenInt: 0}


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
