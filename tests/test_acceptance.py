"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything exact is asserted with zero tolerance; the few float
checks carry the tolerance stated next to them.
"""

import math
import random
import re
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from pentaset.cyclotomic import (
    TENTH_ROOTS,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
    quad_form,
)
from pentaset.io_render import RenderOptions, render_svg
from pentaset.modelset import (
    Window,
    analyze,
    enumerate_points,
    stats,
)
from pentaset.verify import (
    verify_separation,
    verify_step_existence,
    verify_two_distance,
    verify_unit_lemma,
)

from oracles import (
    ZERO,
    abs_sq,
    box_enumerate,
    field_norm,
    galois_apply,
    golden_add,
    golden_to_float,
    ring_add,
    ring_mul,
    ring_sub,
    snapshot_to_jsonl_bytes,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS")


@pytest.fixture(scope="module")
def snap400():
    return analyze(enumerate_points(400))


@pytest.fixture(scope="module")
def snap100():
    return enumerate_points(100)


def test_01_two_distance_theorem(snap400):
    with criterion(1, "two-distance theorem, R^2=400"):
        r = verify_two_distance(snap400)
        assert r.passed
        assert stats(snap400)["classes"]["other"] == 0
        assert r.tested_count > 1000


def test_02_tightness():
    with criterion(2, "both distances realized, exact witnesses"):
        snap = analyze(enumerate_points(4))
        classes = stats(snap)["classes"]
        assert classes["short"] > 0 and classes["long"] > 0
        z1, z2 = (1, 0, 0, 0), (0, 0, -1, -1)
        assert abs_sq(ring_sub(z1, z2), "physical") == (2, -1)
        origin = next(p for p in snap.points if p.coords == ZERO)
        assert origin.min_dist_sq == (1, 0)


def test_03_separation(snap400):
    with criterion(3, "uniform discreteness, both constants"):
        r = verify_separation(snap400)
        assert r.passed                                # >= 1/16 for every pair
        assert r.details["proof_constant_holds"]       # >= 1/4 as well
        assert r.details["min_pair_dist_sq"] == [2, -1]


def test_04_unit_lemma(snap100):
    with criterion(4, "unit lemma and norm gap, R^2=100"):
        r = verify_unit_lemma(analyze(snap100))
        assert r.passed
        assert r.details["close_pairs"] > 0


def test_05_step_existence(snap400):
    with criterion(5, "tenth-root step existence, R^2=400"):
        r = verify_step_existence(snap400)
        assert r.passed
        assert r.tested_count == len(snap400.points)


def test_06_symmetry():
    with criterion(6, "closure under unit multiplication and conjugation"):
        members = {p.coords for p in enumerate_points(25).points}
        for z in members:
            for mu in TENTH_ROOTS:
                assert ring_mul(mu, z) in members
            assert galois_apply(z, 4) in members


def test_07_oracle_equivalence():
    with criterion(7, "fast enumeration equals naive box baseline"):
        radii = [Fraction(v) for v in
                 (0, 1, 2, Fraction(7, 2), 4, Fraction(25, 4), 9, 16,
                  Fraction(49, 2), 25, 36)]
        for w in (Fraction(1), Fraction(1, 4), Fraction(4)):
            for r_sq in radii:
                fast = enumerate_points(r_sq, Window(w))
                box = box_enumerate(r_sq, Window(w))
                assert snapshot_to_jsonl_bytes(fast) == snapshot_to_jsonl_bytes(box)


def test_08_small_counts():
    with criterion(8, "11 points at R^2=1, 1 point at R^2=0"):
        assert len(enumerate_points(1).points) == 11
        assert len(enumerate_points(0).points) == 1


def test_09_randomized_arithmetic():
    with criterion(9, "10^4 randomized exact arithmetic checks"):
        rng = random.Random(20260823)

        def rand_cyc(bound):
            return tuple(rng.randint(-bound, bound) for _ in range(4))

        for _ in range(2000):  # ring axioms
            x, y, z = (rand_cyc(10**4) for _ in range(3))
            assert ring_add(ring_add(x, y), z) == ring_add(x, ring_add(y, z))
            assert ring_mul(x, y) == ring_mul(y, x)
            assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
            assert ring_mul(x, ring_add(y, z)) == ring_add(ring_mul(x, y), ring_mul(x, z))
        for _ in range(2000):  # Galois maps are ring homomorphisms
            x, y = rand_cyc(10**4), rand_cyc(10**4)
            k = rng.randint(1, 4)
            assert galois_apply(ring_add(x, y), k) == ring_add(galois_apply(x, k),
                                                               galois_apply(y, k))
            assert galois_apply(ring_mul(x, y), k) == ring_mul(galois_apply(x, k),
                                                               galois_apply(y, k))
        for _ in range(2000):  # norm multiplicativity
            x, y = rand_cyc(100), rand_cyc(100)
            assert field_norm(ring_mul(x, y)) == field_norm(x) * field_norm(y)
        for _ in range(2000):  # |z|^2 + |sigma(z)|^2 = Q(a)
            z = rand_cyc(10**4)
            assert golden_add(abs_sq(z, "physical"), abs_sq(z, "internal")) == (quad_form(*z), 0)
        with mpmath.workdps(60):  # exact comparison vs 60-digit floats
            phi = (1 + mpmath.sqrt(5)) / 2
            for _ in range(2000):
                p, q = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
                num, den = rng.randint(-10**9, 10**9), rng.randint(1, 10**6)
                diff = p + q * phi - mpmath.mpf(num) / den
                expected = 0 if diff == 0 else (1 if diff > 0 else -1)
                assert golden_cmp(p, q, num, den) == expected


def test_10_float_consistency():
    with criterion(10, "embedding moduli match exact values to 1e-9"):
        rng = random.Random(5)
        for _ in range(10**4):
            a = tuple(rng.randint(-10**4, 10**4) for _ in range(4))
            phys, intr = abs_sq_coords(*a)
            for image, pq in ((a, phys), (galois_apply(a, 2), intr)):
                exact = golden_to_float(pq)
                approx = abs(embed_approx(image)) ** 2
                assert math.isclose(approx, exact, rel_tol=1e-9, abs_tol=1e-9)


def test_11_density():
    with criterion(11, "empirical density within 10% of 4*pi/sqrt(125)"):
        summary = stats(enumerate_points(900))
        target = 4 * math.pi / math.sqrt(125)
        assert abs(summary["density"] - target) / target < 0.10


def test_12_figure_reproduction():
    with criterion(12, "figure: highlighted points are 0 and the fifth roots"):
        snap = enumerate_points(36)
        opts = RenderOptions(highlight_roots=True)
        svg = render_svg(snap, opts)
        assert svg == render_svg(snap, opts)  # deterministic bytes
        highlights = re.findall(
            r'<circle cx="([0-9.-]+)" cy="([0-9.-]+)" r="10"[^/]*class="highlight"',
            svg)
        assert len(highlights) == 6
        r = math.sqrt(float(snap.radius_sq))
        scale = opts.canvas / (2 * r)
        c = opts.canvas / 2
        expected = {(0.0, 0.0)} | {
            (math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
            for k in range(5)}
        for (cx, cy) in highlights:
            x = (float(cx) - c) / scale
            y = (c - float(cy)) / scale
            assert any(abs(x - ex) < 1e-4 and abs(y - ey) < 1e-4
                       for ex, ey in expected)
