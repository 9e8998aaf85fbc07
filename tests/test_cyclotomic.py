"""Exact arithmetic tests: frozen examples plus property tests.

The independent oracle for ring operations is polynomial arithmetic modulo
the fifth cyclotomic polynomial (sympy), and for the field norm the
resultant with it; neither route shares code with the implementation.  The
ring-multiplication references in oracles.py are checked against these and
in turn are the oracle for the package's closed forms.
"""

import math

import mpmath
import pytest
import sympy
from hypothesis import given
import hypothesis.strategies as st

from pentaset.cyclotomic import (
    ArithmeticConsistencyError,
    TENTH_ROOTS,
    ZETA_POWERS,
    abs_sq_coords,
    embed_approx,
    golden_cmp,
    norm_coords,
    sqrt5_sign,
)

from oracles import (
    EPSILON,
    ONE,
    ZERO,
    ZETA,
    _to_golden,
    abs_sq,
    field_norm,
    galois_apply,
    golden_add,
    golden_mul,
    golden_to_float,
    quad_form,
    ring_add,
    ring_mul,
    ring_neg,
)

_T = sympy.symbols("t")
_PHI5 = sympy.Poly(_T**4 + _T**3 + _T**2 + _T + 1, _T)


def _to_poly(z: tuple) -> sympy.Poly:
    a0, a1, a2, a3 = z
    return sympy.Poly([a3, a2, a1, a0], _T)


def _from_poly(p: sympy.Poly) -> tuple:
    c = list(reversed(p.rem(_PHI5).all_coeffs()))
    c += [0] * (4 - len(c))
    return tuple(int(v) for v in c)


coords = st.integers(min_value=-50, max_value=50)
cycints = st.tuples(coords, coords, coords, coords)


class TestRingOps:
    def test_zeta2_times_zeta3_is_one(self):
        assert ring_mul((0, 0, 1, 0), (0, 0, 0, 1)) == ONE

    def test_additive_inverse(self):
        assert ring_add(ZETA, ring_neg(ZETA)) == ZERO

    def test_epsilon_squared(self):
        # frozen from the polynomial oracle: (zeta + zeta^4)^2 = 2 + zeta^2 + zeta^3
        assert ring_mul(EPSILON, EPSILON) == (2, 0, 1, 1)
        assert _from_poly(_to_poly(EPSILON) * _to_poly(EPSILON)) == (2, 0, 1, 1)

    @given(cycints, cycints)
    def test_mul_matches_polynomial_oracle(self, x, y):
        assert ring_mul(x, y) == _from_poly(_to_poly(x) * _to_poly(y))

    @given(cycints, cycints, cycints)
    def test_ring_axioms(self, x, y, z):
        assert ring_add(ring_add(x, y), z) == ring_add(x, ring_add(y, z))
        assert ring_add(x, y) == ring_add(y, x)
        assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
        assert ring_mul(x, y) == ring_mul(y, x)
        assert ring_mul(x, ring_add(y, z)) == ring_add(ring_mul(x, y), ring_mul(x, z))


class TestGalois:
    def test_sigma_of_zeta(self):
        assert galois_apply(ZETA, 2) == (0, 0, 1, 0)

    def test_sigma_of_epsilon(self):
        assert galois_apply(EPSILON, 2) == (0, 0, 1, 1)

    def test_conjugate_of_zeta(self):
        assert galois_apply(ZETA, 4) == (-1, -1, -1, -1)

    def test_identity(self):
        assert galois_apply(EPSILON, 1) == EPSILON

    @pytest.mark.parametrize("k", [0, 5, -1, 7])
    def test_bad_exponent(self, k):
        with pytest.raises(ValueError):
            galois_apply(ZETA, k)

    @given(cycints, st.sampled_from([1, 2, 3, 4]))
    def test_matches_substitution_oracle(self, z, k):
        expected = _from_poly(sympy.Poly(_to_poly(z).as_expr().subs(_T, _T**k), _T))
        assert galois_apply(z, k) == expected

    @given(cycints, cycints, st.sampled_from([1, 2, 3, 4]))
    def test_ring_homomorphism(self, x, y, k):
        assert galois_apply(ring_add(x, y), k) == ring_add(galois_apply(x, k), galois_apply(y, k))
        assert galois_apply(ring_mul(x, y), k) == ring_mul(galois_apply(x, k), galois_apply(y, k))


class TestFieldNorm:
    def test_root_of_unity(self):
        assert field_norm(ZETA) == 1

    def test_rational_integer(self):
        assert field_norm((2, 0, 0, 0)) == 16

    def test_one_minus_zeta(self):
        # frozen from the resultant oracle: N(1 - zeta) = Phi_5(1) = 5
        z = (1, -1, 0, 0)
        assert field_norm(z) == 5
        assert int(sympy.resultant(_PHI5.as_expr(), _to_poly(z).as_expr(), _T)) == 5

    @given(cycints)
    def test_matches_resultant_oracle(self, z):
        expected = int(sympy.resultant(_PHI5.as_expr(), _to_poly(z).as_expr(), _T))
        assert field_norm(z) == expected

    @given(cycints, cycints)
    def test_multiplicative(self, x, y):
        assert field_norm(ring_mul(x, y)) == field_norm(x) * field_norm(y)

    @given(cycints)
    def test_positive_for_nonzero(self, z):
        if any(z):
            assert field_norm(z) >= 1

    @given(cycints)
    def test_closed_form_agrees(self, z):
        assert norm_coords(*z) == field_norm(z)

    @given(cycints)
    def test_congruence_mod_5(self, z):
        # N(z) == (a0 + a1 + a2 + a3)^4 (mod 5), so no norm is 2, 3 or 4
        assert norm_coords(*z) % 5 == sum(z) ** 4 % 5

    def test_closed_form_guard(self, monkeypatch):
        import pentaset.cyclotomic as cyc
        monkeypatch.setattr(cyc, "abs_sq_coords", lambda *a: ((1, 1), (1, 0)))
        with pytest.raises(ArithmeticConsistencyError):
            norm_coords(1, 0, 0, 0)


class TestAbsSq:
    def test_one_minus_zeta_physical(self):
        assert abs_sq((1, -1, 0, 0), "physical") == (3, -1)

    def test_epsilon_internal(self):
        assert abs_sq(EPSILON, "internal") == (1, 1)

    def test_zero(self):
        assert abs_sq(ZERO, "physical") == (0, 0)

    def test_bad_embedding_name(self):
        with pytest.raises(ValueError):
            abs_sq(ZETA, "nope")

    @given(cycints)
    def test_coords_shortcut_agrees(self, z):
        phys, intr = abs_sq_coords(*z)
        assert abs_sq(z, "physical") == phys
        assert abs_sq(z, "internal") == intr

    @given(cycints)
    def test_norm_factors_into_both_moduli(self, z):
        assert golden_mul(abs_sq(z, "physical"), abs_sq(z, "internal")) == (field_norm(z), 0)

    @given(cycints)
    def test_sum_is_the_quadratic_form(self, z):
        assert golden_add(abs_sq(z, "physical"), abs_sq(z, "internal")) == (quad_form(*z), 0)

    def test_consistency_guard(self):
        with pytest.raises(ArithmeticConsistencyError):
            _to_golden(ZETA)


big = st.integers(min_value=-10**9, max_value=10**9)


class TestGoldenCmp:
    def test_below_one(self):
        assert golden_cmp(2, -1, 1) == -1

    def test_equal(self):
        assert golden_cmp(1, 0, 1) == 0

    def test_above_one(self):
        assert golden_cmp(1, 1, 1) == 1

    @given(big, big, big, st.integers(min_value=1, max_value=10**6))
    def test_matches_high_precision_floats(self, p, q, num, den):
        got = golden_cmp(p, q, num, den)
        with mpmath.workdps(60):
            diff = p + q * (1 + mpmath.sqrt(5)) / 2 - mpmath.mpf(num) / den
            expected = 0 if diff == 0 else (1 if diff > 0 else -1)
        assert got == expected

    @given(big, big)
    def test_sqrt5_sign_matches_floats(self, a, b):
        with mpmath.workdps(60):
            v = a + b * mpmath.sqrt(5)
            expected = 0 if v == 0 else (1 if v > 0 else -1)
        assert sqrt5_sign(a, b) == expected


class TestUnits:
    def test_zeta_is_unit(self):
        assert field_norm(ZETA) == 1

    def test_two_is_not(self):
        assert field_norm((2, 0, 0, 0)) != 1

    def test_epsilon_is_unit(self):
        assert field_norm(EPSILON) == 1


class TestEmbedding:
    def test_one(self):
        assert embed_approx(ONE) == 1.0 + 0.0j

    def test_zeta_internal(self):
        v = embed_approx(galois_apply(ZETA, 2))
        assert v == pytest.approx(complex(math.cos(4 * math.pi / 5),
                                          math.sin(4 * math.pi / 5)), abs=1e-15)

    def test_matches_exact_modulus(self):
        v = embed_approx((1, -1, 0, 0))
        assert abs(v) ** 2 == pytest.approx(golden_to_float((3, -1)), abs=1e-9)

    @given(st.tuples(*[st.integers(-10**6, 10**6)] * 4))
    def test_relative_error_bound(self, z):
        for which, image in (("physical", z), ("internal", galois_apply(z, 2))):
            exact = golden_to_float(abs_sq(z, which))
            approx = abs(embed_approx(image)) ** 2
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_tenth_roots_have_unit_modulus(self):
        for mu in TENTH_ROOTS:
            assert abs(embed_approx(mu)) == pytest.approx(1.0, abs=1e-14)
        assert len(set(TENTH_ROOTS)) == 10

    def test_zeta_powers_consistent(self):
        acc = ONE
        for k in range(5):
            assert ZETA_POWERS[k] == acc
            acc = ring_mul(acc, ZETA)
