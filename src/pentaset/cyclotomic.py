"""Exact arithmetic in Z[zeta_5] and its real quadratic subring Z[phi].

Elements of the ring of integers of the fifth cyclotomic field are stored
as four integer coordinates in the power basis (1, zeta, zeta^2, zeta^3),
zeta = exp(2*pi*i/5).  Python integers are arbitrary precision, so no
operation can overflow.  All comparisons against rational thresholds are
done by exact sign determination of quantities A + B*sqrt(5); floating
point only appears in the embedding helpers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# roots of unity used by the embeddings
_ZETA_PHYSICAL = cmath.exp(2j * cmath.pi / 5)
_ZETA_INTERNAL = cmath.exp(4j * cmath.pi / 5)


class ArithmeticConsistencyError(RuntimeError):
    """An internal exact-arithmetic identity failed; signals a bug, not bad input."""


@dataclass(frozen=True)
class CycInt:
    """a0 + a1*zeta + a2*zeta^2 + a3*zeta^3 in canonical coordinates.

    The basis (1, zeta, zeta^2, zeta^3) is a Z-basis, so equality of
    coordinates is equality of ring elements.  zeta^4 is always rewritten
    as -1 - zeta - zeta^2 - zeta^3.
    """

    a0: int
    a1: int
    a2: int
    a3: int

    def coords(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)

    def is_zero(self) -> bool:
        return self.a0 == 0 and self.a1 == 0 and self.a2 == 0 and self.a3 == 0

    def __add__(self, other: "CycInt") -> "CycInt":
        return CycInt(self.a0 + other.a0, self.a1 + other.a1,
                      self.a2 + other.a2, self.a3 + other.a3)

    def __sub__(self, other: "CycInt") -> "CycInt":
        return CycInt(self.a0 - other.a0, self.a1 - other.a1,
                      self.a2 - other.a2, self.a3 - other.a3)

    def __neg__(self) -> "CycInt":
        return CycInt(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, other: "CycInt") -> "CycInt":
        s = self.coords()
        o = other.coords()
        c = [0] * 7
        for i in range(4):
            si = s[i]
            if si:
                for j in range(4):
                    c[i + j] += si * o[j]
        # zeta^5 = 1, zeta^6 = zeta
        c[0] += c[5]
        c[1] += c[6]
        # zeta^4 = -1 - zeta - zeta^2 - zeta^3
        e = c[4]
        return CycInt(c[0] - e, c[1] - e, c[2] - e, c[3] - e)


ZERO = CycInt(0, 0, 0, 0)
ONE = CycInt(1, 0, 0, 0)
ZETA = CycInt(0, 1, 0, 0)

#: zeta^k for k = 0..4, in canonical coordinates
ZETA_POWERS = (
    CycInt(1, 0, 0, 0),
    CycInt(0, 1, 0, 0),
    CycInt(0, 0, 1, 0),
    CycInt(0, 0, 0, 1),
    CycInt(-1, -1, -1, -1),
)

#: the ten tenth roots of unity +-zeta^k
TENTH_ROOTS = tuple(z for p in ZETA_POWERS for z in (p, -p))

#: the fundamental unit eps = zeta + zeta^4 = phi - 1 (as a real number)
EPSILON = CycInt(-1, 0, -1, -1)


def galois_apply(z: CycInt, k: int) -> CycInt:
    """Apply the field automorphism zeta -> zeta^k; k = 1 is the identity."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"Galois exponent must be in 1..4, got {k}")
    acc = [0] * 5
    for i, ai in enumerate(z.coords()):
        acc[(i * k) % 5] += ai
    e = acc[4]
    return CycInt(acc[0] - e, acc[1] - e, acc[2] - e, acc[3] - e)


@dataclass(frozen=True)
class GoldenInt:
    """The real number p + q*phi with phi = (1 + sqrt(5))/2; phi^2 = phi + 1."""

    p: int
    q: int

    def __add__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "GoldenInt":
        return GoldenInt(-self.p, -self.q)

    def __mul__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.p * other.p + self.q * other.q,
                         self.p * other.q + self.q * other.p + self.q * other.q)

    def sign(self) -> int:
        # p + q*phi = (2p + q + q*sqrt(5)) / 2
        return sqrt5_sign(2 * self.p + self.q, self.q)

    def to_float(self) -> float:
        p, q = self.p, self.q
        if (p >= 0) == (q >= 0):
            return float(p) + float(q) * PHI
        # p and q*phi nearly cancel; divide the exact norm by the conjugate
        # p + q*(1 - phi), whose two terms share a sign
        return (p * p + p * q - q * q) / (p + q * (1.0 - PHI))


GOLDEN_ZERO = GoldenInt(0, 0)
GOLDEN_ONE = GoldenInt(1, 0)
#: squared short distance (phi - 1)^2 = 2 - phi
SHORT_DIST_SQ = GoldenInt(2, -1)
#: squared long distance 1
LONG_DIST_SQ = GoldenInt(1, 0)


def sqrt5_sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(5) for integers (or Fractions) a, b."""
    if a >= 0 and b >= 0:
        return 0 if (a == 0 and b == 0) else 1
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: the larger of a^2 and 5b^2 decides (equality would force
    # sqrt(5) rational, impossible for nonzero a, b)
    if a > 0:
        return 1 if a * a > 5 * b * b else -1
    return 1 if 5 * b * b > a * a else -1


def golden_cmp(p: int, q: int, num: int, den: int = 1) -> int:
    """Exact comparison of p + q*phi against num/den (den > 0); -1, 0, or 1.

    Takes raw integers so the enumeration and pair loops allocate nothing
    per call; callers split a Fraction into numerator and denominator once.
    """
    # den*(p + q*phi) - num = (2*den*p + den*q - 2*num + den*q*sqrt(5)) / 2
    dq = den * q
    return sqrt5_sign(2 * den * p + dq - 2 * num, dq)


def golden_cmp_golden(g: GoldenInt, h: GoldenInt) -> int:
    return (g - h).sign()


def _to_golden(w: CycInt) -> GoldenInt:
    """Convert a totally real element to Z[phi].

    Real elements have coordinates (a0, 0, a2, a2): a0 + a2*(zeta^2 + zeta^3)
    with zeta^2 + zeta^3 = -phi.
    """
    if w.a1 != 0 or w.a2 != w.a3:
        raise ArithmeticConsistencyError(
            f"element {w.coords()} is not fixed by complex conjugation")
    return GoldenInt(w.a0, -w.a2)


def abs_sq(z: CycInt, which: str = "physical") -> GoldenInt:
    """Exact squared modulus under the chosen embedding.

    physical: |z|^2 = z * conj(z); internal: |sigma(z)|^2 with sigma the
    embedding zeta -> zeta^2.
    """
    if which == "physical":
        w = z * galois_apply(z, 4)
    elif which == "internal":
        w = galois_apply(z, 2) * galois_apply(z, 3)
    else:
        raise ValueError(f"unknown embedding {which!r}")
    return _to_golden(w)


def abs_sq_coords(a0: int, a1: int, a2: int, a3: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both squared moduli, (physical, internal), as raw (p, q) pairs.

    Closed form used by the enumeration hot loops; agrees with abs_sq
    (property-tested).
    """
    c0 = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    c1 = a0 * a1 + a1 * a2 + a2 * a3
    c2 = a0 * a2 + a0 * a3 + a1 * a3
    return (c0 - c1, c1 - c2), (c0 - c2, c2 - c1)


def quad_form(a0: int, a1: int, a2: int, a3: int) -> int:
    """Q(a) = |z|^2 + |sigma(z)|^2 = (5*sum(ai^2) - (sum ai)^2) / 2, an integer."""
    s = a0 + a1 + a2 + a3
    return (5 * (a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3) - s * s) // 2


def field_norm(z: CycInt) -> int:
    """Product of the four Galois conjugates; a rational integer, >= 1 for z != 0."""
    w = z * galois_apply(z, 2) * galois_apply(z, 3) * galois_apply(z, 4)
    if w.a1 != 0 or w.a2 != 0 or w.a3 != 0:
        raise ArithmeticConsistencyError(
            f"norm product {w.coords()} is not rational")
    return w.a0


def norm_coords(a0: int, a1: int, a2: int, a3: int) -> int:
    """field_norm in closed form, |z|^2 * |sigma(z)|^2 from abs_sq_coords."""
    (p, q), (r, s) = abs_sq_coords(a0, a1, a2, a3)
    if p * s + q * r + q * s:
        raise ArithmeticConsistencyError(f"norm of {(a0, a1, a2, a3)} is not rational")
    return p * r + q * s


def is_unit(z: CycInt) -> bool:
    return field_norm(z) == 1


def embed_approx(z: CycInt, which: str = "physical") -> complex:
    """Double-precision value of z under the chosen embedding.

    Relative error is far below 1e-12 for coordinates up to 1e6.
    """
    if which == "physical":
        u = _ZETA_PHYSICAL
    elif which == "internal":
        u = _ZETA_INTERNAL
    else:
        raise ValueError(f"unknown embedding {which!r}")
    # Horner on a0 + a1 u + a2 u^2 + a3 u^3
    return ((z.a3 * u + z.a2) * u + z.a1) * u + z.a0


@dataclass(frozen=True)
class UnitDecomposition:
    """u = sign * zeta^k * eps^j, sign in {+1, -1}, 0 <= k < 5, j signed."""

    sign: int
    k: int
    j: int


def _eps_inverse() -> CycInt:
    # N(eps) = 1, so eps^-1 is the product of the three other conjugates
    return galois_apply(EPSILON, 2) * galois_apply(EPSILON, 3) * galois_apply(EPSILON, 4)


EPSILON_INV = _eps_inverse()


def unit_power(base: CycInt, n: int) -> CycInt:
    acc = ONE
    for _ in range(n):
        acc = acc * base
    return acc


def recompose(d: UnitDecomposition) -> CycInt:
    base = EPSILON if d.j >= 0 else EPSILON_INV
    u = ZETA_POWERS[d.k] * unit_power(base, abs(d.j))
    return u if d.sign == 1 else -u


def decompose_unit(u: CycInt) -> UnitDecomposition:
    """Write a unit as sign * zeta^k * eps^j, eps = zeta + zeta^4.

    The exponent j is guessed from a float embedding magnitude, then
    confirmed exactly; a +-1 neighborhood absorbs any rounding of the guess.
    """
    if not is_unit(u):
        raise ValueError(f"{u.coords()} is not a unit")
    # |sigma(u)| = phi^j and |u| = (phi-1)^j are reciprocals; the one >= 1
    # is free of cancellation, so take the guess from it
    mag_int = abs(embed_approx(u, "internal"))
    if mag_int >= 1.0:
        guess = round(math.log(mag_int) / math.log(PHI))
    else:
        guess = round(math.log(abs(embed_approx(u, "physical"))) / math.log(PHI - 1.0))
    for j in (guess, guess - 1, guess + 1):
        shift = unit_power(EPSILON_INV if j >= 0 else EPSILON, abs(j))
        v = u * shift
        for k, zk in enumerate(ZETA_POWERS):
            if v == zk:
                d = UnitDecomposition(1, k, j)
                break
            if v == -zk:
                d = UnitDecomposition(-1, k, j)
                break
        else:
            continue
        if recompose(d) != u:
            raise ArithmeticConsistencyError(
                f"recomposition of {d} does not reproduce {u.coords()}")
        return d
    raise ArithmeticConsistencyError(
        f"unit {u.coords()} did not decompose near j = {guess}")
