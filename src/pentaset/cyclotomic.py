"""Exact arithmetic in Z[zeta_5] and its real quadratic subring Z[phi].

Elements of the ring of integers of the fifth cyclotomic field are stored
as four integer coordinates in the power basis (1, zeta, zeta^2, zeta^3),
zeta = exp(2*pi*i/5).  Python integers are arbitrary precision, so no
operation can overflow.  All comparisons against rational thresholds are
done by exact sign determination of quantities A + B*sqrt(5); floating
point only appears in embed_approx.
"""

from __future__ import annotations

import cmath
from functools import cmp_to_key
from operator import attrgetter, itemgetter

_ZETA_PHYSICAL = cmath.exp(2j * cmath.pi / 5)


class ArithmeticConsistencyError(RuntimeError):
    """An internal exact-arithmetic identity failed; signals a bug, not bad input."""


class _Value:
    """Equal within one class by _key, its public slots' values; a _Frozen
    one also hashes by _key and refuses to assign or delete any attribute."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = property(attrgetter(*[k for k in cls.__slots__ if k[0] != "_"]))

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented


class _Frozen:
    __slots__ = ()

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class CycInt(tuple):
    """a0 + a1*zeta + a2*zeta^2 + a3*zeta^3 in canonical coordinates.

    The basis (1, zeta, zeta^2, zeta^3) is a Z-basis, so equality of
    coordinates is equality of ring elements.  The package computes on
    plain coordinate tuples; this tuple subclass views one as PointRecord.z,
    and only perfbench builds it.  The ring operations are in tests/oracles.py.
    """

    __slots__ = ()
    a0, a1, a2, a3 = (property(itemgetter(k)) for k in range(4))

    def __new__(cls, a0: int, a1: int, a2: int, a3: int):
        return tuple.__new__(cls, (a0, a1, a2, a3))

    def coords(self) -> tuple[int, int, int, int]:
        return tuple(self)


#: zeta^k for k = 0..4, in canonical coordinates
ZETA_POWERS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, -1, -1, -1),
)

#: the ten tenth roots of unity +-zeta^k
TENTH_ROOTS = tuple(z for p in ZETA_POWERS for z in (p, tuple(-a for a in p)))


class GoldenInt(_Frozen, _Value):
    """The real number p + q*phi with phi = (1 + sqrt(5))/2; phi^2 = phi + 1.
    The package keeps it as a plain (p, q) pair; only perfbench builds this view."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


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


#: sort key of a (p, q) pair by the value p + q*phi, exactly
_golden_key = cmp_to_key(lambda a, b: golden_cmp(a[0] - b[0], a[1] - b[1], 0))


def abs_sq_coords(a0: int, a1: int, a2: int, a3: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both squared moduli, (physical, internal), as raw (p, q) pairs.

    Closed form of z * conj(z) and sigma(z) * conj(sigma(z)), sigma the
    embedding zeta -> zeta^2; the tests check it against ring multiplication.
    """
    c0 = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    c1 = a0 * a1 + a1 * a2 + a2 * a3
    c2 = a0 * a2 + a0 * a3 + a1 * a3
    return (c0 - c1, c1 - c2), (c0 - c2, c2 - c1)


def norm_coords(a0: int, a1: int, a2: int, a3: int) -> int:
    """The field norm N(z) = |z|^2 * |sigma(z)|^2, the product of the four
    Galois conjugates; a rational integer, >= 1 for z != 0."""
    (p, q), (r, s) = abs_sq_coords(a0, a1, a2, a3)
    if p * s + q * r + q * s:
        raise ArithmeticConsistencyError(f"norm of {(a0, a1, a2, a3)} is not rational")
    return p * r + q * s


def embed_approx(z: tuple[int, int, int, int]) -> complex:
    """Double-precision value of z in the plane, zeta = exp(2*pi*i/5).

    Relative error is far below 1e-12 for coordinates up to 1e6.
    """
    a0, a1, a2, a3 = z
    u = _ZETA_PHYSICAL
    # Horner on a0 + a1 u + a2 u^2 + a3 u^3
    return ((a3 * u + a2) * u + a1) * u + a0
