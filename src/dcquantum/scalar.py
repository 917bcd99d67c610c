"""Scalar arithmetic over the dual-complex ring C[eps] with eps^2 = 0.

A dual-complex number is stored as two independent complex components,
``sig + inf*eps``.  Nilpotency is enforced at the representation level:
no operation ever multiplies two infinitesimal parts together, so the
square of any infinitesimal is bit-exactly zero: every product of dual
objects, scalar or array, is the one Leibniz rule in `_leibniz`.

``DualComplex`` and ``DualReal`` share the ring operations of their base
``DualNumber``.  ``DualReal`` is the ordered sub-ring a + b*eps with real
components; it carries probabilities and norms and is the only type that
supports comparison.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BothPartsZero,
    DivisorInfinitesimal,
    LogOfInfinitesimal,
    ModulusOfInfinitesimal,
    NegativeRoot,
    RootOfInfinitesimal,
)

#: Appreciability cutoff: |sig| <= TAU counts as a zero significant part.
TAU = 1e-12


class Classification(enum.Enum):
    ZERO = "zero"
    INFINITESIMAL = "infinitesimal"
    APPRECIABLE = "appreciable"


class Ordering(enum.IntEnum):
    LT = -1
    EQ = 0
    GT = 1


def _leibniz(f, a, b):
    """The (sig, inf) parts of the product f(a, b) of two dual objects,
    f bilinear: f(a0, b0) + eps (f(a0, b1) + f(a1, b0)).  eps^2 = 0, so
    f(a1, b1) is never formed."""
    return f(a.sig, b.sig), f(a.sig, b.inf) + f(a.inf, b.sig)


@dataclass(frozen=True, eq=False)
class DualNumber:
    """sig + inf*eps: the ring operations DualComplex and DualReal share.

    A subclass names the type of its parts in ``_PART`` and converts the
    operands of other types that it accepts in ``_coerce``, which returns
    NotImplemented for any other operand.  Equality coerces the same way,
    so DualReal(1) == DualComplex(1) == 1, and equal values hash equal.
    """

    sig: complex = 0
    inf: complex = 0

    def __post_init__(self):
        object.__setattr__(self, "sig", self._PART(self.sig))
        object.__setattr__(self, "inf", self._PART(self.inf))

    def __add__(self, other):
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self.sig + other.sig, self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other):
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self.sig - other.sig, self.inf - other.inf)

    def __rsub__(self, other):
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(other.sig - self.sig, other.inf - self.inf)

    def __neg__(self):
        return type(self)(-self.sig, -self.inf)

    def __eq__(self, other):
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.sig == other.sig and self.inf == other.inf

    def __hash__(self):
        # a value with no eps-part hashes as its sig-part, as it compares
        return hash(self.sig) if self.inf == 0 else hash((self.sig, self.inf))

    def __mul__(self, other):
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(*_leibniz(operator.mul, self, other))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class DualComplex(DualNumber):
    """z + t*eps with complex significant part z and infinitesimal part t."""

    _PART = complex

    @staticmethod
    def _coerce(x):
        if isinstance(x, DualReal):
            return x.as_dual_complex()
        if isinstance(x, (int, float, complex)):
            return DualComplex(x)
        return NotImplemented

    def __truediv__(self, other) -> "DualComplex":
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return div(self, other)

    def __rtruediv__(self, other) -> "DualComplex":
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return div(other, self)

    def __pow__(self, n: int) -> "DualComplex":
        return pow_int(self, n)

    def conj(self) -> "DualComplex":
        """The linear conjugation z* + t*eps."""
        return DualComplex(self.sig.conjugate(), self.inf.conjugate())

    def __str__(self) -> str:
        return f"{_fmt_complex(self.sig)} + ({_fmt_complex(self.inf)})ε"


#: The infinitesimal unit ε: a family f written in ring arithmetic has
#: f(EPS) = f(0) + ε f'(0), its first-order variation.
EPS = DualComplex(0.0, 1.0)


@dataclass(frozen=True, eq=False)
class DualReal(DualNumber):
    """a + b*eps with real components, ordered lexicographically (eps > 0)."""

    _PART = float

    @staticmethod
    def _coerce(x):
        if isinstance(x, (int, float)):
            return DualReal(x)
        return NotImplemented

    # -- order (exact on stored floats, no tolerance) --------------------

    def _compare(self, other, op):
        other = other if type(other) is type(self) else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return op((self.sig, self.inf), (other.sig, other.inf))

    def __lt__(self, other) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other) -> bool:
        return self._compare(other, operator.ge)

    def sqrt(self) -> "DualReal":
        """Dual square root: sqrt(a) + b/(2 sqrt(a)) eps; a must be appreciable."""
        if abs(self.sig) <= TAU:
            raise RootOfInfinitesimal("sqrt of a non-appreciable dual real")
        if self.sig < 0:
            raise NegativeRoot(f"sqrt of the negative dual real {self}")
        s = math.sqrt(self.sig)
        return DualReal(s, self.inf / (2.0 * s))

    def as_dual_complex(self) -> DualComplex:
        return DualComplex(self.sig, self.inf)

    def __str__(self) -> str:
        return f"{self.sig!r} + ({self.inf!r})ε"


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    sign = "+" if im >= 0 else "-"
    return f"{re:g}{sign}{abs(im):g}i"


def classify(w: DualComplex) -> Classification:
    """Trichotomy appreciable / infinitesimal / zero against the cutoff TAU."""
    if abs(w.sig) > TAU:
        return Classification.APPRECIABLE
    if abs(w.inf) > TAU:
        return Classification.INFINITESIMAL
    return Classification.ZERO


def compare(a: DualReal, b: DualReal) -> Ordering:
    """Lexicographic comparison with eps > 0; exact on the stored floats."""
    if a < b:
        return Ordering.LT
    if a > b:
        return Ordering.GT
    return Ordering.EQ


# ---------------------------------------------------------------------------
# Division
# ---------------------------------------------------------------------------


def div(a: DualComplex, b: DualComplex) -> DualComplex:
    """a/b for appreciable b: a.sig/b.sig + (b.sig a.inf - a.sig b.inf)/b.sig^2 eps."""
    if abs(b.sig) <= TAU:
        raise DivisorInfinitesimal(
            f"division by non-appreciable {b}: no unique inverse exists"
        )
    z = a.sig / b.sig
    t = (b.sig * a.inf - a.sig * b.inf) / (b.sig * b.sig)
    return DualComplex(z, t)


def div_infinitesimal_convention(a: DualComplex, b: DualComplex) -> DualComplex:
    """Infinitesimal/infinitesimal division with the t' = 0 convention.

    The quotient of two infinitesimals is under-determined: any t'
    solves w' * b = a.  Returns a.inf/b.inf + 0*eps.  The result is not
    an inverse of anything; callers must not feed it back into division
    expecting ring identities to hold.
    """
    if abs(b.inf) <= TAU:
        raise BothPartsZero("divisor has both components (numerically) zero")
    return DualComplex(a.inf / b.inf, 0j)


# ---------------------------------------------------------------------------
# Powers, roots, analytic extension
# ---------------------------------------------------------------------------


def pow_int(w: DualComplex, n: int) -> DualComplex:
    """w^n = z^n + n z^(n-1) t eps for integer n >= 0 (0^0 = 1)."""
    if n < 0:
        raise ValueError("pow_int requires n >= 0; use div for inverses")
    if n == 0:
        return DualComplex(1.0)
    # complex 0**0 == 1 covers the n == 1, z == 0 corner.
    return DualComplex(w.sig**n, n * w.sig ** (n - 1) * w.inf)


def nth_root(w: DualComplex, n: int, k: int = 0) -> DualComplex:
    """k-th branch of the n-th root, with the branch synchronized between
    the base term and the denominator of the infinitesimal part."""
    if n < 1:
        raise ValueError("nth_root requires n >= 1")
    if not 0 <= k < n:
        raise ValueError(f"branch index k={k} out of range [0, {n})")
    if abs(w.sig) <= TAU:
        raise RootOfInfinitesimal("n-th root of a non-appreciable number")
    r = abs(w.sig) ** (1.0 / n)
    phi = (cmath.phase(w.sig) + 2.0 * math.pi * k) / n
    root = r * cmath.exp(1j * phi)
    return DualComplex(root, w.inf / (n * root ** (n - 1)))


def sqrt_s(w: DualComplex, k: int = 0) -> DualComplex:
    return nth_root(w, 2, k)


def extend_analytic(
    f: Callable[[complex], complex],
    fprime: Callable[[complex], complex],
    w: DualComplex,
) -> DualComplex:
    """Unique holomorphic extension: f(z) + t f'(z) eps."""
    return DualComplex(f(w.sig), w.inf * fprime(w.sig))


def exp_s(w: DualComplex) -> DualComplex:
    """exp(z)(1 + t eps)."""
    e = cmath.exp(w.sig)
    return DualComplex(e, e * w.inf)


def log_s(w: DualComplex) -> DualComplex:
    """Principal logarithm log(z) + (t/z) eps; requires w appreciable."""
    if abs(w.sig) <= TAU:
        raise LogOfInfinitesimal("log of a non-appreciable number")
    return DualComplex(cmath.log(w.sig), w.inf / w.sig)


def sin_s(w: DualComplex) -> DualComplex:
    return DualComplex(cmath.sin(w.sig), cmath.cos(w.sig) * w.inf)


def cos_s(w: DualComplex) -> DualComplex:
    return DualComplex(cmath.cos(w.sig), -cmath.sin(w.sig) * w.inf)


# ---------------------------------------------------------------------------
# Conjugation and modulus
# ---------------------------------------------------------------------------


def conj(w: DualComplex) -> DualComplex:
    return w.conj()


def modulus(w: DualComplex) -> DualReal:
    """|w| = |z| + Re(z* t)/|z| eps as an ordered dual real.

    The modulus of a nonzero infinitesimal is 0, but its infinitesimal
    part is undefined; that case raises ModulusOfInfinitesimal carrying
    the zero value.
    """
    r = abs(w.sig)
    if r <= TAU:
        if abs(w.inf) > TAU:
            raise ModulusOfInfinitesimal(
                "modulus of a nonzero infinitesimal: value is 0, eps-part undefined",
                value=DualReal(0.0, 0.0),
            )
        return DualReal(0.0, 0.0)
    return DualReal(r, (w.sig.conjugate() * w.inf).real / r)
