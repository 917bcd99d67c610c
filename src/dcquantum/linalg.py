"""Dense linear algebra over the dual-complex ring.

Vectors and matrices are stored as a pair of complex numpy arrays
(significant part, infinitesimal part); M = sig + eps*inf.  All ring
operations combine the parts so that eps^2 terms never appear, hence
first-order identities hold exactly up to floating point.  The spectral
closed forms and the matrix exponential live in `spectral`; their public
names are re-exported here, loaded on first access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    IncompleteFamily,
    InfinitesimalVector,
    ModulusOfInfinitesimal,
    NonSquare,
    NotUnitary,
)
from .scalar import TAU, DualComplex, DualNumber, DualReal, _leibniz, _ring_op

#: Residual up to which an input that must be unitary or Hermitian is taken as one.
REQUIRE_ATOL = 1e-8
#: Max-norm defect within which a family is complete and a dual norm is 1 + 0eps.
_COMPLETE_ATOL = 1e-9
#: The eps-part of every array given none: read-only, viewed at each shape.
_ZERO = np.zeros((), complex)
_ZERO.setflags(write=False)


def _zero(a: np.ndarray) -> np.ndarray:
    """_ZERO broadcast to a's shape: zero strides, no n x n array."""
    return np.broadcast_to(_ZERO, a.shape)


@dataclass(frozen=True, eq=False)
class _DualArray:
    """sig + eps*inf over two equal-shape complex arrays of NDIM
    dimensions: the ring operations vectors and matrices share.  == is
    value equality (same type and shape, equal parts, NaN unequal as for
    floats); the arrays are mutable types, so the values are unhashable.
    Both parts are read-only; an eps-part given as None is a zero-strided
    view of one shared zero, not a C-ordered array."""

    NDIM = 0
    # numpy operators defer to ours, so == against an ndarray is False, not an array
    __array_ufunc__ = None
    sig: np.ndarray
    inf: np.ndarray = None

    def __post_init__(self):
        # defensive C-ordered copies of the caller's arrays
        sig = np.array(self.sig, dtype=complex, order="C")
        self._own(sig, _zero(sig) if self.inf is None
                  else np.array(self.inf, dtype=complex, order="C"))

    def _own(self, sig, inf):
        if sig.shape != inf.shape or sig.ndim != self.NDIM:
            raise DimMismatch(
                f"{type(self).__name__} parts must be equal-shape {self.NDIM}-d arrays")
        sig.setflags(write=False)
        inf.setflags(write=False)
        vars(self).update(sig=sig, inf=inf)  # past the frozen __setattr__

    @classmethod
    def _owning(cls, sig: np.ndarray, inf: np.ndarray):
        """Take ownership of two freshly allocated, equal-shape complex
        arrays of NDIM dimensions without the defensive copy: they are
        frozen in place, so the caller must hold no other reference it
        writes to.  Every ring result is built this way."""
        v = object.__new__(cls)
        v._own(sig, inf)
        return v

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which copies and freezes
        return type(self), (self.sig, self.inf)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.sig, other.sig) and np.array_equal(self.inf, other.inf)

    def __getitem__(self, index) -> DualComplex:
        return DualComplex(self.sig[index], self.inf[index])

    def _operand(self, other):
        """other if it is of self's type and shape: another type is
        NotImplemented, another shape a DimMismatch."""
        if type(other) is not type(self):
            return NotImplemented
        if other.sig.shape != self.sig.shape:
            raise DimMismatch(f"{type(self).__name__} {self.sig.shape} and {other.sig.shape}")
        return other

    __add__ = _ring_op(lambda a, b: type(a)._owning(a.sig + b.sig, a.inf + b.inf))
    __sub__ = _ring_op(lambda a, b: type(a)._owning(a.sig - b.sig, a.inf - b.inf))

    def __neg__(self):
        return type(self)._owning(-self.sig, -self.inf)

    def scale(self, w):
        """Multiply by a dual scalar (DualComplex or DualReal) or a plain complex."""
        if isinstance(w, DualNumber):
            return type(self)._owning(*_leibniz(np.multiply, w, self))
        return type(self)._owning(w * self.sig, w * self.inf)


class DCVector(_DualArray):
    """Dense vector over DualComplex: v = sig + eps*inf."""

    NDIM = 1

    @property
    def dim(self) -> int:
        return self.sig.shape[0]

    def __len__(self) -> int:
        return self.dim

    @staticmethod
    def basis(dim: int, i: int) -> "DCVector":
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        return DCVector(e)


class DCMatrix(_DualArray):
    """Dense matrix over DualComplex: M = sig + eps*inf."""

    NDIM = 2

    @property
    def rows(self) -> int:
        return self.sig.shape[0]

    @property
    def cols(self) -> int:
        return self.sig.shape[1]

    @property
    def shape(self) -> tuple:
        return self.sig.shape

    def __matmul__(self, other):
        """Product with a matrix or a vector, of the operand's type."""
        if not isinstance(other, _DualArray):
            return NotImplemented
        if self.cols != len(other.sig):
            raise DimMismatch(f"{self.shape} @ {other.sig.shape}")
        return type(other)._owning(*_leibniz(np.matmul, self, other))

    def adjoint(self) -> "DCMatrix":
        # one fresh C-ordered array per part, the layout products have used
        return DCMatrix._owning(*(np.conjugate(p.T, order="C") for p in (self.sig, self.inf)))

    @staticmethod
    def identity(n: int) -> "DCMatrix":
        i = np.eye(n, dtype=complex)
        return DCMatrix._owning(i, _zero(i))

    @staticmethod
    def zeros(rows: int, cols: int = None) -> "DCMatrix":
        z = np.zeros((rows, rows if cols is None else cols), dtype=complex)
        return DCMatrix._owning(z, _zero(z))


class OperatorKind(enum.Enum):
    HERMITIAN = "hermitian"
    ANTI_HERMITIAN = "anti-hermitian"
    UNITARY = "unitary"


# ---------------------------------------------------------------------------
# Inner products and norms
# ---------------------------------------------------------------------------


def inner(u: DCVector, v: DCVector) -> DualComplex:
    """<u|v> = sum_k u_k* v_k, conjugate-linear in the first slot."""
    if u.dim != v.dim:
        raise DimMismatch(f"inner product of dims {u.dim} and {v.dim}")
    return DualComplex(*_leibniz(np.vdot, u, v))


def norm_sq(v: DCVector) -> DualReal:
    """<v|v> = ||sig||^2 + 2 Re<sig|inf> eps."""
    return DualReal(float(np.vdot(v.sig, v.sig).real), 2.0 * float(np.vdot(v.sig, v.inf).real))


def vnorm(v: DCVector) -> DualReal:
    """||v|| = ||sig|| + Re<sig|inf>/||sig|| eps.

    The norm of a nonzero infinitesimal vector is 0 with undefined
    eps-part; that raises, mirroring the scalar modulus.
    """
    n = float(np.linalg.norm(v.sig))
    if n <= TAU:
        if np.abs(v.inf).max(initial=0.0) > TAU:
            raise ModulusOfInfinitesimal(
                "norm of a nonzero infinitesimal vector",
                value=DualReal(0.0, 0.0),
            )
        return DualReal(0.0, 0.0)
    return DualReal(n, float(np.vdot(v.sig, v.inf).real) / n)


def divide_vector(v: DCVector, w: DualNumber) -> DCVector:
    """Componentwise division of a vector by an appreciable dual scalar."""
    if abs(w.sig) <= TAU:
        raise InfinitesimalVector("cannot divide a vector by an infinitesimal scalar")
    z, t = complex(w.sig), complex(w.inf)
    return DCVector._owning(v.sig / z, v.inf / z - v.sig * t / (z * z))


# ---------------------------------------------------------------------------
# Operator classification and unitary decomposition
# ---------------------------------------------------------------------------


def _defect_term(d, parts, scratch) -> float:
    """One part's term of the relative defect: max|d| over max(1, the
    largest modulus in parts, that part of each matrix checked), a
    backward error (Higham, ch. 1); NaN if d has one.  The moduli are
    written over d, then over scratch, a complex array with each part's
    columns and at least its rows (d itself will do): no array of moduli
    is made."""
    top = np.abs(d, out=d).real.max(initial=0.0)
    return top / max(1.0, np.max([np.abs(a, out=scratch[:len(a)]).real.max(initial=0.0)
                                  for a in parts]))


def _adjoint(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a^dag written into out, which does not overlap a.  A transposed copy
    and an in-place conjugate need no iteration buffer; conjugating a^T
    straight into out would take one of 8192 entries."""
    np.copyto(out, a.T)
    return np.conjugate(out, out=out)


def residual(m: DCMatrix, kind: OperatorKind) -> float:
    """Relative defect of m from the identity that defines `kind`: M^dag - M
    (Hermitian), M^dag + M (anti-Hermitian), or M^dag M - I (unitary; for a
    non-square m, such as a state's column or a family's stack, an isometry
    check, in `completeness_defect`'s buffers).  The Hermitian and
    anti-Hermitian kinds hold one n x n buffer, which takes each part's
    defect and then its moduli."""
    if kind is OperatorKind.UNITARY:
        return completeness_defect((m,))
    if m.rows != m.cols:
        raise NonSquare(f"{kind.value} residual needs a square matrix, got {m.shape}")
    op = np.subtract if kind is OperatorKind.HERMITIAN else np.add
    buf = np.empty(m.shape, complex)
    return float(np.max([_defect_term(op(_adjoint(a, buf), a, out=buf), (a,), buf)
                         for a in (m.sig, m.inf)]))


def classify_op(m: DCMatrix, atol: float = 1e-10) -> frozenset:
    """Flags from {HERMITIAN, ANTI_HERMITIAN, UNITARY}, each checked on
    both components within atol."""
    if m.rows != m.cols:
        raise NonSquare(f"classify_op needs a square matrix, got {m.shape}")
    return frozenset(k for k in OperatorKind if residual(m, k) <= atol)


def is_unitary(m: DCMatrix, atol: float = 1e-10) -> bool:
    return m.rows == m.cols and residual(m, OperatorKind.UNITARY) <= atol


def is_hermitian(m: DCMatrix, atol: float = 1e-10) -> bool:
    return m.rows == m.cols and residual(m, OperatorKind.HERMITIAN) <= atol


def _hermitian_generator(d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Hermitian H with d = iHU for a unitary U: the Hermitian part
    of -i d U^dag, which drops the float asymmetry of an inexact d."""
    h = -1j * d @ u.conj().T
    return 0.5 * (h + h.conj().T)


def decompose_unitary(u_eps: DCMatrix):
    """Split a dual-complex unitary as (I + i eps H) U.

    Returns (U, H) with U = sig part (complex unitary) and H Hermitian,
    so that u_eps = U + eps * iHU.
    """
    if not is_unitary(u_eps, REQUIRE_ATOL):
        raise NotUnitary("decompose_unitary requires a dual-complex unitary")
    return u_eps.sig, _hermitian_generator(u_eps.inf, u_eps.sig)


# ---------------------------------------------------------------------------
# Stinespring dilation
# ---------------------------------------------------------------------------


def _stack(family) -> DCMatrix:
    """The operators of a family `completeness_defect` has taken, stacked row-wise."""
    return DCMatrix._owning(np.concatenate([m.sig for m in family]),
                            np.concatenate([m.inf for m in family]))


def completeness_defect(family) -> float:
    """Relative defect of sum_m M_m^dag M_m from I + 0eps: the isometry
    residual of the stacked family, which is not built.  The family must
    be non-empty, and each operator must have as many columns as M_0.

    It works part by part (Leibniz): with M = A0 + eps A1 and
    X = A0^dag A1, M^dag M is A0^dag A0 + eps (X + X^dag), two products
    per operator and no dual temporaries; the scales are those of the
    stack.  M_0's products are written straight into gram and X (d x d),
    and I is subtracted on gram's diagonal; X^dag is formed in gram once
    its moduli are taken.  So a family of one operator, such as every
    unitary residual, holds three buffers: gram, X and the operator's
    conjugate A0-bar.  Each further operator's products pass through a
    fourth, d x d, and the conjugate buffer is as large as the largest
    operator.  These are the bits of sums started from -I and 0: IEEE
    addition commutes, and a sum started from 0 differs only in the sign
    of a zero, which the moduli drop."""
    if not family:
        raise IncompleteFamily("empty operator family")
    d = family[0].cols
    for i, m in enumerate(family):
        if m.cols != d:
            raise DimMismatch(f"operator {i} has {m.cols} columns, operator 0 has {d}")
    c = np.empty((max(m.rows for m in family), d), complex)  # one A0's conjugate
    first, *rest = family
    a0h = np.conjugate(first.sig, out=c[:first.rows]).T
    gram = np.matmul(a0h, first.sig)
    gram.reshape(-1)[::d + 1] -= 1.0
    x = np.matmul(a0h, first.inf)
    if rest:
        p = np.empty((d, d), complex)
        for m in rest:
            a0h = np.conjugate(m.sig, out=c[:m.rows]).T
            gram += np.matmul(a0h, m.sig, out=p)
            x += np.matmul(a0h, m.inf, out=p)
    sig = _defect_term(gram, [m.sig for m in family], c)
    x += _adjoint(x, gram)
    return float(np.max([sig, _defect_term(x, [m.inf for m in family], c)]))


def stinespring(family) -> DCMatrix:
    """Stinespring dilation of a complete operator family {M_m}.

    Builds the isometry V = V0 + eps V1 = sum_m |m><0| x M_m
    (ancilla-first ordering, so block row m holds M_m and the first d
    columns stack the M_m, R rows in all) and completes it to an R x R
    dual-complex unitary [V, W] by `_complete_isometry`.  The completion
    is deterministic but not canonical; only the first block-column is
    contractual.
    """
    defect = completeness_defect(family)
    if not defect <= _COMPLETE_ATOL:  # NaN fails too
        raise IncompleteFamily(
            f"sum M^dag M deviates from I by {defect:.3e} (atol {_COMPLETE_ATOL:.1e})"
        )
    return _complete_isometry(_stack(family))


def _complete_isometry(v: DCMatrix) -> DCMatrix:
    """[V, W] for an R x d dual isometry V = V0 + eps V1, in closed form:
    W0 holds the complement columns of the complete QR factorization of
    V0, each multiplied by the phase that makes its first largest-modulus
    entry real and positive; W1 = -V0 (V1^dag W0), which makes [V, W]
    unitary to first order.  V is taken as checked."""
    w0 = np.linalg.qr(v.sig, mode="complete")[0][:, v.cols:]
    lead = w0[np.abs(w0).argmax(axis=0), np.arange(w0.shape[1])]
    w0 = w0 * (lead.conj() / np.abs(lead))
    w1 = -v.sig @ (v.inf.conj().T @ w0)
    return DCMatrix._owning(np.hstack([v.sig, w0]), np.hstack([v.inf, w1]))


def dilation_block(u_eps: DCMatrix, m: int, d: int) -> DCMatrix:
    """(<m| x I) U (|0> x I): block rows m*d..(m+1)*d of the first
    block-column."""
    return DCMatrix(
        u_eps.sig[m * d : (m + 1) * d, :d],
        u_eps.inf[m * d : (m + 1) * d, :d],
    )


def kron(a: _DualArray, b: _DualArray) -> _DualArray:
    """Tensor product a (x) b of two vectors or of two matrices."""
    return type(a)._owning(*_leibniz(np.kron, a, b))


#: Names defined in `spectral` that this module defined before they moved.
_SPECTRAL = frozenset({
    "CLUSTER_DELTA", "DualSpectrum", "SemipositivityReport", "check_appreciably_semipositive",
    "eig_hermitian", "eig_unitary", "log_unitary", "mat_exp",
})


def __getattr__(name: str):
    """The spectral closed forms, loaded on first use (PEP 562): spectral
    imports the ring from this module, and a process that never calls
    them never compiles it.  Old pickles find them here too."""
    if name in _SPECTRAL:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
