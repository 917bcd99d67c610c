"""Dense linear algebra over the dual-complex ring.

Vectors and matrices are stored as a pair of complex numpy arrays
(significant part, infinitesimal part); M = sig + eps*inf.  All ring
operations combine the parts so that eps^2 terms never appear, hence
first-order identities hold exactly up to floating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    IncompleteFamily,
    InfinitesimalVector,
    ModulusOfInfinitesimal,
    NonSquare,
    NotHermitian,
    NotUnitary,
)
from .scalar import TAU, DualComplex, DualNumber, DualReal, _leibniz

#: Eigenvalue clustering threshold for degenerate-subspace detection.
CLUSTER_DELTA = 1e-8
#: Residual up to which an input that must be unitary or Hermitian is taken as one.
REQUIRE_ATOL = 1e-8
#: Max-norm defect within which a family is complete and a dual norm is 1 + 0eps.
_COMPLETE_ATOL = 1e-9


def _as_carray(a) -> np.ndarray:
    out = np.asarray(a, dtype=complex).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _DualArray:
    """sig + eps*inf over two equal-shape complex arrays of NDIM
    dimensions: the ring operations vectors and matrices share."""

    NDIM = 0
    sig: np.ndarray
    inf: np.ndarray = None

    def __post_init__(self):
        sig = _as_carray(self.sig)
        inf = _as_carray(np.zeros_like(sig) if self.inf is None else self.inf)
        if sig.shape != inf.shape or sig.ndim != self.NDIM:
            raise DimMismatch(
                f"{type(self).__name__} parts must be equal-shape {self.NDIM}-d arrays")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "inf", inf)

    def __getitem__(self, index) -> DualComplex:
        return DualComplex(self.sig[index], self.inf[index])

    def __add__(self, other):
        return type(self)(self.sig + other.sig, self.inf + other.inf)

    def __sub__(self, other):
        return type(self)(self.sig - other.sig, self.inf - other.inf)

    def __neg__(self):
        return type(self)(-self.sig, -self.inf)

    def scale(self, w):
        """Multiply by a dual scalar (DualComplex or DualReal) or a plain complex."""
        if isinstance(w, DualNumber):
            return type(self)(*_leibniz(np.multiply, w, self))
        return type(self)(w * self.sig, w * self.inf)


@dataclass(frozen=True)
class DCVector(_DualArray):
    """Dense vector over DualComplex: v = sig + eps*inf."""

    NDIM = 1

    @classmethod
    def _owning(cls, sig: np.ndarray, inf: np.ndarray) -> "DCVector":
        """Take ownership of two freshly allocated, equal-length 1-d
        complex arrays without the defensive copy: they are frozen in
        place, so the caller must hold no other reference it writes to."""
        sig.setflags(write=False)
        inf.setflags(write=False)
        v = object.__new__(cls)
        object.__setattr__(v, "sig", sig)
        object.__setattr__(v, "inf", inf)
        return v

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


@dataclass(frozen=True)
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
        if isinstance(other, DCVector) and self.cols != other.dim:
            raise DimMismatch(f"{self.shape} @ vector of dim {other.dim}")
        return type(other)(*_leibniz(np.matmul, self, other))

    def adjoint(self) -> "DCMatrix":
        return DCMatrix(self.sig.conj().T, self.inf.conj().T)

    @staticmethod
    def identity(n: int) -> "DCMatrix":
        return DCMatrix(np.eye(n, dtype=complex))

    @staticmethod
    def zeros(rows: int, cols: int = None) -> "DCMatrix":
        cols = rows if cols is None else cols
        return DCMatrix(np.zeros((rows, cols), dtype=complex))


class OperatorKind(enum.Enum):
    HERMITIAN = "hermitian"
    ANTI_HERMITIAN = "anti-hermitian"
    UNITARY = "unitary"


@dataclass(frozen=True)
class DualSpectrum:
    """Eigenpairs of a dual-complex Hermitian or unitary operator.

    ``values`` holds the eigenvalues in order; ``basis_sig``/``basis_inf``
    hold the eigenvectors column-wise, the j-th eigenvector being
    basis_sig[:, j] + eps * basis_inf[:, j].
    """

    values: DCVector
    basis_sig: np.ndarray
    basis_inf: np.ndarray
    kind: str  # "hermitian" or "unitary"

    @property
    def dim(self) -> int:
        return self.basis_sig.shape[0]

    def vector(self, j: int) -> DCVector:
        return DCVector(self.basis_sig[:, j], self.basis_inf[:, j])

    def reconstruct(self) -> DCMatrix:
        """P diag(values) P^dag carried out in dual arithmetic."""
        p = DCMatrix(self.basis_sig, self.basis_inf)
        return DCMatrix(*_leibniz(np.multiply, p, self.values)) @ p.adjoint()


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
    sig = v.sig / z
    inf = v.inf / z - v.sig * t / (z * z)
    return DCVector(sig, inf)


# ---------------------------------------------------------------------------
# Operator classification and unitary decomposition
# ---------------------------------------------------------------------------


def _max_abs(*arrays) -> float:
    """Largest modulus over the arrays; NaN if any entry is NaN."""
    return float(np.max([np.abs(a).max(initial=0.0) for a in arrays]))


def residual(m: DCMatrix, kind: OperatorKind) -> float:
    """Max-norm defect of m from the identity that defines `kind`, over
    both components: M^dag - M (Hermitian), M^dag + M (anti-Hermitian),
    or M^dag M - I (unitary; for a non-square m, an isometry check)."""
    adj = m.adjoint()
    if kind is OperatorKind.UNITARY:
        prod = adj @ m
        return _max_abs(prod.sig - np.eye(m.cols), prod.inf)
    if m.rows != m.cols:
        raise NonSquare(f"{kind.value} residual needs a square matrix, got {m.shape}")
    if kind is OperatorKind.HERMITIAN:
        return _max_abs(adj.sig - m.sig, adj.inf - m.inf)
    return _max_abs(adj.sig + m.sig, adj.inf + m.inf)


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
# Matrix exponential
# ---------------------------------------------------------------------------


def mat_exp(a_eps: DCMatrix) -> DCMatrix:
    """exp(A + eps B) = exp(A) + eps L_exp(A, B).

    The infinitesimal part is the Frechet derivative of exp at A in
    direction B.  When A is exactly Hermitian or anti-Hermitian, one
    eigendecomposition A = Q diag(lam) Q^dag gives both parts in closed
    form (Daleckii-Krein): e^A = Q e^lam Q^dag and
    L(A, B) = Q (F o Q^dag B Q) Q^dag with the divided differences
    F_ij = (e^lam_i - e^lam_j) / (lam_i - lam_j), F_ii = e^lam_i.  Any
    other A goes through the block identity
    exp([[A, B], [0, A]]) = [[e^A, L(A,B)], [0, e^A]], with scipy's
    scaling-and-squaring on the block matrix.
    """
    if a_eps.rows != a_eps.cols:
        raise NonSquare("mat_exp needs a square matrix")
    a, b = a_eps.sig, a_eps.inf
    adj = a.conj().T
    if np.array_equal(adj, a):
        lam, q = np.linalg.eigh(a)
    elif np.array_equal(adj, -a):
        w, q = np.linalg.eigh(1j * a)  # iA is Hermitian, so lam = -i w
        lam = -1j * w
    else:
        return _mat_exp_block(a, b)
    e = np.exp(lam)
    qh = q.conj().T
    f = _exp_divided_differences(lam, e)
    return DCMatrix((q * e) @ qh, q @ (f * (qh @ b @ q)) @ qh)


def _exp_divided_differences(lam: np.ndarray, e: np.ndarray) -> np.ndarray:
    """F_ij = (e^lam_i - e^lam_j) / (lam_i - lam_j), and e^lam_i where
    the two coincide, as e^hi expm1(lo - hi) / (lo - hi) with hi the one
    of larger real part: no cancellation, and no overflow while e^hi is
    finite."""
    swap = lam.real[:, None] < lam.real[None, :]
    e_hi = np.where(swap, e[None, :], e[:, None])
    diff = lam[:, None] - lam[None, :]
    d = np.where(swap, diff, -diff)  # lo - hi
    same = d == 0
    d[same] = 1.0
    ratio = np.expm1(d) / d
    ratio[same] = 1.0
    return e_hi * ratio


def _mat_exp_block(a: np.ndarray, b: np.ndarray) -> DCMatrix:
    # Imported here so that only a generator that is neither Hermitian
    # nor anti-Hermitian loads scipy.
    import scipy.linalg

    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = a
    block[:n, n:] = b
    block[n:, n:] = a
    e = scipy.linalg.expm(block)
    return DCMatrix(e[:n, :n], e[:n, n:])


# ---------------------------------------------------------------------------
# Spectral decompositions
# ---------------------------------------------------------------------------


def _cluster_ids(values: np.ndarray, delta: float) -> np.ndarray:
    """Cluster index of each entry of a 1-d array: the transitive closure
    of |v_i - v_j| <= delta, which does not depend on the input order.

    Real values are sorted and split where consecutive ones lie more
    than delta apart.  Complex values are unitary eigenvalues: they are
    sorted by angle, and the first and last clusters merge when the
    circle closes within delta."""
    values = np.asarray(values)
    circle = np.iscomplexobj(values)
    order = np.argsort(np.angle(values) if circle else values, kind="stable")
    ranked = values[order]
    sorted_ids = np.concatenate([[0], np.cumsum(np.abs(np.diff(ranked)) > delta)])
    if circle and sorted_ids[-1] > 0 and abs(ranked[-1] - ranked[0]) <= delta:
        sorted_ids[sorted_ids == sorted_ids[-1]] = 0
    ids = np.empty(len(values), dtype=int)
    ids[order] = sorted_ids
    return ids


def _diagonalize_in_clusters(p: np.ndarray, values: np.ndarray, j: np.ndarray, delta: float):
    """Within each degenerate cluster of `values`, rotate the columns of p
    so that the projected block of the Hermitian perturbation j becomes
    diagonal.  Returns the rotated basis and the cluster ids."""
    ids = _cluster_ids(values, delta)
    labels, counts = np.unique(ids, return_counts=True)
    p = p.copy()
    for label in labels[counts > 1]:
        c = np.flatnonzero(ids == label)
        b = p[:, c]
        jb = b.conj().T @ j @ b
        jb = 0.5 * (jb + jb.conj().T)
        _, w = np.linalg.eigh(jb)
        p[:, c] = b @ w
    return p, ids


def _across_clusters(ids: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den between eigenvectors of different clusters, 0 within."""
    same = ids[:, None] == ids[None, :]
    return np.where(same, 0.0, num / np.where(same, 1.0, den))


def _first_order_spectrum(kind: str, x: np.ndarray, p: np.ndarray, j: np.ndarray,
                          delta: float) -> DualSpectrum:
    """Eigenpairs of a Hermitian H + eps j or a unitary (I + i eps j) U,
    as `kind` says, whose sig-part has eigenvalues x on the orthonormal
    columns of p; x_k moves at rate_k along the Hermitian j, 1 for H and
    i x_k for U (Kato, ch. II).  Rotating each degenerate cluster (within
    delta) to diagonalize its block of h = p^dag j p fixes the basis;
    <m|k1> = rate_k h_mk / (x_k - x_m) across clusters, 0 within, and the
    eigenvalues x_k + eps rate_k h_kk are ordered by value (H) or phase
    (U), then by h_kk."""
    unitary = kind == "unitary"
    rate = 1j * x if unitary else 1
    p, ids = _diagonalize_in_clusters(p, x, j, delta)
    h = p.conj().T @ j @ p
    p1 = p @ _across_clusters(ids, rate * h, x[None, :] - x[:, None])
    mu = np.real(np.diag(h))
    order = np.lexsort((mu, np.angle(x) if unitary else x))
    return DualSpectrum(DCVector(x[order], (rate * mu)[order]), p[:, order], p1[:, order],
                        kind=kind)


def eig_hermitian(h_eps: DCMatrix, delta: float = CLUSTER_DELTA) -> DualSpectrum:
    """Dual eigendecomposition of H + eps J, both parts Hermitian:
    eigenvalues theta_k + eps <k|J|k>."""
    if not is_hermitian(h_eps, REQUIRE_ATOL):
        raise NotHermitian("eig_hermitian requires a Hermitian dual-complex matrix")
    theta, p = np.linalg.eigh(h_eps.sig)
    return _first_order_spectrum("hermitian", theta, p, h_eps.inf, delta)


def _unitary_eigenbasis(u: np.ndarray, delta: float):
    """Orthonormal eigenbasis of a complex unitary via joint
    diagonalization of the commuting Hermitians U + U^dag and
    -i(U - U^dag); robust for degenerate eigenvalues."""
    k = u + u.conj().T
    _, q = np.linalg.eigh(k)
    w = np.real(np.diag(q.conj().T @ k @ q))
    l = -1j * (u - u.conj().T)
    q, _ = _diagonalize_in_clusters(q, w, l, delta)
    lam = np.diag(q.conj().T @ u @ q)
    # project numerical eigenvalues back onto the unit circle
    lam = lam / np.abs(lam)
    return lam, q


def eig_unitary(u_eps: DCMatrix, delta: float = CLUSTER_DELTA) -> DualSpectrum:
    """Dual eigendecomposition of a dual-complex unitary
    U_eps = (I + i eps J) U: eigenvalues lam_k (1 + i eps <k|J|k>)."""
    u, j = decompose_unitary(u_eps)
    lam, p = _unitary_eigenbasis(u, delta)
    return _first_order_spectrum("unitary", lam, p, j, delta)


def log_unitary(u_eps: DCMatrix) -> DCMatrix:
    """Anti-Hermitian logarithm sum_j (i theta_j + i mu_j eps)|j><j| with
    principal phases theta_j in (-pi, pi]; mat_exp inverts it."""
    spec = eig_unitary(u_eps)
    lam, lam1 = spec.values.sig, spec.values.inf
    # eigenvalue lam + eps i lam mu  =>  mu = Im(lam1 / lam)
    logs = DCVector(1j * np.angle(lam), 1j * (lam1 / lam).imag)
    return DualSpectrum(logs, spec.basis_sig, spec.basis_inf, spec.kind).reconstruct()


# ---------------------------------------------------------------------------
# Semipositivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemipositivityReport:
    """Verdict of `check_appreciably_semipositive`.  A failure on a finite
    E names the offending dual eigenvalue of its Hermitian part and a
    unit witness psi with Re<psi|E|psi> = that value; a non-finite E
    fails with a NaN worst_violation."""

    passed: bool
    worst_violation: float
    worst_value: DualReal = None
    witness: DCVector = None


def check_appreciably_semipositive(e: DCMatrix, tau: float = TAU) -> SemipositivityReport:
    """Whether Re<psi|E|psi> is appreciably positive or 0 + 0eps for every
    psi, read off the dual spectrum of H = (E + E^dag)/2: it is iff every
    eigenvalue a + b eps of H has a > tau, or |a| <= tau and |b| <= tau.

    Exact: <psi|H|psi> = sum_k lam_k |phi_k|^2 with phi = P^dag psi, a
    |phi_k|^2 with sig-part 0 has eps-part 0, and the sig-part of the
    k-th eigenvector attains lam_k.  Clustering at tau makes the zero
    cluster what the cutoff calls zero; its eps-parts are the
    eigenvalues of H's eps-part compressed to ker H_0."""
    if e.rows != e.cols:
        raise NonSquare("semipositivity check needs a square matrix")
    if not (np.isfinite(e.sig).all() and np.isfinite(e.inf).all()):
        return SemipositivityReport(False, float("nan"))
    adj = e.adjoint()
    # exactly Hermitian, bit for bit, and no overflow for finite E
    spec = eig_hermitian(DCMatrix(0.5 * e.sig + 0.5 * adj.sig, 0.5 * e.inf + 0.5 * adj.inf),
                         delta=tau)
    a, b = spec.values.sig.real, spec.values.inf.real
    zero = np.abs(a) <= tau
    ok = (a > tau) | (zero & (np.abs(b) <= tau))
    if ok.all():
        return SemipositivityReport(True, 0.0)
    violation = np.where(ok, 0.0, np.maximum(-a, np.where(zero, np.abs(b), 0.0)))
    k = int(np.argmax(violation))
    return SemipositivityReport(False, float(violation[k]), DualReal(a[k], b[k]),
                                DCVector(spec.basis_sig[:, k]))


# ---------------------------------------------------------------------------
# Stinespring dilation
# ---------------------------------------------------------------------------


def completeness_defect(family) -> float:
    """Max-norm distance of sum_m M_m^dag M_m from the identity, over
    both components."""
    d = family[0].cols
    acc = DCMatrix.zeros(d)
    for m in family:
        acc = acc + (m.adjoint() @ m)
    return _max_abs(acc.sig - np.eye(d), acc.inf)


def stinespring(family) -> DCMatrix:
    """Stinespring dilation of a complete operator family {M_m}.

    Builds the isometry V = V0 + eps V1 = sum_m |m><0| x M_m
    (ancilla-first ordering, so block row m holds M_m and the first d
    columns stack the M_m) and completes it to a (kd)x(kd) dual-complex
    unitary [V, W] in closed form.  W0 holds the complement columns of
    the complete QR factorization of V0, each multiplied by the phase
    that makes its first largest-modulus entry real and positive;
    W1 = -V0 (V1^dag W0), which makes [V, W] unitary to first order.
    The completion is deterministic but not canonical; only the first
    block-column is contractual.
    """
    if not family:
        raise IncompleteFamily("empty operator family")
    d = family[0].cols
    for m in family:
        if m.shape != (d, d):
            raise DimMismatch("all operators in the family must be d x d")
    defect = completeness_defect(family)
    if not defect <= _COMPLETE_ATOL:  # NaN fails too
        raise IncompleteFamily(
            f"sum M^dag M deviates from I by {defect:.3e} (atol {_COMPLETE_ATOL:.1e})"
        )

    v0 = np.concatenate([m.sig for m in family])
    v1 = np.concatenate([m.inf for m in family])
    w0 = np.linalg.qr(v0, mode="complete")[0][:, d:]
    lead = w0[np.abs(w0).argmax(axis=0), np.arange(w0.shape[1])]
    w0 = w0 * (lead.conj() / np.abs(lead))
    w1 = -v0 @ (v1.conj().T @ w0)
    return DCMatrix(np.hstack([v0, w0]), np.hstack([v1, w1]))


def dilation_block(u_eps: DCMatrix, m: int, d: int) -> DCMatrix:
    """(<m| x I) U (|0> x I): block rows m*d..(m+1)*d of the first
    block-column."""
    return DCMatrix(
        u_eps.sig[m * d : (m + 1) * d, :d],
        u_eps.inf[m * d : (m + 1) * d, :d],
    )


def kron(a: _DualArray, b: _DualArray) -> _DualArray:
    """Tensor product a (x) b of two vectors or of two matrices."""
    return type(a)(*_leibniz(np.kron, a, b))
