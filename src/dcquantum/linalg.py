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
from .scalar import TAU, DualComplex, DualReal

#: Eigenvalue clustering threshold for degenerate-subspace detection.
CLUSTER_DELTA = 1e-8


def _as_carray(a) -> np.ndarray:
    out = np.asarray(a, dtype=complex).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DCVector:
    """Dense vector over DualComplex: v = sig + eps*inf."""

    sig: np.ndarray
    inf: np.ndarray = None

    def __post_init__(self):
        sig = _as_carray(self.sig)
        inf = _as_carray(np.zeros_like(sig) if self.inf is None else self.inf)
        if sig.shape != inf.shape or sig.ndim != 1:
            raise DimMismatch("vector parts must be equal-length 1-d arrays")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "inf", inf)

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

    def __getitem__(self, i: int) -> DualComplex:
        return DualComplex(self.sig[i], self.inf[i])

    def __add__(self, other: "DCVector") -> "DCVector":
        return DCVector(self.sig + other.sig, self.inf + other.inf)

    def __sub__(self, other: "DCVector") -> "DCVector":
        return DCVector(self.sig - other.sig, self.inf - other.inf)

    def __neg__(self) -> "DCVector":
        return DCVector(-self.sig, -self.inf)

    def scale(self, w) -> "DCVector":
        """Multiply by a dual-complex (or plain complex) scalar."""
        if isinstance(w, DualReal):
            w = w.as_dual_complex()
        if isinstance(w, DualComplex):
            return DCVector(w.sig * self.sig, w.sig * self.inf + w.inf * self.sig)
        return DCVector(w * self.sig, w * self.inf)

    def conj(self) -> "DCVector":
        return DCVector(self.sig.conj(), self.inf.conj())

    @staticmethod
    def basis(dim: int, i: int) -> "DCVector":
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        return DCVector(e)


@dataclass(frozen=True)
class DCMatrix:
    """Dense matrix over DualComplex: M = sig + eps*inf."""

    sig: np.ndarray
    inf: np.ndarray = None

    def __post_init__(self):
        sig = _as_carray(self.sig)
        inf = _as_carray(np.zeros_like(sig) if self.inf is None else self.inf)
        if sig.shape != inf.shape or sig.ndim != 2:
            raise DimMismatch("matrix parts must be equal-shape 2-d arrays")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "inf", inf)

    @property
    def rows(self) -> int:
        return self.sig.shape[0]

    @property
    def cols(self) -> int:
        return self.sig.shape[1]

    @property
    def shape(self) -> tuple:
        return self.sig.shape

    def __getitem__(self, ij) -> DualComplex:
        return DualComplex(self.sig[ij], self.inf[ij])

    def __add__(self, other: "DCMatrix") -> "DCMatrix":
        return DCMatrix(self.sig + other.sig, self.inf + other.inf)

    def __sub__(self, other: "DCMatrix") -> "DCMatrix":
        return DCMatrix(self.sig - other.sig, self.inf - other.inf)

    def __neg__(self) -> "DCMatrix":
        return DCMatrix(-self.sig, -self.inf)

    def scale(self, w) -> "DCMatrix":
        if isinstance(w, DualReal):
            w = w.as_dual_complex()
        if isinstance(w, DualComplex):
            return DCMatrix(w.sig * self.sig, w.sig * self.inf + w.inf * self.sig)
        return DCMatrix(w * self.sig, w * self.inf)

    def __matmul__(self, other):
        if isinstance(other, DCMatrix):
            return DCMatrix(
                self.sig @ other.sig,
                self.sig @ other.inf + self.inf @ other.sig,
            )
        if isinstance(other, DCVector):
            if self.cols != other.dim:
                raise DimMismatch(f"{self.shape} @ vector of dim {other.dim}")
            return DCVector(
                self.sig @ other.sig,
                self.sig @ other.inf + self.inf @ other.sig,
            )
        return NotImplemented

    def adjoint(self) -> "DCMatrix":
        return DCMatrix(self.sig.conj().T, self.inf.conj().T)

    @staticmethod
    def identity(n: int) -> "DCMatrix":
        return DCMatrix(np.eye(n, dtype=complex))

    @staticmethod
    def zeros(rows: int, cols: int = None) -> "DCMatrix":
        cols = rows if cols is None else cols
        return DCMatrix(np.zeros((rows, cols), dtype=complex))

    @staticmethod
    def from_complex(sig, inf=None) -> "DCMatrix":
        return DCMatrix(np.asarray(sig, dtype=complex), inf)


class OperatorKind(enum.Enum):
    HERMITIAN = "hermitian"
    ANTI_HERMITIAN = "anti-hermitian"
    UNITARY = "unitary"


@dataclass(frozen=True)
class DualSpectrum:
    """Eigenpairs of a dual-complex Hermitian or unitary operator.

    ``basis_sig``/``basis_inf`` hold the eigenvectors column-wise; the
    j-th eigenvector is basis_sig[:, j] + eps * basis_inf[:, j].
    """

    values: tuple  # tuple of DualComplex
    basis_sig: np.ndarray
    basis_inf: np.ndarray
    kind: str  # "hermitian" or "unitary"

    @property
    def dim(self) -> int:
        return self.basis_sig.shape[0]

    def vector(self, j: int) -> DCVector:
        return DCVector(self.basis_sig[:, j], self.basis_inf[:, j])

    def reconstruct(self) -> DCMatrix:
        """Sum_j value_j |j><j| carried out in dual arithmetic."""
        lam = np.array([v.sig for v in self.values])
        mu = np.array([v.inf for v in self.values])
        p0, p1 = self.basis_sig, self.basis_inf
        sig = (p0 * lam) @ p0.conj().T
        inf = (
            (p0 * mu) @ p0.conj().T
            + (p1 * lam) @ p0.conj().T
            + (p0 * lam) @ p1.conj().T
        )
        return DCMatrix(sig, inf)


# ---------------------------------------------------------------------------
# Inner products and norms
# ---------------------------------------------------------------------------


def inner(u: DCVector, v: DCVector) -> DualComplex:
    """<u|v> = sum_k u_k* v_k, conjugate-linear in the first slot."""
    if u.dim != v.dim:
        raise DimMismatch(f"inner product of dims {u.dim} and {v.dim}")
    sig = np.vdot(u.sig, v.sig)
    inf = np.vdot(u.sig, v.inf) + np.vdot(u.inf, v.sig)
    return DualComplex(sig, inf)

def vnorm(v: DCVector, tau: float = TAU) -> DualReal:
    """||v|| = ||sig|| + Re<sig|inf>/||sig|| eps.

    The norm of a nonzero infinitesimal vector is 0 with undefined
    eps-part; that raises, mirroring the scalar modulus.
    """
    n = float(np.linalg.norm(v.sig))
    if n <= tau:
        if np.abs(v.inf).max(initial=0.0) > tau:
            raise ModulusOfInfinitesimal(
                "norm of a nonzero infinitesimal vector",
                value=DualReal(0.0, 0.0),
            )
        return DualReal(0.0, 0.0)
    return DualReal(n, float(np.vdot(v.sig, v.inf).real) / n)


def divide_vector(v: DCVector, w, tau: float = TAU) -> DCVector:
    """Componentwise division of a vector by an appreciable dual scalar."""
    if isinstance(w, DualReal):
        w = w.as_dual_complex()
    if abs(w.sig) <= tau:
        raise InfinitesimalVector("cannot divide a vector by an infinitesimal scalar")
    z, t = w.sig, w.inf
    sig = v.sig / z
    inf = v.inf / z - v.sig * t / (z * z)
    return DCVector(sig, inf)


# ---------------------------------------------------------------------------
# Operator classification and unitary decomposition
# ---------------------------------------------------------------------------


def classify_op(m: DCMatrix, atol: float = 1e-10) -> frozenset:
    """Flags from {HERMITIAN, ANTI_HERMITIAN, UNITARY}, each checked on
    both components within atol."""
    if m.rows != m.cols:
        raise NonSquare(f"classify_op needs a square matrix, got {m.shape}")
    flags = set()
    adj = m.adjoint()
    if (
        np.allclose(adj.sig, m.sig, atol=atol, rtol=0.0)
        and np.allclose(adj.inf, m.inf, atol=atol, rtol=0.0)
    ):
        flags.add(OperatorKind.HERMITIAN)
    if (
        np.allclose(adj.sig, -m.sig, atol=atol, rtol=0.0)
        and np.allclose(adj.inf, -m.inf, atol=atol, rtol=0.0)
    ):
        flags.add(OperatorKind.ANTI_HERMITIAN)
    prod = adj @ m
    eye = np.eye(m.rows)
    if (
        np.allclose(prod.sig, eye, atol=atol, rtol=0.0)
        and np.allclose(prod.inf, 0.0, atol=atol, rtol=0.0)
    ):
        flags.add(OperatorKind.UNITARY)
    return frozenset(flags)


def is_unitary(m: DCMatrix, atol: float = 1e-10) -> bool:
    return m.rows == m.cols and OperatorKind.UNITARY in classify_op(m, atol)


def is_hermitian(m: DCMatrix, atol: float = 1e-10) -> bool:
    return m.rows == m.cols and OperatorKind.HERMITIAN in classify_op(m, atol)


def decompose_unitary(u_eps: DCMatrix, atol: float = 1e-8):
    """Split a dual-complex unitary as (I + i eps H) U.

    Returns (U, H) with U = sig part (complex unitary) and H Hermitian,
    so that u_eps = U + eps * iHU.
    """
    if not is_unitary(u_eps, atol):
        raise NotUnitary("decompose_unitary requires a dual-complex unitary")
    u = u_eps.sig
    h = -1j * u_eps.inf @ u.conj().T
    h = 0.5 * (h + h.conj().T)  # kill float asymmetry; exact input is Hermitian
    return u, h


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------


def mat_exp(a_eps: DCMatrix) -> DCMatrix:
    """exp(A + eps B) = exp(A) + eps L_exp(A, B).

    The infinitesimal part is the Frechet derivative of exp at A in
    direction B, obtained from the block identity
    exp([[A, B], [0, A]]) = [[e^A, L(A,B)], [0, e^A]] with
    scaling-and-squaring on the block matrix.
    """
    if a_eps.rows != a_eps.cols:
        raise NonSquare("mat_exp needs a square matrix")
    # Imported here so that `import dcquantum` and `dcq walk`, which never
    # exponentiate, do not pay for loading scipy.
    import scipy.linalg

    n = a_eps.rows
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = a_eps.sig
    block[:n, n:] = a_eps.inf
    block[n:, n:] = a_eps.sig
    e = scipy.linalg.expm(block)
    return DCMatrix(e[:n, :n], e[:n, n:])


def mat_exp_series(a_eps: DCMatrix, terms: int = 30) -> DCMatrix:
    """Truncated double-series oracle for mat_exp:
    sum_m 1/m! (A^m + eps sum_{k<m} A^k B A^(m-1-k))."""
    n = a_eps.rows
    a, b = a_eps.sig, a_eps.inf
    powers = [np.eye(n, dtype=complex)]
    for _ in range(terms):
        powers.append(powers[-1] @ a)
    sig = np.zeros((n, n), dtype=complex)
    inf = np.zeros((n, n), dtype=complex)
    fact = 1.0
    for m in range(terms + 1):
        if m > 0:
            fact *= m
        sig += powers[m] / fact
        acc = np.zeros((n, n), dtype=complex)
        for k in range(m):
            acc += powers[k] @ b @ powers[m - 1 - k]
        inf += acc / fact
    return DCMatrix(sig, inf)


# ---------------------------------------------------------------------------
# Spectral decompositions
# ---------------------------------------------------------------------------


def _cluster(values: np.ndarray, delta: float):
    """Group indices of a 1-d array into clusters of pairwise distance
    <= delta (transitively), preserving order."""
    order = list(range(len(values)))
    clusters = []
    for i in order:
        placed = False
        for c in clusters:
            if abs(values[i] - values[c[-1]]) <= delta:
                c.append(i)
                placed = True
                break
        if not placed:
            clusters.append([i])
    return clusters


def _diagonalize_in_clusters(p: np.ndarray, values: np.ndarray, j: np.ndarray, delta: float):
    """Within each degenerate cluster of `values`, rotate the columns of p
    so that the projected block of the Hermitian perturbation j becomes
    diagonal.  Returns the rotated basis and the cluster index list."""
    clusters = _cluster(values, delta)
    p = p.copy()
    for c in clusters:
        if len(c) == 1:
            continue
        b = p[:, c]
        jb = b.conj().T @ j @ b
        jb = 0.5 * (jb + jb.conj().T)
        _, w = np.linalg.eigh(jb)
        p[:, c] = b @ w
    return p, clusters


def _cluster_ids(clusters, n: int) -> np.ndarray:
    ids = np.empty(n, dtype=int)
    for ci, c in enumerate(clusters):
        for i in c:
            ids[i] = ci
    return ids


def eig_hermitian(h_eps: DCMatrix, delta: float = CLUSTER_DELTA,
                  atol: float = 1e-8) -> DualSpectrum:
    """Dual eigendecomposition of H + eps J, both parts Hermitian.

    Degenerate clusters of H (within delta) are resolved by
    diagonalizing the projected block of J, which fixes the zeroth-order
    basis; first-order vector corrections follow from
    <k0|j1> = -h_kj / (theta_k - theta_j) across clusters.
    """
    if not is_hermitian(h_eps, atol):
        raise NotHermitian("eig_hermitian requires a Hermitian dual-complex matrix")
    theta, p = np.linalg.eigh(h_eps.sig)
    j = h_eps.inf
    p, clusters = _diagonalize_in_clusters(p, theta, j, delta)
    ids = _cluster_ids(clusters, len(theta))
    h = p.conj().T @ j @ p
    mu = np.real(np.diag(h))

    n = len(theta)
    c = np.zeros((n, n), dtype=complex)
    for jj in range(n):
        for k in range(n):
            if ids[k] != ids[jj]:
                c[k, jj] = -h[k, jj] / (theta[k] - theta[jj])
    p1 = p @ c

    order = np.lexsort((mu, theta))
    values = tuple(DualComplex(theta[i], mu[i]) for i in order)
    return DualSpectrum(values, p[:, order], p1[:, order], kind="hermitian")


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


def eig_unitary(u_eps: DCMatrix, delta: float = CLUSTER_DELTA,
                atol: float = 1e-8) -> DualSpectrum:
    """Dual eigendecomposition of a dual-complex unitary.

    Writes U_eps = U + i eps J U, diagonalizes U (resolving degenerate
    clusters in the basis that diagonalizes the projected J-block) and
    applies the first-order corrections
    alpha_jk = i lam_j h_kj / (lam_j - lam_k) across clusters, zero
    within; eigenvalues are lam_j (1 + i h_jj eps).
    """
    u, j = decompose_unitary(u_eps, atol)
    lam, p = _unitary_eigenbasis(u, delta)
    p, clusters = _diagonalize_in_clusters(p, lam, j, delta)
    ids = _cluster_ids(clusters, len(lam))
    h = p.conj().T @ j @ p

    n = len(lam)
    a = np.zeros((n, n), dtype=complex)  # a[k, jj] = <k0 | j1~>
    for jj in range(n):
        for k in range(n):
            if ids[k] != ids[jj]:
                a[k, jj] = 1j * lam[jj] * h[k, jj] / (lam[jj] - lam[k])
    p1 = p @ a

    mu = np.real(np.diag(h))
    theta = np.angle(lam)
    order = np.lexsort((mu, theta))
    values = tuple(
        DualComplex(lam[i], 1j * lam[i] * mu[i]) for i in order
    )
    return DualSpectrum(values, p[:, order], p1[:, order], kind="unitary")


def log_unitary(u_eps: DCMatrix, delta: float = CLUSTER_DELTA,
                atol: float = 1e-8) -> DCMatrix:
    """Anti-Hermitian logarithm sum_j (i theta_j + i mu_j eps)|j><j| with
    principal phases theta_j in (-pi, pi]; mat_exp inverts it."""
    spec = eig_unitary(u_eps, delta, atol)
    theta = np.array([np.angle(v.sig) for v in spec.values])
    # eigenvalue sig*inf: v.inf = i lam mu  =>  mu = Im(v.inf / v.sig)
    mu = np.array([(v.inf / v.sig).imag for v in spec.values])
    p0, p1 = spec.basis_sig, spec.basis_inf
    sig = (p0 * (1j * theta)) @ p0.conj().T
    inf = (
        (p0 * (1j * mu)) @ p0.conj().T
        + (p1 * (1j * theta)) @ p0.conj().T
        + (p0 * (1j * theta)) @ p1.conj().T
    )
    return DCMatrix(sig, inf)


# ---------------------------------------------------------------------------
# Semipositivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemipositivityReport:
    passed: bool
    trials: int
    worst_violation: float
    worst_value: DualReal = None


def random_unit_vector(dim: int, rng: np.random.Generator) -> DCVector:
    """Random dual-complex unit vector: normalized sig, inf with the
    real overlap Re<sig|inf> projected out."""
    sig = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    sig /= np.linalg.norm(sig)
    inf = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    inf -= np.vdot(sig, inf).real * sig
    return DCVector(sig, inf)


def check_appreciably_semipositive(
    e: DCMatrix, trials: int = 100, seed: int = 0, tau: float = TAU
) -> SemipositivityReport:
    """Sample <psi|E|psi> on random unit vectors; each expectation must be
    appreciably positive or zero on both components."""
    if e.rows != e.cols:
        raise NonSquare("semipositivity check needs a square matrix")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_value = None
    passed = True
    for _ in range(trials):
        psi = random_unit_vector(e.rows, rng)
        q = inner(psi, e @ psi)
        val = DualReal(q.sig.real, q.inf.real)
        ok = val.sig > tau or (abs(val.sig) <= tau and abs(val.inf) <= tau)
        if not ok:
            violation = max(-val.sig, abs(val.inf) if abs(val.sig) <= tau else 0.0)
            if violation >= worst:
                worst = violation
                worst_value = val
            passed = False
    return SemipositivityReport(passed, trials, worst, worst_value)


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
    eye = np.eye(d)
    return max(
        float(np.abs(acc.sig - eye).max()),
        float(np.abs(acc.inf).max()),
    )


def _gs_project_out(v: DCVector, basis) -> DCVector:
    for c in basis:
        ov = inner(c, v)
        v = v - c.scale(ov)
    return v


def stinespring(family, atol: float = 1e-9, tau: float = 1e-8) -> DCMatrix:
    """Stinespring dilation of a complete operator family {M_m}.

    Builds the isometry V = sum_m |m><0| x M_m (ancilla-first ordering,
    so block row m holds M_m and the first d columns stack the M_m) and
    completes it to a (kd)x(kd) dual-complex unitary by Gram-Schmidt
    against the standard basis in index order, carrying eps-parts
    through the orthogonalization.  The completion is deterministic but
    not canonical; only the first block-column is contractual.
    """
    if not family:
        raise IncompleteFamily("empty operator family")
    d = family[0].cols
    k = len(family)
    for m in family:
        if m.shape != (d, d):
            raise DimMismatch("all operators in the family must be d x d")
    defect = completeness_defect(family)
    if defect > atol:
        raise IncompleteFamily(
            f"sum M^dag M deviates from I by {defect:.3e} (atol {atol:.1e})"
        )

    cols = []
    for s in range(d):
        sig = np.concatenate([m.sig[:, s] for m in family])
        inf = np.concatenate([m.inf[:, s] for m in family])
        cols.append(DCVector(sig, inf))

    n = k * d
    for idx in range(n):
        if len(cols) == n:
            break
        v = _gs_project_out(DCVector.basis(n, idx), cols)
        v = _gs_project_out(v, cols)  # second pass for numerical stability
        nv = float(np.linalg.norm(v.sig))
        if nv <= tau:
            continue  # candidate lies in the span already
        cols.append(divide_vector(v, vnorm(v)))
    if len(cols) < n:
        raise NotUnitary("Gram-Schmidt completion failed to span the space")

    sig = np.column_stack([c.sig for c in cols])
    inf = np.column_stack([c.inf for c in cols])
    return DCMatrix(sig, inf)


def dilation_block(u_eps: DCMatrix, m: int, d: int) -> DCMatrix:
    """(<m| x I) U (|0> x I): block rows m*d..(m+1)*d of the first
    block-column."""
    return DCMatrix(
        u_eps.sig[m * d : (m + 1) * d, :d],
        u_eps.inf[m * d : (m + 1) * d, :d],
    )


def kron_vec(a: DCVector, b: DCVector) -> DCVector:
    return DCVector(
        np.kron(a.sig, b.sig),
        np.kron(a.sig, b.inf) + np.kron(a.inf, b.sig),
    )


def kron_op(a: DCMatrix, b: DCMatrix) -> DCMatrix:
    return DCMatrix(
        np.kron(a.sig, b.sig),
        np.kron(a.sig, b.inf) + np.kron(a.inf, b.sig),
    )
