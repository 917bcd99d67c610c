"""Spectral closed forms over the dual-complex ring.

First-order eigenpairs of Hermitian and unitary dual operators (eigenvalue
and eigenvector corrections from the sig-part's spectrum, degenerate
clusters diagonalized by the eps-part; a unitary's eigenbasis from its
Cayley transform), the anti-Hermitian logarithm of a dual unitary and the
exponential it inverts, which share one Daleckii-Krein assembly, and the
appreciable-semipositivity check.  The ring itself lives in `linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonSquare, NotHermitian
from .linalg import (
    REQUIRE_ATOL,
    DCMatrix,
    DCVector,
    _adjoint,
    decompose_unitary,
    is_hermitian,
)
from .scalar import TAU, DualNumber, DualReal, _leibniz

#: Eigenvalue clustering threshold for degenerate-subspace detection.
CLUSTER_DELTA = 1e-8


@dataclass(frozen=True)
class DualSpectrum:
    """Eigenpairs of a dual-complex Hermitian or unitary operator.

    ``values`` holds the eigenvalues in order and ``basis`` the
    eigenvectors column-wise, the j-th eigenvector being its column j.
    """

    values: DCVector
    basis: DCMatrix
    kind: str  # "hermitian" or "unitary"

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vector(self, j: int) -> DCVector:
        return DCVector(self.basis.sig[:, j], self.basis.inf[:, j])

    def reconstruct(self) -> DCMatrix:
        """P diag(values) P^dag carried out in dual arithmetic."""
        p = self.basis
        return DCMatrix._owning(*_leibniz(np.multiply, p, self.values)) @ p.adjoint()


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
    eigenvalues x_k + eps rate_k h_kk are ordered by cluster, then by
    h_kk: the clusters by value (H) or phase (U), where a cluster that
    straddles the branch cut comes first."""
    unitary = kind == "unitary"
    rate = 1j * x if unitary else 1
    p, ids = _diagonalize_in_clusters(p, x, j, delta)
    h = p.conj().T @ j @ p
    p1 = p @ _across_clusters(ids, rate * h, x[None, :] - x[:, None])
    mu = np.real(np.diag(h))
    order = np.lexsort((mu, ids))
    return DualSpectrum(DCVector(x[order], (rate * mu)[order]),
                        DCMatrix._owning(p[:, order], p1[:, order]), kind)


def eig_hermitian(h_eps: DCMatrix, delta: float = CLUSTER_DELTA) -> DualSpectrum:
    """Dual eigendecomposition of H + eps J, both parts Hermitian:
    eigenvalues theta_k + eps <k|J|k>."""
    if not is_hermitian(h_eps, REQUIRE_ATOL):
        raise NotHermitian("eig_hermitian requires a Hermitian dual-complex matrix")
    theta, p = np.linalg.eigh(h_eps.sig)
    return _first_order_spectrum("hermitian", theta, p, h_eps.inf, delta)


def _unitary_eigenbasis(u: np.ndarray):
    """Orthonormal eigenbasis of a complex unitary U from one Hermitian,
    the Cayley transform i(I + V)^-1 (I - V) of V = -e^(-i psi) U, psi mid
    the widest gap of the phases +-arccos(c/2), c in spec(U + U^dag)."""
    if not len(u):  # no phase, so no gap
        return np.ones(0, complex), np.eye(0, dtype=complex)
    a = np.arccos(np.clip(0.5 * np.linalg.eigvalsh(u + u.conj().T), -1.0, 1.0))
    t = np.concatenate((-a, a[::-1]))  # ascending, as eigvalsh returns c
    gap = np.diff(t, append=t[0] + 2 * np.pi)
    k = np.argmax(gap)
    v = -np.exp(-1j * (t[k] + 0.5 * gap[k])) * u
    eye = np.eye(len(u))
    _, q = np.linalg.eigh(1j * np.linalg.solve(eye + v, eye - v))
    lam = np.diag(q.conj().T @ u @ q)
    # project numerical eigenvalues back onto the unit circle
    lam = lam / np.abs(lam)
    return lam, q


def eig_unitary(u_eps: DCMatrix, delta: float = CLUSTER_DELTA) -> DualSpectrum:
    """Dual eigendecomposition of a dual-complex unitary
    U_eps = (I + i eps J) U: eigenvalues lam_k (1 + i eps <k|J|k>)."""
    u, j = decompose_unitary(u_eps)
    lam, p = _unitary_eigenbasis(u)
    return _first_order_spectrum("unitary", lam, p, j, delta)


def log_unitary(u_eps: DCMatrix) -> DCMatrix:
    """Anti-Hermitian logarithm of U + eps D: log U = sum_j i theta_j
    |j><j| with principal phases theta_j in (-pi, pi], and its Frechet
    derivative along D in Daleckii-Krein form, whose divided differences
    of log at lam_j = e^(i theta_j) are (x / sin x) e^(-i (theta_i +
    theta_j) / 2) with x = (theta_i - theta_j) / 2, and 1 / lam_i where
    x = 0: no first-order eigenvector correction, so no division by a
    gap.  mat_exp inverts it."""
    u, _ = decompose_unitary(u_eps)
    lam, q = _unitary_eigenbasis(u)
    theta = np.angle(lam)
    x = 0.5 * (theta[:, None] - theta[None, :])
    f = np.exp(-0.5j * (theta[:, None] + theta[None, :])) / np.sinc(x / np.pi)
    return _daleckii_krein(q, 1j * theta, f, u_eps.inf)


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
    F_ij = (e^lam_i - e^lam_j) / (lam_i - lam_j), F_ii = e^lam_i.  Any other A
    goes through `_mat_exp_taylor`, scaling and squaring in the ring.

    Besides A + eps B, the closed form holds at most four n x n buffers
    at once, the two of its result among them: one takes A^dag, then
    -A^dag for the second test, then iA for eigh, and is dropped before
    eigh of a Hermitian A; then Q and the two of the divided
    differences; then the four of the assembly.
    """
    return _scaled_exp(a_eps, None)


def _scaled_exp(m: DCMatrix, w) -> DCMatrix:
    """exp(w m): mat_exp(m.scale(w)) bit for bit, with its products in its
    operand order, and mat_exp(m) for w None; a dual w scales m first.
    A complex w makes no scaled copy.  A = w m.sig takes one buffer,
    which holds iA while eigh reads it (the adjoint's buffer is dropped
    before) and then the direction B = w m.inf: one n x n buffer besides
    m while eigh runs, where m.scale(w) and the adjoint held three."""
    if isinstance(w, DualNumber):
        m, w = m.scale(w), None
    if m.rows != m.cols:
        raise NonSquare("mat_exp needs a square matrix")
    a = m.sig if w is None else np.multiply(w, m.sig)
    adj = _adjoint(a, np.empty_like(a))  # then -A^dag, then iA when A is m's
    anti = not np.array_equal(adj, a)
    if anti and not np.array_equal(np.negative(adj, out=adj), a):
        return _mat_exp_taylor(m if w is None else m.scale(w))
    # iA is Hermitian, so lam = -i x
    h = np.multiply(1j, a, out=adj if w is None else a) if anti else a
    del adj  # before eigh, which copies h
    x, q = np.linalg.eigh(h)
    del h
    lam = -1j * x if anti else x
    e = np.exp(lam)
    b = m.inf if w is None else np.multiply(w, m.inf, out=a)
    return _daleckii_krein(q, e, _exp_divided_differences(lam, e), b)


def _daleckii_krein(q: np.ndarray, fx: np.ndarray, f: np.ndarray, b: np.ndarray) -> DCMatrix:
    """g(A) + eps L_g(A, B) for A = Q diag(x) Q^dag, Q unitary, given
    fx = g(x) and the divided differences F of g at x, a C-ordered array:
    Q diag(fx) Q^dag + eps Q (F o Q^dag B Q) Q^dag.  Q and F are
    overwritten; four n x n buffers are live at once, Q and F among them."""
    # Q (F o Q^dag B Q) Q^dag, then (Q fx) Q^dag, reusing n x n buffers:
    # Q^dag is formed for the first product, and again once F has been
    # used, in F's buffer when F is complex (a Hermitian A gives real F).
    # No output aliases an input, and F o X keeps its form: numpy computes
    # it in place into the product's temporary once that is large, in the
    # operand order (X, F), and complex products are not commutative bit
    # for bit under fused multiply-add.
    t = q.conj().T @ b
    inf = f * (t @ q)
    qh = np.conjugate(q, out=f if f.dtype.kind == "c" else None).T
    np.matmul(q, inf, out=t)
    np.matmul(t, qh, out=inf)
    np.matmul(np.multiply(q, fx, out=t), qh, out=q)
    return DCMatrix._owning(q, inf)


def _exp_divided_differences(lam: np.ndarray, e: np.ndarray) -> np.ndarray:
    """F_ij = (e^lam_i - e^lam_j) / (lam_i - lam_j), and e^lam_i where
    the two coincide, as e^hi expm1(lo - hi) / (lo - hi) with hi the one
    of larger real part: no cancellation, and no overflow while e^hi is
    finite.  Below the smallest normal float the ratio rounds to 1, and
    is taken as 1: numpy's complex division by a subnormal overflows.
    Two n x n buffers: lo - hi, which then takes e^hi and F, and the
    ratio."""
    swap = lam.real[:, None] < lam.real[None, :]
    d = lam[:, None] - lam[None, :]
    np.negative(d, out=d, where=~swap)  # lo - hi
    same = np.abs(d) < np.finfo(float).tiny
    d[same] = 1.0
    ratio = np.expm1(d)
    np.divide(ratio, d, out=ratio)
    ratio[same] = 1.0
    np.copyto(d, e[:, None])
    np.copyto(d, e[None, :], where=swap)  # e^hi
    return np.multiply(d, ratio, out=d)


def _mat_exp_taylor(a_eps: DCMatrix) -> DCMatrix:
    """Horner's rule on the degree-18 Taylor series of X = 2^-s (A + eps B),
    2^s > ||A||_1, then s squarings (Moler & Van Loan, method 3).  Every
    product is dual, so the eps-part is L(A, B) (Al-Mohy & Higham 2009);
    both parts truncate below 1/18!, and a zero or NaN norm gives s = 0.
    Each product goes into buffers that the one before has freed, with
    the ring's operands in the ring's order: five n x n buffers, X's two
    among them."""
    s = max(0, math.frexp(float(np.abs(a_eps.sig).sum(axis=0).max()))[1])
    x = a_eps.scale(2.0 ** -s)
    n = a_eps.rows
    r, t = (np.eye(n, dtype=complex), np.zeros((n, n), complex)), np.empty((n, n), complex)
    for k in range(18, 0, -1):
        r, t = _dual_matmul(x.sig, x.inf, *r, t, r[1]), r[0]
        for p in r:  # I + (X R) / k: I's zeros turn -0.0 to +0.0
            np.multiply(1.0 / k, p, out=p)
            p += 0
        r[0].flat[::n + 1] += 1
    del x
    for _ in range(s):
        r, t = _dual_matmul(*r, *r, t, np.empty_like(t)), r[0]
    return DCMatrix._owning(*r)


def _dual_matmul(x0, x1, r0, r1, t, u):
    """The (sig, inf) parts of (x0 + eps x1)(r0 + eps r1) in `_leibniz`'s
    operand order: x0 r1 + x1 r0 into t, then x0 r0 into u, which may be
    r1 unless x1 is."""
    np.matmul(x0, r1, out=t)
    np.add(t, np.matmul(x1, r0, out=u), out=t)
    return np.matmul(x0, r0, out=u), t


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
    # exactly Hermitian, bit for bit, and no overflow for finite E
    spec = eig_hermitian(e.scale(0.5) + e.adjoint().scale(0.5), delta=tau)
    a, b = spec.values.sig.real, spec.values.inf.real
    zero = np.abs(a) <= tau
    ok = (a > tau) | (zero & (np.abs(b) <= tau))
    if ok.all():
        return SemipositivityReport(True, 0.0)
    violation = np.where(ok, 0.0, np.maximum(-a, np.where(zero, np.abs(b), 0.0)))
    k = int(np.argmax(violation))
    return SemipositivityReport(False, float(violation[k]), DualReal(a[k], b[k]),
                                DCVector(spec.basis.sig[:, k]))
