import numpy as np
import pytest

from dcquantum.linalg import DCMatrix, DCVector


def random_complex_hermitian(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_complex_unitary(dim, rng, degenerate=False):
    """Haar-ish unitary via QR; optionally with repeated eigenvalues."""
    if degenerate:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(a)
        n_distinct = max(1, dim // 2)
        phases = rng.uniform(-np.pi, np.pi, size=n_distinct)
        lam = np.exp(1j * phases[rng.integers(0, n_distinct, size=dim)])
        return q @ np.diag(lam) @ q.conj().T
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_dc_unitary(dim, rng, degenerate=False):
    """(I + i eps H) U from a random Hermitian H and unitary U."""
    u = random_complex_unitary(dim, rng, degenerate)
    h = random_complex_hermitian(dim, rng)
    return DCMatrix(u, 1j * h @ u)


def random_dc_hermitian(dim, rng):
    return DCMatrix(
        random_complex_hermitian(dim, rng), random_complex_hermitian(dim, rng)
    )


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


def random_dc_vector(dim, rng):
    return DCVector(
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
