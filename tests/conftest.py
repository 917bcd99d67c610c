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


def embed(x):
    """Block image of a ring value: a + eps b -> [[a, b], [0, a]] for a
    matrix, v0 + eps v1 -> [v1; v0] for a vector.  Images multiply as the
    ring does, so a complex function of a matrix's image holds the
    function's value and Frechet derivative: an oracle that shares no
    code with the ring."""
    if isinstance(x, DCVector):
        return np.concatenate([x.inf, x.sig])
    return np.block([[x.sig, x.inf], [np.zeros(x.shape), x.sig]])


def unembed(a):
    """The ring value read back from a block image, as `embed` lays it out."""
    if a.ndim == 1:
        inf, sig = np.split(a, 2)
        return DCVector(sig, inf)
    rows, cols = a.shape[0] // 2, a.shape[1] // 2
    return DCMatrix(a[:rows, :cols], a[:rows, cols:])


def random_dc_vector(dim, rng):
    return DCVector(
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
