import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mat_exp_series,
    random_complex_hermitian,
    random_dc_hermitian,
    random_dc_unitary,
    random_dc_vector,
)
from dcquantum.errors import DimMismatch, ModulusOfInfinitesimal, NonSquare
from dcquantum.linalg import (
    DCMatrix,
    DCVector,
    OperatorKind,
    classify_op,
    decompose_unitary,
    divide_vector,
    eig_hermitian,
    eig_unitary,
    inner,
    is_hermitian,
    is_unitary,
    kron,
    mat_exp,
    norm_sq,
    residual,
    vnorm,
)
from dcquantum import linalg
from dcquantum.scalar import DualComplex, DualReal

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestInnerAndNorm:
    def test_basis_inner(self):
        e1 = DCVector.basis(3, 0)
        assert inner(e1, e1) == DualComplex(1)

    def test_inner_conjugate_linear_first_slot(self):
        u = DCVector(np.array([1j, 0]), np.array([0.5, 0]))
        v = DCVector(np.array([2.0, 0]), np.array([0, 0]))
        assert inner(u, v) == inner(v, u).conj()

    def test_unit_dual_vector_with_imaginary_overlap(self):
        # sig normalized, <sig|inf> purely imaginary: dual norm is exactly 1
        sig = np.array([1.0, 0.0], dtype=complex)
        inf = np.array([1j, 0.3], dtype=complex)
        n = vnorm(DCVector(sig, inf))
        assert n.sig == 1.0 and n.inf == 0.0

    def test_three_four_five(self):
        v = DCVector(np.array([3.0, 4.0]), np.array([1.0, 0.0]))
        n = vnorm(v)
        assert abs(n.sig - 5.0) < 1e-12 and abs(n.inf - 0.6) < 1e-12

    def test_infinitesimal_vector_norm_flags(self):
        with pytest.raises(ModulusOfInfinitesimal):
            vnorm(DCVector(np.zeros(2), np.array([1.0, 0.0])))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            inner(DCVector.basis(2, 0), DCVector.basis(3, 0))

    def test_norm_sq_is_self_inner_product(self, rng):
        v = random_dc_vector(5, rng)
        q = inner(v, v)
        assert norm_sq(v) == DualReal(q.sig.real, q.inf.real)
        assert norm_sq(DCVector(np.array([3.0, 4.0]), np.array([1.0, 0.0]))) == DualReal(25, 6)


class TestRing:
    @pytest.mark.parametrize("cls, shape", [(DCVector, (3,)), (DCMatrix, (2, 3))])
    def test_operations_keep_the_type(self, cls, shape, rng):
        a = cls(rng.standard_normal(shape), rng.standard_normal(shape))
        b = cls(rng.standard_normal(shape), rng.standard_normal(shape))
        w = DualComplex(0.5 - 1j, 2.0)
        for got, sig, inf in [(a + b, a.sig + b.sig, a.inf + b.inf),
                              (a - b, a.sig - b.sig, a.inf - b.inf),
                              (-a, -a.sig, -a.inf),
                              (a.scale(w), w.sig * a.sig, w.sig * a.inf + w.inf * a.sig),
                              (a.scale(3j), 3j * a.sig, 3j * a.inf)]:
            assert type(got) is cls
            assert np.array_equal(got.sig, sig) and np.array_equal(got.inf, inf)
        last = tuple(n - 1 for n in shape)
        assert a[last] == DualComplex(a.sig[last], a.inf[last])

    @pytest.mark.parametrize("cls, shape", [(DCVector, (2, 2)), (DCMatrix, (4,))])
    def test_wrong_rank_rejected(self, cls, shape):
        with pytest.raises(DimMismatch):
            cls(np.zeros(shape))

    def test_kron_of_vectors_and_of_matrices(self, rng):
        u, v = random_dc_vector(2, rng), random_dc_vector(3, rng)
        a = DCMatrix(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        b = DCMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        uv, ab = kron(u, v), kron(a, b)
        assert type(uv) is DCVector and type(ab) is DCMatrix
        assert np.array_equal(uv.inf, np.kron(u.sig, v.inf) + np.kron(u.inf, v.sig))
        # mixed product: (A x B)(u x v) = Au x Bv
        lhs, rhs = ab @ uv, kron(a @ u, b @ v)
        assert np.allclose(lhs.sig, rhs.sig) and np.allclose(lhs.inf, rhs.inf)


class TestClassifyOp:
    def test_identity(self):
        flags = classify_op(DCMatrix.identity(3))
        assert OperatorKind.HERMITIAN in flags and OperatorKind.UNITARY in flags

    def test_walk_gate_is_unitary(self):
        m = 0.7
        g = DCMatrix(SX, -1j * m * np.eye(2))
        assert OperatorKind.UNITARY in classify_op(g)

    def test_scaled_identity_not_unitary(self):
        assert OperatorKind.UNITARY not in classify_op(DCMatrix(2 * np.eye(2)))

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            classify_op(DCMatrix.zeros(2, 3))

    def test_adjoint_involution_bit_exact(self):
        m = DCMatrix(
            np.array([[1 + 2j, 3], [0, -1j]]), np.array([[0.5j, 1], [2, 0]])
        )
        back = m.adjoint().adjoint()
        assert np.array_equal(back.sig, m.sig) and np.array_equal(back.inf, m.inf)


class TestDecomposeUnitary:
    def test_walk_gate(self):
        m = 1.3
        g = DCMatrix(SX, -1j * m * np.eye(2))
        u, h = decompose_unitary(g)
        assert np.allclose(u, SX)
        assert np.allclose(h, np.array([[0, -m], [-m, 0]]))

    def test_identity(self):
        u, h = decompose_unitary(DCMatrix.identity(2))
        assert np.allclose(u, np.eye(2)) and np.allclose(h, 0)

    def test_global_phase_recompose(self, rng):
        theta, mu = 0.8, 0.3
        sig = np.exp(1j * theta) * np.eye(2)
        u_eps = DCMatrix(sig, 1j * mu * sig)
        u, h = decompose_unitary(u_eps)
        assert np.allclose(h, mu * np.eye(2))
        assert np.allclose(u + 1j * (h @ u), u_eps.sig + u_eps.inf)

    def test_recompose_random(self, rng):
        for dim in (2, 3, 5):
            u_eps = random_dc_unitary(dim, rng)
            u, h = decompose_unitary(u_eps)
            assert np.abs(h - h.conj().T).max() < 1e-9
            assert np.abs(u - u_eps.sig).max() < 1e-12
            assert np.abs(1j * h @ u - u_eps.inf).max() < 1e-10


class TestMatExp:
    def test_exp_zero(self):
        e = mat_exp(DCMatrix.zeros(3))
        assert np.allclose(e.sig, np.eye(3)) and np.allclose(e.inf, 0)

    def test_diagonal_reduces_to_scalar_rule(self):
        a, b, c, d = 0.3, 1.2, -0.5, 2.0
        e = mat_exp(DCMatrix(np.diag([a, c]).astype(complex), np.diag([b, d]).astype(complex)))
        assert np.allclose(np.diag(e.sig), [np.exp(a), np.exp(c)])
        assert np.allclose(np.diag(e.inf), [np.exp(a) * b, np.exp(c) * d])

    def test_pi_rotation(self):
        e = mat_exp(DCMatrix(1j * np.pi * SX))
        assert np.allclose(e.sig, -np.eye(2), atol=1e-12)

    def test_block_trick_matches_double_series(self, rng):
        for dim in (2, 3, 4):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a *= 2.0 / max(1.0, np.linalg.norm(a, 2))
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = DCMatrix(a, b)
            e_block = mat_exp(m)
            e_series = mat_exp_series(m, terms=30)
            assert np.abs(e_block.sig - e_series.sig).max() < 1e-8
            assert np.abs(e_block.inf - e_series.inf).max() < 1e-8


class TestMatExpClosedForm:
    """Hermitian and anti-Hermitian generators take one eigendecomposition;
    they must agree with the block expm, degenerate spectra included."""

    @staticmethod
    def block_expm(m):
        n = m.rows
        e = scipy.linalg.expm(np.block([[m.sig, m.inf], [np.zeros((n, n)), m.sig]]))
        return e[:n, :n], e[:n, n:]

    @pytest.mark.parametrize("n", [2, 5, 24])
    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("anti", [False, True])
    def test_matches_block_expm(self, rng, n, degenerate, anti):
        h = random_complex_hermitian(n, rng, scale=1.0 / np.sqrt(n))
        if degenerate:  # eigenvalues -1 and 2, each repeated
            q = np.linalg.eigh(h)[1]
            h = (q * np.where(np.arange(n) % 2, -1.0, 2.0)) @ q.conj().T
            h = 0.5 * (h + h.conj().T)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # scaled as schrodinger_step scales H: the result is exactly anti-Hermitian
        m = DCMatrix(h, b).scale(-1j * 0.7) if anti else DCMatrix(h, b)
        assert np.array_equal(m.sig.conj().T, -m.sig if anti else m.sig)
        e = mat_exp(m)
        sig, inf = self.block_expm(m)
        assert np.abs(e.sig - sig).max() < 1e-13
        assert np.abs(e.inf - inf).max() < 1e-12 * max(1.0, np.abs(inf).max())

    def test_wide_spectrum_does_not_overflow(self):
        # F_12 = (e^700 - e^-100) / 800 is finite though e^800 is not
        e = mat_exp(DCMatrix(np.diag([700.0, -100.0]), SX))
        assert np.isfinite(e.inf).all()
        assert e.inf[0, 1] == pytest.approx((np.exp(700.0) - np.exp(-100.0)) / 800.0,
                                            rel=1e-13)

    def test_coincident_eigenvalues_give_the_exponential(self):
        e = mat_exp(DCMatrix(0.3j * np.eye(3), np.arange(9.0).reshape(3, 3)))
        assert np.abs(e.inf - np.exp(0.3j) * np.arange(9.0).reshape(3, 3)).max() < 1e-14


def test_residual_per_kind():
    m = DCMatrix(np.array([[0, 1], [-1, 0.5j]]), np.array([[0, 0], [0, 1e-3]]))
    assert residual(m, OperatorKind.ANTI_HERMITIAN) == pytest.approx(2e-3)  # |M^dag + M|
    assert residual(m, OperatorKind.HERMITIAN) == pytest.approx(2.0)
    state = DCMatrix(np.array([[0.6], [0.8j]]), np.array([[0.0], [1.0]]))
    assert residual(state, OperatorKind.UNITARY) < 1e-15  # an isometry check
    with pytest.raises(NonSquare):
        residual(state, OperatorKind.HERMITIAN)
    nan = DCMatrix(np.eye(2), np.array([[np.nan, 0], [0, 0]]))
    assert np.isnan(residual(nan, OperatorKind.UNITARY))
    assert classify_op(nan) == frozenset()


@st.composite
def _near_kind_matrices(draw):
    """A square or non-square dual matrix near a Hermitian or a unitary,
    or neither, off by a drawn amount in a drawn entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 4))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 4))
    base = draw(st.sampled_from(["hermitian", "unitary", "any"]))
    if base == "hermitian" and rows == cols:
        m = random_dc_hermitian(rows, rng)
    elif base == "unitary" and rows == cols:
        m = random_dc_unitary(rows, rng)
    else:
        m = DCMatrix(*(rng.standard_normal((2, rows, cols))
                       + 1j * rng.standard_normal((2, rows, cols))))
    size = draw(st.sampled_from([0.0, 1e-12, 1e-10, 5e-9, 1e-6, 1.0]))
    parts = [m.sig.copy(), m.inf.copy()]
    parts[draw(st.integers(0, 1))][draw(st.integers(0, rows - 1)),
                                   draw(st.integers(0, cols - 1))] += size
    return DCMatrix(*parts)


class TestKindPredicates:
    """is_hermitian and is_unitary are the residual of their own kind
    against atol, and evaluate only that one residual."""

    @given(_near_kind_matrices(), st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-4, 10.0]))
    @settings(max_examples=300, deadline=None)
    def test_predicate_is_its_residual(self, m, atol):
        square = m.rows == m.cols
        assert is_hermitian(m, atol) == (
            square and residual(m, OperatorKind.HERMITIAN) <= atol)
        assert is_unitary(m, atol) == (square and residual(m, OperatorKind.UNITARY) <= atol)

    @pytest.mark.parametrize("predicate", [is_hermitian, is_unitary])
    def test_one_residual_per_call(self, predicate, monkeypatch):
        kinds = []

        def counting(m, kind):
            kinds.append(kind)
            return residual(m, kind)

        monkeypatch.setattr(linalg, "residual", counting)
        predicate(DCMatrix.identity(3))
        want = OperatorKind.HERMITIAN if predicate is is_hermitian else OperatorKind.UNITARY
        assert kinds == [want]


def test_unitary_preserves_dual_norm(rng):
    for dim in (2, 4, 6):
        u_eps = random_dc_unitary(dim, rng)
        v = random_dc_vector(dim, rng)
        before, after = vnorm(v), vnorm(u_eps @ v)
        assert abs(before.sig - after.sig) < 1e-9
        assert abs(before.inf - after.inf) < 1e-9


def test_divide_vector_inverts_scale():
    v = DCVector(np.array([1.0, 2j]), np.array([0.5, -1.0]))
    w = DualComplex(2 - 1j, 0.7)
    back = divide_vector(v.scale(w), w)
    assert np.abs(back.sig - v.sig).max() < 1e-12
    assert np.abs(back.inf - v.inf).max() < 1e-12


# ---------------------------------------------------------------------------
# Reference products: the hand-written formulas that the one Leibniz rule
# replaced.  Signed zeros in the operands make a reordered term show.
# ---------------------------------------------------------------------------


def _with_signed_zeros(a):
    a = a.copy()
    a.flat[::3] = complex(-0.0, -0.0)
    a.flat[1::4] = complex(0.0, -0.0)
    return a


def _random_parts(rng, shape):
    return [_with_signed_zeros(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(2)]


def _same_bits(got, sig, inf):
    return (np.asarray(got.sig).tobytes() == np.asarray(sig).tobytes()
            and np.asarray(got.inf).tobytes() == np.asarray(inf).tobytes())


class TestProductRuleBitIdentical:
    def test_matmul_with_matrix_and_vector(self, rng):
        a = DCMatrix(*_random_parts(rng, (5, 4)))
        for b in (DCMatrix(*_random_parts(rng, (4, 3))), DCVector(*_random_parts(rng, (4,)))):
            got = a @ b
            assert type(got) is type(b)
            assert _same_bits(got, a.sig @ b.sig, a.sig @ b.inf + a.inf @ b.sig)

    @pytest.mark.parametrize("w", [DualComplex(0.5 - 1j, 2.0),
                                   DualComplex(complex(-0.0, 1.0), complex(-0.0, -0.0)),
                                   DualReal(2.0, -3.0), DualReal(-1.5, -0.0),
                                   3j, complex(-0.0, 2.0)],
                             ids=["dc", "dc-zeros", "dr", "dr-zeros", "complex", "complex-zeros"])
    def test_scale(self, w, rng):
        for a in (DCMatrix(*_random_parts(rng, (3, 4))), DCVector(*_random_parts(rng, (5,)))):
            got = a.scale(w)
            ref = DualComplex(complex(w.sig), complex(w.inf)) if isinstance(w, DualReal) else w
            if isinstance(ref, DualComplex):
                sig, inf = ref.sig * a.sig, ref.sig * a.inf + ref.inf * a.sig
            else:
                sig, inf = ref * a.sig, ref * a.inf
            assert type(got) is type(a) and _same_bits(got, sig, inf)

    def test_inner(self, rng):
        u, v = DCVector(*_random_parts(rng, (6,))), DCVector(*_random_parts(rng, (6,)))
        got = inner(u, v)
        want = DualComplex(np.vdot(u.sig, v.sig), np.vdot(u.sig, v.inf) + np.vdot(u.inf, v.sig))
        assert repr(got) == repr(want)

    def test_kron(self, rng):
        for shape_a, shape_b in (((3,), (2,)), ((2, 3), (3, 2))):
            cls = DCVector if len(shape_a) == 1 else DCMatrix
            a, b = cls(*_random_parts(rng, shape_a)), cls(*_random_parts(rng, shape_b))
            got = kron(a, b)
            assert type(got) is cls
            assert _same_bits(got, np.kron(a.sig, b.sig),
                              np.kron(a.sig, b.inf) + np.kron(a.inf, b.sig))


def _reference_reconstruct(spec):
    """The four-term form of P diag(values) P^dag."""
    lam = np.array([v.sig for v in spec.values])
    mu = np.array([v.inf for v in spec.values])
    p0, p1 = spec.basis_sig, spec.basis_inf
    sig = (p0 * lam) @ p0.conj().T
    inf = (p0 * mu) @ p0.conj().T + (p1 * lam) @ p0.conj().T + (p0 * lam) @ p1.conj().T
    return sig, inf


class TestSpectrumInRingForm:
    @pytest.mark.parametrize("n", [2, 7, 32])
    def test_reconstruct_matches_the_four_term_form(self, n, rng):
        for spec in (eig_hermitian(random_dc_hermitian(n, rng)),
                     eig_unitary(random_dc_unitary(n, rng, degenerate=True))):
            got = spec.reconstruct()
            sig, inf = _reference_reconstruct(spec)
            assert got.sig.tobytes() == sig.tobytes()
            assert np.abs(got.inf - inf).max() <= 1e-13

    def test_values_are_a_dual_vector_of_dual_complex_items(self, rng):
        for spec in (eig_hermitian(random_dc_hermitian(4, rng)),
                     eig_unitary(random_dc_unitary(4, rng))):
            assert isinstance(spec.values, DCVector) and len(spec.values) == 4
            items = list(spec.values)
            assert len(items) == 4 and all(type(v) is DualComplex for v in items)
            assert repr(spec.values[-1]) == repr(items[-1])
