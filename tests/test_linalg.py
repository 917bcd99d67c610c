import copy
import dataclasses
import math
import operator
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    embed,
    mat_exp_series,
    random_complex_hermitian,
    random_dc_hermitian,
    random_dc_unitary,
    random_dc_vector,
    unembed,
)
from dcquantum.errors import (
    DimMismatch,
    InfinitesimalVector,
    ModulusOfInfinitesimal,
    NonSquare,
)
from dcquantum.linalg import (
    DCMatrix,
    DCVector,
    OperatorKind,
    classify_op,
    completeness_defect,
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
from dcquantum import linalg, quantum, spectral
from dcquantum.quantum import Measurement, normalize, schrodinger_step
from dcquantum.scalar import DualComplex, DualReal
from dcquantum.walk import point_source, run

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

    def test_norm_of_the_zero_vector_is_zero(self):
        for v in (DCVector(np.zeros(3)), DCVector(np.zeros(2), np.array([1e-13, -0.0]))):
            n = vnorm(v)
            assert type(n) is DualReal and repr(n) == repr(DualReal(0.0, 0.0))

    @pytest.mark.parametrize("w", [DualComplex(0.0, 1.0), DualComplex(1e-13, 2.0), DualReal(0.0)],
                             ids=repr)
    def test_division_by_an_infinitesimal_raises(self, w):
        with pytest.raises(InfinitesimalVector):
            divide_vector(DCVector(np.ones(2)), w)

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


class TestRingOperands:
    """+ and - take a ring array of the same type and shape, and @ one
    whose rows match the matrix's columns: another shape is a
    DimMismatch, another type a TypeError."""

    @pytest.mark.parametrize("a, b", [(DCMatrix(np.eye(2)), DCMatrix(np.ones((2, 1)))),
                                      (DCMatrix(np.eye(2)), DCMatrix(np.ones((1, 1)))),
                                      (DCVector(np.ones(2)), DCVector(np.ones(3)))],
                             ids=["2x2-2x1", "2x2-1x1", "vectors"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_sums_of_mismatched_shapes_raise(self, a, b, op):
        with pytest.raises(DimMismatch):
            op(a, b)
        with pytest.raises(DimMismatch):
            op(b, a)

    @pytest.mark.parametrize("other", [DCVector(np.ones(2)), np.eye(2), 1, DualComplex(1)],
                             ids=["vector", "ndarray", "int", "dual"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_sums_with_another_type_are_type_errors(self, other, op):
        m = DCMatrix(np.eye(2))
        with pytest.raises(TypeError):
            op(m, other)
        with pytest.raises(TypeError):
            op(other, m)

    def test_products_of_mismatched_inner_dimensions_raise(self):
        a, b, c = DCMatrix(np.eye(2)), DCMatrix(np.ones((2, 1))), DCMatrix(np.ones((1, 1)))
        for x, y in ((a, c), (c, a), (b, a)):
            with pytest.raises(DimMismatch):
                x @ y
        assert (a @ b).shape == (2, 1) and (b @ c).shape == (2, 1)

    def test_product_with_a_vector_of_the_wrong_length_raises(self):
        with pytest.raises(DimMismatch):
            DCMatrix(np.eye(2)) @ DCVector(np.ones(3))

    @pytest.mark.parametrize("other", [np.ones(2), np.eye(2), 2, DualComplex(1)],
                             ids=["1d-ndarray", "2d-ndarray", "int", "dual"])
    def test_product_with_a_non_ring_operand_is_a_type_error(self, other):
        with pytest.raises(TypeError):
            DCMatrix(np.eye(2)) @ other


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

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            mat_exp(DCMatrix(np.ones((2, 3))))

    @pytest.mark.parametrize("w", [1.0, -1j, 1j])
    def test_subnormal_gaps_give_finite_divided_differences(self, w):
        # lam_i - lam_j subnormal, where numpy's complex expm1(d) / d overflows
        t = 5e-324
        h = DCMatrix(np.array([[t, t * (1 + 1j)], [t * (1 - 1j), t]]), SX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = mat_exp(h.scale(w))
        assert np.isfinite(e.sig).all() and np.isfinite(e.inf).all()
        assert np.abs(e.sig - np.eye(2)).max() <= 1e-15
        assert np.abs(e.inf - w * SX).max() <= 1e-15
        if w != 1.0:
            assert is_unitary(e, 1e-15)

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
        e = unembed(scipy.linalg.expm(embed(m)))
        return e.sig, e.inf

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


class TestMatExpTaylor:
    """A generator that is neither Hermitian nor anti-Hermitian takes the
    dual Taylor scaling and squaring; both parts must agree with the
    block expm exp([[A, B], [0, A]]) = [[e^A, L(A, B)], [0, e^A]]."""

    @staticmethod
    def rel_err(e, m):
        sig, inf = TestMatExpClosedForm.block_expm(m)
        return (np.abs(e.sig - sig).max() / np.abs(sig).max(),
                np.abs(e.inf - inf).max() / np.abs(inf).max())

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 128, 256])
    @pytest.mark.parametrize("c, tol", [(1e-6, 2e-13), (0.5, 2e-13), (3.0, 2e-13),
                                        (30.0, 2e-13), (300.0, 2e-12)])
    def test_non_normal_matches_block_expm(self, rng, n, c, tol):
        g = rng.standard_normal((2, n, n))
        a = c * (g[0] + 1j * g[1]) / np.sqrt(n)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert not np.array_equal(a.conj().T, a) and not np.array_equal(a.conj().T, -a)
        err_sig, err_inf = self.rel_err(mat_exp(DCMatrix(a, b)), DCMatrix(a, b))
        assert err_sig <= tol and err_inf <= tol

    @pytest.mark.parametrize("n", range(2, 17))
    def test_jordan_block(self, rng, n):
        m = DCMatrix(3.0 * np.eye(n, k=1) + 0.5 * np.eye(n), rng.standard_normal((n, n)))
        err_sig, err_inf = self.rel_err(mat_exp(m), m)
        assert err_sig <= 1e-14 and err_inf <= 1e-14

    def test_zero_generator_is_exact(self, rng):
        # mat_exp takes eigh at A = 0; the series there has s = 0 and is I + eps B
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for e in (mat_exp(DCMatrix(np.zeros((4, 4)), b)),
                  spectral._mat_exp_taylor(DCMatrix(np.zeros((4, 4)), b))):
            assert np.array_equal(e.sig, np.eye(4)) and np.array_equal(e.inf, b)

    def test_nan_entry_gives_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = mat_exp(DCMatrix(np.array([[0.0, 1.0], [0.0, np.nan]]), np.eye(2)))
        assert np.isnan(e.sig).all() and np.isnan(e.inf).all()


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


#: Hermitian to rounding: the lower off-diagonal entry is 5 ulps above the upper one.
LARGE_HERMITIAN = DCMatrix(np.array([[1e10, 1e10], [1e10 + 1e-5, 2e10]]))


def large_dual_unitary(rng, n=64, size=3e8):
    """(I + i eps H) U with the largest modulus of its eps-part at `size`."""
    u = random_dc_unitary(n, rng)
    return DCMatrix(u.sig, u.inf * (size / np.abs(u.inf).max()))


class TestResidualScale:
    """Each part's defect is measured relative to max(1, that part's largest
    entry modulus), so a matrix that is Hermitian or unitary to rounding
    passes at any magnitude."""

    def test_large_hermitian_to_rounding(self):
        # the absolute Hermitian defect is 9.5e-6
        assert residual(LARGE_HERMITIAN, OperatorKind.HERMITIAN) <= 1e-15
        assert is_hermitian(LARGE_HERMITIAN, linalg.REQUIRE_ATOL)
        spec = eig_hermitian(LARGE_HERMITIAN)
        rebuilt = spec.reconstruct()
        assert np.abs(rebuilt.sig - LARGE_HERMITIAN.sig).max() <= 1e-14 * 2e10

    def test_large_dual_unitary(self, rng):
        # the absolute eps-part defect is about 2e-7
        m = large_dual_unitary(rng)
        assert residual(m, OperatorKind.UNITARY) <= 1e-14
        assert is_unitary(m)
        spec = eig_unitary(m)
        assert np.abs(np.abs(spec.values.sig) - 1.0).max() <= 1e-12

    def test_each_part_at_its_own_scale(self):
        # sig-part defect 2 over scale 2; the small eps-part keeps scale 1
        m = DCMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[0.0, 1e-3], [0.0, 0.0]]))
        assert residual(m, OperatorKind.HERMITIAN) == 1.0
        # a large sig-part does not hide an eps-part defect
        m = DCMatrix(np.diag([1e3, 1.0]), np.array([[0.0, 1e-3], [0.0, 0.0]]))
        assert residual(m, OperatorKind.HERMITIAN) == 1e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_fails(self, bad):
        for kind in OperatorKind:
            for parts in ([[bad, 0], [0, 1]], np.eye(2)), (np.eye(2), [[0, bad], [0, 0]]):
                with np.errstate(invalid="ignore"):
                    assert not residual(DCMatrix(*parts), kind) <= 1e300


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


def _dual_temporary_residual(m, kind):
    """The former residual, kept as the reference: M^dag M - I, M^dag - M
    or M^dag + M formed as dual matrices, then each part's max-norm over
    max(1, that part's largest modulus in m)."""
    adj = DCMatrix(m.sig.conj().T, m.inf.conj().T)
    if kind is OperatorKind.UNITARY:
        d = adj @ m - DCMatrix(np.eye(m.cols))
    elif m.rows != m.cols:
        raise NonSquare(f"{kind.value} residual needs a square matrix, got {m.shape}")
    else:
        d = adj - m if kind is OperatorKind.HERMITIAN else adj + m
    return float(np.max([np.abs(dp).max(initial=0.0) / max(1.0, np.abs(mp).max(initial=0.0))
                         for dp, mp in ((d.sig, m.sig), (d.inf, m.inf))]))


def _stacked_completeness_defect(family):
    """The former completeness defect: the isometry residual of the stack."""
    return _dual_temporary_residual(
        DCMatrix(np.concatenate([m.sig for m in family]),
                 np.concatenate([m.inf for m in family])), OperatorKind.UNITARY)


_ENTRIES = st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, 5e-324]) | st.floats(-4.0, 4.0)


def _dual_parts(rows, cols):
    """The (sig, inf) parts of a rows x cols dual matrix: signed zeros,
    NaN, subnormals and moderate values in each real component."""
    return hnp.arrays(np.float64, (2, rows, cols, 2), elements=_ENTRIES).map(
        lambda a: DCMatrix(*a.view(complex)[..., 0]))


@st.composite
def _stacks(draw):
    """1 to 4 operators with a common column count, square or rectangular."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return [draw(_dual_parts(r, cols)) for r in rows]


def _agree(got, want, family):
    """Equal NaN-ness, and within the rounding of two orders of summing the
    same products: each product's error is below R u sum_k |a_k||b_k|, R rows."""
    if np.isnan(want):
        return np.isnan(got)
    rows = sum(m.rows for m in family)
    s0 = max(np.abs(m.sig).max() for m in family)
    s1 = max(np.abs(m.inf).max() for m in family)
    tol = 16 * rows * rows * np.finfo(float).eps * (s0 * s0 / max(1.0, s0)
                                                    + s0 * s1 / max(1.0, s1))
    return abs(got - want) <= tol + 4 * np.finfo(float).eps * want


class TestResidualByParts:
    """residual and completeness_defect work on the parts (Leibniz: the
    eps-part of M^dag M is X + X^dag with X = A0^dag A1) and agree with
    the dual-temporary formulas they replaced."""

    @given(_stacks())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dual_temporary_formulas(self, family):
        with np.errstate(invalid="ignore", over="ignore"):
            want = _stacked_completeness_defect(family)
            got = completeness_defect(family)
            assert _agree(got, want, family), (got, want)
            for m in family:
                assert _agree(residual(m, OperatorKind.UNITARY),
                              _dual_temporary_residual(m, OperatorKind.UNITARY), [m])
                for kind in (OperatorKind.HERMITIAN, OperatorKind.ANTI_HERMITIAN):
                    if m.rows != m.cols:
                        with pytest.raises(NonSquare):
                            residual(m, kind)
                        with pytest.raises(NonSquare):
                            _dual_temporary_residual(m, kind)
                    else:  # the same subtractions, so the same bits
                        assert (np.float64(residual(m, kind)).tobytes()
                                == np.float64(_dual_temporary_residual(m, kind)).tobytes())


# ---------------------------------------------------------------------------
# The allocating one-liners that the buffered checks and mat_exp replaced,
# kept as bit-exact references: each forms every temporary afresh.
# ---------------------------------------------------------------------------


def _allocating_relative_defect(d_sig, d_inf, family):
    return float(np.max([np.abs(d).max(initial=0.0) / max(1.0, np.max(
        [np.abs(getattr(m, part)).max(initial=0.0) for m in family]))
        for d, part in ((d_sig, "sig"), (d_inf, "inf"))]))


def _allocating_completeness_defect(family):
    gram, x = -np.eye(family[0].cols), 0
    for m in family:
        a0h = m.sig.conj().T
        gram = gram + a0h @ m.sig
        x = x + a0h @ m.inf
    return _allocating_relative_defect(gram, x + x.conj().T, family)


def _allocating_residual(m, kind):
    if kind is OperatorKind.UNITARY:
        return _allocating_completeness_defect((m,))
    op = np.subtract if kind is OperatorKind.HERMITIAN else np.add
    return _allocating_relative_defect(op(m.sig.conj().T, m.sig),
                                       op(m.inf.conj().T, m.inf), (m,))


def _four_buffer_completeness_defect(family):
    """completeness_defect as it was before M_0's products were written
    straight into gram and X: both started from -I and 0 and took every
    product through a fourth buffer, which then held X^dag."""
    d = family[0].cols
    gram, x, p = (np.zeros((d, d), complex) for _ in range(3))
    np.fill_diagonal(gram, -1.0)
    c = np.empty((max(m.rows for m in family), d), complex)
    for m in family:
        a0h = np.conjugate(m.sig, out=c[:m.rows]).T
        gram += np.matmul(a0h, m.sig, out=p)
        x += np.matmul(a0h, m.inf, out=p)
    sig = linalg._defect_term(gram, [m.sig for m in family], c)
    x += linalg._adjoint(x, p)
    return float(np.max([sig, linalg._defect_term(x, [m.inf for m in family], c)]))


def _allocating_mat_exp(a_eps):
    a, b = a_eps.sig, a_eps.inf
    adj = a.conj().T
    if np.array_equal(adj, a):
        lam, q = np.linalg.eigh(a)
    elif np.array_equal(adj, -a):
        w, q = np.linalg.eigh(1j * a)
        lam = -1j * w
    else:
        return spectral._mat_exp_taylor(a_eps)
    e = np.exp(lam)
    swap = lam.real[:, None] < lam.real[None, :]
    e_hi = np.where(swap, e[None, :], e[:, None])
    d = lam[:, None] - lam[None, :]
    np.negative(d, out=d, where=~swap)
    same = np.abs(d) < np.finfo(float).tiny
    d[same] = 1.0
    ratio = np.expm1(d) / d
    ratio[same] = 1.0
    f = e_hi * ratio
    qh = q.conj().T
    t = qh @ b
    inf = f * (t @ q)  # numpy computes this in place into t @ q once that is large
    return DCMatrix((q * e) @ qh, q @ inf @ qh)


def _allocating_mat_exp_taylor(a_eps):
    s = max(0, math.frexp(float(np.abs(a_eps.sig).sum(axis=0).max()))[1])
    x = a_eps.scale(2.0 ** -s)
    one = r = DCMatrix(np.eye(a_eps.rows), np.zeros(a_eps.shape))
    for k in range(18, 0, -1):
        r = one + (x @ r).scale(1.0 / k)
    for _ in range(s):
        r = r @ r
    return r


#: signed zeros, NaN, infinities and a subnormal, beside moderate values
_EDGE_ENTRIES = (st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324])
                 | st.floats(-4.0, 4.0))


def _edge_parts(rows, cols, entries=_EDGE_ENTRIES):
    return hnp.arrays(np.float64, (2, rows, cols, 2), elements=entries).map(
        lambda a: DCMatrix(*a.view(complex)[..., 0]))


@st.composite
def _edge_families(draw):
    """1 to 4 operators with a common column count, rectangular or square;
    a single column is a state's n x 1 isometry check."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.integers(0, 6) if cols > 1 else st.integers(1, 12),
                         min_size=1, max_size=4))
    return [draw(_edge_parts(r, cols)) for r in rows]


_FINITE_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, 1.0, -0.5]) | st.floats(-4.0, 4.0)


@st.composite
def _generators(draw):
    """A dual A + eps B whose A is exactly Hermitian (its upper triangle
    mirrored), anti-Hermitian (i or -i dt times that, as schrodinger_step
    scales it) or neither, with an eps-part of any entries."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([_FINITE_ENTRIES, _EDGE_ENTRIES]))
    x = draw(_edge_parts(n, n, entries)).sig
    with np.errstate(invalid="ignore"):  # i inf is NaN + i inf: that A takes the series
        h = np.triu(x, 1)
        h = h + h.conj().T
        np.fill_diagonal(h, x.diagonal().real)
        a = draw(st.sampled_from([h, 1j * h, (-1j * draw(st.floats(1e-3, 2.0))) * h, x]))
    return DCMatrix(a, draw(_edge_parts(n, n)).inf)


def _outcome(f, *args):
    """The bits f returns, or the type of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            r = f(*args)
    except (np.linalg.LinAlgError, ValueError) as e:
        return type(e)
    if isinstance(r, float):
        return np.float64(r).tobytes()
    return r.sig.tobytes(), r.inf.tobytes()


class TestBufferedChecksBitIdentical:
    """residual, completeness_defect and mat_exp work in reused buffers;
    the elementwise operations and their operand order are those of the
    one-liners above, so every bit of every result is theirs."""

    @given(_edge_families())
    @settings(max_examples=300, deadline=None)
    def test_completeness_defect(self, family):
        assert (_outcome(completeness_defect, family)
                == _outcome(_allocating_completeness_defect, family))

    @given(st.one_of(_edge_families().map(lambda f: f[0]),
                     st.integers(0, 5).flatmap(lambda n: _edge_parts(n, n)),
                     _near_kind_matrices()),
           st.sampled_from(list(OperatorKind)))
    @settings(max_examples=300, deadline=None)
    def test_residual(self, m, kind):
        if kind is not OperatorKind.UNITARY and m.rows != m.cols:
            with pytest.raises(NonSquare):
                residual(m, kind)
        else:
            assert _outcome(residual, m, kind) == _outcome(_allocating_residual, m, kind)

    @given(st.one_of(st.integers(1, 6).flatmap(lambda n: _edge_parts(n, n)),
                     st.integers(1, 12).flatmap(lambda n: _edge_parts(n, 1)),
                     _edge_families().map(lambda f: f[0])))
    @settings(max_examples=300, deadline=None)
    def test_unitary_residual_keeps_the_four_buffer_bits(self, m):
        # square operators and states' n x 1 columns, entries -0.0, NaN and +-inf
        assert (_outcome(residual, m, OperatorKind.UNITARY)
                == _outcome(_four_buffer_completeness_defect, (m,)))

    def test_random_families_keep_the_four_buffer_bits(self, rng):
        # random entries at about a complete family's scale, where a sum
        # taken in another order rounds differently in about one case in six
        for _ in range(200):
            cols, rows = rng.integers(1, 5), rng.integers(1, 5, rng.integers(1, 5))
            scale = 1 / np.sqrt(2 * cols * len(rows))
            family = [DCMatrix(scale * (rng.standard_normal((r, cols))
                                        + 1j * rng.standard_normal((r, cols))),
                               rng.standard_normal((r, cols))) for r in rows]
            assert (_outcome(completeness_defect, family)
                    == _outcome(_four_buffer_completeness_defect, family))

    def test_nan_defects_fail(self):
        for m in (DCMatrix(np.eye(3), np.diag([0.0, np.nan, 0.0])),
                  DCMatrix(np.array([[1.0], [np.nan]]))):
            for kind in OperatorKind:
                if m.rows == m.cols or kind is OperatorKind.UNITARY:
                    assert np.isnan(residual(m, kind))
        assert np.isnan(completeness_defect((DCMatrix(np.eye(2)),
                                             DCMatrix(np.full((1, 2), np.nan)))))

    @given(_generators())
    @settings(max_examples=300, deadline=None)
    def test_mat_exp(self, a_eps):
        assert _outcome(mat_exp, a_eps) == _outcome(_allocating_mat_exp, a_eps)

    @given(st.integers(1, 6).flatmap(lambda n: _edge_parts(n, n)),
           st.sampled_from([1.0, 0.5, 8.0, 300.0]))
    @settings(max_examples=300, deadline=None)
    def test_mat_exp_taylor(self, a_eps, size):
        # scaled so that the squarings run from none up to about ten
        with np.errstate(invalid="ignore"):  # inf * 0j
            a_eps = DCMatrix(size * a_eps.sig, a_eps.inf)
        assert (_outcome(spectral._mat_exp_taylor, a_eps)
                == _outcome(_allocating_mat_exp_taylor, a_eps))

    @pytest.mark.parametrize("n", [127, 128, 129])
    def test_mat_exp_either_side_of_numpy_temporary_elision(self, n, rng):
        # from 128 x 128 up numpy multiplies F o X into X's temporary, in
        # the operand order (X, F)
        h = random_dc_hermitian(n, rng)
        for a_eps in (h, h.scale(-0.05j)):
            assert _outcome(mat_exp, a_eps) == _outcome(_allocating_mat_exp, a_eps)


class TestBufferBudget:
    """Transient peaks at n = 128, in n x n complex buffers of 256 KiB, as
    tracemalloc sees them: numpy's arrays and its 64 KiB iteration
    buffers, not LAPACK's workspaces.  The one-liners above peak at 3.5
    (Hermitian and anti-Hermitian residual), 5.5 (the unitary residual,
    and a family of two), 6.0 and 6.5 (mat_exp of a Hermitian and an
    anti-Hermitian A, its two-buffer result included)."""

    N = 128

    @classmethod
    def buffers(cls, f, *args) -> float:
        f(*args)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = f(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del result
        return peak / (cls.N * cls.N * 16)

    @pytest.mark.parametrize("kind", [OperatorKind.HERMITIAN, OperatorKind.ANTI_HERMITIAN])
    def test_hermitian_residuals_hold_one_buffer(self, kind, rng):
        # the defect, then the moduli of each part in it
        h = random_dc_hermitian(self.N, rng)
        assert self.buffers(residual, h, kind) <= 1.5

    def test_unitary_residual_holds_three(self, rng):
        # the operator's conjugate, then gram and X, which take its products
        u = random_dc_unitary(self.N, rng)
        assert self.buffers(residual, u, OperatorKind.UNITARY) <= 3.5

    def test_completeness_of_a_family_holds_four(self, rng):
        p = np.diag(rng.integers(0, 2, self.N)).astype(complex)
        family = (DCMatrix(p, random_complex_hermitian(self.N, rng)), DCMatrix(np.eye(self.N) - p))
        assert self.buffers(completeness_defect, family) <= 4.5

    def test_mat_exp_of_an_anti_hermitian_generator_holds_four(self, rng):
        # -i dt H, as schrodinger_step passes it: iA in the adjoint's
        # buffer through eigh, then the assembly's four, its result among them
        a_eps = random_dc_hermitian(self.N, rng).scale(-0.05j)
        assert self.buffers(mat_exp, a_eps) <= 4.75

    def test_mat_exp_of_a_hermitian_generator(self, rng):
        # real divided differences cannot hold Q^dag, so one more buffer
        assert self.buffers(mat_exp, random_dc_hermitian(self.N, rng)) <= 5.25

    def test_mat_exp_taylor_holds_five(self, rng):
        # X, R and one spare through Horner's rule, then R and two spares
        # per squaring (the allocating loop peaks at 10)
        g = rng.standard_normal((4, self.N, self.N))
        a_eps = DCMatrix(g[0] + 1j * g[1], g[2] + 1j * g[3])
        assert self.buffers(spectral._mat_exp_taylor, a_eps) <= 5.25

    def test_an_eps_free_matrix_holds_one_buffer(self, rng):
        # its sig-part; the eps-part is a zero-strided view (two before)
        h = random_complex_hermitian(self.N, rng)
        assert self.buffers(DCMatrix, h) <= 1.125
        assert DCMatrix(h).inf.strides == (0, 0)

    def test_a_measurement_of_eps_free_operators_keeps_two_buffers(self, rng):
        # {P, I - P} as the benchmark's Schrodinger driver builds it (four before)
        p = np.diag(rng.integers(0, 2, self.N)).astype(complex)
        q = np.eye(self.N) - p
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m = Measurement((DCMatrix(p), DCMatrix(q)))
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept / (self.N * self.N * 16) <= 2.125
        assert m.operators[1] == DCMatrix(q, np.zeros_like(q))

    def test_first_schrodinger_step_holds_one_buffer_while_eigh_runs(self, rng, monkeypatch):
        # eigh's copy of its input and LAPACK's workspace, which tracemalloc
        # does not see, come on top of what is held then: -i dt H alone,
        # where H.scale(-1j * dt) and the adjoint held three.  The step's
        # peak is then the exponential's: evolve's unitarity check of the
        # propagator, which set it with four buffers, holds three.
        s = normalize(random_dc_vector(self.N, rng))
        h = random_dc_hermitian(self.N, rng)
        monkeypatch.setattr(quantum, "_propagator", (None, None, None))
        held, eigh = [], np.linalg.eigh

        def recording(a):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            schrodinger_step(s, h, 0.05)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = self.N * self.N * 16
        assert len(held) == 1 and held[0] / size <= 1.125
        assert peak / size <= 5.625  # 6.375 with the four-buffer check, 6.5 before


class TestRingResultsOwnTheirArrays:
    """Each ring result holds two fresh read-only arrays, which share no
    memory with any operand or with each other."""

    @staticmethod
    def results(rng):
        a, b = (DCMatrix(*_random_parts(rng, (3, 3))) for _ in range(2))
        r = DCMatrix(*_random_parts(rng, (4, 3)))
        u, v = (DCVector(*_random_parts(rng, (3,))) for _ in range(2))
        h = DCMatrix(*(0.5 * (p + p.conj().T) for p in _random_parts(rng, (3, 3))))
        yield from [((a, b), a + b), ((a, b), a - b), ((a,), -a), ((u, v), u + v),
                    ((u,), -u), ((a,), a.scale(DualComplex(0.5 - 1j, 2.0))),
                    ((u,), u.scale(DualReal(2.0, -3.0))), ((a,), a.scale(3j)),
                    ((r, a), r @ a), ((a, u), a @ u), ((r,), r.adjoint()),
                    ((a, b), kron(a, b)), ((u, v), kron(u, v)),
                    ((), DCMatrix.identity(3)), ((), DCMatrix.zeros(2, 3)),
                    ((h,), mat_exp(h)), ((h,), mat_exp(h.scale(1j))), ((a,), mat_exp(a)),
                    ((u,), divide_vector(u, DualComplex(2 - 1j, 0.7))),
                    ((h,), eig_hermitian(h).reconstruct())]

    def test_read_only_and_unshared(self, rng):
        for operands, got in self.results(rng):
            parts = [got.sig, got.inf]
            assert not any(p.flags.writeable for p in parts)
            assert not np.shares_memory(got.sig, got.inf)
            for op in operands:
                for p in parts:
                    assert not np.shares_memory(p, op.sig) and not np.shares_memory(p, op.inf)

    def test_the_constructor_copies_and_fills_a_missing_eps_part(self, rng):
        sig = rng.standard_normal((2, 3)) + 0j
        m = DCMatrix(sig)
        assert not np.shares_memory(m.sig, sig) and not m.inf.flags.writeable
        assert m.inf.shape == (2, 3) and not m.inf.any()
        sig[0, 0] = 7.0
        assert m.sig[0, 0] != 7.0


class TestCopiesStayReadOnly:
    """copy.copy, copy.deepcopy and a pickle round trip give back ring
    arrays whose parts are read-only and hold the same bits, alone or
    inside a state or a walk snapshot."""

    @staticmethod
    def values(rng):
        sig, inf = _random_parts(rng, (3, 3))
        u = DCVector(*_random_parts(rng, (3,)))
        yield DCMatrix(sig, inf), lambda m: [m]
        yield u, lambda v: [v]
        yield normalize(u), lambda s: [s.vec]
        yield run(point_source(16), 0.4, 5)[-1], lambda w: [w.plus, w.minus]

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_parts_are_read_only_with_the_same_bits(self, rng, clone):
        for value, arrays in self.values(rng):
            back = clone(value)
            assert type(back) is type(value)
            for got, want in zip(arrays(back), arrays(value)):
                assert type(got) is type(want)
                assert not got.sig.flags.writeable and not got.inf.flags.writeable
                assert _same_bits(got, want.sig, want.inf)
                with pytest.raises(ValueError, match="read-only"):
                    got.sig[0] = 5.0


@pytest.mark.parametrize("value, text", [
    (DCVector(np.array([1.0])), "DCVector(sig=array([1.+0.j]), inf=array([0.+0.j]))"),
    (DCMatrix(np.eye(1)), "DCMatrix(sig=array([[1.+0.j]]), inf=array([[0.+0.j]]))"),
    (DualComplex(1, 2j), "DualComplex(sig=(1+0j), inf=2j)"),
    (DualReal(1, -2), "DualReal(sig=1.0, inf=-2.0)"),
])
def test_ring_types_keep_the_frozen_dataclass_contract(value, text):
    assert repr(value) == text
    assert [f.name for f in dataclasses.fields(value)] == ["sig", "inf"]
    for name in ("sig", "inf"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field '{name}'"):
            setattr(value, name, value.sig)


class TestValueEquality:
    """== on ring arrays is value equality: same type, same shape, equal
    parts, NaN unequal as for floats; the types stay unhashable."""

    def test_equal_vectors_of_several_entries(self):
        assert DCVector(np.ones(2)) == DCVector(np.ones(2))
        assert not DCVector(np.ones(2)) != DCVector(np.ones(2))

    def test_each_part_and_the_shape_count(self):
        v = DCVector(np.ones(2), np.zeros(2))
        assert v != DCVector(np.ones(2), np.array([0.0, 1e-300]))
        assert v != DCVector(np.array([1.0, 1.0 + 1e-15]), np.zeros(2))
        assert v != DCVector(np.ones(3))
        assert DCMatrix(np.eye(2)) != DCMatrix(np.eye(3))
        assert DCMatrix(np.ones((1, 2))) != DCMatrix(np.ones((2, 1)))

    def test_types_count(self):
        assert DCVector(np.ones(1)) != DCMatrix(np.ones((1, 1)))
        assert DCVector(np.ones(1)) != 1
        assert DCVector(np.ones(2)) != (np.ones(2), np.zeros(2))
        # an ndarray in either order, which numpy would compare entry by entry
        for value in (DCVector(np.ones(2)), DCMatrix(np.ones((2, 2)))):
            arr = np.ones(value.sig.shape)
            assert (value == arr) is False and (arr == value) is False
            assert (value != arr) is True and (arr != value) is True

    def test_signed_zeros_equal_and_nan_unequal(self):
        assert DCVector(np.array([0.0]), np.array([-0.0])) == DCVector(np.zeros(1))
        nan = DCVector(np.array([np.nan, 1.0]))
        assert nan != nan

    def test_values_that_hold_ring_arrays(self, rng):
        u = DCVector(*_random_parts(rng, (3,)))
        assert normalize(u) == normalize(u)
        assert run(point_source(16), 0.4, 5)[-1] == run(point_source(16), 0.4, 5)[-1]
        assert run(point_source(16), 0.4, 5)[-1] != run(point_source(16), -0.4, 5)[-1]
        m = random_dc_unitary(3, rng)
        assert eig_unitary(m) == eig_unitary(m)
        ops = (DCMatrix(0.6 * np.eye(2)), DCMatrix(0.8 * np.eye(2)))
        assert Measurement(ops) == Measurement(ops)

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(DCVector(np.ones(2)))
        with pytest.raises(TypeError, match="unhashable"):
            hash(DCMatrix(np.eye(2)))


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
    p0, p1 = spec.basis.sig, spec.basis.inf
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

    def test_basis_is_one_read_only_dual_matrix(self, rng):
        for spec in (eig_hermitian(random_dc_hermitian(4, rng)),
                     eig_unitary(random_dc_unitary(4, rng))):
            assert type(spec.basis) is DCMatrix and spec.basis.shape == (4, 4)
            assert not spec.basis.sig.flags.writeable and not spec.basis.inf.flags.writeable
            v = spec.vector(2)
            assert _same_bits(v, spec.basis.sig[:, 2], spec.basis.inf[:, 2])

    def test_no_spectral_rebuild_copies_through_the_constructor(self, rng, monkeypatch):
        """reconstruct builds every array it returns as a ring result, and
        log_unitary copies no matrix: the basis is used where it lies."""
        u_eps = random_dc_unitary(5, rng)
        spec = eig_unitary(u_eps)
        built = []
        post_init = linalg._DualArray.__post_init__

        def counting(self):
            built.append(type(self))
            post_init(self)

        monkeypatch.setattr(linalg._DualArray, "__post_init__", counting)
        spec.reconstruct()
        assert built == []
        linalg.log_unitary(u_eps)
        assert DCMatrix not in built
