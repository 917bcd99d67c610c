"""Spectral decompositions, unitary logarithm, semipositivity, dilation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dc_hermitian, random_dc_unitary
from dcquantum.errors import IncompleteFamily, NotHermitian, NotUnitary
from dcquantum.linalg import (
    _cluster_ids,
    DCMatrix,
    DCVector,
    OperatorKind,
    check_appreciably_semipositive,
    classify_op,
    dilation_block,
    eig_hermitian,
    eig_unitary,
    inner,
    log_unitary,
    mat_exp,
    stinespring,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def reconstruction_residual(spec, m):
    rec = spec.reconstruct()
    return max(float(np.abs(rec.sig - m.sig).max()), float(np.abs(rec.inf - m.inf).max()))


def orthonormality_residual(spec):
    worst = 0.0
    for j in range(spec.dim):
        for k in range(spec.dim):
            ov = inner(spec.vector(j), spec.vector(k))
            target = 1.0 if j == k else 0.0
            worst = max(worst, abs(ov.sig - target), abs(ov.inf))
    return worst


class TestEigHermitian:
    def test_commuting_diagonal_case(self):
        spec = eig_hermitian(DCMatrix(SZ, SZ))
        vals = np.array(sorted((v.sig.real, v.inf.real) for v in spec.values))
        assert np.allclose(vals, [(-1, -1), (1, 1)])
        # eigenbasis is the standard basis, up to ordering and phase
        assert np.allclose(np.sort(np.abs(spec.basis_sig), axis=1), [[0, 1], [0, 1]])

    def test_off_diagonal_perturbation_has_no_first_order_shift(self):
        spec = eig_hermitian(DCMatrix(SZ, SX))
        infs = [abs(v.inf) for v in spec.values]
        assert max(infs) < 1e-12
        # vector corrections have magnitude h/(theta gap) = 1/2
        assert np.abs(spec.basis_inf).max() == pytest.approx(0.5, abs=1e-12)
        assert reconstruction_residual(spec, DCMatrix(SZ, SX)) < 1e-10

    def test_degenerate_significant_part(self):
        spec = eig_hermitian(DCMatrix(np.zeros((2, 2)), SX))
        vals = np.array(sorted((v.sig.real, v.inf.real) for v in spec.values))
        assert np.allclose(vals, [(0, -1), (0, 1)])
        assert reconstruction_residual(spec, DCMatrix(np.zeros((2, 2)), SX)) < 1e-12

    def test_random_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 3, 5, 8):
            m = random_dc_hermitian(dim, rng)
            spec = eig_hermitian(m)
            assert spec.kind == "hermitian"
            assert all(abs(v.sig.imag) < 1e-9 and abs(v.inf.imag) < 1e-9
                       for v in spec.values)
            assert reconstruction_residual(spec, m) < 1e-8
            assert orthonormality_residual(spec) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(DCMatrix(1j * SX))


class TestEigUnitary:
    def test_walk_gate_spectrum(self):
        m = 1.0
        g = DCMatrix(SX, -1j * m * np.eye(2))
        spec = eig_unitary(g)
        # eigenvalues 1 - i m eps and -1 - i m eps on (1, +-1)/sqrt(2)
        by_phase = sorted(spec.values, key=lambda v: np.angle(v.sig))
        assert by_phase[0].sig == pytest.approx(1.0)
        assert by_phase[0].inf == pytest.approx(-1j * m)
        assert by_phase[1].sig == pytest.approx(-1.0)
        assert by_phase[1].inf == pytest.approx(-1j * m)
        for j, v in enumerate(spec.values):
            vec = spec.vector(j)
            out = g @ vec
            want = vec.scale(v)
            assert np.abs(out.sig - want.sig).max() < 1e-10
            assert np.abs(out.inf - want.inf).max() < 1e-10

    def test_identity(self):
        spec = eig_unitary(DCMatrix.identity(3))
        assert all(v.sig == 1 and v.inf == 0 for v in spec.values)

    def test_eigenvalue_form_and_reconstruction(self, rng):
        for dim in (2, 4, 6):
            u_eps = random_dc_unitary(dim, rng)
            spec = eig_unitary(u_eps)
            for v in spec.values:
                assert abs(abs(v.sig) - 1.0) < 1e-9
                # v.inf = i lam mu with real mu
                assert abs((v.inf / v.sig).real) < 1e-9
            assert reconstruction_residual(spec, u_eps) < 1e-8
            assert orthonormality_residual(spec) < 1e-9

    def test_degenerate_unitary(self, rng):
        for dim in (4, 6, 8):
            u_eps = random_dc_unitary(dim, rng, degenerate=True)
            spec = eig_unitary(u_eps)
            assert reconstruction_residual(spec, u_eps) < 1e-8
            assert orthonormality_residual(spec) < 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            eig_unitary(DCMatrix(2 * np.eye(2)))


class TestLogUnitary:
    def test_log_identity_is_zero(self):
        l = log_unitary(DCMatrix.identity(3))
        assert np.abs(l.sig).max() < 1e-12 and np.abs(l.inf).max() < 1e-12

    def test_scalar_phase(self):
        theta = 1.1
        l = log_unitary(DCMatrix(np.exp(1j * theta) * np.eye(2)))
        assert np.allclose(l.sig, 1j * theta * np.eye(2))

    def test_round_trip_on_walk_gate(self):
        g = DCMatrix(SX, -0.6j * np.eye(2))
        back = mat_exp(log_unitary(g))
        assert np.abs(back.sig - g.sig).max() < 1e-8
        assert np.abs(back.inf - g.inf).max() < 1e-8

    def test_anti_hermitian_and_round_trip_random(self, rng):
        for dim in (2, 3, 5):
            u_eps = random_dc_unitary(dim, rng)
            l = log_unitary(u_eps)
            assert OperatorKind.ANTI_HERMITIAN in classify_op(l, atol=1e-9)
            back = mat_exp(l)
            assert np.abs(back.sig - u_eps.sig).max() < 1e-8
            assert np.abs(back.inf - u_eps.inf).max() < 1e-8

    def test_exp_log_duality_on_hermitian_generator(self, rng):
        h_eps = random_dc_hermitian(3, rng)
        # keep significant eigenphases inside (-pi, pi]
        h_eps = DCMatrix(0.3 * h_eps.sig, 0.3 * h_eps.inf)
        u_eps = mat_exp(DCMatrix(1j * h_eps.sig, 1j * h_eps.inf))
        assert OperatorKind.UNITARY in classify_op(u_eps, atol=1e-9)
        l = log_unitary(u_eps)
        assert np.abs(l.sig - 1j * h_eps.sig).max() < 1e-8
        assert np.abs(l.inf - 1j * h_eps.inf).max() < 1e-8


class TestSemipositivity:
    def test_gram_operator_passes(self, rng):
        m = DCMatrix(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        )
        rep = check_appreciably_semipositive(m.adjoint() @ m, trials=50, seed=3)
        assert rep.passed

    def test_purely_infinitesimal_operator_fails(self):
        rep = check_appreciably_semipositive(DCMatrix(np.zeros((2, 2)), SX),
                                             trials=50, seed=3)
        assert not rep.passed
        assert rep.worst_violation > 0

    def test_zero_operator_passes(self):
        rep = check_appreciably_semipositive(DCMatrix.zeros(3), trials=20, seed=0)
        assert rep.passed


class TestStinespring:
    def test_swap_dilation(self):
        m0 = DCMatrix(np.array([[1, 0], [0, 0]], dtype=complex))
        m1 = DCMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
        u = stinespring([m0, m1])
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(u.sig, swap)
        assert np.abs(u.inf).max() < 1e-12

    def test_single_unitary_family_returns_it(self, rng):
        u_eps = random_dc_unitary(3, rng)
        out = stinespring([u_eps])
        assert np.abs(out.sig - u_eps.sig).max() < 1e-10
        assert np.abs(out.inf - u_eps.inf).max() < 1e-10

    def test_blocks_reproduce_family(self, rng):
        # random complete dual family: columns of a random dual unitary
        big = random_dc_unitary(6, rng)
        fam = [dilation_block(big, m, 2) for m in range(3)]
        u = stinespring(fam)
        assert OperatorKind.UNITARY in classify_op(u, atol=1e-9)
        for m, ref in enumerate(fam):
            blk = dilation_block(u, m, 2)
            assert np.abs(blk.sig - ref.sig).max() < 1e-10
            assert np.abs(blk.inf - ref.inf).max() < 1e-10

    def test_block_action_on_states(self, rng):
        big = random_dc_unitary(4, rng)
        fam = [dilation_block(big, m, 2) for m in range(2)]
        u = stinespring(fam)
        psi = DCVector(np.array([0.6, 0.8], dtype=complex))
        lifted = u @ DCVector(np.kron([1, 0], psi.sig))
        for m, ref in enumerate(fam):
            want = ref @ psi
            assert np.abs(lifted.sig[2 * m : 2 * m + 2] - want.sig).max() < 1e-10
            assert np.abs(lifted.inf[2 * m : 2 * m + 2] - want.inf).max() < 1e-10

    def test_incomplete_family_rejected(self, rng):
        m0 = DCMatrix(0.9 * np.eye(2))
        with pytest.raises(IncompleteFamily):
            stinespring([m0])

    def test_completeness_iff_isometry(self, rng):
        # perturbing a complete family must break the isometry property too
        big = random_dc_unitary(4, rng)
        fam = [dilation_block(big, m, 2) for m in range(2)]
        bad = [DCMatrix(fam[0].sig * 1.01, fam[0].inf), fam[1]]
        with pytest.raises(IncompleteFamily):
            stinespring(bad)


class TestStinespringClosedForm:
    def test_unitary_to_first_order_at_kd_128(self, rng):
        big = random_dc_unitary(128, rng)
        fam = [dilation_block(big, m, 64) for m in range(2)]
        u = stinespring(fam)
        prod = u.adjoint() @ u
        assert np.abs(prod.sig - np.eye(128)).max() < 1e-12
        assert np.abs(prod.inf).max() < 1e-12
        v0 = np.concatenate([m.sig for m in fam])
        v1 = np.concatenate([m.inf for m in fam])
        assert np.array_equal(u.sig[:, :64], v0) and np.array_equal(u.inf[:, :64], v1)

    def test_completion_gauge(self, rng):
        big = random_dc_unitary(6, rng)
        u = stinespring([dilation_block(big, m, 2) for m in range(3)])
        w0, w1 = u.sig[:, 2:], u.inf[:, 2:]
        lead = w0[np.abs(w0).argmax(axis=0), np.arange(4)]
        assert np.abs(lead.imag).max() < 1e-15 and np.all(lead.real > 0)
        assert np.abs(w1 + u.sig[:, :2] @ (u.inf[:, :2].conj().T @ w0)).max() < 1e-15


class TestClusterIds:
    @staticmethod
    def partition(values, delta):
        ids = _cluster_ids(np.asarray(values), delta)
        return {frozenset(np.flatnonzero(ids == c)) for c in set(ids.tolist())}

    def test_chain_is_one_cluster_in_any_order(self):
        assert self.partition([0, 1.5e-8, 0.8e-8], 1e-8) == {frozenset({0, 1, 2})}

    def test_unit_circle_wraps_around(self):
        lam = np.exp(1j * np.array([np.pi - 3e-9, 0.5, -np.pi + 3e-9, -np.pi + 1.1e-8]))
        assert self.partition(lam, 1e-8) == {frozenset({0, 2, 3}), frozenset({1})}

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=12), st.randoms(),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_membership_does_not_depend_on_order(self, grid, random, circle):
        # grid steps of 0.6 delta: chains, ties and gaps all occur
        values = np.array(grid) * 0.6e-8
        if circle:
            values = np.exp(1j * (np.pi + values))  # clusters straddle the -pi cut
        perm = list(range(len(values)))
        random.shuffle(perm)
        want = self.partition(values, 1e-8)
        got = {frozenset(perm[i] for i in c) for c in self.partition(values[perm], 1e-8)}
        assert got == want
