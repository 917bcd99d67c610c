"""Dirac walk: gate, stepping, continuum limit, Lorentz covariance."""

import hashlib
import math

import numpy as np
import pytest

from dcquantum.errors import PatchMismatch
from dcquantum.linalg import OperatorKind, classify_op, decompose_unitary
from dcquantum.scalar import DualComplex
from dcquantum.walk import (
    CovarianceReport,
    WalkState,
    continuum_residual,
    corrected_gate,
    covariance_check,
    dirac_gate,
    dirac_plane_wave,
    lorentz_encodings,
    point_source,
    run,
    step,
    walk_vs_continuum_error,
)
from dcquantum.linalg import DCVector
from dcquantum.cli import main


class TestGate:
    def test_entries(self):
        g = dirac_gate(0.5)
        assert np.allclose(g.sig, [[0, 1], [1, 0]])
        assert np.allclose(g.inf, -0.5j * np.eye(2))

    def test_is_dual_unitary(self):
        assert OperatorKind.UNITARY in classify_op(dirac_gate(1.7))

    def test_generator_is_mass_coupling(self):
        m = 1.1
        _, h = decompose_unitary(dirac_gate(m))
        assert np.allclose(h, [[0, -m], [-m, 0]])

    def test_corrected_gate_closed_form(self):
        m, h = 0.8, 0.3
        g = corrected_gate(m, h)
        c, s = math.cos(m * h), math.sin(m * h)
        assert np.allclose(g, [[-1j * s, c], [c, -1j * s]])
        assert np.allclose(g @ g.conj().T, np.eye(2))

    def test_corrected_gate_tends_to_dual_gate(self):
        m, h = 0.8, 1e-6
        g_eps = dirac_gate(m)
        approx = g_eps.sig + h * g_eps.inf
        assert np.abs(corrected_gate(m, h) - approx).max() < 1e-11


class TestStep:
    def test_massless_pure_shift(self):
        w = point_source(8, x0=3)
        w2 = step(w, 0.0)
        assert np.allclose(w2.plus.sig, np.eye(8)[4])
        assert np.abs(w2.plus.inf).max() == 0
        assert np.abs(w2.minus.sig).max() == 0

    def test_single_right_mover_first_step(self):
        m = 0.9
        w = step(point_source(8, x0=3), m)
        # psi+ rides to x0+1; an infinitesimal left-mover -im eps appears at x0-1
        assert w.plus.sig[4] == 1.0
        assert w.minus.inf[2] == -1j * m
        assert np.count_nonzero(w.plus.sig) == 1
        assert np.count_nonzero(w.minus.inf) == 1

    def test_wraparound(self):
        w = step(point_source(4, x0=3), 0.0)
        assert w.plus.sig[0] == 1.0

    def test_norm_conserved_over_many_steps(self):
        plus = np.exp(2j * np.pi * np.arange(16) / 16) / np.sqrt(32)
        minus = np.exp(-2j * np.pi * np.arange(16) / 16) / np.sqrt(32)
        w = WalkState(DCVector(plus), DCVector(minus))
        for _ in range(100):
            w = step(w, 1.3)
        n = w.total_norm()
        assert abs(n.sig - 1.0) < 1e-12 and abs(n.inf) < 1e-12

    def test_run_snapshots(self):
        snaps = run(point_source(8), 0.5, steps=6, record_every=2)
        assert [s.time for s in snaps] == [0, 2, 4, 6]
        snaps = run(point_source(8), 0.5, steps=5, record_every=2)
        assert [s.time for s in snaps] == [0, 2, 4, 5]

    @pytest.mark.parametrize("sites", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("m", [0.9, -1.3])
    def test_bit_identical_to_roll_recurrence(self, sites, m, rng):
        """The plain np.roll recurrence the kernel replaces, kept as the
        reference: every step must agree to the bit, signed zeros
        included."""
        pool = np.array([0.0, -0.0, 1.5, -0.7, 5e-324])

        def field():
            z = np.empty(sites, dtype=complex)
            for part in (z.real, z.imag):
                part[:] = np.where(rng.random(sites) < 0.5, rng.choice(pool, sites),
                                   rng.standard_normal(sites))
            return z

        ps, pi, ms, mi = (field() for _ in range(4))
        w = WalkState(DCVector(ps, pi), DCVector(ms, mi))
        for n in range(1, 121):
            w = step(w, m)
            ps, pi, ms, mi = (np.roll(ps, 1), np.roll(pi - 1j * m * ms, 1),
                              np.roll(ms, -1), np.roll(mi - 1j * m * ps, -1))
            assert w.time == n
            for got, want in zip((w.plus.sig, w.plus.inf, w.minus.sig, w.minus.inf),
                                 (ps, pi, ms, mi)):
                assert got.tobytes() == want.tobytes()

    def test_snapshots_read_only_and_disjoint(self):
        snaps = run(point_source(8), 0.7, steps=5)
        parts = [a for s in snaps for a in (s.plus.sig, s.plus.inf,
                                            s.minus.sig, s.minus.inf)]
        assert not any(a.flags.writeable for a in parts)
        with pytest.raises(ValueError):
            snaps[-1].minus.inf[0] = 1.0
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_mismatched_fields_rejected(self):
        with pytest.raises(PatchMismatch):
            WalkState(DCVector(np.zeros(3)), DCVector(np.zeros(4)))


class TestContinuumResidual:
    def test_plane_wave_residual_is_second_order(self):
        k, m = 1.0, 1.0
        psip, psim, omega = dirac_plane_wave(k, m)
        assert omega == pytest.approx(math.sqrt(k * k + m * m))

        def worst(h):
            rp, rm = continuum_residual(psip, psim, m, x=0.3, t=0.2, h=h)
            return max(abs(rp), abs(rm))

        ratio = worst(1e-3) / worst(5e-4)
        assert 3.5 < ratio < 4.5

    def test_massless_plane_wave_is_exact(self):
        psip, psim, _ = dirac_plane_wave(1.0, 0.0)
        rp, rm = continuum_residual(psip, psim, 0.0, x=0.7, t=0.1, h=0.05)
        assert abs(rp) < 1e-14 and abs(rm) < 1e-14

    def test_constant_spinor_residual(self):
        # x-independent functions probe only the mass rotation: the residual
        # per row is |e^{-imh} - (cos mh - i sin mh)| = 0 for the symmetric
        # spinor, checked against the exact solution of d_t psi = -im sigma1 psi
        m, h = 1.0, 0.05
        psip = lambda x, t: np.exp(-1j * m * t) / np.sqrt(2)
        psim = lambda x, t: np.exp(-1j * m * t) / np.sqrt(2)
        rp, rm = continuum_residual(psip, psim, m, x=0.0, t=0.0, h=h)
        assert abs(rp) < 1e-14 and abs(rm) < 1e-14

    def test_non_solution_residual_is_first_order(self):
        psip = lambda x, t: np.exp(1j * x)
        psim = lambda x, t: 0.0 * x

        def worst(h):
            rp, rm = continuum_residual(psip, psim, 1.0, x=0.0, t=0.0, h=h)
            return max(abs(rp), abs(rm))

        ratio = worst(1e-3) / worst(5e-4)
        assert 1.7 < ratio < 2.3


class TestWalkConvergence:
    def test_first_order_in_h(self):
        errs = [walk_vs_continuum_error(n)[0] for n in (128, 256, 512)]
        for big, small in zip(errs, errs[1:]):
            assert 1.6 < big / small < 2.4

    def test_error_is_small_at_fine_resolution(self):
        err, h, t_end = walk_vs_continuum_error(1024)
        assert err < 0.02
        assert t_end == pytest.approx(1.0, abs=h)


class TestLorentz:
    def test_encoding_columns(self):
        p = lorentz_encodings(4, 9, m=2.0)
        assert np.allclose(p.e_alpha.sig, 0.5)
        assert np.allclose(p.e_beta.sig, 1.0 / 3.0)
        assert p.m_prime == pytest.approx(2.0 / 6.0)

    def test_invalid_patch(self):
        with pytest.raises(PatchMismatch):
            lorentz_encodings(0, 2)

    def test_trivial_patch(self):
        p = lorentz_encodings(1, 1)
        rep = covariance_check(p, (DualComplex(0.3 + 0.1j), DualComplex(-0.2)))
        assert rep.max_discrepancy < 1e-15 and rep.passed

    def test_dual_exact_patch(self):
        p = lorentz_encodings(2, 3)
        inputs = (DualComplex(0.4 - 0.2j, 0.1), DualComplex(0.3j, -0.5))
        rep = covariance_check(p, inputs)
        assert rep.mode == "dual_exact"
        assert rep.max_discrepancy < 1e-12
        assert rep.passed

    def test_dual_exact_many_patches(self, rng):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                p = lorentz_encodings(alpha, beta, m=0.7)
                inputs = (
                    DualComplex(complex(*rng.standard_normal(2)),
                                complex(*rng.standard_normal(2))),
                    DualComplex(complex(*rng.standard_normal(2)),
                                complex(*rng.standard_normal(2))),
                )
                rep = covariance_check(p, inputs)
                assert rep.max_discrepancy < 1e-12

    def test_corrected_mode_second_order(self):
        p = lorentz_encodings(2, 2)
        inputs = (DualComplex(0.5, 0.2), DualComplex(0.3 - 0.1j, 0.0))
        rep = covariance_check(p, inputs, mode="corrected", h=1e-2)
        assert rep.mode == "corrected"
        assert rep.fitted_order == pytest.approx(2.0, abs=0.2)
        assert rep.passed

    @pytest.mark.parametrize("h", [1e-9, 1e-6])
    def test_corrected_mode_below_fit_floor_fails(self, h):
        # D(h) is rounding noise (5.6e-17 and 1.1e-13) too small to fit an
        # order: such a run shows nothing, so it once passed vacuously
        p = lorentz_encodings(2, 3)
        rep = covariance_check(p, (DualComplex(0.6, 0.1), DualComplex(0.3j)),
                               mode="corrected", h=h)
        assert rep.fitted_order is None and rep.max_discrepancy > 0.0
        assert not rep.passed

    def test_corrected_mode_massless_patch_is_exact(self):
        p = lorentz_encodings(2, 3, m=0.0)
        rep = covariance_check(p, (DualComplex(0.6, 0.1), DualComplex(0.3j)),
                               mode="corrected", h=1e-2)
        assert rep.max_discrepancy == 0.0 and rep.fitted_order is None
        assert rep.passed

    def test_unknown_mode(self):
        p = lorentz_encodings(1, 2)
        with pytest.raises(ValueError):
            covariance_check(p, (DualComplex(1), DualComplex(0)), mode="nope")

    @pytest.mark.parametrize("h", [0.0, -1e-2, math.nan, math.inf])
    def test_corrected_mode_rejects_bad_h(self, h):
        p = lorentz_encodings(2, 2)
        with pytest.raises(ValueError, match="finite h > 0"):
            covariance_check(p, (DualComplex(0.5), DualComplex(0.3)), mode="corrected", h=h)

    @pytest.mark.parametrize("mode, mass", [("dual_exact", math.nan), ("dual_exact", math.inf),
                                            ("corrected", math.nan)])
    def test_non_finite_discrepancy_fails(self, mode, mass):
        # a NaN eps-part once dropped out of the reduction, so the check
        # reported 0.0 and passed
        p = lorentz_encodings(2, 3, m=mass)
        rep = covariance_check(p, (DualComplex(0.6, 0.1), DualComplex(0.3j)), mode=mode)
        assert math.isnan(rep.max_discrepancy)
        assert not rep.passed

    def test_wire_values_single_left_mover(self):
        # one left-moving unit amplitude through a 1 x 3 patch: each output
        # right wire keeps a_i plus an infinitesimal -i m' psi-/sqrt(3)
        p = lorentz_encodings(1, 3, m=1.0)
        psim = DualComplex(1.0)
        rep = covariance_check(p, (DualComplex(0), psim))
        assert rep.max_discrepancy < 1e-12


# ---------------------------------------------------------------------------
# Reference implementations: the per-formula loops that the walk module
# folded into one gate application and one covariance routine.  The
# folded code must reproduce them to the bit.
# ---------------------------------------------------------------------------


def _reference_continuum_residual(psip, psim, m, x, t, h):
    g = corrected_gate(m, h)
    pred_minus = g[0, 0] * psip(x, t) + g[0, 1] * psim(x, t)
    pred_plus = g[1, 0] * psip(x, t) + g[1, 1] * psim(x, t)
    return psip(x + h, t + h) - pred_plus, psim(x - h, t + h) - pred_minus


def _reference_walk_error(sites, k, m, length=2.0 * math.pi, t_final=1.0):
    h = length / sites
    steps = max(1, round(t_final / h))
    t_end = steps * h
    psip, psim, _ = dirac_plane_wave(k, m)
    x = np.arange(sites) * h
    plus, minus = psip(x, 0.0), psim(x, 0.0)
    norm0 = math.sqrt(float(np.vdot(plus, plus).real + np.vdot(minus, minus).real))
    plus, minus = plus / norm0, minus / norm0
    g = corrected_gate(m, h)
    for _ in range(steps):
        new_minus = np.roll(g[0, 0] * plus + g[0, 1] * minus, -1)
        new_plus = np.roll(g[1, 0] * plus + g[1, 1] * minus, 1)
        plus, minus = new_plus, new_minus
    ref_plus, ref_minus = psip(x, t_end) / norm0, psim(x, t_end) / norm0
    err = math.sqrt(float(np.vdot(plus - ref_plus, plus - ref_plus).real)
                    + float(np.vdot(minus - ref_minus, minus - ref_minus).real))
    return err, h, t_end


def _reference_patch_outputs(patch, g_prime, g, psip, psim):
    """Wire outputs of the gate grid and of one gate then the encodings,
    with g_prime and g nested [row][col] entry lists."""
    a, b = patch.alpha, patch.beta
    sa, sb = 1.0 / math.sqrt(a), 1.0 / math.sqrt(b)
    rights, lefts = [psip * sa] * a, [psim * sb] * b
    for wave in range(a + b - 1):
        for i in range(a):
            j = wave - i
            if 0 <= j < b:
                r, l = rights[i], lefts[j]
                lefts[j] = g_prime[0][0] * r + g_prime[0][1] * l
                rights[i] = g_prime[1][0] * r + g_prime[1][1] * l
    out_minus = g[0][0] * psip + g[0][1] * psim
    out_plus = g[1][0] * psip + g[1][1] * psim
    return [w - out_plus * sa for w in rights] + [w - out_minus * sb for w in lefts]


def _reference_dual_discrepancy(patch, psip, psim):
    def entries(m):
        gate = dirac_gate(m)
        return [[gate[0, 0], gate[0, 1]], [gate[1, 0], gate[1, 1]]]

    diffs = _reference_patch_outputs(patch, entries(patch.m_prime), entries(patch.m),
                                     psip, psim)
    return max(max(abs(d.sig), abs(d.inf)) for d in diffs)


def _reference_corrected_report(patch, psip, psim, h):
    """The complex-amplitude twin: plain complex inputs at eps = hh and
    numpy gate entries, with the order fit over {h, h/2, h/4}."""
    def at(hh):
        g_prime, g = corrected_gate(patch.m_prime, hh), corrected_gate(patch.m, hh)
        diffs = _reference_patch_outputs(patch, g_prime, g, psip.sig + hh * psip.inf,
                                         psim.sig + hh * psim.inf)
        return max(abs(d) for d in diffs)

    ds = [at(h), at(h / 2.0), at(h / 4.0)]
    order = None
    if min(ds) > 1e-14:
        order = float(np.mean([math.log2(ds[0] / ds[1]), math.log2(ds[1] / ds[2])]))
    return ds[0], order


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestFoldedPathsBitIdentical:
    @pytest.mark.parametrize("sites, k, m", [(64, 1.0, 1.0), (128, 2.0, 0.5),
                                             (100, 3.0, 0.0), (256, 1.0, -0.7)])
    def test_walk_vs_continuum_error(self, sites, k, m):
        got = walk_vs_continuum_error(sites, k=k, m=m)
        want = _reference_walk_error(sites, k, m)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_continuum_residual(self, h):
        psip, psim, _ = dirac_plane_wave(1.0, 0.8)
        for x in (0.3, np.linspace(-1.0, 2.0, 9)):
            got = continuum_residual(psip, psim, 0.8, x=x, t=0.2, h=h)
            want = _reference_continuum_residual(psip, psim, 0.8, x=x, t=0.2, h=h)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 3), (8, 8)])
    def test_covariance_both_modes(self, alpha, beta, rng):
        patch = lorentz_encodings(alpha, beta, m=0.9)
        for _ in range(3):
            v = rng.standard_normal(8)
            psip = DualComplex(complex(v[0], v[1]), complex(v[2], v[3]))
            psim = DualComplex(complex(v[4], v[5]), complex(v[6], v[7]))
            dual = covariance_check(patch, (psip, psim))
            assert _bits(dual.max_discrepancy) == _bits(
                _reference_dual_discrepancy(patch, psip, psim))
            corrected = covariance_check(patch, (psip, psim), mode="corrected", h=1e-2)
            d, order = _reference_corrected_report(patch, psip, psim, 1e-2)
            assert _bits(corrected.max_discrepancy) == _bits(d)
            assert corrected.fitted_order == order
            if alpha * beta > 1:
                assert order is not None


# The README example; the same bytes since the walk kernel and the CSV
# writer were first rewritten.
README_WALK_SHA256 = "0b3691964b0edca23f2b079cdfecdb4256a2e950850c305af5c63462fdf26c56"


def test_readme_walk_csv_is_golden(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["walk", "--mass", "0.5", "--sites", "256", "--steps", "200",
                 "--record-every", "10", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_WALK_SHA256
    assert capsys.readouterr().out == "final dual norm: 1.0 + (0.0)eps\n"
