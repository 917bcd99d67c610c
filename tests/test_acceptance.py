"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import time

import numpy as np
import scipy.linalg

from conftest import (
    mat_exp_series,
    random_complex_hermitian,
    random_dc_unitary,
    random_dc_vector,
)
from dcquantum.linalg import (
    DCMatrix,
    DCVector,
    OperatorKind,
    classify_op,
    dilation_block,
    eig_unitary,
    inner,
    log_unitary,
    mat_exp,
)
from dcquantum.quantum import (
    Measurement,
    QuantumState,
    complex_correct_measurement,
    complex_correct_unitary,
    dilation_blocks,
    evolve,
    measure,
    normalize,
    tensor,
)
from dcquantum.scalar import DualComplex, DualReal, div, exp_s, log_s, nth_root, pow_int
from dcquantum.walk import (
    covariance_check,
    dirac_gate,
    lorentz_encodings,
    walk_vs_continuum_error,
)

SEED = 987654321


def report(criterion: int, description: str, ok: bool):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def rand_dc(rng, scale=3.0):
    return DualComplex(
        complex(*(scale * rng.standard_normal(2))),
        complex(*(scale * rng.standard_normal(2))),
    )


def test_criterion_1_scalar_property_suite():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    ok = True
    for _ in range(10_000):
        a, b, c = rand_dc(rng), rand_dc(rng), rand_dc(rng)
        # ring axioms
        lhs, rhs = (a * b) * c, a * (b * c)
        ok &= abs(lhs.sig - rhs.sig) <= 1e-8 and abs(lhs.inf - rhs.inf) <= 1e-8
        lhs, rhs = a * (b + c), a * b + a * c
        ok &= abs(lhs.sig - rhs.sig) <= 1e-8 and abs(lhs.inf - rhs.inf) <= 1e-8
        # nilpotency, bit-exact
        n = DualComplex(0, a.inf) * DualComplex(0, b.inf)
        ok &= n.sig == 0 and n.inf == 0
        # div/mul round trip (appreciable divisor)
        if abs(b.sig) > 1e-6:
            back = div(a * b, b)
            ok &= abs(back.sig - a.sig) <= 1e-7 and abs(back.inf - a.inf) <= 1e-7
        # root/pow round trip on a random branch
        if abs(a.sig) > 1e-6:
            deg = int(rng.integers(2, 5))
            back = pow_int(nth_root(a, deg, int(rng.integers(0, deg))), deg)
            ok &= abs(back.sig - a.sig) <= 1e-7 * max(1.0, abs(a.sig))
            ok &= abs(back.inf - a.inf) <= 1e-6 * max(1.0, abs(a.inf))
        # derivative parts vs central finite differences, 1e-5 relative
        z = complex(*rng.uniform(0.3, 1.5, size=2))
        step = 1e-6
        for f, fs in ((np.exp, exp_s), (np.log, log_s)):
            got = fs(DualComplex(z, 1)).inf
            fd = (f(z + step) - f(z - step)) / (2 * step)
            ok &= abs(got - fd) <= 1e-5 * max(1.0, abs(fd))
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(1, f"scalar property suite, 10^4 cases in {elapsed:.2f}s", ok)


def test_criterion_2_order_laws():
    rng = np.random.default_rng(SEED + 1)
    zero = DualReal(0.0, 0.0)

    def rand_dr():
        # dyadic rationals keep +, * exact in binary floating point
        s, i = rng.integers(-1024, 1025, size=2)
        return DualReal(float(s) / 64.0, float(i) / 64.0)

    ok = True
    for _ in range(10_000):
        a, b, c = rand_dr(), rand_dr(), rand_dr()
        if a <= b:
            ok &= (a + c) <= (b + c)
        if zero <= a and zero <= b:
            ok &= zero <= a * b
        ok &= (a <= b) or (b <= a)
        if not ok:
            break
    report(2, "total ring order laws, 10^4 exact triples", ok)


def test_criterion_3_unitary_spectral_suite():
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    ok = True
    for case in range(200):
        degenerate = case % 2 == 1
        dim = int(rng.integers(4, 9)) if degenerate else int(rng.integers(2, 9))
        u_eps = random_dc_unitary(dim, rng, degenerate=degenerate)

        spec = eig_unitary(u_eps)
        rec = spec.reconstruct()
        ok &= np.abs(rec.sig - u_eps.sig).max() <= 1e-8
        ok &= np.abs(rec.inf - u_eps.inf).max() <= 1e-8
        for j in range(dim):
            for k in range(dim):
                ov = inner(spec.vector(j), spec.vector(k))
                want = 1.0 if j == k else 0.0
                ok &= abs(ov.sig - want) <= 1e-9 and abs(ov.inf) <= 1e-9

        l = log_unitary(u_eps)
        ok &= OperatorKind.ANTI_HERMITIAN in classify_op(l, atol=1e-9)
        back = mat_exp(l)
        ok &= np.abs(back.sig - u_eps.sig).max() <= 1e-8
        ok &= np.abs(back.inf - u_eps.inf).max() <= 1e-8
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(3, f"spectral suite, 200 dual unitaries in {elapsed:.1f}s", ok)


def test_criterion_4_mat_exp_oracle():
    rng = np.random.default_rng(SEED + 3)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        norm = np.linalg.norm(a, 2)
        if norm > 2.0:
            a *= 2.0 / norm
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = DCMatrix(a, b)
        e_block, e_series = mat_exp(m), mat_exp_series(m, terms=30)
        ok &= np.abs(e_block.sig - e_series.sig).max() <= 1e-8
        ok &= np.abs(e_block.inf - e_series.inf).max() <= 1e-8
        if not ok:
            break
    report(4, "mat_exp dual Taylor series vs truncated double series, 100 cases", ok)


def test_criterion_5_postulate_fuzz():
    rng = np.random.default_rng(SEED + 4)
    ok = True

    def norm_ok(s: QuantumState) -> bool:
        from dcquantum.linalg import vnorm

        n = vnorm(s.vec)
        return abs(n.sig - 1.0) <= 1e-9 and abs(n.inf) <= 1e-9

    for _ in range(500):
        dim = int(rng.integers(2, 4))
        state = normalize(random_dc_vector(dim, rng))
        for _ in range(int(rng.integers(2, 6))):
            op = rng.integers(0, 3)
            if op == 0:  # unitary evolution
                state = evolve(state, random_dc_unitary(state.dim, rng))
            elif op == 1:  # measurement with collapse
                k = int(rng.integers(2, 4))
                fam = Measurement(
                    tuple(dilation_blocks(random_dc_unitary(state.dim * k, rng), k))
                )
                outcomes = measure(state, fam)
                total_sig = sum(o.probability.sig for o in outcomes)
                total_inf = sum(o.probability.inf for o in outcomes)
                ok &= abs(total_sig - 1.0) <= 1e-9 and abs(total_inf) <= 1e-9
                live = [o for o in outcomes if not o.zero_branch]
                state = live[int(rng.integers(0, len(live)))].post
            elif state.dim <= 4:  # tensor with a fresh subsystem
                state = tensor(state, normalize(random_dc_vector(2, rng)))
            ok &= norm_ok(state)
            if not ok:
                break
        if not ok:
            break
    report(5, "postulate consistency fuzz, 500 random programs", ok)


# the worked 2-outcome measurement: M_0 = |0><0|, M_1 = |0><1| with
# infinitesimal parts N_0 = i pi |0><0|, N_1 = i pi (|1><0|/sqrt3 + |0><1|
# - 2 |1><1|/sqrt6); its SWAP-gauge dilation is U = ancilla swap with
# generator H below, and the corrected blocks have closed forms in
# z = e^{i pi h}
M0 = np.array([[1, 0], [0, 0]], dtype=complex)
M1 = np.array([[0, 1], [0, 0]], dtype=complex)
N0 = 1j * np.pi * M0
N1 = 1j * np.pi * np.array(
    [[0, 1], [1 / np.sqrt(3), -2 / np.sqrt(6)]], dtype=complex
)
U_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
H_SWAP = np.pi * np.array(
    [
        [1, 0, 0, 1 / np.sqrt(3)],
        [0, 1, 0, 0],
        [0, 0, 1, -2 / np.sqrt(6)],
        [1 / np.sqrt(3), 0, -2 / np.sqrt(6), 1],
    ],
    dtype=complex,
)


def corrected_blocks_closed_form(h: float):
    z = np.exp(1j * np.pi * h)
    c, s = np.cos(np.pi * h), np.sin(np.pi * h)
    m0 = np.array(
        [[z * (c + 2) / 3, np.sqrt(2) * z * (1 - c) / 3], [0, 0]]
    )
    m1 = np.array(
        [
            [np.sqrt(2) * z * (1 - c) / 3, z * (2 * c + 1) / 3],
            [1j * np.sqrt(3) * z * s / 3, -1j * np.sqrt(6) * z * s / 3],
        ]
    )
    return m0, m1


def test_criterion_6_worked_measurement_correction():
    meas = Measurement((DCMatrix(M0, N0), DCMatrix(M1, N1)))
    dilation = DCMatrix(U_SWAP, 1j * H_SWAP @ U_SWAP)

    ok = True
    # the dilation realizes the dual measurement blockwise
    for m, op in enumerate(meas.operators):
        blk = dilation_block(dilation, m, 2)
        ok &= np.abs(blk.sig - op.sig).max() <= 1e-12
        ok &= np.abs(blk.inf - op.inf).max() <= 1e-12

    worst = 0.0
    for h in (0.05, 0.1, 0.3):
        got = complex_correct_measurement(meas, h, dilation=dilation)
        for g, w in zip(got, corrected_blocks_closed_form(h)):
            worst = max(worst, float(np.abs(g - w).max()))
    ok &= worst <= 1e-9
    report(6, f"worked measurement correction, worst entry error {worst:.2e}", ok)


def test_criterion_7_correction_order():
    rng = np.random.default_rng(SEED + 6)
    hs = (1e-2, 5e-3, 2.5e-3)
    ok = True

    targets = [dirac_gate(1.0)] + [random_dc_unitary(3, rng) for _ in range(2)]
    for u_eps in targets:
        errs = [
            float(np.abs((u_eps.sig + h * u_eps.inf)
                         - complex_correct_unitary(u_eps, h)).max())
            for h in hs
        ]
        for big, small in zip(errs, errs[1:]):
            ok &= 3.3 <= big / small <= 4.7

    # measurement probabilities: dual prediction p.sig + h p.inf versus the
    # probabilities of the corrected conventional measurement
    meas = Measurement((DCMatrix(M0, N0), DCMatrix(M1, N1)))
    dilation = DCMatrix(U_SWAP, 1j * H_SWAP @ U_SWAP)
    psi = QuantumState(DCVector(np.array([0.6, 0.8j])))
    duals = [o.probability for o in measure(psi, meas)]

    def perr(h: float) -> float:
        worst = 0.0
        blocks = complex_correct_measurement(meas, h, dilation=dilation)
        for p, blk in zip(duals, blocks):
            phi = blk @ psi.vec.sig
            worst = max(worst, abs(float(np.vdot(phi, phi).real)
                                   - (p.sig + h * p.inf)))
        return worst

    perrs = [perr(h) for h in hs]
    for big, small in zip(perrs, perrs[1:]):
        ok &= 3.3 <= big / small <= 4.7
    report(7, "extension/correction second-order agreement ratios in [3.3, 4.7]", ok)


def test_criterion_8_walk_continuum_limit():
    t0 = time.perf_counter()
    errs = [walk_vs_continuum_error(n, k=1.0, m=1.0)[0]
            for n in (256, 512, 1024, 2048)]
    ratios = [big / small for big, small in zip(errs, errs[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(1.6 <= r <= 2.4 for r in ratios) and elapsed < 120.0
    report(8, f"walk first-order continuum convergence, ratios "
              f"{[round(r, 3) for r in ratios]} in {elapsed:.1f}s", ok)


def test_criterion_9_lorentz_covariance():
    rng = np.random.default_rng(SEED + 8)
    ok = True
    worst = 0.0
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            patch = lorentz_encodings(alpha, beta, m=1.0)
            for _ in range(50):
                amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                amp[:2] /= np.linalg.norm(amp[:2])
                inputs = (DualComplex(amp[0], amp[2]), DualComplex(amp[1], amp[3]))
                rep = covariance_check(patch, inputs)
                worst = max(worst, rep.max_discrepancy)
    ok &= worst < 1e-12

    orders = []
    for alpha, beta in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3)):
        patch = lorentz_encodings(alpha, beta, m=1.0)
        rep = covariance_check(
            patch, (DualComplex(0.6, 0.1), DualComplex(0.8j, -0.2)),
            mode="corrected", h=1e-2,
        )
        orders.append(rep.fitted_order)
        ok &= 1.8 <= rep.fitted_order <= 2.2
    report(9, f"covariance: dual-exact worst {worst:.2e}, corrected orders "
              f"{[round(p, 3) for p in orders]}", ok)
