"""Dirac quantum walk over dual-complex amplitudes.

One step applies the 2x2 gate [[-im*eps, 1], [1, -im*eps]] at every
site and routes the outputs one site left (minus component) and right
(plus component), with periodic wraparound.  Over the dual-complex ring
this object *is* the 1+1D Dirac equation: the infinitesimal parts carry
the first-order space-time variation, so the continuum limit needs no
separate discretization analysis.

The Lorentz-covariance checker works on a single alpha x beta lightlike
patch of gates, comparing encode-then-evolve against evolve-then-encode
wire by wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PatchMismatch
from .linalg import DCMatrix, DCVector, norm_sq
from .scalar import DualComplex, DualReal


def dirac_gate(m: float) -> DCMatrix:
    """The walk gate: sig = sigma_x, inf = -i m I; dual-complex unitary."""
    sig = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    inf = np.array([[-1j * m, 0.0], [0.0, -1j * m]], dtype=complex)
    return DCMatrix(sig, inf)


def corrected_gate(m: float, h: float) -> np.ndarray:
    """The conventional walk gate exp(ihH) sigma_x =
    [[-i sin(mh), cos(mh)], [cos(mh), -i sin(mh)]]."""
    c, s = math.cos(m * h), math.sin(m * h)
    return np.array([[-1j * s, c], [c, -1j * s]], dtype=complex)


@dataclass(frozen=True)
class WalkState:
    """Two-component amplitude field psi+/psi- on a periodic lattice."""

    plus: DCVector
    minus: DCVector
    time: int = 0

    def __post_init__(self):
        if self.plus.dim != self.minus.dim:
            raise PatchMismatch("psi+ and psi- fields must have equal length")

    @property
    def sites(self) -> int:
        return self.plus.dim

    def total_norm(self) -> DualReal:
        """Sum_x |psi+|^2 + |psi-|^2 as a dual real."""
        return norm_sq(self.plus) + norm_sq(self.minus)


def point_source(sites: int, x0: Optional[int] = None) -> WalkState:
    """Single right-mover at x0 (default: center site)."""
    x0 = sites // 2 if x0 is None else x0
    plus = np.zeros(sites, dtype=complex)
    plus[x0] = 1.0
    return WalkState(DCVector(plus), DCVector(np.zeros(sites, dtype=complex)))


# (destination, source) slice pairs of a periodic shift by one site.
_SHIFT_RIGHT = ((np.s_[1:], np.s_[:-1]), (np.s_[:1], np.s_[-1:]))
_SHIFT_LEFT = ((np.s_[:-1], np.s_[1:]), (np.s_[-1:], np.s_[:1]))


def _advance(sig_out, inf_out, own: DCVector, other_sig, coupling, shift) -> None:
    """One mover's update, written in place:
    sig_out = roll(own.sig), inf_out = roll(own.inf - coupling*other_sig)."""
    for dst, src in shift:
        sig_out[dst] = own.sig[src]
        inf = inf_out[dst]
        np.multiply(coupling, other_sig[src], out=inf)
        np.subtract(own.inf[src], inf, out=inf)


def step(w: WalkState, m: float) -> WalkState:
    """One walk step: at each site, (psi-_out at x-1, psi+_out at x+1) =
    gate . (psi+(x), psi-(x)), periodic.

    The four parts of the new state are computed straight into the rows
    of one fresh block, which the state then owns read-only, so
    snapshots never share buffers.  A step makes no temporaries: in a
    loop that drops old states the allocator reuses a freed block,
    whereas field-sized temporaries go back to the OS and are faulted in
    again on every step."""
    # gate rows: psi-_out = psi- - i m eps psi+ ; psi+_out = psi+ - i m eps psi-
    # evaluated as inf - (1j*m)*sig, elementwise, so every bit (signed
    # zeros included) is that of the plain np.roll recurrence
    coupling = 1j * m
    plus_sig, plus_inf, minus_sig, minus_inf = np.empty((4, w.sites), dtype=complex)
    _advance(plus_sig, plus_inf, w.plus, w.minus.sig, coupling, _SHIFT_RIGHT)
    _advance(minus_sig, minus_inf, w.minus, w.plus.sig, coupling, _SHIFT_LEFT)
    return WalkState(
        DCVector._owning(plus_sig, plus_inf),
        DCVector._owning(minus_sig, minus_inf),
        time=w.time + 1,
    )


def run(w: WalkState, m: float, steps: int, record_every: int = 1) -> list:
    """Iterate `step`, returning snapshots [initial, ...] at the given
    interval (the final state is always included)."""
    snaps = [w]
    for n in range(1, steps + 1):
        w = step(w, m)
        if n % record_every == 0 or n == steps:
            snaps.append(w)
    return snaps


# ---------------------------------------------------------------------------
# Continuum limit
# ---------------------------------------------------------------------------


def dirac_plane_wave(k: float, m: float, branch: int = 0):
    """Plane-wave solution psi(x,t) = u exp(i(kx - omega t)) of
    d_t psi = -sigma3 d_x psi - i m sigma1 psi.

    Returns (psip, psim, omega): the two callable components and the
    dispersion frequency omega = +-sqrt(k^2 + m^2) (branch 0/1).
    """
    ham = np.array([[k, m], [m, -k]], dtype=complex)  # k sigma3 + m sigma1
    evals, evecs = np.linalg.eigh(ham)
    idx = np.argmax(evals) if branch == 0 else np.argmin(evals)
    omega = float(evals[idx].real)
    u = evecs[:, idx]

    def psip(x, t):
        return u[0] * np.exp(1j * (k * x - omega * t))

    def psim(x, t):
        return u[1] * np.exp(1j * (k * x - omega * t))

    return psip, psim, omega


def _gate_apply(g, plus, minus):
    """One gate on a site's (psi+, psi-): returns (psi-_out, psi+_out).
    `g` is indexed g[row][col], and the amplitudes may be complex scalars,
    complex arrays or DualComplex numbers."""
    return g[0][0] * plus + g[0][1] * minus, g[1][0] * plus + g[1][1] * minus


def continuum_residual(
    psip: Callable, psim: Callable, m: float, x: float, t: float, h: float
):
    """Residuals of the two corrected-gate update rows on smooth test
    functions; O(h^2) per step when (psip, psim) solves the Dirac
    equation."""
    pred_minus, pred_plus = _gate_apply(corrected_gate(m, h), psip(x, t), psim(x, t))
    r_minus = psim(x - h, t + h) - pred_minus
    r_plus = psip(x + h, t + h) - pred_plus
    return r_plus, r_minus


def walk_vs_continuum_error(sites: int, k: float = 1.0, m: float = 1.0,
                            length: float = 2.0 * math.pi, t_final: float = 1.0):
    """Relative l2 error between the corrected conventional walk and the
    analytic plane-wave Dirac solution at physical time ~t_final; first
    order in the lattice spacing h.

    Returns (error, h, reached_time).  k*length must be a multiple of
    2*pi for the wave to fit the periodic lattice.
    """
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
        minus, plus = _gate_apply(g, plus, minus)
        minus, plus = np.roll(minus, -1), np.roll(plus, 1)
    ref_plus = psip(x, t_end) / norm0
    ref_minus = psim(x, t_end) / norm0
    err = math.sqrt(
        float(np.vdot(plus - ref_plus, plus - ref_plus).real)
        + float(np.vdot(minus - ref_minus, minus - ref_minus).real)
    )  # both fields have unit discrete norm, so this is the relative error
    return err, h, t_end


# ---------------------------------------------------------------------------
# Discrete Lorentz covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LorentzPatch:
    """alpha x beta lightlike patch with uniform-spreading encodings and
    rescaled mass m' = m / sqrt(alpha beta)."""

    alpha: int
    beta: int
    m: float
    m_prime: float
    e_alpha: DCMatrix
    e_beta: DCMatrix


def _uniform_encoding(n: int) -> DCMatrix:
    col = np.full((n, 1), 1.0 / math.sqrt(n), dtype=complex)
    return DCMatrix(col)


def lorentz_encodings(alpha: int, beta: int, m: float = 1.0) -> LorentzPatch:
    """Uniform-spreading isometries: one wire amplitude a goes to alpha
    (resp. beta) wires each carrying a/sqrt(alpha)."""
    if alpha < 1 or beta < 1:
        raise PatchMismatch("alpha and beta must be >= 1")
    return LorentzPatch(
        alpha=alpha,
        beta=beta,
        m=m,
        m_prime=m / math.sqrt(alpha * beta),
        e_alpha=_uniform_encoding(alpha),
        e_beta=_uniform_encoding(beta),
    )


@dataclass(frozen=True)
class CovarianceReport:
    """max_discrepancy is D(h) in dual_exact mode, and the largest of
    D(h), D(h/2), D(h/4) in corrected mode."""

    mode: str
    alpha: int
    beta: int
    max_discrepancy: float
    fitted_order: Optional[float] = None

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.max_discrepancy):
            return False
        if self.mode == "dual_exact":
            return self.max_discrepancy < 1e-12
        if self.fitted_order is None:  # too small to fit: only an exact 0 shows covariance
            return self.max_discrepancy == 0.0
        return 1.8 <= self.fitted_order <= 2.2


def _covariance_discrepancy(patch: LorentzPatch, gate: Callable, psip, psim, size) -> float:
    """Largest `size` of the wire differences between sending alpha
    right-movers across beta left-movers through the grid of gate(m') in
    causal wavefront order (gate (i, j) fires at time i + j) and one
    gate(m) followed by the encodings.  The amplitudes are DualComplex
    numbers or plain complex ones, as the gate entries are."""
    def entries(m: float) -> list:
        g = gate(m)
        return [[g[0, 0], g[0, 1]], [g[1, 0], g[1, 1]]]

    a, b = patch.alpha, patch.beta
    sa, sb = 1.0 / math.sqrt(a), 1.0 / math.sqrt(b)
    g = entries(patch.m_prime)
    rights = [psip * sa] * a
    lefts = [psim * sb] * b
    for wave in range(a + b - 1):
        for i in range(a):
            j = wave - i
            if 0 <= j < b:
                lefts[j], rights[i] = _gate_apply(g, rights[i], lefts[j])

    out_minus, out_plus = _gate_apply(entries(patch.m), psip, psim)
    diffs = [w - out_plus * sa for w in rights] + [w - out_minus * sb for w in lefts]
    return float(np.max([size(d) for d in diffs]))  # NaN propagates


def covariance_check(
    patch: LorentzPatch,
    inputs,
    mode: str = "dual_exact",
    h: float = 1e-2,
) -> CovarianceReport:
    """Circuit-equality check: encode-then-evolve the patch with mass m'
    versus evolve-one-gate with mass m then encode.

    dual_exact mode runs over DualComplex amplitudes and must agree to
    1e-12 on both components.  corrected mode runs the complex-corrected
    gates at parameter h (inputs evaluated at eps = h) and fits the
    order of the discrepancy D(h) ~ h^p over {h, h/2, h/4}; h must be
    finite and > 0 there, and it passes on an order in [1.8, 2.2], or
    when all three discrepancies are exactly 0.  A non-finite
    discrepancy fails in both modes.
    """
    psip, psim = inputs
    if not isinstance(psip, DualComplex):
        psip = DualComplex(psip)
    if not isinstance(psim, DualComplex):
        psim = DualComplex(psim)

    if mode == "dual_exact":
        d = _covariance_discrepancy(patch, dirac_gate, psip, psim,
                                    lambda w: (abs(w.sig), abs(w.inf)))
        return CovarianceReport("dual_exact", patch.alpha, patch.beta, d)

    if mode != "corrected":
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < h < math.inf:
        raise ValueError(f"corrected mode needs a finite h > 0, got {h!r}")

    def at(hh: float) -> float:  # plain complex amplitudes, the inputs at eps = hh
        return _covariance_discrepancy(patch, lambda m: corrected_gate(m, hh),
                                       psip.sig + hh * psip.inf, psim.sig + hh * psim.inf, abs)

    ds = [at(h), at(h / 2.0), at(h / 4.0)]
    order = None
    if min(ds) > 1e-14:
        ratios = [ds[0] / ds[1], ds[1] / ds[2]]
        order = float(np.mean([math.log2(r) for r in ratios]))
    return CovarianceReport("corrected", patch.alpha, patch.beta, float(np.max(ds)), order)
