"""Dirac quantum walk over dual-complex amplitudes.

One step applies the 2x2 gate [[-im*eps, 1], [1, -im*eps]] at every
site and routes the outputs one site left (minus component) and right
(plus component), with periodic wraparound.  Over the dual-complex ring
this object *is* the 1+1D Dirac equation: the infinitesimal parts carry
the first-order space-time variation, so the continuum limit needs no
separate discretization analysis.

The Lorentz-covariance checker compares encode-then-evolve against
evolve-then-encode on one alpha x beta lightlike patch of gates, wire by
wire, in one wavefront kernel on dual wire arrays for both of its modes.
Gates are indexed g[r, c], so a DCMatrix or a complex array serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
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
    [[-i sin(mh), cos(mh)], [cos(mh), -i sin(mh)]]; ValueError where
    m*h overflows a float."""
    if math.isinf(m * h):  # a NaN mass gives a NaN gate, which the checks report
        raise ValueError(f"mass {m!r} times step {h!r} overflows a float")
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
    parts = np.zeros((4, sites), dtype=complex)  # psi+ (sig, inf), psi- (sig, inf)
    parts[0, x0] = 1.0
    return WalkState(DCVector._owning(parts[0], parts[1]), DCVector._owning(parts[2], parts[3]))


def step(w: WalkState, m: float) -> WalkState:
    """One walk step: at each site, (psi-_out at x-1, psi+_out at x+1) =
    gate . (psi+(x), psi-(x)), periodic.  The one-step `run`."""
    return run(w, m, 1)[-1]


def run(w: WalkState, m: float, steps: int, record_every: int = 1) -> Trajectory:
    """The walk of `steps` steps from w, recorded every `record_every`
    steps and at the last: a Trajectory, walked in closed form each time
    it is iterated."""
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every!r}")
    return Trajectory(w, m, max(steps, 0), record_every)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The snapshots [initial, ...] of a walk, computed afresh on each
    iteration, so a consumer holds one snapshot at a time.  len() is the
    number of recorded times, and trajectory[i] walks once and keeps only
    snapshot i."""

    initial: WalkState
    m: float
    steps: int
    record_every: int

    def __len__(self) -> int:
        return 1 + self.steps // self.record_every + (self.steps % self.record_every != 0)

    def __getitem__(self, i: int) -> WalkState:
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"snapshot {i} of a trajectory of {n}")
        return next(islice(self, i % n, None))

    def __iter__(self):
        """Yield the initial state, then each recorded one.

        The gate's sig-part only routes, so each sig-part is the initial
        one carried t sites.  The mass acts at first order: step t
        subtracts (1j*m) * psi-.sig0[y + 2t - 2] from psi+.inf in its
        comoving frame y = x - t, and (1j*m) * psi+.sig0[y - 2t + 2] from
        psi-.inf in y = x + t.  Each mover's products are made once, and
        only their support is kept (`_support`): the span from the first
        to the last product whose bits are not those of +0+0j.  For a
        finite mass and an accumulator without a -0.0 a zero sig makes a
        product that changes nothing, so the products are formed only
        over sig0's arc (`_arc`); otherwise over the whole ring, as an
        infinite mass makes NaN of a zero sig, and a -0 product changes
        an accumulator's -0.0.  A step subtracts the span from the window
        it lands on, in two slices when the window wraps, so it costs
        O(support), not O(n).  The
        products left out change no bit, so every component keeps the
        operands and order of the stepping recurrence inf - (1j*m)*sig:
        every bit but a NaN's sign is the recurrence's, signed zeros
        included.

        Only the light cone is written.  Each accumulator starts as
        zeros holding the arc of its initial eps-part, and each snapshot
        is a fresh zeroed (4, n) block, owned read-only, into which only
        the arcs that can hold a set bit are copied: a sig-part's arc
        carried t sites, and an accumulator's initial arc and the arc of
        the windows its fold has swept.  Elsewhere both hold +0+0j, and
        fresh zeroed pages that are never written cost no memory."""
        w, m, steps = self.initial, self.m, self.steps
        yield w
        n, ring = w.sites, max(w.sites, 1)
        plus_arc, minus_arc = _arc(w.plus.sig), _arc(w.minus.sig)
        # per mover: (its direction, sig0, sig0's arc, eps accumulator, the
        # accumulator's initial arc, first index of the span, the span)
        movers = []
        for sign, mover, arc, other, (lo, length) in ((1, w.plus, plus_arc, w.minus, minus_arc),
                                                      (-1, w.minus, minus_arc, w.plus, plus_arc)):
            start, count = _arc(mover.inf)
            acc = np.zeros(n, dtype=complex)
            acc[start:start + count] = mover.inf[start:start + count]
            if (not math.isfinite(m)  # a zero sig can change a bit
                    or (acc[start:start + count].view(np.uint64) == _NEGATIVE_ZERO).any()):
                lo, length = 0, n
            first, span = _support(np.multiply(1j * m, other.sig[lo:lo + length]))
            movers.append((sign, mover.sig, arc, acc, (start, count), lo + first, span))
        for t in range(1, steps + 1):
            for sign, _, _, acc, _, lo, span in movers:
                if not len(span):  # an empty span does no work
                    continue
                start = (lo - sign * (2 * t - 2)) % ring
                head = acc[start:start + len(span)]  # up to the end of the ring
                np.subtract(head, span[:len(head)], out=head)
                if len(head) < len(span):  # the window wraps round the ring
                    tail = acc[:len(span) - len(head)]
                    np.subtract(tail, span[len(head):], out=tail)
            if t % self.record_every == 0 or t == steps:
                block = np.zeros((4, n), dtype=complex)
                for mover, rows in zip(movers, (block[:2], block[2:])):
                    sign, sig, arc, acc, acc_arc, lo, span = mover
                    _copy_arc(rows[0], sig, arc, sign * t)
                    _copy_arc(rows[1], acc, acc_arc, sign * t)
                    if len(span):  # the windows of steps 1..t make one arc
                        swept = ((lo - (sign > 0) * (2 * t - 2)) % ring,
                                 min(len(span) + 2 * t - 2, ring))
                        _copy_arc(rows[1], acc, swept, sign * t)
                yield WalkState(DCVector._owning(block[0], block[1]),
                                DCVector._owning(block[2], block[3]), time=w.time + t)


_NEGATIVE_ZERO = np.uint64(1 << 63)  # the bits of -0.0


def _arc(a: np.ndarray):
    """(start, length) of the span from the first to the last entry of a
    with a set bit, -0.0 and NaN included; (0, 0) when there is none.
    Each entry's two words are a row, so a zero-strided a is read in place."""
    live = np.nonzero(a[:, None].view(np.uint64))[0]
    if not len(live):
        return 0, 0
    return int(live[0]), int(live[-1] - live[0] + 1)


def _copy_arc(dst: np.ndarray, src: np.ndarray, arc, shift: int) -> None:
    """dst[(x + shift) % n] = src[x] for the sites x of the arc (start,
    length) round the ring: at most three slice copies, as either side
    may wrap."""
    n = len(src)
    start, length = arc
    to = (start + shift) % max(n, 1)
    while length:
        k = min(length, n - start, n - to)
        dst[to:to + k] = src[start:start + k]
        start, to, length = (start + k) % n, (to + k) % n, length - k


def _support(products: np.ndarray):
    """(lo, a copy of products[lo:hi]) for `_arc`'s span of the products:
    from the first to the last whose bits are not those of +0+0j.

    Subtracting +0 changes no bit of a double, and subtracting -0 changes
    only a -0.0 (to +0.0).  A difference is -0.0 only as -0.0 - (+0.0),
    so an accumulator that starts without a -0.0 component never gets
    one, and then the zero products of either sign inside the span
    change nothing."""
    lo, length = _arc(products)
    return lo, products[lo:lo + length].copy()


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

    def component(c):
        return lambda x, t: c * np.exp(1j * (k * x - omega * t))

    return component(u[0]), component(u[1]), omega


def _gate_rows(g, plus, minus):
    """The (psi-, psi+) rows of g, one 2 x 2 gate or a stack of them
    indexed g[..., row, col], on rows of sites' psi+ and psi- amplitudes,
    each product with the gate entry first.  The continuum study and the
    covariance check apply every gate through this one rule."""
    return g[..., :1] * plus[..., None, :] + g[..., 1:] * minus[..., None, :]


def continuum_residual(
    psip: Callable, psim: Callable, m: float, x: float, t: float, h: float
):
    """Residuals of the two corrected-gate update rows on smooth test
    functions; O(h^2) per step when (psip, psim) solves the Dirac
    equation."""
    # each value flattened to one row of sites and shaped back, so a scalar x gives scalars
    rows = np.array([psip(x, t), psim(x, t)])
    pred_minus, pred_plus = _gate_rows(corrected_gate(m, h), *rows.reshape(2, -1)).reshape(
        rows.shape)
    r_minus = psim(x - h, t + h) - pred_minus
    r_plus = psip(x + h, t + h) - pred_plus
    return r_plus, r_minus


def walk_vs_continuum_error(sites: int, k: float = 1.0, m: float = 1.0):
    """Relative l2 error between the corrected conventional walk on the
    periodic lattice of length 2*pi and the analytic plane-wave Dirac
    solution at physical time ~1; first order in the lattice spacing h.

    Returns (error, h, reached_time).  The wave fits the lattice only for
    an integer wavenumber k; any other k, or an m whose product with h
    overflows a float, raises ValueError.
    """
    if not float(k).is_integer():
        raise ValueError(f"wavenumber {k!r} does not fit the periodic lattice of length 2*pi")
    h = 2.0 * math.pi / sites
    g = corrected_gate(m, h)
    steps = max(1, round(1.0 / h))
    t_end = steps * h
    psip, psim, _ = dirac_plane_wave(k, m)
    x = np.arange(sites) * h
    plus, minus = psip(x, 0.0), psim(x, 0.0)
    norm0 = math.sqrt(float(np.vdot(plus, plus).real + np.vdot(minus, minus).real))
    plus, minus = plus / norm0, minus / norm0
    for _ in range(steps):
        minus, plus = _gate_rows(g, plus, minus)
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


def _dual_rows(g: DCMatrix, plus, minus):
    """`_gate_rows` of a dual gate on rows that are the sig and eps parts,
    the eps row by Leibniz.  Gate entries and spreads are purely real or
    imaginary, so each product rounds as the scalar DualComplex one does."""
    out = _gate_rows(g.sig, plus, minus)
    out[1] += _gate_rows(g.inf, plus[0], minus[0])
    return out


def _discrepancies(patch: LorentzPatch, ins, rows, g_patch, g_one) -> np.ndarray:
    """Per row of ins, one part of the (psi+, psi-) amplitudes each: the
    largest modulus of the differences between sending alpha
    right-movers across beta left-movers through the grid of gates
    g_patch in causal wavefront order (gate (i, j) fires at time i + j)
    and one gate g_one followed by the encodings; rows(g, plus, minus)
    applies a gate as `_gate_rows` does.  The wires are right-movers then
    left-movers in reverse, so wavefront w pairs right wire i with the
    column alpha + beta - 1 - w further on, and no wire twice."""
    a, b = patch.alpha, patch.beta
    spread = np.concatenate([patch.e_alpha.sig, patch.e_beta.sig])[:, 0]
    # an infinite mass gives NaN, and a huge one inf, which fails: no warning
    with np.errstate(invalid="ignore", over="ignore"):
        # each row's (psi+, psi-) spread over the alpha + beta wires; the
        # spread is real and has no eps-part, so it encodes each part alone
        wires, outputs = (np.repeat(r, [a, b], 1) * spread
                          for r in (ins, rows(g_one, ins[:, :1], ins[:, 1:])[:, ::-1, 0]))
        for wave in range(a + b - 1):
            lo, hi, shift = max(0, wave - b + 1), min(a, wave + 1), a + b - 1 - wave
            right, left = wires[:, lo:hi], wires[:, lo + shift:hi + shift]
            left[...], right[...] = rows(g_patch, right, left).swapaxes(0, 1)
        d = wires - outputs
        return np.max(np.hypot(d.real, d.imag), axis=1)  # NaN propagates


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
    psip, psim = (x if isinstance(x, DualComplex) else DualComplex(x) for x in inputs)
    a, b = patch.alpha, patch.beta
    if mode == "dual_exact":
        # the wires' rows are the sig and eps parts
        d = _discrepancies(patch, np.array([[psip.sig, psim.sig], [psip.inf, psim.inf]]),
                           _dual_rows, dirac_gate(patch.m_prime), dirac_gate(patch.m))
        return CovarianceReport("dual_exact", a, b, float(np.max(d)))

    if mode != "corrected":
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < h < math.inf:
        raise ValueError(f"corrected mode needs a finite h > 0, got {h!r}")

    # the conventional runs at eps = h, h/2 and h/4 are the rows of one
    # array of wires, with no eps-part, which would be 0
    hs = (h, h / 2.0, h / 4.0)
    ins = np.array([(psip.sig + hh * psip.inf, psim.sig + hh * psim.inf) for hh in hs])
    ds = _discrepancies(patch, ins, _gate_rows, *(
        np.array([corrected_gate(m, hh) for hh in hs]) for m in (patch.m_prime, patch.m))).tolist()
    order = None
    if min(ds) > 1e-14:
        ratios = [ds[0] / ds[1], ds[1] / ds[2]]
        order = float(np.mean([math.log2(r) for r in ratios]))
    return CovarianceReport("corrected", a, b, float(np.max(ds)), order)
