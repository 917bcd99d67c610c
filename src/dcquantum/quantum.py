"""The four postulates over the dual-complex ring, as an executable engine.

States are unit dual-complex vectors, evolutions are dual-complex
unitaries, measurements are complete operator families with dual-real
outcome probabilities.  The extension/correction pair translates between
h-parametrized conventional operators and dual-complex operators.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    IncompleteMeasurement,
    InfinitesimalVector,
    NotHermitian,
    NotUnitary,
    NotUnitaryAtZero,
)
from .linalg import (
    _COMPLETE_ATOL,
    REQUIRE_ATOL,
    DCMatrix,
    DCVector,
    OperatorKind,
    _complete_isometry,
    _hermitian_generator,
    _stack,
    completeness_defect,
    decompose_unitary,
    dilation_block,
    divide_vector,
    inner,
    is_hermitian,
    is_unitary,
    kron,
    mat_exp,
    norm_sq,
    residual,
    vnorm,
)
from .scalar import EPS, TAU, DualReal


@dataclass(frozen=True)
class QuantumState:
    """Unit dual-complex vector, <v|v> = 1 + 0ε: its n x 1 column is an isometry."""

    vec: DCVector

    def __post_init__(self):
        defect = residual(DCMatrix(self.vec.sig[:, None], self.vec.inf[:, None]),
                          OperatorKind.UNITARY)
        if not defect <= _COMPLETE_ATOL:  # NaN fails too
            raise InfinitesimalVector(f"<v|v> deviates from 1 + 0ε by {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.vec.dim


@dataclass(frozen=True)
class Measurement:
    """Complete family of dual-complex measurement operators."""

    operators: tuple  # tuple of DCMatrix
    labels: tuple = None

    def __post_init__(self):
        ops = tuple(self.operators)
        labels = tuple(self.labels) if self.labels is not None else tuple(range(len(ops)))
        if len(labels) != len(ops):
            raise DimMismatch("one label per measurement operator")
        defect = completeness_defect(ops)
        if not defect <= _COMPLETE_ATOL:  # NaN fails too
            raise IncompleteMeasurement(
                f"sum M^dag M deviates from I by {defect:.3e}"
            )
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.operators[0].cols


@dataclass(frozen=True)
class MeasurementOutcome:
    label: object
    probability: DualReal
    post: Optional[QuantumState]  # None for a zero-probability branch

    @property
    def zero_branch(self) -> bool:
        return self.post is None


def normalize(v: DCVector) -> QuantumState:
    """Scale an appreciable vector to unit dual norm using dual division."""
    if float(np.linalg.norm(v.sig)) <= TAU:
        raise InfinitesimalVector("cannot normalize an infinitesimal vector")
    return QuantumState(divide_vector(v, vnorm(v)))


def _require_dim(u_eps: DCMatrix, s: QuantumState) -> None:
    if u_eps.cols != s.dim:
        raise DimMismatch(f"operator {u_eps.shape} on state of dim {s.dim}")


def evolve(s: QuantumState, u_eps: DCMatrix) -> QuantumState:
    _require_dim(u_eps, s)
    if not is_unitary(u_eps, REQUIRE_ATOL):
        raise NotUnitary("evolution requires a dual-complex unitary")
    return QuantumState(u_eps @ s.vec)


# The last propagator that passed its checks, as (weak reference to H_eps,
# bytes of -i dt, exp(-i dt H_eps)): one slot beside the generator, not on
# it, so a DCMatrix compares, copies and pickles as before.  It is read and
# replaced whole, so concurrent callers can cost each other a miss, never a
# wrong propagator.
_propagator = (None, None, None)


def schrodinger_step(s: QuantumState, h_eps: DCMatrix, dt: float) -> QuantumState:
    """Evolve by exp(-i dt H_eps), hbar = 1.

    The propagator is built and checked once, then reused while the same
    H_eps object and the same bits of -i dt repeat (Moler & Van Loan
    2003); so dt = 0.0 and -0.0 are two keys, and a failed check is never
    kept.  The dimension check runs on every call."""
    global _propagator
    w = -1j * dt
    bits = np.asarray(w)
    key = bits.tobytes() if bits.dtype.kind == "c" else None  # None: never kept
    held, held_key, u_eps = _propagator
    if key is not None and key == held_key and held() is h_eps:
        _require_dim(u_eps, s)
        return QuantumState(u_eps @ s.vec)
    if not is_hermitian(h_eps, REQUIRE_ATOL):
        raise NotHermitian("schrodinger_step requires a Hermitian generator")
    u_eps = mat_exp(h_eps.scale(w))
    s = evolve(s, u_eps)
    if key is not None:
        _propagator = (weakref.ref(h_eps), key, u_eps)
    return s


def measure(s: QuantumState, m: Measurement):
    """Apply a measurement: per outcome, the dual probability
    p = <psi|M^dag M|psi> and the renormalized post-state M psi / sqrt(p).

    Outcomes with non-appreciable probability are returned as zero
    branches without a post-state.  Probabilities sum to 1 + 0ε.
    """
    if m.dim != s.dim:
        raise DimMismatch(f"measurement of dim {m.dim} on state of dim {s.dim}")
    outcomes = []
    for label, op in zip(m.labels, m.operators):
        phi = op @ s.vec
        p = norm_sq(phi)
        if p.sig <= TAU:
            outcomes.append(MeasurementOutcome(label, DualReal(0.0, 0.0), None))
            continue
        post = QuantumState(divide_vector(phi, p.sqrt()))
        outcomes.append(MeasurementOutcome(label, p, post))
    return outcomes


def sample(s: QuantumState, m: Measurement, seed: int):
    """Sample one outcome label from the significant parts of p(m)."""
    rng = np.random.default_rng(seed)
    probs = np.array([o.probability.sig for o in measure(s, m)])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return m.labels[rng.choice(len(probs), p=probs)]


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    return QuantumState(kron(a.vec, b.vec))


tensor_op = kron


# ---------------------------------------------------------------------------
# Extension and correction: parametrized conventional <-> dual-complex
# ---------------------------------------------------------------------------


def sampled_family(at_zero, at_plus, at_minus, step: float) -> Callable:
    """The affine ring family h -> S_0 + h (S_+ - S_-) / (2 step) through
    an operator sampled at h = 0 and h = +-step: its value at EPS carries
    the central difference as its eps-part."""
    s0 = DCMatrix(at_zero)
    d = DCMatrix((np.asarray(at_plus, dtype=complex)
                  - np.asarray(at_minus, dtype=complex)) / (2.0 * step))
    return lambda h: s0 + d.scale(h)


def dc_extend_unitary(family: Callable) -> DCMatrix:
    """U + eps iHU from u = family(EPS) = U + eps dU/dh at 0, for a
    family written in ring arithmetic (see `sampled_family`).

    dU/dh is Hermitian-projected, so the result is exactly dual-complex
    unitary whether the family is exact or sampled.
    """
    u = family(EPS)
    if not is_unitary(DCMatrix(u.sig), REQUIRE_ATOL):
        raise NotUnitaryAtZero("family does not evaluate to a unitary at h = 0")
    return DCMatrix(u.sig, 1j * _hermitian_generator(u.inf, u.sig) @ u.sig)


def complex_correct_unitary(u_eps: DCMatrix, h: float) -> np.ndarray:
    """exp(ihH) U: the conventional unitary agreeing with U_eps|_(eps=h)
    up to O(h^2), from the eigendecomposition of the Hermitian H."""
    u, herm = decompose_unitary(u_eps)
    w, q = np.linalg.eigh(herm)
    return (q * np.exp(1j * h * w)) @ q.conj().T @ u


def dc_extend_measurement(family: Callable[..., Sequence[DCMatrix]], labels=None) -> Measurement:
    """Dual-complex extension of an h-parametrized measurement written in
    ring arithmetic: family(EPS), whose operators are M_m + eps dM_m/dh."""
    return Measurement(tuple(family(EPS)), labels)


def complex_correct_measurement(
    m: Measurement,
    h: float,
    dilation: Optional[DCMatrix] = None,
):
    """Conventional measurement from a dual-complex one via its
    Stinespring dilation: M~_m = (<m| x I) exp(ihH) U (|0> x I).

    The result depends on the dilation gauge; by default the
    deterministic QR completion from `stinespring` is used, and a
    caller holding a specific completion may pass it in.  Block
    extraction and completeness hold for every valid dilation.
    """
    if dilation is None:  # m is complete: Measurement has checked it
        dilation = _complete_isometry(_stack(m.operators))
    corrected = complex_correct_unitary(dilation, h)[:, :m.dim]
    ends = np.cumsum([op.rows for op in m.operators])  # block m ends at row ends[m]
    return [block.copy() for block in np.split(corrected, ends)[:-1]]


def measurement_from_complex(mats, labels=None) -> Measurement:
    """Wrap plain complex operator matrices as a dual-complex measurement."""
    return Measurement(tuple(DCMatrix(np.asarray(m, dtype=complex)) for m in mats), labels)


def dilation_blocks(u_eps: DCMatrix, outcomes: int) -> list:
    """All (<m| x I) U (|0> x I) blocks of the dilation of `outcomes` d x d
    operators; `complex_correct_measurement` splits a family of rectangular
    operators at its row counts instead."""
    if outcomes < 1 or u_eps.rows % outcomes:
        raise DimMismatch(f"{u_eps.rows} rows do not split into {outcomes} equal blocks")
    d = u_eps.rows // outcomes
    return [dilation_block(u_eps, m, d) for m in range(outcomes)]
