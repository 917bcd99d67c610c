"""The four postulates over the dual-complex ring, as an executable engine.

States are unit dual-complex vectors, evolutions are dual-complex
unitaries, measurements are complete operator families with dual-real
outcome probabilities.  The extension/correction pair translates between
h-parametrized conventional operators and dual-complex operators.
"""

from __future__ import annotations

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
    _hermitian_generator,
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
    stinespring,
    vnorm,
)
from .scalar import TAU, DualReal

FD_STEP = 1e-6  # central-difference step for derivative_at_zero


@dataclass(frozen=True)
class QuantumState:
    """Unit dual-complex vector: ||sig|| = 1 and Re<sig|inf> = 0."""

    vec: DCVector

    def __post_init__(self):
        n = vnorm(self.vec)
        if abs(n.sig - 1.0) > _COMPLETE_ATOL or abs(n.inf) > _COMPLETE_ATOL:
            raise InfinitesimalVector(
                f"state vector has dual norm {n}, expected 1 + 0ε"
            )

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


@dataclass(frozen=True)
class ParamUnitary:
    """h-parametrized conventional unitary family, h real, U_0 unitary.

    ``derivative_at_zero`` is dU/dh at h = 0 when known in closed form;
    otherwise it is obtained by central finite differences.
    """

    evaluate: Callable[[float], np.ndarray]
    derivative_at_zero: Optional[np.ndarray] = None


def normalize(v: DCVector) -> QuantumState:
    """Scale an appreciable vector to unit dual norm using dual division."""
    if float(np.linalg.norm(v.sig)) <= TAU:
        raise InfinitesimalVector("cannot normalize an infinitesimal vector")
    return QuantumState(divide_vector(v, vnorm(v)))


def evolve(s: QuantumState, u_eps: DCMatrix) -> QuantumState:
    if u_eps.cols != s.dim:
        raise DimMismatch(f"operator {u_eps.shape} on state of dim {s.dim}")
    if not is_unitary(u_eps, REQUIRE_ATOL):
        raise NotUnitary("evolution requires a dual-complex unitary")
    return QuantumState(u_eps @ s.vec)


def schrodinger_step(s: QuantumState, h_eps: DCMatrix, dt: float) -> QuantumState:
    """Evolve by exp(-i dt H_eps), hbar = 1."""
    if not is_hermitian(h_eps, REQUIRE_ATOL):
        raise NotHermitian("schrodinger_step requires a Hermitian generator")
    return evolve(s, mat_exp(h_eps.scale(-1j * dt)))


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


def dc_extend_unitary(p: ParamUnitary, step: float = FD_STEP) -> DCMatrix:
    """U + eps iHU with U = p(0) and iHU = dU/dh at 0.

    A finite-differenced derivative is Hermitian-projected so the result
    is exactly dual-complex unitary.
    """
    u0 = np.asarray(p.evaluate(0.0), dtype=complex)
    if not is_unitary(DCMatrix(u0), REQUIRE_ATOL):
        raise NotUnitaryAtZero("family does not evaluate to a unitary at h = 0")
    if p.derivative_at_zero is not None:
        d = np.asarray(p.derivative_at_zero, dtype=complex)
    else:
        d = (np.asarray(p.evaluate(step), dtype=complex)
             - np.asarray(p.evaluate(-step), dtype=complex)) / (2.0 * step)
    return DCMatrix(u0, 1j * _hermitian_generator(d, u0) @ u0)


def complex_correct_unitary(u_eps: DCMatrix, h: float) -> np.ndarray:
    """exp(ihH) U: the conventional unitary agreeing with U_eps|_(eps=h)
    up to O(h^2), from the eigendecomposition of the Hermitian H."""
    u, herm = decompose_unitary(u_eps)
    w, q = np.linalg.eigh(herm)
    return (q * np.exp(1j * h * w)) @ q.conj().T @ u


def dc_extend_measurement(
    family: Callable[[float], Sequence[np.ndarray]],
    labels=None,
    step: float = FD_STEP,
) -> Measurement:
    """Dual-complex extension of an h-parametrized conventional
    measurement: M_m = family(0), N_m = dM_m/dh at 0 (central
    differences)."""
    at0 = [np.asarray(m, dtype=complex) for m in family(0.0)]
    plus = [np.asarray(m, dtype=complex) for m in family(step)]
    minus = [np.asarray(m, dtype=complex) for m in family(-step)]
    ops = tuple(
        DCMatrix(m0, (mp - mm) / (2.0 * step))
        for m0, mp, mm in zip(at0, plus, minus)
    )
    return Measurement(ops, labels)


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
    if dilation is None:
        dilation = stinespring(m.operators)
    d = m.dim
    corrected = complex_correct_unitary(dilation, h)
    return [
        corrected[i * d : (i + 1) * d, :d].copy()
        for i in range(len(m.operators))
    ]


def measurement_from_complex(mats, labels=None) -> Measurement:
    """Wrap plain complex operator matrices as a dual-complex measurement."""
    return Measurement(tuple(DCMatrix(np.asarray(m, dtype=complex)) for m in mats), labels)


def dilation_blocks(u_eps: DCMatrix, outcomes: int) -> list:
    """All (<m| x I) U (|0> x I) blocks of a dilation unitary."""
    d = u_eps.rows // outcomes
    return [dilation_block(u_eps, m, d) for m in range(outcomes)]
