"""Quantum theory over the dual-complex ring C[eps], eps^2 = 0."""

from .scalar import (
    EPS,
    TAU,
    Classification,
    DualComplex,
    DualReal,
    Ordering,
    classify,
    compare,
    conj,
    cos_s,
    div,
    div_infinitesimal_convention,
    exp_s,
    extend_analytic,
    log_s,
    modulus,
    nth_root,
    pow_int,
    sin_s,
    sqrt_s,
)
from .linalg import (
    DCMatrix,
    DCVector,
    OperatorKind,
    classify_op,
    decompose_unitary,
    inner,
    is_hermitian,
    is_unitary,
    mat_exp,
    stinespring,
    vnorm,
)
from .spectral import (
    CLUSTER_DELTA,
    DualSpectrum,
    check_appreciably_semipositive,
    eig_hermitian,
    eig_unitary,
    log_unitary,
)
from .quantum import (
    Measurement,
    MeasurementOutcome,
    QuantumState,
    complex_correct_measurement,
    complex_correct_unitary,
    dc_extend_measurement,
    dc_extend_unitary,
    evolve,
    measure,
    normalize,
    sample,
    sampled_family,
    schrodinger_step,
    tensor,
    tensor_op,
)
from .walk import (
    LorentzPatch,
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
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
