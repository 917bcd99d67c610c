"""Quantum theory over the dual-complex ring C[eps], eps^2 = 0.

The namespace is lazy (PEP 562): `import dcquantum` loads no submodule.
A public name loads its module on first access, and so does a submodule
attribute such as `dcquantum.linalg`, so a process compiles and runs
only the layers it uses.
"""

import importlib

_NAMES = {
    "scalar": (
        "EPS", "TAU", "Classification", "DualComplex", "DualReal", "Ordering", "classify",
        "compare", "conj", "cos_s", "div", "div_infinitesimal_convention", "exp_s",
        "extend_analytic", "log_s", "modulus", "nth_root", "pow_int", "sin_s", "sqrt_s",
    ),
    "linalg": (
        "DCMatrix", "DCVector", "OperatorKind", "classify_op", "decompose_unitary", "inner",
        "is_hermitian", "is_unitary", "stinespring", "vnorm",
    ),
    "spectral": (
        "CLUSTER_DELTA", "DualSpectrum", "check_appreciably_semipositive", "eig_hermitian",
        "eig_unitary", "log_unitary", "mat_exp",
    ),
    "quantum": (
        "Measurement", "MeasurementOutcome", "QuantumState", "complex_correct_measurement",
        "complex_correct_unitary", "dc_extend_measurement", "dc_extend_unitary", "evolve",
        "measure", "normalize", "sample", "sampled_family", "schrodinger_step", "tensor",
        "tensor_op",
    ),
    "walk": (
        "LorentzPatch", "WalkState", "continuum_residual", "corrected_gate",
        "covariance_check", "dirac_gate", "dirac_plane_wave", "lorentz_encodings",
        "point_source", "run", "step",
    ),
}
#: The module that defines each public name.
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = (*_NAMES, "cli", "errors", "jsonfmt", "serialize")

# the public names and the submodules that the eager namespace bound
__all__ = sorted([*_MODULE_OF, "errors", *_NAMES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:  # the import binds it here, so this runs once
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
