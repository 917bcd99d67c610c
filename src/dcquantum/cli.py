"""Command-line front end: walk simulations, operator checks,
extension/correction translation, and convergence studies.

Exit codes: 0 pass, 1 check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import scalar, serialize
from .errors import DCError, MalformedInput, MalformedShape, NotHermitian, NotUnitary
from .linalg import (
    CLUSTER_DELTA,
    DCMatrix,
    check_appreciably_semipositive,
    eig_hermitian,
    eig_unitary,
    OperatorKind,
    _relative_defect,
    residual,
)
from .quantum import (
    Measurement,
    complex_correct_measurement,
    complex_correct_unitary,
    dc_extend_measurement,
    dc_extend_unitary,
    sampled_family,
)
from .walk import (
    covariance_check,
    dirac_gate,
    lorentz_encodings,
    point_source,
    run,
    walk_vs_continuum_error,
)

PASS, FAIL, USAGE = 0, 1, 2


class _UsageError(Exception):
    """A command-line argument out of range; main exits 2 with its message."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _UsageError(message)


def _write_report(report: dict, path):
    if path:
        serialize.dump_json(report, path)
    print(json.dumps(report))


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def cmd_walk(args) -> int:
    _require(args.sites >= 2, "--sites must be >= 2")
    _require(args.steps >= 0, "--steps must be >= 0")
    _require(args.record_every >= 1, "--record-every must be >= 1")
    _require(math.isfinite(args.mass), "--mass must be finite")
    w = point_source(args.sites)
    snaps = run(w, args.mass, args.steps, record_every=args.record_every)
    serialize.write_trajectory_csv(snaps, args.out)
    final = snaps[-1].total_norm()
    print(f"final dual norm: {final.sig!r} + ({final.inf!r})eps")
    return PASS


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_spectrum(m: DCMatrix, atol: float, delta: float):
    """Whether the dual spectrum of m, taken as Hermitian else unitary,
    rebuilds m within atol at each part's own scale, and that relative
    error; a matrix of neither kind fails with its smaller residual."""
    try:
        spec = eig_hermitian(m, delta)
    except NotHermitian:
        try:
            spec = eig_unitary(m, delta)
        except NotUnitary:  # the Hermitian residual raises NonSquare on a state
            return False, min(residual(m, OperatorKind.HERMITIAN),
                              residual(m, OperatorKind.UNITARY))
    worst = _relative_defect(spec.reconstruct() - m, m)
    return worst <= atol, worst


def cmd_check(args) -> int:
    _require(args.trials >= 1, "--trials must be >= 1")
    if args.what == "covariance":
        _require(args.alpha >= 1, "--alpha must be >= 1")
        _require(args.beta >= 1, "--beta must be >= 1")
        _require(math.isfinite(args.mass), "--mass must be finite")
        _require(args.mode == "dual" or 0 < args.h < math.inf,
                 "--h must be finite and > 0 with --mode corrected")
        patch = lorentz_encodings(args.alpha, args.beta, args.mass)
        mode = "dual_exact" if args.mode == "dual" else "corrected"
        rng = np.random.default_rng(args.seed)
        reports = []
        for _ in range(args.trials):
            amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amp /= np.linalg.norm(amp)
            reports.append(covariance_check(patch, (amp[0], amp[1]), mode=mode, h=args.h))
        # a failing trial first, then the largest discrepancy; the first of equals
        worst = max(reports, key=lambda r: (not r.passed, r.max_discrepancy))
        report = {"check": "covariance", **dataclasses.asdict(worst), "pass": worst.passed}
        _write_report(report, args.out)
        return PASS if worst.passed else FAIL

    _require(args.input is not None, f"check {args.what} needs --in")
    obj = serialize.load_tagged(args.input)
    if isinstance(obj, Measurement):
        raise MalformedInput("check expects a unitary/matrix file")
    if isinstance(obj, DCMatrix):
        m = obj
    else:  # a state is checked as its n x 1 column, eps-part included
        m = DCMatrix(obj.vec.sig.reshape(-1, 1), obj.vec.inf.reshape(-1, 1))

    if args.what in ("unitary", "hermitian"):
        worst = residual(m, OperatorKind(args.what))
        ok = worst <= args.rtol
    elif args.what == "spectrum":
        ok, worst = _check_spectrum(m, args.rtol, args.delta)
    else:  # semipositive; argparse restricts the choices
        rep = check_appreciably_semipositive(m, args.tau)
        ok, worst = rep.passed, rep.worst_violation
    if not math.isfinite(worst):  # finite entries near the float limit can overflow it
        raise MalformedInput(f"the {args.what} residual overflows a float")

    report = {"check": args.what, "pass": bool(ok), "worst_residual": worst}
    _write_report(report, args.out)
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------


def _extend_from_family(data):
    """Family file: matrices sampled at -step, 0, +step, each of the
    shape of its slot in at_zero.  One operator per slot means a unitary
    family; several mean a measurement."""
    step = serialize.require(data, "step")
    if type(step) not in (int, float) or not 0 < step < math.inf:
        raise MalformedInput(f"step: expected a positive number, got {step!r}")
    sampled = []
    for key in ("at_zero", "at_plus", "at_minus"):
        mats = serialize.require(data, key)
        if type(mats) is not list or not mats:
            raise MalformedInput(f"{key}: expected a non-empty list of matrices")
        sampled.append([serialize.matrix_from_json(m, f"{key}[{i}]").sig
                        for i, m in enumerate(mats)])
        zero = sampled[0]
        if len(sampled[-1]) != len(zero):
            raise MalformedInput("at_zero, at_plus and at_minus differ in length")
        for i, (m, m0) in enumerate(zip(sampled[-1], zero)):
            if m.shape != m0.shape:
                raise MalformedShape(f"{key}[{i}]: expected a {m0.shape[0]}x{m0.shape[1]} "
                                     f"matrix like at_zero[{i}], got {m.shape[0]}x{m.shape[1]}")
            if m.shape[1] != zero[0].shape[1]:  # an at_zero slot: one column count
                raise MalformedShape(f"{key}[{i}]: expected {zero[0].shape[1]} columns "
                                     f"like at_zero[0], got {m.shape[1]}")
    families = [sampled_family(*slot, float(step)) for slot in zip(*sampled)]
    if len(families) == 1:
        return serialize.unitary_to_json(dc_extend_unitary(families[0]))
    return serialize.measurement_to_json(
        dc_extend_measurement(lambda h: [f(h) for f in families]))


def cmd_translate(args) -> int:
    _require(math.isfinite(args.h), "--h must be finite")
    if args.extend:
        data = serialize._read_json(args.input)
        if not isinstance(data, dict) or data.get("kind") != "family":
            raise MalformedInput("--extend expects a family file")
        out = _extend_from_family(data)
        serialize.dump_json(out, args.out)
        return PASS

    obj = serialize.load_tagged(args.input)
    if isinstance(obj, DCMatrix):
        corrected = complex_correct_unitary(obj, args.h)
        out = serialize.unitary_to_json(DCMatrix(corrected))
    elif isinstance(obj, Measurement):
        mats = complex_correct_measurement(obj, args.h)
        out = serialize.measurement_to_json(
            Measurement(tuple(DCMatrix(m) for m in mats), obj.labels)
        )
    else:
        raise MalformedInput("translate expects a unitary or measurement file")
    serialize.dump_json(out, args.out)
    return PASS


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def _gate_residual(h: float, mass: float) -> float:
    u_eps = dirac_gate(mass)
    approx = u_eps.sig + h * u_eps.inf
    exact = complex_correct_unitary(u_eps, h)
    return float(np.abs(approx - exact).max())


def cmd_convergence(args) -> int:
    _require(math.isfinite(args.mass), "--mass must be finite")
    if args.walk:
        _require(min(args.sites) >= 1, "--sites must be >= 1")
        _require(math.isfinite(args.wavenumber), "--wavenumber must be finite")
        results = []
        for n in args.sites:
            err, h, t_end = walk_vs_continuum_error(n, k=args.wavenumber, m=args.mass)
            results.append({"sites": n, "h": h, "time": t_end, "l2_error": err})
        errors = [r["l2_error"] for r in results]
    else:
        _require(all(0 < h < math.inf for h in args.h_list),
                 "--h-list values must be finite and > 0")
        errors = [_gate_residual(h, args.mass) for h in args.h_list]
        results = [{"h": h, "residual": r} for h, r in zip(args.h_list, errors)]

    ratios = [a / b for a, b in zip(errors, errors[1:]) if b > 0]
    report = {"results": results, "ratios": ratios}
    _write_report(report, args.out)
    return PASS


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcq",
                                     description="dual-complex quantum toolkit")
    parser.add_argument("--tau", type=float, default=scalar.TAU,
                        help="appreciability cutoff; read only by check semipositive")
    parser.add_argument("--delta", type=float, default=CLUSTER_DELTA,
                        help="eigenvalue clustering threshold; read only by check spectrum")
    parser.add_argument("--rtol", type=float, default=1e-8,
                        help="residual tolerance of check unitary, hermitian and spectrum")
    parser.add_argument("--seed", type=int, default=0, help="read only by check covariance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walk", help="run the Dirac quantum walk")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("check", help="verify operator properties")
    p.add_argument("what", choices=["unitary", "hermitian", "spectrum",
                                    "semipositive", "covariance"])
    p.add_argument("--in", dest="input", help="tagged JSON input file")
    p.add_argument("--out")
    p.add_argument("--trials", type=int, default=50, help="read only by check covariance")
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--mode", choices=["dual", "corrected"], default="dual")
    p.add_argument("--h", type=float, default=1e-2)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate", help="dual-complex extension / complex correction")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--extend", action="store_true")
    group.add_argument("--correct", action="store_true")
    p.add_argument("--h", type=float, default=0.0, help="read only by --correct")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("convergence", help="order-of-accuracy studies")
    p.add_argument("--h-list", type=float, nargs="+",
                   default=[1e-2, 5e-3, 2.5e-3])
    p.add_argument("--walk", action="store_true",
                   help="walk-vs-continuum study instead of the gate study")
    p.add_argument("--sites", type=int, nargs="+", default=[256, 512, 1024])
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--wavenumber", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("tau", "delta", "rtol"):
            _require(0 <= getattr(args, flag) < math.inf, f"--{flag} must be finite and >= 0")
        _require(args.seed >= 0, "--seed must be >= 0")
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except MalformedInput as e:
        print(f"error: {args.input}: {e}", file=sys.stderr)
        return USAGE
    except DCError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
