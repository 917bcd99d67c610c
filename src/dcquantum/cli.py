"""Command-line front end: walk simulations, operator checks,
extension/correction translation, and convergence studies.

Exit codes: 0 pass, 1 check failed, 2 usage or parse error.

Each command imports the layers it runs in its handler, so that a walk
never compiles the spectral closed forms and a check of an operator file
never compiles the walk.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

import numpy as np

from .errors import DCError, MalformedInput, MalformedShape, NotHermitian, NotUnitary

PASS, FAIL, USAGE = 0, 1, 2


class _UsageError(Exception):
    """A command-line argument out of range; main exits 2 with its message."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _UsageError(message)


def _require_mass_step(mass: float, h: float, step: str) -> None:
    """|mass| times h, which `step` names, must be a float: the corrected
    gates take the cosine and sine of their product, and each walk step
    adds a term of the mass to the eps-parts."""
    _require(math.isfinite(mass * h), f"--mass {mass!r} times {step} overflows a float")


def _write(writer, obj, path: str):
    """writer(obj, path); an --out path that cannot be written is a
    usage error naming it and the OS reason."""
    try:
        return writer(obj, path)
    except OSError as e:
        raise _UsageError(f"{path}: {e.strerror}") from None


def _write_report(report: dict, path):
    if path:
        from .serialize import dump_json

        _write(dump_json, report, path)
    print(json.dumps(report))


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def cmd_walk(args) -> int:
    _require(args.sites >= 2, "--sites must be >= 2")
    _require(args.steps >= 0, "--steps must be >= 0")
    _require(args.record_every >= 1, "--record-every must be >= 1")
    _require(math.isfinite(args.mass), "--mass must be finite")
    # a step count past the float range, which would not convert, counts as the largest float
    _require_mass_step(args.mass, min(args.steps, sys.float_info.max), f"--steps {args.steps}")
    # walk, the largest module, compiles first, so that serialize compiles in the
    # memory walk's compile freed: the other order peaked about 0.15 MiB higher
    from .walk import point_source, run
    from . import serialize

    try:
        snaps = run(point_source(args.sites), args.mass, args.steps,
                    record_every=args.record_every)
        final = _write(serialize.write_trajectory_csv, snaps, args.out).total_norm()
    except MemoryError:
        raise _UsageError(f"--sites {args.sites}: the lattice does not fit in memory") from None
    print(f"final dual norm: {final.sig!r} + ({final.inf!r})eps")
    return PASS


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_spectrum(m, atol: float, delta: float | None):
    """Whether the dual spectrum of m, taken as Hermitian else unitary,
    rebuilds m within atol at each part's own scale, and that relative
    error; a matrix of neither kind fails with its smaller residual.
    A delta of None is the spectral module's CLUSTER_DELTA."""
    from .linalg import OperatorKind, _defect_term, residual
    from .spectral import CLUSTER_DELTA, eig_hermitian, eig_unitary

    delta = CLUSTER_DELTA if delta is None else delta
    try:
        spec = eig_hermitian(m, delta)
    except NotHermitian:
        try:
            spec = eig_unitary(m, delta)
        except NotUnitary:  # the Hermitian residual raises NonSquare on a state
            return False, min(residual(m, OperatorKind.HERMITIAN),
                              residual(m, OperatorKind.UNITARY))
    r = spec.reconstruct()
    worst = float(np.max([_defect_term(d, (a,), d)
                          for a, d in ((m.sig, r.sig - m.sig), (m.inf, r.inf - m.inf))]))
    return worst <= atol, worst


def cmd_check(args) -> int:
    _require(args.trials >= 1, "--trials must be >= 1")
    if args.what == "covariance":
        _require(args.alpha >= 1, "--alpha must be >= 1")
        _require(args.beta >= 1, "--beta must be >= 1")
        _require(math.isfinite(args.mass), "--mass must be finite")
        _require(args.mode == "dual" or 0 < args.h < math.inf,
                 "--h must be finite and > 0 with --mode corrected")
        if args.mode == "corrected":
            _require_mass_step(args.mass, args.h, f"--h {args.h!r}")
        from .walk import covariance_check, lorentz_encodings

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
    from .linalg import DCMatrix, OperatorKind, residual
    from .serialize import load_tagged

    obj = load_tagged(args.input)
    if isinstance(obj, DCMatrix):
        m = obj
    else:  # the file held a state or a measurement, so quantum is loaded
        from .quantum import Measurement

        if isinstance(obj, Measurement):
            raise MalformedInput("check expects a unitary/matrix file")
        # a state is checked as its n x 1 column, eps-part included
        m = DCMatrix(obj.vec.sig.reshape(-1, 1), obj.vec.inf.reshape(-1, 1))

    if args.what in ("unitary", "hermitian"):
        worst = residual(m, OperatorKind(args.what))
        ok = worst <= args.rtol
    elif args.what == "spectrum":
        ok, worst = _check_spectrum(m, args.rtol, args.delta)
    else:  # semipositive; argparse restricts the choices
        from .spectral import check_appreciably_semipositive

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
    """Family file: conventional matrices (eps-parts zero) sampled at
    -step, 0, +step, each of the shape of its slot in at_zero.  One
    operator per slot means a unitary family; several mean a measurement."""
    from . import serialize
    from .quantum import dc_extend_measurement, dc_extend_unitary, sampled_family

    step = serialize.require(data, "step")
    if type(step) not in (int, float) or not 0 < step < math.inf:
        raise MalformedInput(f"step: expected a positive number, got {step!r}")
    sampled = []
    for key in ("at_zero", "at_plus", "at_minus"):
        mats = serialize.require(data, key)
        if type(mats) is not list or not mats:
            raise MalformedInput(f"{key}: expected a non-empty list of matrices")
        sampled.append([])
        for i, m in enumerate(mats):
            m = serialize.matrix_from_json(m, f"{key}[{i}]")
            if m.inf.any():
                raise MalformedInput(f"{key}[{i}]: a sample is a conventional matrix, "
                                     "but its eps-part is nonzero")
            sampled[-1].append(m.sig)
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
    families = []
    for i, slot in enumerate(zip(*sampled)):
        try:
            families.append(sampled_family(*slot, float(step)))
        except MalformedInput as e:
            raise MalformedInput(f"at_plus[{i}] - at_minus[{i}]: {e}") from None
    if len(families) == 1:
        return serialize.unitary_to_json(dc_extend_unitary(families[0]))
    return serialize.measurement_to_json(
        dc_extend_measurement(lambda h: [f(h) for f in families]))


def cmd_translate(args) -> int:
    _require(math.isfinite(args.h), "--h must be finite")
    from . import serialize
    from .linalg import DCMatrix
    from .quantum import Measurement, complex_correct_measurement, complex_correct_unitary

    if args.extend:
        data = serialize._read_json(args.input)
        if not isinstance(data, dict) or data.get("kind") != "family":
            raise MalformedInput("--extend expects a family file")
        out = _extend_from_family(data)
        _write(serialize.dump_json, out, args.out)
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
    _write(serialize.dump_json, out, args.out)
    return PASS


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def _gate_residual(h: float, mass: float) -> float:
    from .quantum import complex_correct_unitary
    from .walk import dirac_gate

    u_eps = dirac_gate(mass)
    approx = u_eps.sig + h * u_eps.inf
    exact = complex_correct_unitary(u_eps, h)
    return float(np.abs(approx - exact).max())


def cmd_convergence(args) -> int:
    _require(math.isfinite(args.mass), "--mass must be finite")
    if args.walk:
        _require(min(args.sites) >= 1, "--sites must be >= 1")
        _require(args.wavenumber.is_integer(), "--wavenumber must be an integer")
        from .walk import walk_vs_continuum_error

        results = []
        for n in args.sites:
            try:
                err, h, t_end = walk_vs_continuum_error(n, k=args.wavenumber, m=args.mass)
            except ValueError as e:  # the wavenumber is checked above: the mass overflows
                raise _UsageError(f"--mass with --sites {n}: {e}") from None
            results.append({"sites": n, "h": h, "time": t_end, "l2_error": err})
        errors = [r["l2_error"] for r in results]
    else:
        _require(all(0 < h < math.inf for h in args.h_list),
                 "--h-list values must be finite and > 0")
        for h in args.h_list:
            _require_mass_step(args.mass, h, f"--h-list value {h!r}")
        errors = [_gate_residual(h, args.mass) for h in args.h_list]
        results = [{"h": h, "residual": r} for h, r in zip(args.h_list, errors)]

    ratios = [a / b for a, b in zip(errors, errors[1:]) if b > 0]
    report = {"results": results, "ratios": ratios}
    _write_report(report, args.out)
    return PASS


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .scalar import TAU

    parser = argparse.ArgumentParser(prog="dcq",
                                     description="dual-complex quantum toolkit")
    parser.add_argument("--tau", type=float, default=TAU,
                        help="appreciability cutoff; read only by check semipositive")
    # None is CLUSTER_DELTA, which a command other than check spectrum does not load
    parser.add_argument("--delta", type=float,
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

    # argparse reads a token that starts with '-' as a flag's value only if
    # its negative-number pattern, which has no exponent, matches it, so
    # `--mass -1e-3` would be an unknown option: take every negative
    # decimal float literal as a value
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("tau", "delta", "rtol"):
            value = getattr(args, flag)
            _require(value is None or 0 <= value < math.inf, f"--{flag} must be finite and >= 0")
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
