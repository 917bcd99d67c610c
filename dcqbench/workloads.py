"""Workload definitions for the dcquantum benchmark: seeded input
generation, the commands one pass runs, and the output oracles.

A workload is prepared once per run in its own work directory.  Every
command of a pass is an operation; an operation fails when its exit
code is not 0 or its output check fails.  Checks never raise: they
return an error string, so a wrong output counts as a failure instead of
ending the run with a traceback.

The files a command writes are removed before each invocation, outside
the timed region, so that every invocation writes new files instead of
truncating the previous pass's: truncating waits for the disk to write
back the old file's blocks, which measures the shared disk rather than
the program.

The first valid output of each command is checked in full (a reference
CSV built here, residuals recomputed here, a finite-difference oracle).
The program is deterministic, so later passes only have to reproduce
those validated bytes; a pass that does not is checked in full again.

This module imports numpy only.  scipy is imported inside the one check
that needs it, so a traced process can report whether the program itself
loaded scipy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

CLI = "dcquantum.cli"
DRIVER = Path(__file__).resolve().parent / "schrodinger_driver.py"

# Tolerances of the oracles.
NORM_ATOL = 1e-12          # walk: final dual norm is 1 + 0eps
RTOL = 1e-8                # check spectrum: passed to the program as --rtol
UNITARY_ATOL = 1e-10       # translate --correct: corrected unitary
COMPLETENESS_ATOL = 1e-9   # translate --correct: corrected measurement
COVARIANCE_ATOL = 1e-12    # check covariance: dual-exact discrepancy
SUM_P_ATOL = 1e-9          # schrodinger: sum of probabilities is 1 + 0eps
FD_STEP = 1e-5             # schrodinger: central-difference step
FD_ATOL = 1e-8             # schrodinger: eps-part versus central difference

# Two workloads, each a bypass for the other's layers: the host's CPU
# speed drifts by 10-30% over minutes, so runs have to be long to
# average it out, and the run budget allows two such workloads, not four.
# A pass is kept to about 5 s (imports included), which gives a 50 s
# run about ten passes to take the median of.  The walk pass runs a
# dense-recording walk and a long sparse one; the dense one is sized so
# that its snapshot list sets the pass's peak RSS.  The operators pass
# ends with the library driver's dual time-stepping.  `TINY` sizes are
# for the self-tests.
SIZES = {
    "walk": dict(record=dict(sites=1536, steps=150, record_every=1),
                 long=dict(sites=16384, steps=2000, record_every=2000)),
    "operators": dict(n=128, d=64, alpha=8, beta=8, trials=50, h=0.05,
                      schrodinger=dict(n=128, steps=30, dt=0.05)),
}
TINY = {
    "walk": dict(record=dict(sites=16, steps=6, record_every=1),
                 long=dict(sites=32, steps=40, record_every=40)),
    "operators": dict(n=6, d=3, alpha=2, beta=2, trials=3, h=0.05,
                      schrodinger=dict(n=6, steps=4, dt=0.05)),
}

WHY = {
    "walk": "dense recording (CSV writer, snapshot list) then a long sparse walk "
            "(walk.step); the only workload that steps the walk or writes CSV, "
            "never needs scipy",
    "operators": "CLI spectrum checks and corrections, covariance, then library "
                 "schrodinger_step + measure: eig, stinespring, mat_exp, JSON, scalar; "
                 "never walks",
}


@dataclass
class Command:
    """One program invocation of a pass.

    ``module`` is run as ``python -m module`` (or as a script path when
    it ends in .py) with ``args``; ``check(rc, stdout)`` returns None or
    an error string; ``outputs`` are removed before each invocation.
    """

    label: str
    module: str
    args: list
    check: Callable[[int, str], Optional[str]]
    outputs: tuple = ()  # files the command writes

    def remove_outputs(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def argv(self, python: str) -> list:
        if self.module.endswith(".py"):
            return [python, self.module, *self.args]
        return [python, "-m", self.module, *self.args]


@dataclass
class Workload:
    name: str
    commands: list

    def setup_argv(self, python: str) -> list:
        """The set-up cost every invocation pays: importing the CLI."""
        return [python, "-c", f"import {CLI}"]


def checked(check):
    """Wrap a check so any exception becomes a failure message."""
    def safe(rc, stdout):
        if rc != 0:
            return f"exit code {rc}"
        try:
            return check(stdout)
        except Exception as e:  # an unreadable output is a failed check
            return f"{type(e).__name__}: {e}"
    return safe


class OutputCache:
    """Digests of outputs that passed their full check."""

    def __init__(self):
        self.valid = {}

    def check_file(self, key: str, path: Path, full_check) -> Optional[str]:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.valid.get(key) == digest:
            return None
        err = full_check(data)
        if err is None:
            self.valid[key] = digest
        return err


# ---------------------------------------------------------------------------
# Input encoding (the documented JSON format, written without dcquantum)
# ---------------------------------------------------------------------------


def matrix_json(sig: np.ndarray, inf: np.ndarray) -> dict:
    if sig.ndim == 1:  # a state vector is an n x 1 matrix
        sig, inf = sig.reshape(-1, 1), inf.reshape(-1, 1)
    entries = [[a.real, a.imag, b.real, b.imag]
               for a, b in zip(sig.ravel().tolist(), inf.ravel().tolist())]
    return {"rows": sig.shape[0], "cols": sig.shape[1], "entries": entries}


def matrix_from_json(data) -> tuple:
    e = np.asarray(data["entries"], dtype=float).reshape(data["rows"], data["cols"], 4)
    return e[..., 0] + 1j * e[..., 1], e[..., 2] + 1j * e[..., 3]


def write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n: int) -> np.ndarray:
    """Exactly Hermitian, spectral radius about 2."""
    a = _cgauss(rng, n, n)
    return (a + a.conj().T) / (2.0 * math.sqrt(n))


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Walk
# ---------------------------------------------------------------------------


def reference_walk_csv(sites: int, steps: int, record_every: int, mass: float) -> bytes:
    """Trajectory CSV from a plain numpy version of the walk recurrence
    and the documented row format: csv module defaults (CRLF rows),
    t_step, x_index, then repr of the eight float components."""
    plus_sig = np.zeros(sites, dtype=complex)
    plus_sig[sites // 2] = 1.0
    plus_inf = np.zeros(sites, dtype=complex)
    minus_sig = np.zeros(sites, dtype=complex)
    minus_inf = np.zeros(sites, dtype=complex)
    header = ("t_step,x_index,psiplus_re_sig,psiplus_im_sig,psiplus_re_inf,"
              "psiplus_im_inf,psiminus_re_sig,psiminus_im_sig,psiminus_re_inf,"
              "psiminus_im_inf")
    lines = [header]

    def record(t):
        cols = [a.tolist() for a in (
            plus_sig.real, plus_sig.imag, plus_inf.real, plus_inf.imag,
            minus_sig.real, minus_sig.imag, minus_inf.real, minus_inf.imag)]
        for x, vals in enumerate(zip(*cols)):
            lines.append(f"{t},{x}," + ",".join(map(repr, vals)))

    record(0)
    for n in range(1, steps + 1):
        plus_sig, plus_inf, minus_sig, minus_inf = (
            np.roll(plus_sig, 1),
            np.roll(plus_inf - 1j * mass * minus_sig, 1),
            np.roll(minus_sig, -1),
            np.roll(minus_inf - 1j * mass * plus_sig, -1),
        )
        if n % record_every == 0 or n == steps:
            record(n)
    lines.append("")
    return "\r\n".join(lines).encode()


def check_norm_line(stdout: str) -> Optional[str]:
    """'final dual norm: <sig> + (<inf>)eps' must read 1 + 0eps."""
    line = [l for l in stdout.splitlines() if l.startswith("final dual norm:")][-1]
    sig_s, inf_s = line[len("final dual norm:"):].split(" + (")
    sig, inf = float(sig_s), float(inf_s.removesuffix(")eps"))
    if abs(sig - 1.0) > NORM_ATOL or abs(inf) > NORM_ATOL:
        return f"final dual norm {sig} + {inf}eps is not 1 + 0eps"
    return None


def walk_command(kind: str, mass: float, work: Path, sizes: dict) -> Command:
    """`walk` at `sizes`, writing trajectory_<kind>.csv."""
    sites, steps, every = sizes["sites"], sizes["steps"], sizes["record_every"]
    ref = reference_walk_csv(sites, steps, every, mass)  # kept in memory, not written
    out = work / f"trajectory_{kind}.csv"
    cache = OutputCache()

    def full(data):
        return None if data == ref else "trajectory CSV differs from the reference"

    def check(stdout):
        return check_norm_line(stdout) or cache.check_file("csv", out, full)

    args = ["walk", "--mass", repr(mass), "--sites", str(sites), "--steps", str(steps),
            "--record-every", str(every), "--out", str(out)]
    return Command(f"walk_{kind}", CLI, args, checked(check), (out,))


def make_walk(seed: int, work: Path, sizes: dict) -> Workload:
    rng = np.random.default_rng(seed)
    mass = float(rng.uniform(0.1, 1.0))
    return Workload("walk", [walk_command(kind, mass, work, sizes[kind])
                             for kind in ("record", "long")])


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _stdout_report(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def make_operators(seed: int, work: Path, sizes: dict) -> Workload:
    n, d, h = sizes["n"], sizes["d"], sizes["h"]
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    k = random_hermitian(rng, n)
    write_json(work / "unitary.json", {"kind": "unitary", "matrix": matrix_json(u, 1j * k @ u)})
    write_json(work / "hermitian.json", {"kind": "unitary", "matrix": matrix_json(
        random_hermitian(rng, n), random_hermitian(rng, n))})
    # two-outcome measurement: the blocks of a dual isometry's first d columns
    w = random_unitary(rng, 2 * d)[:, :d]
    wi = 1j * random_hermitian(rng, 2 * d) @ w
    write_json(work / "measurement.json", {
        "kind": "measurement", "labels": [0, 1],
        "operators": [matrix_json(w[:d], wi[:d]), matrix_json(w[d:], wi[d:])]})
    cache = OutputCache()

    def spectrum(stdout):
        rep = _stdout_report(stdout)
        if not rep["pass"] or not rep["worst_residual"] <= RTOL:
            return f"spectrum residual {rep['worst_residual']} above {RTOL}"
        return None

    def corrected_unitary(data):
        obj = json.loads(data)
        sig, inf = matrix_from_json(obj["matrix"])
        res = np.abs(sig.conj().T @ sig - np.eye(sig.shape[0])).max()
        if not res <= UNITARY_ATOL or np.abs(inf).max() != 0.0:
            return f"corrected unitary off by {res}"
        return None

    def corrected_measurement(data):
        obj = json.loads(data)
        acc = sum(s.conj().T @ s for s, _ in map(matrix_from_json, obj["operators"]))
        res = np.abs(acc - np.eye(acc.shape[0])).max()
        if not res <= COMPLETENESS_ATOL:
            return f"corrected measurement completeness off by {res}"
        return None

    def covariance(stdout):
        rep = _stdout_report(stdout)
        if not rep["pass"] or not rep["max_discrepancy"] < COVARIANCE_ATOL:
            return f"covariance discrepancy {rep['max_discrepancy']}"
        return None

    def file_check(key, path, full):
        return lambda stdout: cache.check_file(key, path, full)

    top = ["--rtol", repr(RTOL)]
    cmds = [
        Command("check_spectrum", CLI,
                top + ["check", "spectrum", "--in", str(work / "unitary.json")],
                checked(spectrum)),
        Command("check_spectrum", CLI,
                top + ["check", "spectrum", "--in", str(work / "hermitian.json")],
                checked(spectrum)),
        Command("translate_correct", CLI,
                ["translate", "--correct", "--h", repr(h), "--in", str(work / "unitary.json"),
                 "--out", str(work / "unitary_corrected.json")],
                checked(file_check("unitary", work / "unitary_corrected.json",
                                   corrected_unitary)),
                (work / "unitary_corrected.json",)),
        Command("translate_correct", CLI,
                ["translate", "--correct", "--h", repr(h),
                 "--in", str(work / "measurement.json"),
                 "--out", str(work / "measurement_corrected.json")],
                checked(file_check("measurement", work / "measurement_corrected.json",
                                   corrected_measurement)),
                (work / "measurement_corrected.json",)),
        Command("check_covariance", CLI,
                ["--seed", str(seed), "check", "covariance", "--alpha", str(sizes["alpha"]),
                 "--beta", str(sizes["beta"]), "--trials", str(sizes["trials"])],
                checked(covariance)),
        schrodinger_command(seed, work, sizes["schrodinger"]),
    ]
    return Workload("operators", cmds)


# ---------------------------------------------------------------------------
# Schrodinger
# ---------------------------------------------------------------------------


def schrodinger_oracle(inputs: dict, result: dict) -> Optional[str]:
    """Sum p = 1 + 0eps at every step, and the final probabilities against
    conventional scipy expm evolutions under H and H +- hV."""
    import scipy.linalg

    for t, (sig, inf) in enumerate(result["sum_p"]):
        if abs(sig - 1.0) > SUM_P_ATOL or abs(inf) > SUM_P_ATOL:
            return f"step {t + 1}: sum p = {sig} + {inf}eps"
    h_sig, h_inf = matrix_from_json(inputs["hamiltonian"])
    proj, _ = matrix_from_json(inputs["projector"])
    psi0, _ = matrix_from_json(inputs["state"])
    steps, dt = inputs["steps"], inputs["dt"]
    if len(result["sum_p"]) != steps:
        return f"{len(result['sum_p'])} steps reported, {steps} expected"

    def probs(shift):
        u = scipy.linalg.expm(-1j * dt * (h_sig + shift * h_inf))
        psi = psi0[:, 0]
        for _ in range(steps):
            psi = u @ psi
        p0 = float(np.linalg.norm(proj @ psi) ** 2)
        return np.array([p0, 1.0 - p0])

    p = probs(0.0)
    dp = (probs(FD_STEP) - probs(-FD_STEP)) / (2.0 * FD_STEP)
    got = np.asarray(result["final_p"], dtype=float)
    if np.abs(got[:, 0] - p).max() > SUM_P_ATOL:
        return f"final probabilities {got[:, 0]} differ from expm evolution {p}"
    if np.abs(got[:, 1] - dp).max() > FD_ATOL:
        return f"final dp/deps {got[:, 1]} differs from central difference {dp}"
    return None


def schrodinger_command(seed: int, work: Path, sizes: dict) -> Command:
    """The library driver on a seeded dual Hamiltonian and projector."""
    n = sizes["n"]
    rng = np.random.default_rng(seed)
    psi = _cgauss(rng, n)
    psi /= np.linalg.norm(psi)
    proj = np.zeros((n, n), dtype=complex)
    keep = rng.permutation(n)[: n // 2]
    proj[keep, keep] = 1.0
    inputs = {
        "hamiltonian": matrix_json(random_hermitian(rng, n), random_hermitian(rng, n)),
        "projector": matrix_json(proj, np.zeros_like(proj)),
        "state": matrix_json(psi, np.zeros_like(psi)),
        "steps": sizes["steps"],
        "dt": sizes["dt"],
    }
    write_json(work / "schrodinger.json", inputs)
    out = work / "schrodinger_out.json"
    cache = OutputCache()

    def check(stdout):
        return cache.check_file("out", out,
                                lambda data: schrodinger_oracle(inputs, json.loads(data)))

    args = ["--in", str(work / "schrodinger.json"), "--out", str(out)]
    return Command("schrodinger", str(DRIVER), args, checked(check), (out,))


NAMES = ("walk", "operators")


def make(name: str, seed: int, work: Path, sizes: Optional[dict] = None) -> Workload:
    """Build workload `name` from `seed`, writing its inputs into `work`."""
    sizes = SIZES[name] if sizes is None else sizes
    if name == "walk":
        return make_walk(seed, work, sizes)
    if name == "operators":
        return make_operators(seed, work, sizes)
    raise ValueError(f"unknown workload {name!r}")
