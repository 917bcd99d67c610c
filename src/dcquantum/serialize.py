"""JSON and CSV formats for dual-complex scalars, matrices, states,
measurements, and walk trajectories.

A scalar is the 4-tuple [re_sig, im_sig, re_inf, im_inf] of 64-bit
floats; a matrix is {"rows", "cols", "entries"} with row-major scalar
entries.  Tagged files add {"kind": "state" | "measurement" | "unitary"}.
All floats round-trip bit-exactly through Python's shortest-repr JSON
encoding.
"""

from __future__ import annotations

import csv
import json
from itertools import repeat

import numpy as np

from .errors import DCError, DimMismatch, MalformedTrajectory
from .linalg import DCMatrix, DCVector
from .quantum import Measurement, QuantumState
from .scalar import DualComplex
from .walk import WalkState


def scalar_to_json(w: DualComplex) -> list:
    return [w.sig.real, w.sig.imag, w.inf.real, w.inf.imag]


def scalar_from_json(data) -> DualComplex:
    if len(data) != 4:
        raise DimMismatch("scalar encoding must have exactly four floats")
    return DualComplex(complex(data[0], data[1]), complex(data[2], data[3]))


def matrix_to_json(m: DCMatrix) -> dict:
    entries = []
    for i in range(m.rows):
        for j in range(m.cols):
            entries.append(scalar_to_json(m[i, j]))
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_json(data) -> DCMatrix:
    rows, cols = int(data["rows"]), int(data["cols"])
    entries = data["entries"]
    if len(entries) != rows * cols:
        raise DimMismatch(f"expected {rows * cols} entries, got {len(entries)}")
    sig = np.empty((rows, cols), dtype=complex)
    inf = np.empty((rows, cols), dtype=complex)
    for idx, e in enumerate(entries):
        w = scalar_from_json(e)
        sig[idx // cols, idx % cols] = w.sig
        inf[idx // cols, idx % cols] = w.inf
    return DCMatrix(sig, inf)


def vector_to_json(v: DCVector) -> dict:
    return matrix_to_json(DCMatrix(v.sig.reshape(-1, 1), v.inf.reshape(-1, 1)))


def vector_from_json(data) -> DCVector:
    m = matrix_from_json(data)
    if m.cols != 1:
        raise DimMismatch("vector encoding must have cols == 1")
    return DCVector(m.sig[:, 0], m.inf[:, 0])


# -- tagged files -----------------------------------------------------------


def unitary_to_json(m: DCMatrix) -> dict:
    return {"kind": "unitary", "matrix": matrix_to_json(m)}


def state_to_json(s: QuantumState) -> dict:
    return {"kind": "state", "matrix": vector_to_json(s.vec)}


def measurement_to_json(m: Measurement) -> dict:
    return {
        "kind": "measurement",
        "labels": list(m.labels),
        "operators": [matrix_to_json(op) for op in m.operators],
    }


def tagged_from_json(data):
    kind = data.get("kind")
    if kind == "unitary":
        return matrix_from_json(data["matrix"])
    if kind == "state":
        return QuantumState(vector_from_json(data["matrix"]))
    if kind == "measurement":
        ops = tuple(matrix_from_json(op) for op in data["operators"])
        return Measurement(ops, tuple(data["labels"]))
    raise DCError(f"unknown or missing kind tag: {kind!r}")


def load_tagged(path: str):
    with open(path) as f:
        return tagged_from_json(json.load(f))


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


# -- trajectories -----------------------------------------------------------

TRAJECTORY_COLUMNS = [
    "t_step",
    "x_index",
    "psiplus_re_sig",
    "psiplus_im_sig",
    "psiplus_re_inf",
    "psiplus_im_inf",
    "psiminus_re_sig",
    "psiminus_im_sig",
    "psiminus_re_inf",
    "psiminus_im_inf",
]


def write_trajectory_csv(snapshots, path: str) -> None:
    """Write snapshots as CSV rows t_step, x_index, then the real and
    imaginary parts of psi+ (sig, inf) and psi- (sig, inf), each float
    as its repr: the bytes the csv module's default dialect writes for
    those rows, built one snapshot at a time."""
    with open(path, "w", newline="") as f:
        f.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for snap in snapshots:
            parts = (snap.plus.sig, snap.plus.inf, snap.minus.sig, snap.minus.inf)
            columns = [map(repr, c.tolist()) for p in parts for c in (p.real, p.imag)]
            rows = zip(repeat(str(snap.time)), map(str, range(snap.sites)), *columns)
            lines = "\r\n".join(map(",".join, rows))
            if lines:  # a snapshot with no sites has no rows
                f.write(lines + "\r\n")


def read_trajectory_csv(path: str) -> list:
    """Read back a trajectory as a list of WalkState snapshots.

    Every snapshot must hold the rows x_index = 0 .. sites-1 once each,
    with the same number of sites as the first snapshot."""
    by_step: dict = {}
    with open(path) as f:
        reader = csv.DictReader(f)
        for row in reader:
            t = int(row["t_step"])
            by_step.setdefault(t, []).append(row)
    snaps = []
    for t in sorted(by_step):
        rows = sorted(by_step[t], key=lambda r: int(r["x_index"]))
        n = len(rows)
        if snaps and n != snaps[0].sites:
            raise MalformedTrajectory(
                f"t_step {t}: {n} rows, but t_step {snaps[0].time} has {snaps[0].sites}")
        for x, r in enumerate(rows):
            k = int(r["x_index"])
            if k > x:
                raise MalformedTrajectory(f"t_step {t}: missing x_index {x}")
            if k < x:
                what = "duplicate" if k >= 0 else "negative"
                raise MalformedTrajectory(f"t_step {t}: {what} x_index {k}")
        ps = np.empty(n, dtype=complex)
        pi = np.empty(n, dtype=complex)
        ms = np.empty(n, dtype=complex)
        mi = np.empty(n, dtype=complex)
        for i, r in enumerate(rows):
            ps[i] = complex(float(r["psiplus_re_sig"]), float(r["psiplus_im_sig"]))
            pi[i] = complex(float(r["psiplus_re_inf"]), float(r["psiplus_im_inf"]))
            ms[i] = complex(float(r["psiminus_re_sig"]), float(r["psiminus_im_sig"]))
            mi[i] = complex(float(r["psiminus_re_inf"]), float(r["psiminus_im_inf"]))
        snaps.append(WalkState(DCVector(ps, pi), DCVector(ms, mi), time=t))
    return snaps
