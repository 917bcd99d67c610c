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
import sys
from itertools import chain, repeat

import numpy as np

from .errors import DimMismatch, MalformedInput, MalformedShape, MalformedTrajectory
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
    # the float view of each (sig, inf) pair is scalar_to_json's layout
    entries = np.stack([m.sig, m.inf], axis=-1).view(float).reshape(-1, 4).tolist()
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def require(data, key: str, where: str = ""):
    """data[key] of a decoded JSON object; a missing key, or a value
    that is not an object, raises MalformedInput naming `where`."""
    prefix = f"{where}: " if where else ""
    if not isinstance(data, dict):
        raise MalformedInput(f"{prefix}expected an object, got {type(data).__name__}")
    if key not in data:
        raise MalformedInput(f"{prefix}missing key {key!r}")
    return data[key]


def _dimension(data, key: str, where: str) -> int:
    n = require(data, key, where)
    if type(n) is not int or n < 1:
        raise MalformedInput(f"{where}.{key}: expected a positive integer, got {n!r}")
    return n


def _bad_entry(entries, where: str) -> MalformedInput:
    """The error for the first entry that is not four numbers, found by
    a scan that only runs once the array conversion has failed."""
    for i, e in enumerate(entries):
        if type(e) is not list or len(e) != 4:
            return MalformedInput(
                f"{where}.entries[{i}]: a scalar is a list of four numbers, got {e!r}")
        for v in e:
            if type(v) not in (int, float):
                return MalformedInput(f"{where}.entries[{i}]: {v!r} is not a number")
            if type(v) is int and abs(v) > sys.float_info.max:
                return MalformedInput(f"{where}.entries[{i}]: {v} overflows a float")
    return MalformedInput(f"{where}.entries: expected lists of four numbers")


def matrix_from_json(data, where: str = "matrix") -> DCMatrix:
    """Decode {"rows", "cols", "entries"}; every float round-trips
    bit-exactly.  `where` names the object in error messages."""
    rows, cols = _dimension(data, "rows", where), _dimension(data, "cols", where)
    entries = require(data, "entries", where)
    if type(entries) is not list:
        raise MalformedInput(f"{where}.entries: expected a list, got {entries!r}")
    if len(entries) != rows * cols:
        raise MalformedShape(f"{where}: expected {rows * cols} entries, got {len(entries)}")
    # Only ints and floats may be converted: numpy would read "1.0" or
    # True as a number.  The type scan runs at C speed.
    try:
        if not set(map(type, chain.from_iterable(entries))) <= {int, float}:
            raise TypeError
        e = np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise _bad_entry(entries, where) from None
    if e.shape != (rows * cols, 4):
        raise _bad_entry(entries, where)
    finite = np.isfinite(e).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise MalformedInput(f"{where}.entries[{i}]: {entries[i]!r} is not finite")
    # Each (re, im) pair read as one complex number keeps every bit (signed
    # zeros included), which a + 1j*b would not.
    sig, inf = e.view(complex).T
    return DCMatrix(sig.reshape(rows, cols), inf.reshape(rows, cols))


def vector_to_json(v: DCVector) -> dict:
    return matrix_to_json(DCMatrix(v.sig.reshape(-1, 1), v.inf.reshape(-1, 1)))


def vector_from_json(data, where: str = "matrix") -> DCVector:
    m = matrix_from_json(data, where)
    if m.cols != 1:
        raise MalformedShape(f"{where}: vector encoding must have cols == 1")
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
    kind = require(data, "kind")
    if kind == "unitary":
        return matrix_from_json(require(data, "matrix"))
    if kind == "state":
        return QuantumState(vector_from_json(require(data, "matrix")))
    if kind == "measurement":
        ops, labels = require(data, "operators"), require(data, "labels")
        if type(ops) is not list or not ops or type(labels) is not list:
            raise MalformedInput("operators and labels must be lists, operators non-empty")
        ops = tuple(matrix_from_json(op, f"operators[{i}]") for i, op in enumerate(ops))
        for i, op in enumerate(ops):
            if op.cols != ops[0].cols:
                raise MalformedShape(f"operators[{i}]: expected {ops[0].cols} columns "
                                     f"like operators[0], got {op.cols}")
        return Measurement(ops, tuple(labels))
    raise MalformedInput(f"unknown kind tag: {kind!r}")


def _read_json(path: str):
    """The JSON value held by the file at `path`, decoded as UTF-8; a
    file that cannot be read, decoded or parsed raises MalformedInput
    saying where."""
    try:
        with open(path, "rb") as f:
            return json.loads(f.read().decode("utf-8"))
    except json.JSONDecodeError as e:
        message = f"parse error at line {e.lineno}, column {e.colno}: {e.msg}"
    except UnicodeDecodeError as e:
        message = f"not UTF-8: byte {e.object[e.start]:#04x} at offset {e.start}"
    except RecursionError:
        message = "nested too deeply for the JSON decoder"
    except OSError as e:
        message = e.strerror
    raise MalformedInput(message)


def load_tagged(path: str):
    return tagged_from_json(_read_json(path))


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

    The header must name every column of TRAJECTORY_COLUMNS, every field
    must parse as its number, and every snapshot must hold the rows
    x_index = 0 .. sites-1 once each, with the same number of sites as
    the first snapshot."""
    by_step: dict = {}
    with open(path) as f:
        reader = csv.DictReader(f)
        missing = [c for c in TRAJECTORY_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise MalformedTrajectory(f"header lacks column {missing[0]!r}")
        for row in reader:
            try:
                t, x = int(row["t_step"]), int(row["x_index"])
                values = [float(row[c]) for c in TRAJECTORY_COLUMNS[2:]]
            except (TypeError, ValueError) as e:
                raise MalformedTrajectory(f"line {reader.line_num}: {e}") from None
            by_step.setdefault(t, []).append((x, values))
    snaps = []
    for t in sorted(by_step):
        rows = sorted(by_step[t], key=lambda r: r[0])
        n = len(rows)
        if snaps and n != snaps[0].sites:
            raise MalformedTrajectory(
                f"t_step {t}: {n} rows, but t_step {snaps[0].time} has {snaps[0].sites}")
        for x, (k, _) in enumerate(rows):
            if k > x:
                raise MalformedTrajectory(f"t_step {t}: missing x_index {x}")
            if k < x:
                what = "duplicate" if k >= 0 else "negative"
                raise MalformedTrajectory(f"t_step {t}: {what} x_index {k}")
        # each (re, im) column pair read as one complex column, bit for bit
        ps, pi, ms, mi = np.array([r[1] for r in rows], dtype=float).reshape(n, 8).view(complex).T
        snaps.append(WalkState(DCVector(ps, pi), DCVector(ms, mi), time=t))
    return snaps
