"""JSON and CSV formats for dual-complex scalars, matrices, states,
measurements, and walk trajectories.

A scalar is the 4-tuple [re_sig, im_sig, re_inf, im_inf] of 64-bit
floats; a matrix is {"rows", "cols", "entries"} with row-major scalar
entries.  Tagged files add {"kind": "unitary" | "state" | "measurement" |
"family"}, and this module alone knows their layouts.  All floats
round-trip bit-exactly through Python's shortest-repr JSON encoding.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimMismatch, MalformedInput, MalformedShape, MalformedTrajectory
from .linalg import DCMatrix, DCVector
from .scalar import DualComplex

if TYPE_CHECKING:  # loaded where a value is built, so that a reader of one kind loads no other
    from .quantum import Measurement, QuantumState
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
    # True as a number.  The type scan runs at C speed.  The entries are
    # converted 1024 at a time into the two parts, so no float array of
    # the whole matrix is staged; each (re, im) pair read as one complex
    # number keeps every bit (signed zeros included), which a + 1j*b
    # would not, and unpacking the (sig, inf) pairs of a piece takes
    # exactly four numbers per entry.
    sig, inf = (np.empty((rows, cols), complex) for _ in range(2))
    try:
        if not set(map(type, chain.from_iterable(entries))) <= {int, float}:
            raise TypeError
        for i in range(0, rows * cols, 1024):
            sig.flat[i:i + 1024], inf.flat[i:i + 1024] = np.array(
                entries[i:i + 1024], dtype=float).view(complex).T
    except (TypeError, ValueError, OverflowError):
        raise _bad_entry(entries, where) from None
    finite = np.isfinite(sig) & np.isfinite(inf)
    if not finite.all():
        i = int(np.argmin(finite))
        raise MalformedInput(f"{where}.entries[{i}]: {entries[i]!r} is not finite")
    return DCMatrix._owning(sig, inf)


def vector_to_json(v: DCVector) -> dict:
    return matrix_to_json(DCMatrix(v.sig.reshape(-1, 1), v.inf.reshape(-1, 1)))


def _column(data, where: str = "matrix") -> DCMatrix:
    m = matrix_from_json(data, where)
    if m.cols != 1:
        raise MalformedShape(f"{where}: vector encoding must have cols == 1")
    return m


def vector_from_json(data, where: str = "matrix") -> DCVector:
    m = _column(data, where)
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


def _matrices(data, key: str) -> list:
    """data[key]: a non-empty list of matrices with [0]'s column count."""
    mats = require(data, key)
    if type(mats) is not list or not mats:
        raise MalformedInput(f"{key}: expected a non-empty list of matrices")
    mats = [matrix_from_json(m, f"{key}[{i}]") for i, m in enumerate(mats)]
    for i, m in enumerate(mats):
        if m.cols != mats[0].cols:
            raise MalformedShape(f"{key}[{i}]: expected {mats[0].cols} columns "
                                 f"like {key}[0], got {m.cols}")
    return mats


def _measurement(data) -> Measurement:
    from .quantum import Measurement

    ops, labels = _matrices(data, "operators"), require(data, "labels")
    if type(labels) is not list:
        raise MalformedInput(f"labels: expected a list, got {type(labels).__name__}")
    if len(labels) != len(ops):
        raise MalformedShape(f"labels: expected one per operator, "
                             f"got {len(labels)} for {len(ops)}")
    return Measurement(tuple(ops), tuple(labels))


def _family(data):
    """The eps-extension of conventional matrices (eps-parts zero)
    sampled at -step, 0, +step, each of the shape of its slot in
    at_zero: a unitary for one operator per slot, else a measurement."""
    from .quantum import dc_extend_measurement, dc_extend_unitary, sampled_family

    step = require(data, "step")
    if type(step) not in (int, float) or not 0 < step < math.inf:
        raise MalformedInput(f"step: expected a positive number, got {step!r}")
    sampled = []
    for key in ("at_zero", "at_plus", "at_minus"):
        mats = _matrices(data, key)
        zero = sampled[0] if sampled else mats
        if len(mats) != len(zero):
            raise MalformedInput("at_zero, at_plus and at_minus differ in length")
        for i, (m, m0) in enumerate(zip(mats, zero)):
            if m.inf.any():
                raise MalformedInput(f"{key}[{i}]: a sample is a conventional matrix, "
                                     "but its eps-part is nonzero")
            if m.shape != m0.shape:
                raise MalformedShape(f"{key}[{i}]: expected a {m0.rows}x{m0.cols} matrix "
                                     f"like at_zero[{i}], got {m.rows}x{m.cols}")
        sampled.append(mats)
    families = []
    for i, slot in enumerate(zip(*sampled)):
        try:
            families.append(sampled_family(*(m.sig for m in slot), float(step)))
        except MalformedInput as e:
            raise MalformedInput(f"at_plus[{i}] - at_minus[{i}]: {e}") from None
    if len(families) == 1:
        return dc_extend_unitary(families[0])
    return dc_extend_measurement(lambda h: [f(h) for f in families])


# Each kind's body as a value; a state is its n x 1 column here, which
# tagged_from_json builds into a QuantumState.
_BODIES = {
    "unitary": lambda data: matrix_from_json(require(data, "matrix")),
    "state": lambda data: _column(require(data, "matrix")),
    "measurement": _measurement,
    "family": _family,
}


def _body(data, kinds):
    """The body of a tagged object whose kind is one of `kinds`; any
    other kind is refused before the body is read."""
    kind = require(data, "kind")
    if kind not in kinds:
        raise MalformedInput(f"kind: expected {' or '.join(map(repr, kinds))}, got {kind!r}")
    return _BODIES[kind](data)


def tagged_from_json(data):
    """The value of a tagged object: a unitary's DCMatrix, a
    QuantumState, a Measurement, or a family's eps-extension."""
    value = _body(data, tuple(_BODIES))
    if data["kind"] != "state":
        return value
    from .quantum import QuantumState

    return QuantumState(DCVector(value.sig[:, 0], value.inf[:, 0]))


def _read_text(path: str, error=MalformedInput) -> str:
    """The content of the file at `path`, decoded as UTF-8; a file that
    cannot be read or decoded raises `error` saying why."""
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8")
    except UnicodeDecodeError as e:
        message = f"not UTF-8: byte {e.object[e.start]:#04x} at offset {e.start}"
    except OSError as e:
        message = e.strerror
    raise error(message)


def _read_json(path: str):
    """The JSON value held by the file at `path`, decoded as UTF-8; a
    file that cannot be read, decoded or parsed raises MalformedInput
    saying where."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        message = f"parse error at line {e.lineno}, column {e.colno}: {e.msg}"
    except RecursionError:
        message = "nested too deeply for the JSON decoder"
    raise MalformedInput(message)


def load_tagged(path: str):
    return tagged_from_json(_read_json(path))


def load_kind(path: str, *kinds: str):
    """The value of the tagged file at `path`, as tagged_from_json has
    it but a state as its n x 1 column, unchecked; a file of a kind not
    in `kinds` raises MalformedInput before its body is read."""
    return _body(_read_json(path), kinds)


# Rows formatted at once, which bounds the strings alive; a power of ten,
# so the sites of a CSV piece share all but their last three digits.
_ROWS_PER_PIECE = 1000
# Live CSV rows formatted at once: their eight float columns are Python
# floats while formatted, so this bounds them at 1000 rather than 8000.
_LIVE_ROWS_PER_BLOCK = 125


def dump_json(obj: dict, path: str) -> None:
    """Write json.dump(obj, f, indent=1) and a newline, byte for byte.

    json indents only in its pure-Python encoder, so it encodes just the
    frame around each matrix's entries, and the entries are formatted
    from a row template and each float's repr."""
    from .jsonfmt import _SLOT, _frame, _indented_rows  # loaded only by a process that writes

    blocks = []
    pieces = json.dumps(_frame(obj, blocks), indent=1).split(f'"{_SLOT}"')
    if len(pieces) != len(blocks) + 1:
        pieces, blocks = [json.dumps(obj, indent=1)], []
    with open(path, "w") as f:
        for before, (rows, indent) in zip(pieces, blocks):
            f.write(before)
            f.writelines(_indented_rows(rows, indent))
        f.write(pieces[-1] + "\n")


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


def write_trajectory_csv(snapshots, path: str) -> WalkState | None:
    """Write snapshots as CSV rows t_step, x_index, then the real and
    imaginary parts of psi+ (sig, inf) and psi- (sig, inf), each float
    as its repr: the bytes the csv module's default dialect writes for
    those rows.  One pass over any iterable, holding one snapshot and
    one piece of rows at a time; returns the last snapshot (None when
    there is none).

    Only live rows, those with a set bit (-0.0 and NaN included), are
    formatted: the bitwise OR of the four parts' 64-bit words finds
    them, and only they are gathered, `_LIVE_ROWS_PER_BLOCK` at a time,
    into a (rows, 4) block and formatted.  Every
    other row is t_step followed by
    ",x,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0".  Outside a point source's
    light cone almost every row is such a dark row, and its repr could
    only be "0.0".  A piece holds the 1000 sites x = 1000 k + j,
    j < 1000, so its rows share the head t_step + ",k" (t_step alone
    for k = 0), which the join puts before each row; the rest of a dark
    row is j's entry in one of two tables, ",j,0.0,..." for k = 0 and
    "jjj,0.0,..." (j in three digits) for k >= 1, and a live row drops
    its first len(",k") characters.  Each table grows to the entries the
    largest snapshot needs, at most 1000, so together they never hold
    more entries than there are sites."""
    zeros = ",0.0" * 8
    first, later = [], []
    snap = None
    with open(path, "w", newline="") as f:
        f.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for snap in snapshots:
            n = snap.sites
            first.extend(f",{j}" + zeros for j in range(len(first), min(n, _ROWS_PER_PIECE)))
            later.extend(str(_ROWS_PER_PIECE + j)[1:] + zeros  # j:03d
                         for j in range(len(later), min(n - _ROWS_PER_PIECE, _ROWS_PER_PIECE)))
            t = str(snap.time)
            arrays = (snap.plus.sig, snap.plus.inf, snap.minus.sig, snap.minus.inf)
            for start in range(0, n, _ROWS_PER_PIECE):
                stop = min(start + _ROWS_PER_PIECE, n)
                # each row's re and im words, also for a zero-strided part
                w0, w1, w2, w3 = (a[start:stop, None].view(np.uint64) for a in arrays)
                bits = w0 | w1 | w2 | w3
                live = np.flatnonzero(bits[:, 0] | bits[:, 1])
                k = start // _ROWS_PER_PIECE
                head = f"{t},{k}" if k else t
                piece = (later if k else first)[:stop - start]
                cut = len(head) - len(t)
                for b in range(0, len(live), _LIVE_ROWS_PER_BLOCK):
                    block = live[b:b + _LIVE_ROWS_PER_BLOCK]
                    at = block + start
                    parts = np.stack([a[at] for a in arrays], 1)
                    columns = map(map, repeat(repr), parts.view(float).T.tolist())
                    rows = map(",".join, zip(repeat(""), map(str, at.tolist()), *columns))
                    for i, row in zip(block.tolist(), rows):
                        piece[i] = row[cut:]
                f.writelines((head, ("\r\n" + head).join(piece), "\r\n"))
    return snap


def read_trajectory_csv(path: str) -> list:
    """Read back a trajectory as a list of WalkState snapshots.

    The header must name every column of TRAJECTORY_COLUMNS, every line
    after it must hold as many fields as the header (a blank line holds
    none), every field must parse as its number, and every snapshot must
    hold the rows x_index = 0 .. sites-1 once each, with the same number
    of sites as the first snapshot."""
    from .walk import WalkState

    by_step: dict = {}
    # universal newlines, as open() in text mode reads them
    reader = csv.reader(io.StringIO(_read_text(path, MalformedTrajectory), newline=None))
    try:
        header = next(reader, [])
        missing = [c for c in TRAJECTORY_COLUMNS if c not in header]
        if missing:
            raise MalformedTrajectory(f"header lacks column {missing[0]!r}")
        column = {c: i for i, c in enumerate(header)}  # a repeated name: its last column
        t_at, x_at, *value_at = (column[c] for c in TRAJECTORY_COLUMNS)
        for fields in reader:
            if len(fields) != len(header):
                raise ValueError(f"{len(fields)} fields, but the header has {len(header)}")
            values = [float(fields[i]) for i in value_at]
            by_step.setdefault(int(fields[t_at]), []).append((int(fields[x_at]), values))
    except (ValueError, csv.Error) as e:
        raise MalformedTrajectory(f"line {reader.line_num}: {e}") from None
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
