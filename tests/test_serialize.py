"""Round-trip tests for the JSON and CSV formats."""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_dc_unitary, random_dc_vector
from dcquantum.errors import (
    DCError,
    DimMismatch,
    MalformedInput,
    MalformedShape,
    MalformedTrajectory,
)
from dcquantum.linalg import DCMatrix, DCVector
from dcquantum.quantum import Measurement, QuantumState, measurement_from_complex, normalize
from dcquantum.scalar import DualComplex
from dcquantum import serialize
from dcquantum.serialize import (
    dump_json,
    load_tagged,
    matrix_from_json,
    matrix_to_json,
    measurement_to_json,
    read_trajectory_csv,
    scalar_from_json,
    scalar_to_json,
    state_to_json,
    TRAJECTORY_COLUMNS,
    tagged_from_json,
    unitary_to_json,
    vector_from_json,
    vector_to_json,
    write_trajectory_csv,
)
from dcquantum.walk import WalkState, point_source, run


class TestScalar:
    def test_layout(self):
        assert scalar_to_json(DualComplex(1 + 2j, 3 - 4j)) == [1.0, 2.0, 3.0, -4.0]

    def test_round_trip_bit_exact(self):
        w = DualComplex(0.1 + (1 / 3) * 1j, -7.25e-300 + 1e17j)
        back = scalar_from_json(json.loads(json.dumps(scalar_to_json(w))))
        assert back == w

    def test_bad_length(self):
        with pytest.raises(DimMismatch):
            scalar_from_json([1.0, 2.0])


class TestMatrixVector:
    def test_row_major_layout(self):
        m = DCMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        data = matrix_to_json(m)
        assert data["rows"] == 2 and data["cols"] == 2
        assert [e[0] for e in data["entries"]] == [1.0, 2.0, 3.0, 4.0]

    def test_round_trip_bit_exact(self, rng):
        m = random_dc_unitary(3, rng)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert np.array_equal(back.sig, m.sig) and np.array_equal(back.inf, m.inf)

    def test_entry_count_checked(self):
        with pytest.raises(DimMismatch):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[0, 0, 0, 0]]})

    def test_vector_round_trip(self, rng):
        v = random_dc_vector(4, rng)
        back = vector_from_json(json.loads(json.dumps(vector_to_json(v))))
        assert np.array_equal(back.sig, v.sig) and np.array_equal(back.inf, v.inf)

    def test_round_trip_keeps_signed_zeros_and_extremes(self):
        vals = [-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, 0.1, -1 / 3]
        entries = [[a, b, c, d] for a, b, c, d in zip(vals, vals[1:] + vals[:1],
                                                        vals[2:] + vals[:2], vals[3:] + vals[:3])]
        m = matrix_from_json(json.loads(json.dumps({"rows": 2, "cols": 3, "entries": entries})))
        got = np.stack([m.sig.real, m.sig.imag, m.inf.real, m.inf.imag], axis=-1).reshape(6, 4)
        want = np.array(entries)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_writer_matches_per_entry_scalars(self):
        special = np.array([complex(-0.0, 5e-324), complex(1 / 3, -0.0),
                            complex(2.5e-310, -1e300), complex(0.1, 7.0)])
        m = DCMatrix(special.reshape(2, 2), 1j * special[::-1].reshape(2, 2))
        want = [scalar_to_json(m[i, j]) for i in range(2) for j in range(2)]
        assert json.dumps(matrix_to_json(m)["entries"]) == json.dumps(want)

    def test_integer_entries_are_numbers(self):
        m = matrix_from_json({"rows": 1, "cols": 1, "entries": [[1, -2, 0, 3]]})
        assert m.sig[0, 0] == 1 - 2j and m.inf[0, 0] == 3j

    def test_vector_requires_single_column(self):
        with pytest.raises(DimMismatch):
            vector_from_json(matrix_to_json(DCMatrix.identity(2)))

    @pytest.mark.parametrize("rows, cols", [(32, 32), (32, 33), (40, 60)])
    def test_round_trip_across_conversion_pieces(self, rows, cols, rng):
        # the entries are converted 1024 at a time
        parts = rng.standard_normal((2, rows, cols)) + 1j * rng.standard_normal((2, rows, cols))
        parts.flat[::7] = complex(-0.0, 5e-324)
        m = DCMatrix(*parts)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        for got, want in ((back.sig, m.sig), (back.inf, m.inf)):
            assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
            assert not got.flags.writeable
        assert not np.shares_memory(back.sig, back.inf)

    def test_parsing_stages_no_array_of_the_whole_matrix(self, rng):
        """At 128 x 128 the two parts of the result are two 256 KiB arrays;
        a whole-matrix float array (512 KiB) and defensive copies of the
        result would take the peak to 4.1 of them."""
        n = 128
        data = json.loads(json.dumps(matrix_to_json(random_dc_unitary(n, rng))))
        matrix_from_json(data)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m = matrix_from_json(data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert m.shape == (n, n)
        assert peak / (n * n * 16) <= 2.5


class TestTagged:
    def test_unitary_file(self, rng, tmp_path):
        m = random_dc_unitary(2, rng)
        path = str(tmp_path / "u.json")
        dump_json(unitary_to_json(m), path)
        back = load_tagged(path)
        assert isinstance(back, DCMatrix)
        assert np.array_equal(back.sig, m.sig) and np.array_equal(back.inf, m.inf)

    def test_state_file(self, rng, tmp_path):
        s = normalize(random_dc_vector(3, rng))
        path = str(tmp_path / "s.json")
        dump_json(state_to_json(s), path)
        back = load_tagged(path)
        assert isinstance(back, QuantumState)
        assert np.array_equal(back.vec.sig, s.vec.sig)

    def test_measurement_file(self, tmp_path):
        m = measurement_from_complex(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=("a", "b")
        )
        path = str(tmp_path / "m.json")
        dump_json(measurement_to_json(m), path)
        back = load_tagged(path)
        assert isinstance(back, Measurement)
        assert back.labels == ("a", "b")
        assert np.array_equal(back.operators[0].sig, m.operators[0].sig)

    def test_unknown_kind(self):
        with pytest.raises(DCError):
            tagged_from_json({"kind": "mystery"})

    @pytest.mark.parametrize("labels, message", [
        ([], "labels: expected one per operator, got 0 for 2"),
        (["a"], "labels: expected one per operator, got 1 for 2"),
        (["a", "b", "c"], "labels: expected one per operator, got 3 for 2"),
    ])
    def test_measurement_needs_one_label_per_operator(self, labels, message):
        ops = [matrix_to_json(DCMatrix(np.diag(d))) for d in ([1.0, 0.0], [0.0, 1.0])]
        with pytest.raises(MalformedShape, match=f"^{re.escape(message)}$"):
            tagged_from_json({"kind": "measurement", "labels": labels, "operators": ops})


# Floats whose encoding is easy to get wrong: signed zeros, subnormals,
# extremes, and the three that json spells NaN, Infinity and -Infinity.
_AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.7976931348623157e308, -1e308,
            0.1, -1 / 3, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]
_floats = st.one_of(st.sampled_from(_AWKWARD), st.floats())


@st.composite
def _dual_matrix(draw, cols=None):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4)) if cols is None else cols
    parts = draw(st.lists(_floats, min_size=4 * rows * cols, max_size=4 * rows * cols))
    sig, inf = np.array(parts).view(complex).reshape(2, rows, cols)  # keeps every bit
    return DCMatrix(sig, inf)


@st.composite
def _file_object(draw):
    """What the writers hand to dump_json: a unitary, a state, a
    measurement (of rectangular operators too) or a report."""
    kind = draw(st.sampled_from(["unitary", "state", "measurement", "report"]))
    if kind == "unitary":
        return unitary_to_json(draw(_dual_matrix()))
    if kind == "state":
        return {"kind": "state", "matrix": matrix_to_json(draw(_dual_matrix(cols=1)))}
    if kind == "measurement":
        cols = draw(st.integers(1, 3))
        ops = draw(st.lists(_dual_matrix(cols=cols), min_size=1, max_size=3))
        labels = draw(st.lists(st.one_of(st.integers(), st.text(max_size=3),
                                         st.just("dcquantum:entries")),
                               min_size=len(ops), max_size=len(ops)))
        return {"kind": "measurement", "labels": labels,
                "operators": [matrix_to_json(op) for op in ops]}
    return {"check": draw(st.text(max_size=5)), "worst_residual": draw(_floats),
            "pass": draw(st.booleans())}


def _stdlib_bytes(obj, path) -> bytes:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")
    return path.read_bytes()


class TestDumpJsonBytes:
    """dump_json writes exactly what json.dump(obj, f, indent=1) and a
    newline write."""

    @settings(max_examples=300, deadline=None)
    @given(obj=_file_object())
    def test_matches_the_stdlib_encoder(self, obj, tmp_path_factory):
        d = tmp_path_factory.mktemp("dump")
        dump_json(obj, str(d / "got.json"))
        assert (d / "got.json").read_bytes() == _stdlib_bytes(obj, d / "want.json")

    def test_many_rows_and_a_spliced_label(self, rng, tmp_path):
        # more rows than one formatted piece holds, and entries-like lists that
        # are not a matrix's: a label of floats, a ragged list, and ints
        m = random_dc_unitary(40, rng)
        obj = {"kind": "measurement",
               "labels": [{"entries": [[1.5, -0.0]]}, {"entries": [[1.0], [2.0, 3.0]]},
                          {"entries": [[1, 2.0]]}],
               "operators": [matrix_to_json(m), matrix_to_json(m), matrix_to_json(m)]}
        dump_json(obj, str(tmp_path / "got.json"))
        assert (tmp_path / "got.json").read_bytes() == _stdlib_bytes(obj, tmp_path / "want.json")


class TestLoadTaggedRejectsUnreadable:
    """A file that cannot be read, decoded as UTF-8 or parsed raises
    MalformedInput saying where, as the dcq command line reports it."""

    @pytest.mark.parametrize("content, message", [
        (b'{"kind": "unitary", "matrix": "\xe9"}', "not UTF-8: byte 0xe9 at offset 31"),
        (b"[" * 100000 + b"]" * 100000, "nested too deeply for the JSON decoder"),
        (b'{"kind": "unitary", }', "parse error at line 1, column 21: "),
    ], ids=["latin-1", "deep", "syntax"])
    def test_undecodable_content(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}"):
            load_tagged(str(path))

    def test_missing_path(self, tmp_path):
        with pytest.raises(MalformedInput, match="^No such file or directory$"):
            load_tagged(str(tmp_path / "absent.json"))


BAD_VALUES = ["1.0", True, False, None, [1.0], {"re": 1.0}, float("nan"),
              float("inf"), -float("inf"), 10**400]


class TestMatrixRejectsMalformed:
    @given(rows=st.integers(1, 3), cols=st.integers(1, 3), data=st.data(),
           bad=st.sampled_from(BAD_VALUES))
    @settings(max_examples=60, deadline=None)
    def test_any_bad_value_names_its_entry(self, rows, cols, data, bad):
        entries = [[0.5, -0.0, 1, 2.0] for _ in range(rows * cols)]
        i = data.draw(st.integers(0, rows * cols - 1))
        entries[i][data.draw(st.integers(0, 3))] = bad
        with pytest.raises(MalformedInput, match=rf"^m\.entries\[{i}\]: "):
            matrix_from_json({"rows": rows, "cols": cols, "entries": entries}, "m")

    @pytest.mark.parametrize("i", [0, 1023, 1024, 2047, 2048, 2399])
    @pytest.mark.parametrize("bad", [float("nan"), [1.0, 2.0, 3.0], "1.0"])
    def test_bad_entry_named_in_any_conversion_piece(self, i, bad):
        entries = [[0.5, -0.0, 1, 2.0] for _ in range(40 * 60)]
        if isinstance(bad, list):
            entries[i] = bad
        else:
            entries[i][2] = bad
        with pytest.raises(MalformedInput, match=rf"^m\.entries\[{i}\]: "):
            matrix_from_json({"rows": 40, "cols": 60, "entries": entries}, "m")

    def test_entries_that_pass_the_scan_get_the_general_message(self):
        # the last fallback: every entry is four numbers, yet the conversion failed
        e = serialize._bad_entry([[0.0, 1, -2.5, 3]], "m")
        assert type(e) is MalformedInput
        assert str(e) == "m.entries: expected lists of four numbers"

    def test_a_whole_piece_of_five_number_entries_is_malformed(self):
        entries = [[0.0] * 4] * 1024 + [[0.0] * 5] * 1024
        with pytest.raises(MalformedInput, match=r"^matrix\.entries\[1024\]: a scalar is"):
            matrix_from_json({"rows": 32, "cols": 64, "entries": entries})

    @pytest.mark.parametrize("entry", [[1.0, 2.0], [1.0] * 5, [], 3.0, "abcd"])
    def test_scalar_must_be_four_numbers(self, entry):
        entries = [[0.0] * 4, entry]
        with pytest.raises(MalformedInput, match=r"^matrix\.entries\[1\]: a scalar is"):
            matrix_from_json({"rows": 1, "cols": 2, "entries": entries})

    @pytest.mark.parametrize("data, message", [
        ({"cols": 1, "entries": [[0] * 4]}, "matrix: missing key 'rows'"),
        ({"rows": 1, "entries": [[0] * 4]}, "matrix: missing key 'cols'"),
        ({"rows": 1, "cols": 1}, "matrix: missing key 'entries'"),
        ({"rows": 0, "cols": 1, "entries": []}, "matrix.rows: expected a positive integer"),
        ({"rows": 1.0, "cols": 1, "entries": [[0] * 4]}, "matrix.rows: expected a positive"),
        ({"rows": 1, "cols": 1, "entries": {"0": [0] * 4}}, "matrix.entries: expected a list"),
        ([1, 2], "matrix: expected an object, got list"),
    ])
    def test_structure(self, data, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}"):
            matrix_from_json(data)

    @pytest.mark.parametrize("doc, message", [
        ({"matrix": {}}, "missing key 'kind'"),
        ({"kind": "unitary"}, "missing key 'matrix'"),
        ({"kind": "measurement", "labels": []}, "missing key 'operators'"),
        ({"kind": "measurement", "operators": [], "labels": []},
         "operators: expected a non-empty list of matrices"),
        ({"kind": "mystery"},
         "kind: expected 'unitary' or 'state' or 'measurement' or 'family', got 'mystery'"),
        ({"kind": ["unitary"]}, "kind: expected 'unitary' or "),
        ({"kind": "measurement", "labels": "a", "operators": [
            {"rows": 1, "cols": 1, "entries": [[1, 0, 0, 0]]}]}, "labels: expected a list, got str"),
        ([], "expected an object, got list"),
        ({"kind": "measurement", "labels": [0, 1], "operators": [
            {"rows": 2, "cols": 2, "entries": [[1, 0, 0, 0], [0] * 4, [0] * 4, [1, 0, 0, 0]]},
            {"rows": 3, "cols": 3, "entries": [[0] * 4] * 9}]},
         "operators[1]: expected 2 columns like operators[0], got 3"),
    ])
    def test_tagged_structure(self, doc, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}"):
            tagged_from_json(doc)


def _write_reference_csv(snaps, path):
    """The csv-module writer that write_trajectory_csv replaced, kept as
    the reference for its bytes: one writerow per site."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRAJECTORY_COLUMNS)
        for snap in snaps:
            for x in range(snap.sites):
                p, mns = snap.plus[x], snap.minus[x]
                writer.writerow([snap.time, x] + [repr(v) for v in (
                    p.sig.real, p.sig.imag, p.inf.real, p.inf.imag,
                    mns.sig.real, mns.sig.imag, mns.inf.real, mns.inf.imag)])


_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -2.5e-310, float("nan"), float("inf"),
                                -float("inf"), 1 / 3, -1e300])


@st.composite
def _row(draw):
    """Eight floats: all +0.0, one -0.0, one other entry, or any eight."""
    row = [0.0] * 8
    kind = draw(st.sampled_from(["zero", "negative zero", "single", "dense"]))
    if kind == "negative zero":
        row[draw(st.integers(0, 7))] = -0.0
    elif kind == "single":
        row[draw(st.integers(0, 7))] = draw(_EDGE_FLOATS | st.floats())
    elif kind == "dense":
        row = draw(st.lists(_EDGE_FLOATS | st.floats(), min_size=8, max_size=8))
    return row


def _snapshot(sites):
    """A WalkState of `sites` rows drawn by _row, at a drawn time."""
    def build(rows, time):
        parts = np.array(rows, dtype=float).reshape(sites, 8).view(complex)
        return WalkState(DCVector(parts[:, 0], parts[:, 1]),
                         DCVector(parts[:, 2], parts[:, 3]), time=time)
    return st.builds(build, st.lists(_row(), min_size=sites, max_size=sites),
                     st.integers(0, 10**6))


class TestTrajectory:
    def test_round_trip(self, tmp_path):
        snaps = run(point_source(6, x0=2), m=0.8, steps=3)
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(snaps, path)
        back = read_trajectory_csv(path)
        assert len(back) == len(snaps)
        for a, b in zip(snaps, back):
            assert a.time == b.time
            assert np.array_equal(a.plus.sig, b.plus.sig)
            assert np.array_equal(a.plus.inf, b.plus.inf)
            assert np.array_equal(a.minus.sig, b.minus.sig)
            assert np.array_equal(a.minus.inf, b.minus.inf)

    def test_header(self, tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv([point_source(2)], path)
        with open(path) as f:
            header = f.readline().strip().split(",")
        assert header[:2] == ["t_step", "x_index"]
        assert header[2] == "psiplus_re_sig" and header[-1] == "psiminus_im_inf"

    def test_bytes_match_csv_module_reference(self, tmp_path):
        """The writer against the csv-module writer it replaced, kept as
        the reference, on values whose repr is easy to get wrong."""
        special = np.array([complex(-0.0, 5e-324), complex(1 / 3, -0.0),
                            complex(2.5e-310, -1e300), complex(0.1, 7.0)])
        snaps = list(run(point_source(4, x0=1), m=0.37, steps=3))
        snaps.append(WalkState(DCVector(special, special[::-1] * 1j),
                               DCVector(-special, special.conj()), time=99))
        snaps.append(WalkState(DCVector(np.zeros(0)), DCVector(np.zeros(0)), time=100))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(snaps, str(path))

        ref = tmp_path / "ref.csv"
        _write_reference_csv(snaps, ref)
        data = path.read_bytes()
        assert data == ref.read_bytes()
        assert b",-0.0," in data and b",5e-324," in data and b"2.5e-310" in data
        assert any(s.plus.inf.any() for s in snaps)

    @given(snaps=st.lists(st.integers(0, 6).flatmap(_snapshot), max_size=6),
           one_shot=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_reference_on_any_snapshots(self, tmp_path_factory, snaps, one_shot):
        """Rows of +0.0 only, rows whose one set bit is a -0.0, single
        entries, NaN, infinities and subnormals, in snapshots whose site
        count changes from one to the next (zero included), passed as a
        list or as a one-shot generator."""
        work = tmp_path_factory.mktemp("traj")
        write_trajectory_csv(iter(snaps) if one_shot else snaps, str(work / "traj.csv"))
        _write_reference_csv(snaps, work / "ref.csv")
        assert (work / "traj.csv").read_bytes() == (work / "ref.csv").read_bytes()

    def test_wrapped_walk_round_trips_bit_exactly(self, tmp_path):
        """On 64 sites the light cone wraps round the ring well before
        step 500, so the late snapshots are live on every other site."""
        snaps = run(point_source(64), 0.3, 500, 1)
        path = str(tmp_path / "wrap.csv")
        write_trajectory_csv(snaps, path)
        back = read_trajectory_csv(path)
        assert np.count_nonzero(back[-1].minus.inf) == 32
        assert [s.time for s in back] == [s.time for s in snaps]
        for a, b in zip(snaps, back):
            for u, v in ((a.plus.sig, b.plus.sig), (a.plus.inf, b.plus.inf),
                         (a.minus.sig, b.minus.sig), (a.minus.inf, b.minus.inf)):
                assert np.array_equal(u.view(np.uint64), v.view(np.uint64))


@st.composite
def _walk_states(draw):
    """A WalkState on 1-12 sites of edge floats and moderate ones."""
    sites = draw(st.integers(1, 12))
    parts = draw(hnp.arrays(np.float64, (4, sites, 2),
                            elements=_EDGE_FLOATS | st.floats(-4.0, 4.0)))
    ps, pi, ms, mi = parts.view(complex)[..., 0]
    return WalkState(DCVector(ps, pi), DCVector(ms, mi), time=draw(st.integers(0, 10**6)))


class TestStreamedTrajectory:
    @given(w=_walk_states(), m=st.sampled_from([0.0, -0.0, 0.37, -2.5, float("nan")]),
           steps=st.integers(0, 30), every=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_walk_bytes_match_reference_on_its_snapshot_list(self, tmp_path_factory,
                                                             w, m, steps, every):
        """The writer streaming a lazy walk (-0.0, subnormals, NaN and
        infinities in its state) writes the bytes the reference writer
        writes for the list of its snapshots, and returns the last."""
        work = tmp_path_factory.mktemp("traj")
        traj = run(w, m, steps, every)
        with np.errstate(all="ignore"):  # infinities and NaN make NaN
            last = write_trajectory_csv(traj, str(work / "traj.csv"))
            snaps = list(traj)
        _write_reference_csv(snaps, work / "ref.csv")
        assert (work / "traj.csv").read_bytes() == (work / "ref.csv").read_bytes()
        assert last.time == snaps[-1].time
        assert np.array_equal(last.minus.inf, snaps[-1].minus.inf, equal_nan=True)

    def test_returns_none_without_snapshots(self, tmp_path):
        path = tmp_path / "traj.csv"
        assert write_trajectory_csv([], str(path)) is None
        assert path.read_text() == ",".join(TRAJECTORY_COLUMNS) + "\n"

    def test_holds_one_snapshot_at_a_time(self, tmp_path):
        """Walking and writing 101 snapshots of 1024 sites peaks below
        16 snapshot blocks, where keeping every snapshot takes 101."""
        block = 4 * 1024 * 16  # four complex128 parts per site
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(run(point_source(1024), 0.5, 100, 1), str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * block
        _write_reference_csv(run(point_source(1024), 0.5, 100, 1), tmp_path / "ref.csv")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _sparse_snapshot(sites, live, time):
    """A snapshot of `sites` rows, all +0.0 except those at the sites in
    `live`, which take -0.0, NaN and ordinary values in turn."""
    parts = np.zeros((4, sites), dtype=complex)
    values = [complex(-0.0, 0.0), complex(np.nan, 1.0), complex(0.25, -3e-300),
              complex(0.0, -0.0)]
    for i, x in enumerate(sorted(x for x in live if x < sites)):
        parts[i % 4, x] = values[i % len(values)]
    return WalkState(DCVector(parts[0], parts[1]), DCVector(parts[2], parts[3]), time=time)


class TestPiecesOfAThousandRows:
    """The writer cuts each snapshot into pieces of 1000 rows, whose rows
    share the head t_step + ",k"; it writes the bytes of the reference
    writer on either side of every decade and piece boundary."""

    LIVE = (0, 1, 998, 999, 1000, 1001, 1999, 2000, 9999, 10000, 10001, 99999, 100000)

    @pytest.mark.parametrize("sites", [999, 1000, 1001, 10000, 10001, 100001])
    def test_bytes_match_the_reference(self, tmp_path, sites):
        snaps = [_sparse_snapshot(sites, self.LIVE + (sites - 1,), 0),
                 _sparse_snapshot(sites, (sites - 1,), 123),
                 _sparse_snapshot(sites, (), 4567)]
        write_trajectory_csv(snaps, str(tmp_path / "traj.csv"))
        _write_reference_csv(snaps, tmp_path / "ref.csv")
        data = (tmp_path / "traj.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        lines = data.split(b"\r\n")
        dark = [x for x in range(sites) if lines[1 + x].endswith(b",0.0" * 8)]
        assert sites - len(dark) == len({x for x in self.LIVE + (sites - 1,) if x < sites})
        assert b",-0.0," in data and b",nan," in data

    def test_tables_do_not_grow_with_the_lattice(self, tmp_path):
        """Writing two snapshots of 65536 sites holds two 1000-entry
        tables, not one dark row per site (about 6 MiB at 65536 sites)."""
        snaps = list(run(point_source(65536), 0.5, 1))
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(snaps, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert path.stat().st_size > 2 * 65536 * 40

    def test_live_rows_are_formatted_in_blocks(self, tmp_path):
        """A piece of 1000 live rows has 8000 floats to format, but holds
        at most 1000 of them as Python floats at once: writing it peaks
        at about 700 KiB, where formatting the whole piece at once (8000
        floats and their eight lists, 256 KiB) peaked at about 1 MiB."""
        parts = np.random.default_rng(0).standard_normal((4, 2000)).view(complex)
        snaps = [WalkState(DCVector(parts[0], parts[1]), DCVector(parts[2], parts[3]), time=7)]
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(snaps, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 850 * 2**10
        _write_reference_csv(snaps, tmp_path / "ref.csv")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _trajectory_lines(tmp_path):
    """Header, then rows (t, x) = (0, 0..3), (1, 0..3), (2, 0..3)."""
    path = tmp_path / "traj.csv"
    write_trajectory_csv(run(point_source(4), m=0.5, steps=2), str(path))
    return path, path.read_text().splitlines(keepends=True)


class TestTrajectoryRejectsMalformed:
    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + lines[3:], "t_step 0: missing x_index 1"),
        (lambda lines: lines[:6] + [lines[7]] + lines[7:], "t_step 1: missing x_index 1"),
        (lambda lines: lines[:8] + [lines[7]] + lines[9:], "t_step 1: duplicate x_index 2"),
        (lambda lines: lines[:8] + lines[9:], "t_step 1: 3 rows, but t_step 0 has 4"),
        (lambda lines: lines[:5] + [lines[5].replace(",0,", ",-1,", 1)] + lines[6:],
         "t_step 1: negative x_index -1"),
    ])
    def test_bad_rows_name_the_snapshot(self, tmp_path, edit, message):
        path, lines = _trajectory_lines(tmp_path)
        path.write_text("".join(edit(lines)))
        with pytest.raises(MalformedTrajectory, match=message) as info:
            read_trajectory_csv(str(path))
        assert isinstance(info.value, DCError)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:3] + [lines[3].replace(",0.0,", ",zero,", 1)] + lines[4:],
         "line 4: could not convert string to float: 'zero'"),
        (lambda lines: lines[:2] + [lines[2].replace("0,1,", "0.5,1,", 1)] + lines[3:],
         "line 3: invalid literal for int"),
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 2)[0] + "\r\n"] + lines[6:],
         "line 6: "),
        (lambda lines: lines[:3] + [lines[3].rstrip() + ",7.5,junk\r\n"] + lines[4:],
         "line 4: 12 fields, but the header has 10"),
        (lambda lines: lines[:4] + ["\r\n"] + lines[4:], "line 5: 0 fields, but the header has 10"),
        (lambda lines: lines + ["\r\n"], "line 14: 0 fields, but the header has 10"),
        (lambda lines: [lines[0].replace("psiplus_re_sig", "psiplus_re")] + lines[1:],
         "header lacks column 'psiplus_re_sig'"),
        (lambda lines: [], "header lacks column 't_step'"),
    ])
    def test_bad_fields_name_the_line(self, tmp_path, edit, message):
        path, lines = _trajectory_lines(tmp_path)
        path.write_text("".join(edit(lines)))
        with pytest.raises(MalformedTrajectory, match=re.escape(message)):
            read_trajectory_csv(str(path))


class TestTrajectoryRejectsUnreadable:
    """A trajectory that cannot be read, decoded as UTF-8 or split into
    fields raises MalformedTrajectory saying where, worded as load_tagged
    words the same faults."""

    def test_non_utf8_byte(self, tmp_path):
        path, _ = _trajectory_lines(tmp_path)
        data = path.read_bytes()
        offset = data.index(b"\r\n1,") + 2
        path.write_bytes(data[:offset] + b"\xe9" + data[offset + 1:])
        message = f"^not UTF-8: byte 0xe9 at offset {offset}$"
        with pytest.raises(MalformedTrajectory, match=message):
            read_trajectory_csv(str(path))

    def test_field_over_the_csv_limit(self, tmp_path):
        path, lines = _trajectory_lines(tmp_path)
        lines[3] = lines[3].replace(",0.0,", "," + "0" * 200_000 + ",", 1)
        path.write_text("".join(lines))
        with pytest.raises(MalformedTrajectory, match=r"^line 4: field larger than field limit"):
            read_trajectory_csv(str(path))

    def test_missing_path(self, tmp_path):
        with pytest.raises(MalformedTrajectory, match="^No such file or directory$"):
            read_trajectory_csv(str(tmp_path / "absent.csv"))

    def test_directory(self, tmp_path):
        with pytest.raises(MalformedTrajectory, match="^Is a directory$"):
            read_trajectory_csv(str(tmp_path))
