"""Round-trip tests for the JSON and CSV formats."""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dc_unitary, random_dc_vector
from dcquantum.errors import DCError, DimMismatch, MalformedInput, MalformedTrajectory
from dcquantum.linalg import DCMatrix, DCVector
from dcquantum.quantum import Measurement, QuantumState, measurement_from_complex, normalize
from dcquantum.scalar import DualComplex
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
        ({"kind": "measurement", "operators": [], "labels": []}, "operators and labels"),
        ({"kind": "mystery"}, "unknown kind tag: 'mystery'"),
        ([], "expected an object, got list"),
        ({"kind": "measurement", "labels": [0, 1], "operators": [
            {"rows": 2, "cols": 2, "entries": [[1, 0, 0, 0], [0] * 4, [0] * 4, [1, 0, 0, 0]]},
            {"rows": 3, "cols": 3, "entries": [[0] * 4] * 9}]},
         "operators[1]: expected 2 columns like operators[0], got 3"),
    ])
    def test_tagged_structure(self, doc, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}"):
            tagged_from_json(doc)


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
        snaps = run(point_source(4, x0=1), m=0.37, steps=3)
        snaps.append(WalkState(DCVector(special, special[::-1] * 1j),
                               DCVector(-special, special.conj()), time=99))
        snaps.append(WalkState(DCVector(np.zeros(0)), DCVector(np.zeros(0)), time=100))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(snaps, str(path))

        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(TRAJECTORY_COLUMNS)
            for snap in snaps:
                for x in range(snap.sites):
                    p, mns = snap.plus[x], snap.minus[x]
                    writer.writerow([snap.time, x] + [repr(v) for v in (
                        p.sig.real, p.sig.imag, p.inf.real, p.inf.imag,
                        mns.sig.real, mns.sig.imag, mns.inf.real, mns.inf.imag)])
        data = path.read_bytes()
        assert data == ref.read_bytes()
        assert b",-0.0," in data and b",5e-324," in data and b"2.5e-310" in data
        assert any(s.plus.inf.any() for s in snaps)


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
        (lambda lines: [lines[0].replace("psiplus_re_sig", "psiplus_re")] + lines[1:],
         "header lacks column 'psiplus_re_sig'"),
        (lambda lines: [], "header lacks column 't_step'"),
    ])
    def test_bad_fields_name_the_line(self, tmp_path, edit, message):
        path, lines = _trajectory_lines(tmp_path)
        path.write_text("".join(edit(lines)))
        with pytest.raises(MalformedTrajectory, match=re.escape(message)):
            read_trajectory_csv(str(path))
