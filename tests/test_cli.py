"""End-to-end tests of the dcq command line."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dcquantum
from dcquantum import cli, linalg, serialize
from dcquantum.cli import main
from dcquantum.linalg import DCMatrix, DCVector, dilation_block, residual
from dcquantum.quantum import Measurement, QuantumState, normalize
from dcquantum.walk import dirac_gate

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def write_unitary(path, m):
    serialize.dump_json(serialize.unitary_to_json(m), str(path))
    return str(path)


def family_doc(zero, plus, minus, step):
    """A translate --extend family file of operators sampled at 0 and +-step."""
    return {"kind": "family", "step": step, **{
        key: [serialize.matrix_to_json(DCMatrix(m)) for m in mats]
        for key, mats in (("at_minus", minus), ("at_zero", zero), ("at_plus", plus))}}


def rectangular_samples(step):
    """0.6 I_2 and a 3x2 operator moved along exp(ihA), A Hermitian,
    sampled at 0, +step and -step."""
    a = np.zeros((5, 5))
    a[0, 4] = a[4, 0] = a[1, 2] = a[2, 1] = 1.0
    v0 = np.vstack([0.6 * np.eye(2), [[0.8, 0.0], [0.0, 0.8], [0.0, 0.0]]])
    return [np.split(scipy.linalg.expm(1j * h * a) @ v0, [2]) for h in (0.0, step, -step)]


class TestWalkCommand:
    def test_row_count_and_exit(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["walk", "--mass", "0.5", "--sites", "8", "--steps", "3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 8  # header + (steps+1) snapshots x sites
        assert "final dual norm: 1.0" in capsys.readouterr().out

    def test_record_every(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["walk", "--mass", "0.5", "--sites", "4", "--steps", "4",
              "--record-every", "2", "--out", str(out)])
        snaps = serialize.read_trajectory_csv(str(out))
        assert [s.time for s in snaps] == [0, 2, 4]

    def test_zero_steps_echoes_source(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["walk", "--mass", "1.0", "--sites", "6", "--steps", "0",
                   "--out", str(out)])
        assert rc == 0
        (snap,) = serialize.read_trajectory_csv(str(out))
        assert snap.plus.sig[3] == 1.0

    def test_too_few_sites_is_usage_error(self, tmp_path, capsys):
        rc = main(["walk", "--mass", "1.0", "--sites", "1", "--steps", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--sites" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--steps", "-3"),
                                             ("--record-every", "0"),
                                             ("--record-every", "-2")])
    def test_bad_step_counts_are_usage_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        args = {"--mass": "1.0", "--sites": "4", "--steps": "2", flag: value}
        rc = main(["walk", *[a for kv in args.items() for a in kv], "--out", str(out)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestCheckCommand:
    def test_unitary_pass(self, tmp_path, capsys):
        path = write_unitary(tmp_path / "g.json", dirac_gate(0.7))
        assert main(["check", "unitary", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["worst_residual"] < 1e-12

    def test_unitary_fail(self, tmp_path, capsys):
        path = write_unitary(tmp_path / "b.json", DCMatrix(2 * np.eye(2)))
        assert main(["check", "unitary", "--in", path]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_hermitian(self, tmp_path, capsys):
        path = write_unitary(tmp_path / "h.json", DCMatrix(SZ, SZ))
        assert main(["check", "hermitian", "--in", path]) == 0
        capsys.readouterr()

    def test_spectrum(self, tmp_path, capsys):
        path = write_unitary(tmp_path / "g.json", dirac_gate(1.1))
        assert main(["check", "spectrum", "--in", path]) == 0
        assert json.loads(capsys.readouterr().out)["worst_residual"] < 1e-10

    def test_semipositive(self, tmp_path, capsys):
        m = DCMatrix(np.diag([1.0, 2.0]), SZ)
        path = write_unitary(tmp_path / "p.json", m)
        assert main(["check", "semipositive", "--in", path, "--trials", "40"]) == 0
        capsys.readouterr()

    def test_semipositive_bad_eps_part_on_kernel_fails(self, tmp_path, capsys):
        # psi = e_2 gives <psi|E|psi> = 0 - eps
        m = DCMatrix(np.diag([1.0, 0.0]), np.diag([0.0, -1.0]))
        path = write_unitary(tmp_path / "p.json", m)
        assert main(["check", "semipositive", "--in", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"check": "semipositive", "pass": False, "worst_residual": 1.0}

    def test_covariance_dual(self, capsys):
        rc = main(["check", "covariance", "--alpha", "2", "--beta", "3",
                   "--trials", "5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_discrepancy"] < 1e-12

    def test_covariance_corrected(self, capsys):
        rc = main(["check", "covariance", "--alpha", "2", "--beta", "2",
                   "--mode", "corrected", "--h", "1e-2", "--trials", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 1.8 <= report["fitted_order"] <= 2.2

    def test_covariance_corrected_readme_example(self, capsys):
        assert main(["check", "covariance", "--alpha", "2", "--beta", "3",
                     "--mode", "corrected", "--h", "1e-2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["fitted_order"] == pytest.approx(2.0, abs=0.01)

    @pytest.mark.parametrize("argv", [["--h", "1e-9"], ["--h", "1e-6", "--trials", "1"]])
    def test_covariance_corrected_below_fit_floor_fails(self, capsys, argv):
        # discrepancies of 2e-16 and 1.5e-13: too small to fit an order
        rc = main(["--seed", "3", "check", "covariance", "--alpha", "2", "--beta", "3",
                   "--mode", "corrected", *argv])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1 and report["pass"] is False

    @pytest.mark.parametrize("flag", ["--trials", "--alpha", "--beta"])
    @pytest.mark.parametrize("mode", ["dual", "corrected"])
    def test_covariance_bad_counts_are_usage_errors(self, capsys, flag, mode):
        rc = main(["check", "covariance", "--mode", mode, flag, "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_covariance_negative_alpha_is_usage_error(self, capsys):
        assert main(["check", "covariance", "--alpha", "-1"]) == 2
        assert "--alpha" in capsys.readouterr().err

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "unitary", }')
        assert main(["check", "unitary", "--in", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err


def _no_constants(token):
    raise AssertionError(f"report holds the non-JSON token {token}")


class TestCheckSpectrumKind:
    """check spectrum takes a file as Hermitian or unitary at REQUIRE_ATOL,
    the tolerance eig_hermitian and eig_unitary accept, and reports a
    finite residual for a matrix of neither kind."""

    def test_near_hermitian_passes_like_check_hermitian(self, tmp_path, capsys):
        # Hermitian defect 5e-9 over the largest sig entry 4: inside REQUIRE_ATOL, outside 1e-10
        sig = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        sig[0, 1] = 5e-9
        inf = np.array([[0.5, 1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 2j], [0, 0, -2j, 3]])
        path = write_unitary(tmp_path / "h.json", DCMatrix(sig, inf))
        assert main(["check", "hermitian", "--in", path]) == 0
        hermitian = json.loads(capsys.readouterr().out)
        assert main(["check", "spectrum", "--in", path]) == 0
        spectrum = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
        assert hermitian["pass"] is spectrum["pass"] is True
        assert hermitian["worst_residual"] == 5e-9 / 4
        assert spectrum["worst_residual"] <= 1e-8

    def test_non_normal_matrix_reports_the_smaller_residual(self, tmp_path, capsys):
        # Hermitian defect 2 and unitary defect max|M^dag M - I| = 4, each over
        # the largest entry 2
        path = write_unitary(tmp_path / "n.json", DCMatrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
        assert main(["check", "spectrum", "--in", path]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
        assert report == {"check": "spectrum", "pass": False, "worst_residual": 1.0}

    def test_near_unitary_is_taken_as_unitary(self, tmp_path, capsys):
        g = dirac_gate(0.7)
        path = write_unitary(tmp_path / "g.json", DCMatrix(g.sig * (1 + 2e-9), g.inf))
        assert main(["check", "spectrum", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
        assert report["worst_residual"] < 1e-8

    @pytest.mark.parametrize("m, kinds", [
        (DCMatrix(np.diag([1.0, 2.0]).astype(complex)), ["hermitian"]),
        (dirac_gate(0.7), ["hermitian", "unitary"]),
    ], ids=["hermitian", "unitary"])
    def test_kind_is_decided_once(self, tmp_path, capsys, monkeypatch, m, kinds):
        # each residual on the way to a passing spectrum is evaluated once
        seen = []

        def counting(mat, kind):
            seen.append(kind.value)
            return residual(mat, kind)

        path = write_unitary(tmp_path / "m.json", m)
        monkeypatch.setattr(linalg, "residual", counting)
        monkeypatch.setattr(cli, "residual", counting)
        assert main(["check", "spectrum", "--in", path]) == 0
        assert seen == kinds

    def test_rebuild_error_is_relative_to_the_largest_entry(self, tmp_path, capsys):
        # exactly Hermitian; the absolute rebuild error was 4.46e284
        big = DCMatrix(np.diag([1e300, 1e300]), np.array([[0.0, 1e300], [1e300, 0.0]]))
        path = write_unitary(tmp_path / "big.json", big)
        assert main(["check", "hermitian", "--in", path]) == 0
        capsys.readouterr()
        assert main(["check", "spectrum", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
        assert report["pass"] is True and report["worst_residual"] <= 1e-15

    def test_large_hermitian_to_rounding_passes(self, tmp_path, capsys):
        # the entries 1e10 and 1e10 + 1e-5 are 5 ulps apart: an absolute defect of 9.5e-6
        m = DCMatrix(np.array([[1e10, 1e10], [1e10 + 1e-5, 2e10]]))
        path = write_unitary(tmp_path / "large.json", m)
        for what in ("hermitian", "spectrum"):
            assert main(["check", what, "--in", path]) == 0
            report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
            assert report["pass"] is True and report["worst_residual"] <= 1e-15

    def test_state_has_no_spectrum(self, tmp_path, capsys):
        doc = serialize.state_to_json(normalize(DCVector(np.array([0.6, 0.8j]))))
        path = _write_doc(tmp_path / "s.json", doc)
        assert main(["check", "spectrum", "--in", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NonSquare: ")


def _write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestMalformedInput:
    """JSON matrices outside the documented format are usage errors: exit 2
    and a message naming the file and the offending key or entry, never a
    traceback."""

    @pytest.mark.parametrize("edit, located", [
        (lambda d: d.pop("matrix"), "missing key 'matrix'"),
        (lambda d: d["matrix"].pop("rows"), "matrix: missing key 'rows'"),
        (lambda d: d["matrix"].pop("cols"), "matrix: missing key 'cols'"),
        (lambda d: d["matrix"].pop("entries"), "matrix: missing key 'entries'"),
        (lambda d: d["matrix"]["entries"][1].pop(), "matrix.entries[1]"),
        (lambda d: d["matrix"]["entries"][2].append(0.0), "matrix.entries[2]"),
        (lambda d: d["matrix"]["entries"][3].__setitem__(0, "1.0"), "matrix.entries[3]"),
        (lambda d: d["matrix"]["entries"][0].__setitem__(1, True), "matrix.entries[0]"),
        (lambda d: d["matrix"]["entries"][2].__setitem__(2, float("nan")),
         "matrix.entries[2]"),
        (lambda d: d["matrix"]["entries"][1].__setitem__(3, float("-inf")),
         "matrix.entries[1]"),
    ], ids=["no-matrix", "no-rows", "no-cols", "no-entries", "3-floats", "5-floats",
            "string", "bool", "nan", "inf"])
    def test_check_exits_2_with_location(self, tmp_path, capsys, edit, located):
        doc = serialize.unitary_to_json(dirac_gate(0.7))
        edit(doc)
        path = _write_doc(tmp_path / "bad.json", doc)
        assert main(["check", "unitary", "--in", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: {located}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("content, located", [
        (b'{"kind": "unitary", "matrix": "\xe9"}', "not UTF-8"),
        (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
    ], ids=["latin-1", "deep"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, content, located):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["check", "unitary", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: {located}" in captured.err and captured.out == ""

    def test_check_of_a_measurement_names_the_file(self, tmp_path, capsys):
        meas = Measurement((DCMatrix(np.diag([1.0, 0.0])), DCMatrix(np.diag([0.0, 1.0]))))
        path = _write_doc(tmp_path / "m.json", serialize.measurement_to_json(meas))
        assert main(["check", "hermitian", "--in", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_wrong_entry_count_exits_2(self, tmp_path, capsys):
        doc = serialize.unitary_to_json(dirac_gate(0.7))
        del doc["matrix"]["entries"][1:]
        path = _write_doc(tmp_path / "short.json", doc)
        assert main(["check", "unitary", "--in", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: matrix: expected 4 entries, got 1" in captured.err
        assert captured.out == ""

    def test_state_with_two_columns_exits_2(self, tmp_path, capsys):
        doc = {"kind": "state", "matrix": serialize.matrix_to_json(DCMatrix(np.eye(2) / 2))}
        path = _write_doc(tmp_path / "wide.json", doc)
        assert main(["check", "unitary", "--in", path]) == 2
        assert f"error: {path}: matrix: vector encoding must have cols == 1" in (
            capsys.readouterr().err)

    def test_translate_names_the_operator(self, tmp_path, capsys):
        meas = Measurement((DCMatrix(np.diag([1.0, 0.0])), DCMatrix(np.diag([0.0, 1.0]))))
        doc = serialize.measurement_to_json(meas)
        doc["operators"][1]["entries"][2][0] = None
        path = _write_doc(tmp_path / "m.json", doc)
        rc = main(["translate", "--correct", "--h", "0.1", "--in", path,
                   "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert f"{path}: operators[1].entries[2]" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("kind, argv, message", [
        ("measurement", ["check", "unitary"], "check expects a unitary/matrix file"),
        ("unitary", ["translate", "--extend"], "--extend expects a family file"),
        ("state", ["translate", "--correct"], "translate expects a unitary or measurement file"),
    ], ids=["check-measurement", "extend-unitary", "translate-state"])
    def test_file_of_the_wrong_kind(self, tmp_path, capsys, kind, argv, message):
        docs = {
            "measurement": serialize.measurement_to_json(Measurement((DCMatrix(np.eye(2)),))),
            "unitary": serialize.unitary_to_json(dirac_gate(0.7)),
            "state": serialize.state_to_json(normalize(DCVector(np.array([0.6, 0.8j])))),
        }
        path = _write_doc(tmp_path / f"{kind}.json", docs[kind])
        out = str(tmp_path / "o.json")
        assert main([*argv, "--in", path, *(["--out", out] if argv[0] == "translate" else [])]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {message}\n"
        assert not os.path.exists(out)

    def test_nan_is_not_reported_as_a_residual(self, tmp_path, capsys):
        doc = serialize.unitary_to_json(DCMatrix(np.eye(2)))
        doc["matrix"]["entries"][0][0] = float("nan")
        path = _write_doc(tmp_path / "nan.json", doc)
        assert main(["check", "spectrum", "--in", path]) == 2
        assert "NaN" not in capsys.readouterr().out

    @pytest.mark.parametrize("what", ["unitary", "hermitian", "spectrum"])
    def test_overflowing_residual_is_not_reported(self, tmp_path, capsys, what):
        # finite entries whose residual is +inf: json.dumps would write Infinity
        path = write_unitary(tmp_path / "huge.json",
                             DCMatrix(np.array([[1e308, 1e308], [-1e308, 0.0]])))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["check", what, "--in", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: the {what} residual overflows a float\n"

    def test_unitary_check_on_state_is_an_isometry_check(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        state = normalize(DCVector(np.array([0.6, 0.8j]), np.array([0.0, 1.0])))
        serialize.dump_json(serialize.state_to_json(state), str(path))
        assert main(["check", "unitary", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["worst_residual"] < 1e-15

    def test_unitary_check_on_state_keeps_eps_part(self, tmp_path, capsys):
        # Re<sig|inf> = 4e-10 is inside the state tolerance, and
        # psi^dag psi = 1 + 8e-10 eps: only the eps-part can fail --rtol 1e-10
        doc = serialize.state_to_json(
            QuantumState(DCVector(np.array([1.0, 0.0]), np.array([4e-10, 1.0]))))
        path = _write_doc(tmp_path / "s.json", doc)
        assert main(["--rtol", "1e-10", "check", "unitary", "--in", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["worst_residual"] == pytest.approx(8e-10, rel=1e-6)


def _valid_inputs():
    """One valid file of each kind the CLI reads, as dump_json writes it,
    with each command that reads it, short of its --in."""
    step = 1e-3
    family = family_doc(*([scipy.linalg.expm(1j * h * SZ)] for h in (0.0, step, -step)), step)
    docs = {
        "unitary": serialize.unitary_to_json(dirac_gate(0.7)),
        "state": serialize.state_to_json(
            normalize(DCVector(np.array([0.6, 0.8j]), np.array([0.25, -0.5j])))),
        "measurement": serialize.measurement_to_json(Measurement(
            (DCMatrix(np.diag([1.0, 0.0])), DCMatrix(np.diag([0.0, 1.0]), SZ * 1j)))),
        "rectangular": serialize.measurement_to_json(Measurement(
            (DCMatrix(0.6 * np.eye(2)), DCMatrix(np.array([[0.8, 0], [0, 0.8], [0, 0]]))))),
        "family": family,
        "rectangular family": family_doc(*rectangular_samples(step), step),
    }
    translate = ["translate", "--correct", "--h", "0.05", "--out", "{out}"]
    checks = [["check", "unitary"], ["check", "spectrum"], ["check", "semipositive"]]
    commands = {
        "unitary": [*checks, translate],
        "state": checks,
        "measurement": [translate],
        "rectangular": [translate],
        "family": [["translate", "--extend", "--out", "{out}"]],
        "rectangular family": [["translate", "--extend", "--out", "{out}"]],
    }
    return [(json.dumps(doc, indent=1).encode() + b"\n", argv)
            for kind, doc in docs.items() for argv in commands[kind]]


_VALID_INPUTS = _valid_inputs()


@st.composite
def _corrupted(draw):
    content, argv = draw(st.sampled_from(_VALID_INPUTS))
    at = draw(st.integers(0, len(content) - 1))
    how = draw(st.sampled_from(["flip", "truncate", "insert"]))
    if how == "truncate":
        return content[:at], argv
    byte = bytes([draw(st.integers(0, 255))])
    return content[:at] + byte + content[at + (how == "flip"):], argv


# One JSON value token, and what may replace it: values of the wrong type,
# out of float range, non-standard constants and malformed containers.
_VALUE_TOKEN = re.compile(rb'-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|"(?:[^"\\]|\\.)*"|true|false|null')
_SWAPS = [b"1e400", b"-1e400", b"1e-400", b"NaN", b"Infinity", b"-Infinity", b"null", b"true",
          b'"x"', b'""', b"[]", b"{}", b"[[1, 2]]", b"0", b"-0.0", b"-1", b"3", b"2.5"]


@st.composite
def _mutated(draw):
    content, argv = draw(st.sampled_from(_VALID_INPUTS))
    how = draw(st.sampled_from(["swap", "delete", "insert"]))
    if how == "swap":
        token = draw(st.sampled_from(list(_VALUE_TOKEN.finditer(content))))
        swap = draw(st.sampled_from(_SWAPS))
        return content[:token.start()] + swap + content[token.end():], argv
    at = draw(st.integers(0, len(content) - 1))
    if how == "delete":
        return content[:at] + content[at + draw(st.integers(1, 8)):], argv
    return content[:at] + draw(st.binary(min_size=1, max_size=8)) + content[at:], argv


class TestCorruptedFiles:
    """A valid input file with one byte flipped, inserted or cut off, one
    value token swapped, or a run of bytes deleted or inserted ends in
    exit 0, 1 or 2, never in a traceback; an exit of 2 names the file."""

    def test_valid_inputs_are_accepted(self):
        for content, argv in _VALID_INPUTS:
            assert self._run(content, argv)[0] in (0, 1)

    @staticmethod
    def _run(content, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.json")
            with open(path, "wb") as f:
                f.write(content)
            out = os.path.join(tmp, "out.json")
            argv = [a.format(out=out) for a in argv] + ["--in", path]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as e:
                    rc = e.code
            return rc, err.getvalue(), path

    @settings(max_examples=300, deadline=None)
    @given(_corrupted())
    def test_corruption_never_escapes(self, case):
        rc, err, path = self._run(*case)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.startswith(f"error: {path}: ")

    @settings(max_examples=300, deadline=None)
    @given(_mutated())
    def test_swapped_value_or_spliced_bytes_never_escape(self, case):
        rc, err, path = self._run(*case)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.startswith(f"error: {path}: ")


class TestTranslateCommand:
    def test_extend_unitary_family(self, tmp_path, capsys):
        step = 1e-6
        fam = {
            "kind": "family",
            "step": step,
            "at_minus": [serialize.matrix_to_json(DCMatrix(scipy.linalg.expm(-1j * step * SZ)))],
            "at_zero": [serialize.matrix_to_json(DCMatrix(np.eye(2)))],
            "at_plus": [serialize.matrix_to_json(DCMatrix(scipy.linalg.expm(1j * step * SZ)))],
        }
        src, dst = tmp_path / "fam.json", tmp_path / "ext.json"
        src.write_text(json.dumps(fam))
        assert main(["translate", "--extend", "--in", str(src), "--out", str(dst)]) == 0
        out = serialize.load_tagged(str(dst))
        assert np.allclose(out.sig, np.eye(2))
        assert np.abs(out.inf - 1j * SZ).max() < 1e-9
        capsys.readouterr()

    def test_correct_mass_gate_closed_form(self, tmp_path):
        m, h = 0.8, 0.1
        src = write_unitary(tmp_path / "g.json", dirac_gate(m))
        dst = tmp_path / "corr.json"
        assert main(["translate", "--correct", "--h", str(h),
                     "--in", src, "--out", str(dst)]) == 0
        out = serialize.load_tagged(str(dst))
        want = np.cos(m * h) * np.array([[0, 1], [1, 0]]) - 1j * np.sin(m * h) * np.eye(2)
        assert np.abs(out.sig - want).max() < 1e-10
        assert np.abs(out.inf).max() == 0

    def test_correct_h_zero_returns_significant_part(self, tmp_path):
        src = write_unitary(tmp_path / "g.json", dirac_gate(1.3))
        dst = tmp_path / "corr.json"
        assert main(["translate", "--correct", "--h", "0",
                     "--in", src, "--out", str(dst)]) == 0
        out = serialize.load_tagged(str(dst))
        assert np.abs(out.sig - dirac_gate(1.3).sig).max() < 1e-12

    def test_correct_measurement_stays_complete(self, tmp_path):
        m0 = DCMatrix(np.array([[1, 0], [0, 0]], dtype=complex))
        m1 = DCMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
        meas = Measurement((m0, m1))
        src, dst = tmp_path / "m.json", tmp_path / "mc.json"
        serialize.dump_json(serialize.measurement_to_json(meas), str(src))
        assert main(["translate", "--correct", "--h", "0.2",
                     "--in", str(src), "--out", str(dst)]) == 0
        back = serialize.load_tagged(str(dst))  # Measurement ctor re-validates
        assert isinstance(back, Measurement) and len(back.operators) == 2

    def test_correct_rectangular_measurement(self, tmp_path):
        # a 2x2 and a 3x2 operator: the dilation is 5x5 and the corrected
        # blocks split at the operators' row counts
        meas = Measurement((DCMatrix(0.6 * np.eye(2)),
                            DCMatrix(np.array([[0.8, 0.0], [0.0, 0.8], [0.0, 0.0]]))))
        src, dst = tmp_path / "m.json", tmp_path / "mc.json"
        serialize.dump_json(serialize.measurement_to_json(meas), str(src))
        assert main(["translate", "--correct", "--h", "0.1",
                     "--in", str(src), "--out", str(dst)]) == 0
        back = serialize.load_tagged(str(dst))
        assert [op.shape for op in back.operators] == [(2, 2), (3, 2)]

    @pytest.mark.parametrize("edit, located", [
        (lambda f: f.pop("at_plus"), "missing key 'at_plus'"),
        (lambda f: f["at_minus"].clear(), "at_minus: expected a non-empty list"),
        (lambda f: f["at_zero"][0]["entries"][0].__setitem__(0, "x"), "at_zero[0].entries[0]"),
        (lambda f: f.__setitem__("step", "small"), "step: expected a positive number"),
        (lambda f: f["at_plus"].__setitem__(0, serialize.matrix_to_json(DCMatrix(np.eye(3)))),
         "at_plus[0]: expected a 2x2 matrix like at_zero[0], got 3x3"),
        (lambda f: f.pop("step"), "missing key 'step'"),
        (lambda f: f["at_plus"].append(f["at_plus"][0]),
         "at_zero, at_plus and at_minus differ in length"),
        (lambda f: f["at_zero"].append(serialize.matrix_to_json(DCMatrix(np.eye(3)))),
         "at_zero[1]: expected 2 columns like at_zero[0], got 3"),
        (lambda f: [f[key].append(serialize.matrix_to_json(DCMatrix(m))) for key, m in (
            ("at_zero", np.ones((3, 2))), ("at_plus", np.ones((3, 2))), ("at_minus", np.eye(2)))],
         "at_minus[1]: expected a 3x2 matrix like at_zero[1], got 2x2"),
    ])
    def test_extend_rejects_malformed_family(self, tmp_path, capsys, edit, located):
        def eye():
            return serialize.matrix_to_json(DCMatrix(np.eye(2)))

        fam = {"kind": "family", "step": 1e-6,
               "at_minus": [eye()], "at_zero": [eye()], "at_plus": [eye()]}
        edit(fam)
        src = _write_doc(tmp_path / "fam.json", fam)
        rc = main(["translate", "--extend", "--in", src, "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert f"error: {src}: {located}" in capsys.readouterr().err

    @pytest.mark.parametrize("h", [None, "0", "-1", "0.5"])
    def test_extend_takes_its_step_from_the_file(self, tmp_path, h):
        # sampled at +-1e-3; --h is read only by --correct
        step = 1e-3
        fam = family_doc(*([scipy.linalg.expm(1j * t * SZ)] for t in (0.0, step, -step)), step)
        src, dst = _write_doc(tmp_path / "fam.json", fam), str(tmp_path / "ext.json")
        flag = [] if h is None else ["--h", h]
        assert main(["translate", "--extend", *flag, "--in", src, "--out", dst]) == 0
        out = serialize.load_tagged(dst)
        assert np.abs(out.inf - 1j * SZ).max() < 1e-6

    def test_extend_rectangular_measurement_family(self, tmp_path):
        # a 2x2 and a 3x2 operator: each slot keeps its shape, and the
        # extension is the samples' central difference, then corrects
        step = 1e-3
        zero, plus, minus = rectangular_samples(step)
        src = _write_doc(tmp_path / "fam.json", family_doc(zero, plus, minus, step))
        dst = str(tmp_path / "ext.json")
        assert main(["translate", "--extend", "--in", src, "--out", dst]) == 0
        back = serialize.load_tagged(dst)
        assert [op.shape for op in back.operators] == [(2, 2), (3, 2)]
        for op, z, p, m in zip(back.operators, zero, plus, minus):
            assert np.array_equal(op.sig, z) and np.array_equal(op.inf, (p - m) / (2 * step))
        assert main(["translate", "--correct", "--h", "0.1", "--in", dst,
                     "--out", str(tmp_path / "corr.json")]) == 0

    def test_extend_rejects_non_family(self, tmp_path, capsys):
        src = write_unitary(tmp_path / "g.json", dirac_gate(1.0))
        rc = main(["translate", "--extend", "--in", src,
                   "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "family" in capsys.readouterr().err


class TestConvergenceCommand:
    @pytest.mark.parametrize("sites", [["0"], ["64", "-8"]])
    def test_walk_study_bad_sites_is_usage_error(self, capsys, sites):
        assert main(["convergence", "--walk", "--sites", *sites]) == 2
        captured = capsys.readouterr()
        assert "--sites" in captured.err and captured.out == ""

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--jobs", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_gate_study_ratios(self, capsys):
        assert main(["convergence"]) == 0
        report = json.loads(capsys.readouterr().out)
        for r in report["ratios"]:
            assert 3.3 < r < 4.7

    def test_walk_study_parallel(self, capsys):
        rc = main(["convergence", "--walk", "--sites", "64", "128", "256"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for r in report["ratios"]:
            assert 1.6 < r < 2.4



_BAD_FLAGS = [
    (["check", "covariance", "--mass", "nan"], "--mass"),
    (["check", "covariance", "--mass", "inf"], "--mass"),
    (["check", "covariance", "--mode", "corrected", "--h", "0"], "--h"),
    (["check", "covariance", "--mode", "corrected", "--h", "-0.01"], "--h"),
    (["check", "covariance", "--mode", "corrected", "--h", "nan"], "--h"),
    (["check", "covariance", "--mode", "corrected", "--h", "inf"], "--h"),
    (["check", "unitary"], "--in"),
    (["check", "spectrum"], "--in"),
    (["check", "semipositive", "--in", "{diag}", "--trials", "0"], "--trials"),
    (["check", "semipositive", "--in", "{diag}", "--trials", "-5"], "--trials"),
    (["translate", "--correct", "--h", "nan", "--in", "{gate}", "--out", "{out}"], "--h"),
    (["translate", "--correct", "--h", "inf", "--in", "{gate}", "--out", "{out}"], "--h"),
    (["translate", "--extend", "--h", "nan", "--in", "{gate}", "--out", "{out}"], "--h"),
    (["convergence", "--walk", "--wavenumber", "nan"], "--wavenumber"),
    (["convergence", "--mass", "nan"], "--mass"),
    (["convergence", "--walk", "--mass", "inf"], "--mass"),
    (["convergence", "--h-list", "1e-2", "0"], "--h-list"),
    (["convergence", "--h-list", "nan"], "--h-list"),
    (["--rtol", "nan", "check", "unitary", "--in", "{gate}"], "--rtol"),
    (["--rtol", "-1", "check", "unitary", "--in", "{gate}"], "--rtol"),
    (["--tau", "nan", "check", "semipositive", "--in", "{diag}"], "--tau"),
    (["--tau", "-1", "check", "semipositive", "--in", "{diag}"], "--tau"),
    (["--delta", "nan", "check", "spectrum", "--in", "{gate}"], "--delta"),
    (["--delta", "-1", "check", "spectrum", "--in", "{gate}"], "--delta"),
    (["--seed", "-1", "check", "covariance"], "--seed"),
]


class TestFlagRanges:
    """A numeric flag out of range, or a missing --in, is a usage error:
    exit 2, a message naming the flag, nothing on stdout and no output
    file."""

    @pytest.mark.parametrize("argv, flag", _BAD_FLAGS,
                             ids=[" ".join(a) for a, _ in _BAD_FLAGS])
    def test_usage_error(self, tmp_path, capsys, argv, flag):
        files = {"gate": write_unitary(tmp_path / "g.json", dirac_gate(0.7)),
                 "diag": write_unitary(tmp_path / "p.json", DCMatrix(np.diag([1.0, 2.0]))),
                 "out": str(tmp_path / "o.json")}
        assert main([a.format(**files) for a in argv]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert not (tmp_path / "o.json").exists()

    def test_h_is_not_read_in_dual_mode(self, capsys):
        assert main(["check", "covariance", "--h", "0", "--trials", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_zero_tolerances_are_accepted(self, tmp_path, capsys):
        gate = write_unitary(tmp_path / "g.json", dirac_gate(0.7))
        herm = write_unitary(tmp_path / "h.json", DCMatrix(SZ, SZ))
        diag = write_unitary(tmp_path / "p.json", DCMatrix(np.diag([1.0, 2.0])))
        assert main(["--delta", "0", "check", "spectrum", "--in", gate]) == 0
        assert main(["--rtol", "0", "check", "hermitian", "--in", herm]) == 0
        assert main(["--tau", "0", "--seed", "0", "check", "semipositive", "--in", diag,
                     "--trials", "1"]) == 0
        capsys.readouterr()

def test_console_script_help():
    out = subprocess.run([sys.executable, "-m", "dcquantum.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "walk" in out.stdout and "translate" in out.stdout


def test_import_and_walk_leave_scipy_unloaded(tmp_path):
    """The package runs without scipy: with every scipy import made to
    fail, `import dcquantum`, `import dcquantum.cli`, `dcq walk`, the
    complex correction, a Schrodinger step and mat_exp of a non-normal
    generator all work and leave scipy unloaded."""
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        import numpy as np
        import dcquantum.cli
        import dcquantum
        assert "scipy.linalg" not in sys.modules, "import"
        rc = dcquantum.cli.main(["walk", "--mass", "0.5", "--sites", "8",
                                 "--steps", "3", "--out", {str(tmp_path / "w.csv")!r}])
        assert rc == 0 and "scipy.linalg" not in sys.modules, "walk"

        from dcquantum import (DCMatrix, DCVector, QuantumState, complex_correct_unitary,
                               mat_exp, schrodinger_step)
        from dcquantum.walk import corrected_gate, dirac_gate
        e = mat_exp(DCMatrix(np.zeros((2, 2)), np.eye(2)))
        assert np.allclose(e.sig, np.eye(2)) and np.allclose(e.inf, np.eye(2))
        u = complex_correct_unitary(dirac_gate(0.5), 0.1)
        assert np.allclose(u, corrected_gate(0.5, 0.1), atol=1e-12)
        s = QuantumState(DCVector(np.array([1.0, 0.0])))
        s = schrodinger_step(s, DCMatrix(np.array([[0, 1], [1, 0]]), np.eye(2)), 0.1)
        assert "scipy.linalg" not in sys.modules, "closed forms"

        e = mat_exp(DCMatrix(np.array([[0, 1], [0, 0]]), np.eye(2)))
        assert np.allclose(e.sig, [[1, 1], [0, 1]]) and np.allclose(e.inf, [[1, 1], [0, 1]])
        assert "scipy.linalg" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(dcquantum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
