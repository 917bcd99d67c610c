"""End-to-end tests of the dcq command line."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg

import dcquantum
from dcquantum import serialize
from dcquantum.cli import main
from dcquantum.linalg import DCMatrix, DCVector, dilation_block
from dcquantum.quantum import Measurement, QuantumState, normalize
from dcquantum.walk import dirac_gate

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def write_unitary(path, m):
    serialize.dump_json(serialize.unitary_to_json(m), str(path))
    return str(path)


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
        with pytest.raises(SystemExit) as exc:
            main(["check", "unitary", "--in", str(bad)])
        assert exc.value.code == 2
        assert "line 1" in capsys.readouterr().err


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

    def test_nan_is_not_reported_as_a_residual(self, tmp_path, capsys):
        doc = serialize.unitary_to_json(DCMatrix(np.eye(2)))
        doc["matrix"]["entries"][0][0] = float("nan")
        path = _write_doc(tmp_path / "nan.json", doc)
        assert main(["check", "spectrum", "--in", path]) == 2
        assert "NaN" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("edit, located", [
        (lambda f: f.pop("at_plus"), "missing key 'at_plus'"),
        (lambda f: f["at_minus"].clear(), "at_minus: expected a non-empty list"),
        (lambda f: f["at_zero"][0]["entries"][0].__setitem__(0, "x"), "at_zero[0].entries[0]"),
        (lambda f: f.__setitem__("step", "small"), "step: expected a positive number"),
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


def test_console_script_help():
    out = subprocess.run([sys.executable, "-m", "dcquantum.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "walk" in out.stdout and "translate" in out.stdout


def test_import_and_walk_leave_scipy_unloaded(tmp_path):
    """scipy.linalg loads only for mat_exp of a generator that is neither
    Hermitian nor anti-Hermitian: never for `import dcquantum`, `import
    dcquantum.cli`, `dcq walk`, the complex correction or a Schrodinger
    step."""
    code = textwrap.dedent(f"""
        import sys
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
        assert "scipy.linalg" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(dcquantum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
