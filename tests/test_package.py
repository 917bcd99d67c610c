"""The package's module layout: each module stays small enough to
compile cheaply, each process loads only the layers it runs, and the
split of the spectral closed forms out of `linalg` keeps every name and
every pickle that named `linalg`."""

import ast
import io
import os
import pickle
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import numpy as np
import pytest

import dcquantum
from dcquantum import linalg, serialize, spectral
from dcquantum.linalg import DCMatrix, DCVector
from dcquantum.quantum import Measurement

MODULES = sorted(Path(dcquantum.__file__).parent.glob("*.py"))

# Every process that runs dcquantum from source without bytecode compiles
# it on import, and CPython 3.11's parser holds a module's tokens in one
# array that doubles when full: past 4096 tokens the array grows to 8192
# entries, which raised the operators benchmark's peak RSS by 0.08-0.11 MiB.
# The budget leaves room below that cliff.
TOKEN_BUDGET = 3300


def parser_tokens(path: Path) -> int:
    """Tokens of a module as the parser receives them: tokenize's stream
    without the comments, non-logical newlines and encoding marker."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as f:
        return sum(1 for t in tokenize.tokenize(f.readline) if t.type not in skipped)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_stays_below_the_token_budget(path):
    n = parser_tokens(path)
    assert n < TOKEN_BUDGET, f"{path.stem} has {n} parser tokens (budget {TOKEN_BUDGET})"


# Public names defined in dcquantum.linalg before the spectral closed
# forms and the matrix exponential moved to dcquantum.spectral.
LINALG_NAMES = [
    "CLUSTER_DELTA", "DCMatrix", "DCVector", "DualSpectrum", "OperatorKind",
    "REQUIRE_ATOL", "SemipositivityReport", "check_appreciably_semipositive",
    "classify_op", "completeness_defect", "decompose_unitary", "dilation_block",
    "divide_vector", "eig_hermitian", "eig_unitary", "inner", "is_hermitian",
    "is_unitary", "kron", "log_unitary", "mat_exp", "norm_sq", "residual",
    "stinespring", "vnorm",
]
MOVED = ["CLUSTER_DELTA", "DualSpectrum", "SemipositivityReport",
         "check_appreciably_semipositive", "eig_hermitian", "eig_unitary", "log_unitary",
         "mat_exp"]


def test_linalg_keeps_every_public_name():
    assert [n for n in LINALG_NAMES if not hasattr(linalg, n)] == []
    for name in MOVED:
        assert getattr(linalg, name) is getattr(spectral, name), name
        if hasattr(dcquantum, name):
            assert getattr(dcquantum, name) is getattr(spectral, name), name
    for cls in (DCVector, DCMatrix, linalg.OperatorKind):
        assert cls.__module__ == "dcquantum.linalg"


def unused_imports(path: Path) -> list:
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_bytes())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    # the package and linalg re-export by name on first access, not by import
    unused = unused_imports(path)
    assert unused == [], f"{path.stem} imports {unused} and never reads them"


# pickle.dumps(eig_hermitian(DCMatrix([[2.0]], [[0.5]]))) as written when
# DualSpectrum was defined in dcquantum.linalg (numpy 2 array pickles)
LINALG_SPECTRUM_PICKLE = (
    b"\x80\x04\x95\x9e\x01\x00\x00\x00\x00\x00\x00\x8c\x10dcquantum.linalg\x94\x8c"
    b"\x0cDualSpectrum\x94\x93\x94)\x81\x94}\x94(\x8c\x06values\x94h\x00\x8c\x08DC"
    b"Vector\x94\x93\x94\x8c\x16numpy._core.multiarray\x94\x8c\x0c_reconstruct\x94"
    b"\x93\x94\x8c\x05numpy\x94\x8c\x07ndarray\x94\x93\x94K\x00\x85\x94C\x01b\x94"
    b"\x87\x94R\x94(K\x01K\x01\x85\x94h\x0b\x8c\x05dtype\x94\x93\x94\x8c\x03c16"
    b"\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01<\x94NNNJ\xff\xff\xff\xffJ\xff\xff"
    b"\xff\xffK\x00t\x94b\x89C\x10\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00"
    b"\x00\x00\x00\x00\x94t\x94bh\nh\rK\x00\x85\x94h\x0f\x87\x94R\x94(K\x01K\x01"
    b"\x85\x94h\x17\x89C\x10\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00"
    b"\x00\x00\x94t\x94b\x86\x94R\x94\x8c\x05basis\x94h\x00\x8c\x08DCMatrix\x94"
    b"\x93\x94h\nh\rK\x00\x85\x94h\x0f\x87\x94R\x94(K\x01K\x01K\x01\x86\x94h\x17"
    b"\x89C\x10\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00\x00\x94t"
    b"\x94bh\nh\rK\x00\x85\x94h\x0f\x87\x94R\x94(K\x01K\x01K\x01\x86\x94h\x17\x89C"
    b"\x10\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x94t"
    b"\x94b\x86\x94R\x94\x8c\x04kind\x94\x8c\thermitian\x94ub."
)


def _load(data: bytes):
    """The unpickled value and the (module, name) of each class looked up."""
    found = []

    class Recording(pickle.Unpickler):
        def find_class(self, module, name):
            found.append((module, name))
            return super().find_class(module, name)

    return Recording(io.BytesIO(data)).load(), found


def test_a_spectrum_pickled_from_linalg_still_loads():
    spec, found = _load(LINALG_SPECTRUM_PICKLE)
    assert found[0] == ("dcquantum.linalg", "DualSpectrum")
    assert type(spec) is spectral.DualSpectrum
    assert spec == spectral.eig_hermitian(DCMatrix([[2.0]], [[0.5]]))
    assert not spec.basis.sig.flags.writeable and not spec.values.inf.flags.writeable


def test_ring_arrays_pickle_under_linalg():
    spec = spectral.eig_hermitian(DCMatrix(np.eye(2), np.ones((2, 2))))
    back, found = _load(pickle.dumps(spec))
    assert back == spec
    assert found[0] == ("dcquantum.spectral", "DualSpectrum")
    assert ("dcquantum.linalg", "DCVector") in found and ("dcquantum.linalg", "DCMatrix") in found


# ---------------------------------------------------------------------------
# Each process loads only the layers it runs
# ---------------------------------------------------------------------------


def loaded_after(code: str, cwd) -> set:
    """The dcquantum submodules a fresh interpreter has loaded once it has
    run `code` in `cwd`."""
    report = "import sys; print(*sorted(n for n in sys.modules if n.startswith('dcquantum.')))"
    src = str(Path(dcquantum.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code) + "\n" + report],
                         cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return {name.removeprefix("dcquantum.") for name in out.stdout.split()}


def test_import_loads_no_submodule(tmp_path):
    assert loaded_after("import dcquantum", tmp_path) == set()


def test_every_public_name_resolves_and_is_listed(tmp_path):
    loaded_after("""
        import dcquantum
        from dcquantum import *
        listed = dir(dcquantum)
        assert [n for n in dcquantum.__all__ if n not in listed] == []
        assert [n for n in dcquantum.__all__ if n not in globals()] == []
        assert dcquantum.mat_exp is dcquantum.linalg.mat_exp is dcquantum.spectral.mat_exp
        assert "serialize" in listed and dcquantum.serialize.__name__ == "dcquantum.serialize"
        try:
            dcquantum.no_such_name
        except AttributeError:
            pass
        else:
            raise SystemExit("dcquantum.no_such_name resolved")
        """, tmp_path)


def test_the_schrodinger_drivers_imports_leave_the_walk_and_cli_unloaded(tmp_path):
    loaded = loaded_after("""
        from dcquantum.linalg import DCMatrix
        from dcquantum.quantum import Measurement, QuantumState, measure, schrodinger_step
        from dcquantum.scalar import DualReal
        from dcquantum.serialize import matrix_from_json, vector_from_json
        """, tmp_path)
    assert {"linalg", "quantum", "scalar", "serialize", "spectral"} <= loaded
    assert not loaded & {"walk", "cli"}


def test_a_walk_leaves_the_spectral_layer_and_the_engine_unloaded(tmp_path):
    loaded = loaded_after("""
        from dcquantum import cli
        assert cli.main(["walk", "--mass", "0.5", "--sites", "8", "--steps", "3",
                         "--out", "w.csv"]) == 0
        """, tmp_path)
    assert "walk" in loaded and "serialize" in loaded
    assert not loaded & {"spectral", "quantum"}


@pytest.mark.parametrize("argv, writes_json", [
    (["walk", "--mass", "0.5", "--sites", "8", "--steps", "3", "--out", "w.csv"], False),
    (["check", "unitary", "--in", "u.json"], False),
    (["check", "unitary", "--in", "u.json", "--out", "r.json"], True),
], ids=["walk", "check", "check_out"])
def test_only_a_json_writer_loads_the_json_formatting(tmp_path, argv, writes_json):
    serialize.dump_json(serialize.unitary_to_json(DCMatrix(np.eye(2))), str(tmp_path / "u.json"))
    loaded = loaded_after(f"""
        from dcquantum import cli
        assert cli.main({argv!r}) == 0
        """, tmp_path)
    assert "serialize" in loaded
    assert ("jsonfmt" in loaded) is writes_json


def test_a_state_check_leaves_the_engine_and_the_spectral_layer_unloaded(tmp_path):
    # a state is checked as its n x 1 column, never built as a QuantumState
    col = DCMatrix(np.array([[0.6], [0.8j]]))
    doc = {**serialize.unitary_to_json(col), "kind": "state"}
    serialize.dump_json(doc, str(tmp_path / "s.json"))
    loaded = loaded_after("""
        from dcquantum import cli
        assert cli.main(["check", "unitary", "--in", "s.json"]) == 0
        """, tmp_path)
    assert "serialize" in loaded
    assert not loaded & {"quantum", "spectral", "walk"}


@pytest.mark.parametrize("argv", [["check", "spectrum", "--in", "u.json"],
                                  ["translate", "--correct", "--h", "0.1", "--in", "u.json",
                                   "--out", "c.json"],
                                  ["translate", "--correct", "--h", "0.1", "--in", "m.json",
                                   "--out", "c.json"]],
                         ids=["check_spectrum", "translate_unitary", "translate_measurement"])
def test_operator_commands_leave_the_walk_unloaded(tmp_path, argv):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = DCMatrix(sx, -0.5j * sx)
    serialize.dump_json(serialize.unitary_to_json(u), str(tmp_path / "u.json"))
    m = Measurement((DCMatrix(0.6 * np.eye(2)), DCMatrix(0.8 * np.eye(2))))
    serialize.dump_json(serialize.measurement_to_json(m), str(tmp_path / "m.json"))
    loaded = loaded_after(f"""
        from dcquantum import cli
        assert cli.main({argv!r}) == 0
        """, tmp_path)
    assert "spectral" in loaded or "quantum" in loaded
    assert "walk" not in loaded


def test_a_spectrum_pickled_from_linalg_loads_in_a_process_that_imported_nothing(tmp_path):
    loaded = loaded_after(f"""
        import pickle
        spec = pickle.loads({LINALG_SPECTRUM_PICKLE!r})
        assert type(spec).__module__ == "dcquantum.spectral", type(spec)
        assert spec.values.sig.tolist() == [2.0] and spec.values.inf.tolist() == [0.5]
        """, tmp_path)
    assert "walk" not in loaded
