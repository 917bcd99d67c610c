"""Self-tests of the benchmark: every workload passes its oracles at a
tiny size, and a wrong output counts as a failure without a traceback.

    python3 -m pytest -q dcqbench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name, tmp_path, seed=3):
    return workloads.make(name, seed, tmp_path, workloads.TINY[name])


def one_pass(wl, tmp_path):
    stats = Counter()
    run.run_pass(wl, tmp_path, stats)
    return stats


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_passes_oracles_at_tiny_size(name, tmp_path):
    wl = tiny(name, tmp_path)
    stats = one_pass(wl, tmp_path)
    assert stats["attempted"] == len(wl.commands)
    assert stats["failed"] == 0


@pytest.mark.parametrize("index", [0, 1])
def test_flipped_byte_in_walk_csv_fails(index, tmp_path):
    cmd = tiny("walk", tmp_path).commands[index]
    c = run.run_child(cmd.argv(sys.executable), tmp_path)
    assert cmd.check(c.rc, c.stdout) is None
    (csv,) = cmd.outputs
    data = bytearray(csv.read_bytes())
    data[len(data) // 2] ^= 0x01
    csv.write_bytes(bytes(data))
    assert "differs" in cmd.check(c.rc, c.stdout)


def schrodinger(tmp_path):
    (cmd,) = [c for c in tiny("operators", tmp_path).commands if c.label == "schrodinger"]
    return cmd


def test_wrong_exit_code_fails(tmp_path):
    wl = tiny("operators", tmp_path)
    assert wl.commands[0].check(1, "") == "exit code 1"
    (tmp_path / "unitary.json").unlink()  # the program now exits with a usage error
    stats = one_pass(wl, tmp_path)
    assert stats["attempted"] == 6
    assert stats["failed"] == 2  # check spectrum and translate on the missing file


def test_missing_output_fails_without_traceback(tmp_path):
    assert schrodinger(tmp_path).check(0, "").startswith("FileNotFoundError")


def test_sum_p_off_by_1e_6_fails(tmp_path):
    cmd = schrodinger(tmp_path)
    c = run.run_child(cmd.argv(sys.executable), tmp_path)
    assert cmd.check(c.rc, c.stdout) is None
    out = tmp_path / "schrodinger_out.json"
    result = json.loads(out.read_text())
    result["sum_p"][1][0] += 1e-6
    out.write_text(json.dumps(result))
    assert "sum p" in cmd.check(c.rc, c.stdout)


def test_traced_pass_reaches_the_named_layers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    figures = {}
    for name in workloads.NAMES:
        wl = tiny(name, tmp_path)
        entries = {cmd.module: tracing._load_main(cmd.module) for cmd in wl.commands}
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, entries.values())
        stats = Counter()
        try:
            tracing.run_pass(wl, entries, stats)
        finally:
            tracing.uninstall(undo)
        assert stats["failed"] == 0
        figures[name] = tracing.layer_figures(tracer.spans, tracer.counters)
    walk, ops = figures["walk"], figures["operators"]
    sizes = workloads.TINY["walk"]
    assert walk["walk.step.calls"] == sizes["record"]["steps"] + sizes["long"]["steps"]
    assert walk["serialize.csv_write.rows"] > 0
    assert walk["linalg.mat_exp.calls"] == 0
    assert ops["walk.step.calls"] == 0
    assert ops["linalg.stinespring.self_s"] > 0
    assert ops["walk.covariance_check.calls"] == 3
    steps = workloads.TINY["operators"]["schrodinger"]["steps"]
    assert ops["linalg.mat_exp.calls"] == steps
    assert ops["quantum.measure.calls"] == steps
    assert ops["linalg.classify_op.calls"] >= 2 * steps  # two per schrodinger_step


def test_child_reports_its_own_peak_rss(tmp_path):
    ballast = bytearray(200 * 2**20)  # the benchmark's own memory must not count
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    c = run.run_child([sys.executable, "-c", "pass"], tmp_path)
    assert c.rc == 0
    assert 0 < c.rss_mib < 100


def test_child_past_timeout_is_killed(tmp_path):
    c = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path,
                      timeout=0.5)
    assert c.rc != 0
    assert c.wall_s < 30


def test_self_time_excludes_grouped_children():
    # stinespring (0..100) calls inner (10..30, no group) and matmul (40..60)
    spans = [(0, 2, 1, "linalg.inner", 10, 30),
             (0, 3, 1, "linalg.DCMatrix.__matmul__", 40, 60),
             (0, 1, 0, "linalg.stinespring", 0, 100),
             (0, 0, -1, "quantum.complex_correct_measurement", -10, 110)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 20, 1: 80, 3: 20}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "dcqbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "dcqbench/run.py", "--workload", "walk",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
