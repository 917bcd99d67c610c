"""dcquantum benchmark: runs one workload (or all of them) as a user
does and prints its metrics.

    python3 dcqbench/run.py --workload walk --seed 1 --seconds 50 --trace 0
    python3 dcqbench/run.py --all --seed 1 --seconds 50

End-to-end runs (--trace 0) start every command in a fresh interpreter
(`python -m dcquantum.cli ...`, or the library driver script), so they
count interpreter start-up and import; set-up time is the import of
dcquantum.cli in a fresh interpreter.  Load model: closed loop, one
client; each invocation waits for the previous one.  Children run with
BLAS and OpenMP pinned to one thread.  One pass is the workload's
command list; pass time is the sum of its children's wall times, and
the output checks and the removal of the previous outputs run between
commands, outside the timed region.

Traced runs (--trace 1) report the per-layer figures instead: per-command
subprocess times from untraced passes, the import time of dcquantum.cli,
and the layer spans of an in-process run (see tracing.py), including the
cost of tracing itself.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names, units and
directions are those of BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads, for the oracles run here

import argparse  # noqa: E402
import ast  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60.0      # one program invocation
TRACED_TIMEOUT_S = 120.0    # the traced in-process child
SETUP_SAMPLES = 9           # fresh-process imports per run, median reported
IMPORT_SAMPLES = 5          # in-process import timings per traced run
MIN_PASSES = 3              # timed passes per run, whatever --seconds says

WALK_L2_NOTE = ("walk_long: the (sig, inf) x (+, -) field is {mib:.2f} MiB, which fits in "
                "the L2 cache; walk rates are per-step overhead, not DRAM bandwidth, and "
                "gb_per_s is computed from array sizes (128 B per site-step)")


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# Starts one command from a fresh, small interpreter and reports its exit
# code, wall time, user+sys CPU time and peak RSS (KiB) on the file
# descriptor given as the first argument.  Linux carries the high-water
# RSS of the image a process was forked from across exec, so a command
# forked from the benchmark itself would report the benchmark's memory
# as its own peak RSS whenever that is larger.
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(int(sys.argv[1]), repr((os.waitstatus_to_exitcode(status), wall,
                                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss)).encode())
"""


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list, cwd: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one process to completion through LAUNCHER.  A process past
    `timeout` is killed with its launcher.  Its output goes to unnamed
    files, which are never written back to disk."""
    r, w = os.pipe()
    try:
        with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-I", "-S", "-c", LAUNCHER, str(w), *argv],
                                    cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, pass_fds=(w,),
                                    start_new_session=True)
            os.close(w)
            w = -1
            timer = threading.Timer(timeout, kill_group, (proc.pid,))
            timer.start()
            try:
                proc.wait()
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            report = os.read(r, 4096)
            if report:
                rc, wall, cpu, rss_kib = ast.literal_eval(report.decode())
            else:  # the launcher was killed
                rc, wall, cpu, rss_kib = proc.returncode, time.perf_counter() - t0, 0.0, 0
            out.seek(0)
            err.seek(0)
            return Child(rc, wall, cpu, rss_kib / 1024.0, out.read().decode(errors="replace"),
                         err.read().decode(errors="replace"))
    finally:
        os.close(r)
        if w >= 0:
            os.close(w)


@dataclass
class Pass:
    """Totals of one pass over a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    by_label: dict = field(default_factory=lambda: defaultdict(float))


def run_pass(wl, work: Path, stats: Counter) -> Pass:
    p = Pass()
    for cmd in wl.commands:
        cmd.remove_outputs()
        c = run_child(cmd.argv(sys.executable), work)
        stats["attempted"] += 1
        err = cmd.check(c.rc, c.stdout)
        if err is not None:
            stats["failed"] += 1
            tail = c.stderr.strip().splitlines()[-1:] or [""]
            print(f"FAIL {wl.name} {cmd.label}: {err} {tail[0]}", file=sys.stderr)
        p.wall_s += c.wall_s
        p.cpu_s += c.cpu_s
        p.rss_mib = max(p.rss_mib, c.rss_mib)
        p.by_label[cmd.label] += c.wall_s
    return p


def timed_passes(wl, work: Path, seconds: float, stats: Counter, setup=None) -> list:
    """Closed loop of passes until `seconds` of child time is measured.
    When `setup` (a list) is given, set-up samples are taken between
    passes, spread evenly over the measured time (which they count
    toward), so that both see the same machine conditions."""
    passes = []
    measured = 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        passes.append(run_pass(wl, work, stats))
        measured += passes[-1].wall_s
        while setup is not None and len(setup) < SETUP_SAMPLES * min(1.0, measured / seconds):
            setup.append(setup_sample(wl, work, stats))
            measured += setup[-1]
    return passes


def setup_sample(wl, work: Path, stats: Counter) -> float:
    c = run_child(wl.setup_argv(sys.executable), work)
    stats["attempted"] += 1
    if c.rc != 0:
        stats["failed"] += 1
        print(f"FAIL {wl.name} setup: exit code {c.rc}", file=sys.stderr)
    return c.wall_s


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def end_to_end(wl, work: Path, seconds: float, stats: Counter) -> dict:
    run_pass(wl, work, stats)  # warm-up: page cache, bytecode cache, full output checks
    setup = []
    passes = timed_passes(wl, work, seconds, stats, setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(wl, work, stats))
    walls = [p.wall_s for p in passes]
    q1, med, q3 = quartiles(walls)
    print(f"{wl.name}: wall_s median {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, "
          f"n={len(walls)} passes of {len(wl.commands)} invocations); "
          f"setup_s median of {len(setup)}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": med,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mib for p in passes),
    }


def import_time(work: Path, stats: Counter) -> float:
    code = ("import time; t = time.perf_counter(); import dcquantum.cli; "
            "print(time.perf_counter() - t)")
    c = run_child([sys.executable, "-c", code], work)
    stats["attempted"] += 1
    if c.rc != 0:
        stats["failed"] += 1
        return 0.0
    return float(c.stdout.strip().splitlines()[-1])


def per_layer(wl, work: Path, seed: int, seconds: float, stats: Counter) -> dict:
    passes = timed_passes(wl, work, seconds / 3, stats)
    layers = {"cli.import_s": statistics.median(
        import_time(work, stats) for _ in range(IMPORT_SAMPLES))}
    for label in ("walk_record", "walk_long", "check_spectrum", "translate_correct",
                  "check_covariance"):
        layers[f"cli.{label}.wall_s"] = statistics.median(p.by_label[label] for p in passes)
    layers["driver.schrodinger.wall_s"] = statistics.median(
        p.by_label["schrodinger"] for p in passes)

    c = run_child([sys.executable, str(HERE / "tracing.py"), "--workload", wl.name,
                   "--seed", str(seed), "--workdir", str(work),
                   "--seconds", repr(seconds / 2)], work, TRACED_TIMEOUT_S)
    try:
        traced = json.loads(c.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        stats["attempted"] += 1
        stats["failed"] += 1
        print(f"FAIL {wl.name} traced run: exit code {c.rc}\n{c.stderr}", file=sys.stderr)
        return layers
    sys.stderr.write(c.stderr)
    stats["attempted"] += traced["attempted"]
    stats["failed"] += traced["failed"]
    layers.update(traced["layers"])
    layers["cli.scipy_loaded"] = traced["scipy_loaded"]
    untraced_s = statistics.median(traced["untraced_pass_s"])
    traced_s = statistics.median(traced["traced_pass_s"])
    layers["trace.overhead_s"] = traced_s - untraced_s
    print(f"{wl.name}: in-process pass {untraced_s:.4f} s untraced "
          f"(n={len(traced['untraced_pass_s'])}), {traced_s:.4f} s traced "
          f"(n={len(traced['traced_pass_s'])}, {traced['wrappers']} wrapped names, "
          f"{layers['trace.spans']:.0f} spans per pass)")
    return layers


def machine() -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "child_env": THREAD_ENV,
    }


def metric_specs(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stats = Counter()
    try:
        wl = workloads.make(name, seed, work)
        if trace:
            values = per_layer(wl, work, seed, seconds, stats)
        else:
            values = end_to_end(wl, work, seconds, stats)
    finally:
        for f in work.iterdir():  # keep only the span log
            if f.name != "spans.jsonl":
                f.unlink()
    if name == "walk":
        sites = workloads.SIZES[name]["long"]["sites"]
        print(WALK_L2_NOTE.format(mib=sites * 64 / 2**20))
    attempted, failed = stats["attempted"], stats["failed"]
    print(f"  {name} fail_ratio = {failed / attempted:.4g} 1 ({failed} of {attempted} "
          f"operations failed)")
    metrics = {}
    for m in metric_specs(trace):
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"  {name} {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=workloads.NAMES)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "dcquantum" / "cli.py", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    print("machine:", json.dumps(machine()))
    names = workloads.NAMES if args.all else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.all:
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
