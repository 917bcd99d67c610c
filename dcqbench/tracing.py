"""Traced in-process run of one workload: spans recorded by wrappers
the benchmark installs around dcquantum's public functions, from the
benchmark's own files.  The program itself is not changed.

Run as a child of run.py, in a fresh interpreter:

    python3 dcqbench/tracing.py --workload NAME --seed N --workdir DIR --seconds S

It imports the workload's entry module and, for S seconds, alternates
an untraced pass with a traced one (wrappers installed for that pass
only).  Then it writes every span to DIR/spans.jsonl and prints one
JSON object: the median per-pass layer figures, the untraced and traced
in-process pass times, and the operations attempted and failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402  (numpy only; scipy stays unloaded)

LAYERS = ("scalar", "linalg", "quantum", "walk", "serialize", "cli")

# Per-element helpers called once per scalar entry; their time stays in
# the serializer that calls them instead of paying a span per entry.
UNWRAPPED = {"serialize.scalar_to_json", "serialize.scalar_from_json"}
# Private functions that are a layer boundary: the CLI parses its JSON
# input files here.
PRIVATE_WRAPPED = {"cli._load_json"}
# Methods wrapped per layer: the scalar ring operations, and the dual
# matrix product.  Other methods (element access, construction, vector
# algebra) count toward the function that calls them.
METHODS = {
    "scalar": {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "conj", "sqrt",
               "as_dual_complex"},
    "linalg": {"__matmul__"},
}

# Span names aggregated into each per-layer group.
GROUPS = {
    "walk.step": {"walk.step"},
    "walk.run": {"walk.run"},
    "walk.covariance_check": {"walk.covariance_check"},
    "serialize.csv_write": {"serialize.write_trajectory_csv"},
    "serialize.json_read": {"cli._load_json", "serialize.tagged_from_json",
                            "serialize.load_tagged", "serialize.matrix_from_json",
                            "serialize.vector_from_json"},
    "serialize.json_write": {"serialize.dump_json", "serialize.matrix_to_json",
                             "serialize.vector_to_json", "serialize.unitary_to_json",
                             "serialize.state_to_json", "serialize.measurement_to_json"},
    "linalg.classify_op": {"linalg.classify_op"},
    "linalg.eig": {"linalg.eig_hermitian", "linalg.eig_unitary"},
    "linalg.stinespring": {"linalg.stinespring"},
    "linalg.mat_exp": {"linalg.mat_exp"},
    "linalg.matmul": {"linalg.DCMatrix.__matmul__"},
    "quantum.schrodinger_step": {"quantum.schrodinger_step"},
    "quantum.measure": {"quantum.measure"},
    "quantum.complex_correct": {"quantum.complex_correct_unitary",
                                "quantum.complex_correct_measurement"},
}

GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

SITE_STEP_BYTES = 128  # (sig, inf) x (+, -) complex128, read and written


class Tracer:
    """Spans (pass, id, parent, name, start_ns, end_ns) kept in memory,
    plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.pass_id = 0
        self.counters = Counter()

    def wrap(self, name, fn, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((tracer.pass_id, sid, parent, name, start, end))
            if on_exit is not None:
                on_exit(tracer.counters, args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as f:
            for p, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"pass": p, "id": sid, "parent": parent,
                                    "name": name, "start_ns": start, "end_ns": end}))
                f.write("\n")


def _count_walk_step(c, args, result):
    c["walk.site_steps"] += result.sites


def _count_walk_run(c, args, result):
    c["walk.snapshot_bytes"] += sum(4 * 16 * s.sites for s in result)


def _count_csv(c, args, result):
    c["serialize.csv_write.rows"] += sum(s.sites for s in args[0])
    c["serialize.csv_write.bytes"] += os.path.getsize(args[1])


def _count_json_read(c, args, result):
    c["serialize.json_read.entries"] += len(args[0]["entries"])


def _count_json_write(c, args, result):
    c["serialize.json_write.bytes"] += os.path.getsize(args[1])


HOOKS = {
    "walk.step": _count_walk_step,
    "walk.run": _count_walk_run,
    "serialize.write_trajectory_csv": _count_csv,
    "serialize.matrix_from_json": _count_json_read,
    "serialize.dump_json": _count_json_write,
}


def install(tracer: Tracer, extra_modules=()) -> list:
    """Replace each layer's public functions by traced wrappers, in every
    module that holds them (names imported by value included), and wrap
    the operation methods of the layer's classes.  Returns the undo list
    of (owner, attribute, original) for `uninstall`."""
    layers = {name: importlib.import_module(f"dcquantum.{name}") for name in LAYERS}
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == "dcquantum" or n.startswith("dcquantum."))]
    holders += list(extra_modules)
    undo = []
    for layer, mod in layers.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if getattr(obj, "__module__", None) != mod.__name__ or name in UNWRAPPED:
                continue
            if attr.startswith("_") and name not in PRIVATE_WRAPPED:
                continue
            if inspect.isfunction(obj):
                traced = tracer.wrap(name, obj, HOOKS.get(name))
                for holder in holders:
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            undo.append((holder, hattr, obj))
                            setattr(holder, hattr, traced)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if meth in METHODS.get(layer, ()) and inspect.isfunction(fn):
                        undo.append((obj, meth, fn))
                        setattr(obj, meth, tracer.wrap(f"{name}.{meth}", fn))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def group_of(name: str):
    if name.startswith("scalar."):
        return "scalar"
    return GROUP_OF.get(name)


def self_times(spans) -> dict:
    """Self time (ns) of each span that belongs to a per-layer group: its
    duration minus the time its nearest descendants in any group cover.
    Spans of helpers with no group of their own (inner, vnorm, ...)
    count toward the grouped span that called them."""
    parent_of = {sid: parent for _, sid, parent, _, _, _ in spans}
    grouped = {sid for _, sid, _, name, _, _ in spans if group_of(name)}
    covered = defaultdict(int)
    for _, sid, parent, _, start, end in spans:
        if sid in grouped:
            while parent >= 0 and parent not in grouped:
                parent = parent_of.get(parent, -1)
            if parent >= 0:
                covered[parent] += end - start
    return {sid: end - start - covered[sid]
            for _, sid, _, _, start, end in spans if sid in grouped}


def layer_figures(spans, counters: Counter) -> dict:
    """Per-layer figures of one pass."""
    selfs = self_times(spans)
    calls, self_ns = Counter(), Counter()
    for _, sid, _, name, _, _ in spans:
        group = group_of(name)
        if group:
            calls[group] += 1
            self_ns[group] += selfs[sid]
    out = {}
    for group in list(GROUPS) + ["scalar"]:
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.self_s"] = self_ns[group] / 1e9
    step_s = out["walk.step.self_s"]
    site_steps = counters["walk.site_steps"]
    out["walk.step.ns_per_site_step"] = step_s * 1e9 / site_steps if site_steps else 0.0
    out["walk.step.gb_per_s_computed"] = (
        SITE_STEP_BYTES * site_steps / step_s / 1e9 if step_s else 0.0)
    out["walk.snapshot_mb_computed"] = counters["walk.snapshot_bytes"] / 2**20
    rows = counters["serialize.csv_write.rows"]
    out["serialize.csv_write.rows"] = rows
    out["serialize.csv_write.bytes"] = counters["serialize.csv_write.bytes"]
    out["serialize.csv_write.ns_per_row"] = (
        out["serialize.csv_write.self_s"] * 1e9 / rows if rows else 0.0)
    out["serialize.json_read.entries"] = counters["serialize.json_read.entries"]
    out["serialize.json_write.bytes"] = counters["serialize.json_write.bytes"]
    out["trace.spans"] = len(spans)
    return out


def _load_main(module: str):
    if module.endswith(".py"):
        spec = importlib.util.spec_from_file_location("bench_entry", module)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    return importlib.import_module(module)


def run_pass(wl, entries, stats: Counter) -> float:
    """Run every command of `wl` in-process, then check their outputs;
    returns the pass wall time."""
    total = 0.0
    results = []
    for cmd in wl.commands:
        cmd.remove_outputs()
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                rc = entries[cmd.module].main(list(cmd.args))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
        total += time.perf_counter() - t0
        results.append((cmd, rc, out.getvalue()))
    # read before the checks run, since an oracle may import scipy itself
    stats.setdefault("scipy_loaded", int("scipy.linalg" in sys.modules))
    for cmd, rc, stdout in results:
        stats["attempted"] += 1
        err = cmd.check(rc, stdout)
        if err is not None:
            stats["failed"] += 1
            print(f"FAIL {wl.name} {cmd.label} (traced run): {err}", file=sys.stderr)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    os.chdir(work)
    wl = workloads.make(args.workload, args.seed, work)
    entries = {cmd.module: _load_main(cmd.module) for cmd in wl.commands}
    stats = Counter()

    # Alternate untraced and traced passes so both see the same machine
    # conditions.
    tracer = Tracer()
    untraced, traced, figures = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_pass(wl, entries, stats))
        undo = install(tracer, entries.values())
        first = len(tracer.spans)
        tracer.counters.clear()
        try:
            traced.append(run_pass(wl, entries, stats))
        finally:
            uninstall(undo)
        figures.append(layer_figures(tracer.spans[first:], tracer.counters))
        tracer.pass_id += 1
    tracer.dump(work / "spans.jsonl")

    layers = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    print(json.dumps({
        "layers": layers,
        "scipy_loaded": stats["scipy_loaded"],
        "wrappers": len(undo),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
