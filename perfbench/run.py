"""Benchmark of the flatbundle CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each operation is one CLI invocation in a fresh
interpreter with a fresh output directory and `--seed N`; the next starts
when the previous one has exited.  The run takes about S seconds (at least
MIN_OPS operations).  With `--trace 0` it reports the end-to-end metrics;
with `--trace 1` it alternates traced and untraced invocations and reports
the per-layer metrics.  Every invocation passes the correctness gate in
`checks.py` or counts as failed.  The last stdout line is the JSON result;
the lines before it (prefixed `#`) give the environment, every operation
and the CSV hashes.  The full record goes to `.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"

MIN_OPS = 3
SETUP_PROBES = 2          # import-only children per run, besides each op's
OP_TIMEOUT = 60.0         # seconds; a hung invocation is killed and failed
RUN_LIMIT = 100.0         # start no operation after this many seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  `*.self_s` is the layer's self time, `*.calls`
# and the other counts come from the tracer's counters.
PER_LAYER = {
    "charts.map.calls": "count", "charts.map.s": "s",
    "engines.jet.calls": "count", "engines.jet.points": "count",
    "engines.jet.self_s": "s",
    "fundamental.batch.calls": "count", "fundamental.batch.points": "count",
    "fundamental.batch.self_s": "s",
    "principal.batch.calls": "count", "principal.batch.self_s": "s",
    "principal.comparison_metric.calls": "count",
    "principal.comparison_metric.self_s": "s",
    "principal.joint_diag.calls": "count",
    "fields.principal_field.self_s": "s", "fields.incoherent_points": "count",
    "verifiers.curvature.self_s": "s", "verifiers.checks.self_s": "s",
    "growth.report.self_s": "s", "growth.distance_fields.self_s": "s",
    "growth.distance_fields.rss_growth_mb": "MB",
    "growth.graph.edges": "count", "growth.dijkstra.calls": "count",
    "growth.dijkstra.self_s": "s", "growth.path_max.self_s": "s",
    "growth.length_check.self_s": "s", "growth.balls.self_s": "s",
    "growth.anchor_snap": "coord", "growth.truncated_balls": "count",
    "flows.flow_points.calls": "count", "flows.decompositions": "count",
    "flows.decomposition.points": "count", "flows.self_s": "s",
    "flows.box_shrinks": "count",
    "sinegordon.integrate.self_s": "s", "catalog.get.self_s": "s",
    "config.load.self_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "count",
    "trace.overhead_s": "s", "process.cpu_s": "s",
}
# Metrics that must repeat exactly across invocations with one seed.
EXACT = [m for m, u in PER_LAYER.items() if u in ("count", "coord")]


class BenchError(Exception):
    """The benchmark cannot run here (no exit-0 result is printed)."""


@dataclass
class Op:
    mode: str                   # "run" or "trace"
    rec: dict                   # child measurements, or None if it crashed
    elapsed: float              # parent-side seconds, spawn to exit
    hashes: dict                # output file -> sha256
    bytes_written: int
    fails: list = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(min(max(want, 1), nproc))
    return env


def environment(env):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "loadavg_before": os.getloadavg(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "threads": {v: env[v] for v in THREAD_VARS}, "git_commit": commit,
    }


def spawn(env, mode, op_dir, cli_args=()):
    """Run child.py in a fresh interpreter; (record or None, seconds, proc)."""
    result = op_dir / "child.json"
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(SRC), str(result), mode,
             *cli_args],
            cwd=op_dir, env=env, capture_output=True, text=True,
            timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        return None, time.perf_counter() - t0, exc
    elapsed = time.perf_counter() - t0
    rec = None
    if proc.returncode == 0 and result.is_file():
        rec = json.loads(result.read_text(encoding="utf-8"))
    return rec, elapsed, proc


def stderr_tail(proc):
    text = getattr(proc, "stderr", None) or ""
    if isinstance(text, bytes):
        text = text.decode(errors="replace")
    return " | ".join(text.strip().splitlines()[-2:]) or repr(proc)


def invocation(workload, ref, env, work, k, seed, mode):
    op_dir = work / f"op{k}"
    out = op_dir / "out"
    op_dir.mkdir()
    config = op_dir / "run.ini"
    config.write_text(workload.config, encoding="utf-8")
    args = [workload.command, "--config", str(config), "--out", str(out),
            "--seed", str(seed)]
    rec, elapsed, proc = spawn(env, mode, op_dir, args)
    files = sorted(os.listdir(out)) if out.is_dir() else []
    op = Op(mode, rec, elapsed,
            {f: checks.sha256(out / f) for f in files},
            sum((out / f).stat().st_size for f in files))
    if rec is None:
        op.fails.append(f"child failed: {stderr_tail(proc)}")
    else:
        op.fails.extend(checks.check_invocation(workload, ref, rec["rc"],
                                                str(out)))
    shutil.rmtree(op_dir)
    return op


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(op):
    """Per-layer metric values of one traced invocation."""
    tr = op.rec["trace"]
    layers, counts = tr["layers"], tr["counts"]
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = layers.get(name[:-len(".self_s")],
                                   {}).get("self_s", 0.0)
        elif name == "charts.map.s":
            # the chart map has no traced children: self time is its time
            out[name] = layers.get("charts.map", {}).get("self_s", 0.0)
        elif name == "cli.bytes_written":
            out[name] = op.bytes_written
        elif not name.startswith(("trace.", "process.")):
            out[name] = counts.get(name, 0)
    return out


def trace_checks(workload, ops):
    """Fail traced invocations whose trace is incomplete or whose exact
    counts differ from the first traced invocation's."""
    first = None
    for op in ops:
        if op.mode != "trace" or op.rec is None:
            continue
        tr = op.rec["trace"]
        if op.rec.get("missing_targets"):
            op.fails.append(f"tracer found no {op.rec['missing_targets']}")
        for layer in workload.active_layers:
            if tr["layers"].get(layer, {}).get("calls", 0) == 0:
                op.fails.append(f"layer {layer} saw no calls")
        exact = {m: layer_metrics(op)[m] for m in EXACT}
        if first is None:
            first = exact
        elif exact != first:
            diff = {m: (first[m], exact[m]) for m in EXACT
                    if first[m] != exact[m]}
            op.fails.append(f"exact counts differ between runs: {diff}")


def hash_checks(ops):
    """Every invocation of a run has one seed, so every output byte must
    agree; a traced invocation that differs was changed by tracing."""
    base = next((op.hashes for op in ops if op.rec is not None), None)
    for op in ops:
        if op.rec is not None and op.hashes != base:
            what = ("tracing changed" if op.mode == "trace"
                    else "nondeterministic")
            bad = sorted(f for f in set(op.hashes) | set(base)
                         if op.hashes.get(f) != base.get(f))
            op.fails.append(f"{what} output bytes: {bad}")


def metrics(ops, setup, trace):
    untraced = [op.rec for op in ops if op.mode == "run" and op.rec]
    traced = [op for op in ops if op.mode == "trace" and op.rec]
    if not untraced or (trace and not traced):
        raise BenchError("too few invocations completed")
    wall = statistics.median(r["wall_s"] for r in untraced)
    if trace:
        per_op = [layer_metrics(op) for op in traced]
        # exact counts agree across invocations (trace_checks); times vary
        vals = {m: per_op[0][m] if m in EXACT
                else statistics.median(v[m] for v in per_op)
                for m in per_op[0]}
        vals["trace.overhead_s"] = (
            statistics.median(op.rec["wall_s"] for op in traced) - wall)
        vals["process.cpu_s"] = statistics.median(r["cpu_s"]
                                                  for r in untraced)
        units = PER_LAYER
    else:
        vals = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in untraced),
        }
        units = END_TO_END
    return {m: {"value": vals[m], "unit": u} for m, u in units.items()}


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            raise BenchError(f"BENCHMARK.json {key} does not match run.py")


def run(args):
    if not (SRC / "flatbundle" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC}")
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    check_benchmark_json()
    workload = WORKLOADS[args.workload]
    ref = checks.load_reference(workload)
    env = child_env()
    info = environment(env)
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe = work / "probe"
        probe.mkdir()
        setup = []
        for _ in range(SETUP_PROBES):
            rec, _, proc = spawn(env, "import", probe)
            if rec is None:
                raise BenchError(
                    f"cannot import flatbundle: {stderr_tail(proc)}")
            setup.append(rec["setup_s"])
        ops = []
        while True:
            mode = "trace" if args.trace and len(ops) % 2 == 0 else "run"
            ops.append(invocation(workload, ref, env, work, len(ops),
                                  args.seed, mode))
            now = time.perf_counter()
            typical = statistics.median(op.elapsed for op in ops)
            if now - t_start > RUN_LIMIT or (
                    len(ops) >= MIN_OPS and now + typical > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.extend(op.rec["setup_s"] for op in ops if op.rec)
    if args.trace:
        trace_checks(workload, ops)
    hash_checks(ops)
    info["loadavg_after"] = os.getloadavg()
    info["run_s"] = time.perf_counter() - t_start
    result = {
        "correct": not any(op.fails for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.fails),
        "metrics": metrics(ops, setup, args.trace),
    }
    report(args, workload, ref, info, ops, setup, result)
    return result


def report(args, workload, ref, info, ops, setup, result):
    print(f"# perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(info)}")
    for k, op in enumerate(ops):
        r = op.rec or {}
        print(f"# op {k} {op.mode} wall_s={r.get('wall_s', float('nan')):.4f}"
              f" cpu_s={r.get('cpu_s', float('nan')):.4f}"
              f" setup_s={r.get('setup_s', float('nan')):.4f}"
              f" peak_rss_mb={r.get('peak_rss_mb', float('nan')):.1f}"
              f" elapsed_s={op.elapsed:.3f} "
              + ("ok" if not op.fails else "FAILED " + "; ".join(op.fails)))
    walls = sorted(op.rec["wall_s"] for op in ops
                   if op.mode == "run" and op.rec)
    cpus = sorted(op.rec["cpu_s"] for op in ops if op.mode == "run" and op.rec)
    if walls:
        print("# wall_s n=%d q1=%.4f median=%.4f q3=%.4f | cpu_s median=%.4f "
              "(diagnostic)" % (len(walls), *quartiles(walls),
                                statistics.median(cpus)))
    print("# setup_s n=%d q1=%.4f median=%.4f q3=%.4f"
          % (len(setup), *quartiles(sorted(setup))))
    hashes = next((op.hashes for op in ops if op.rec), {})
    for name, digest in hashes.items():
        note = ""
        if args.seed == ref["seed"] and name in ref["csv"]:
            note = (" (= reference)" if digest == ref["csv"][name]["sha256"]
                    else " (differs from reference bytes)")
        print(f"# sha256 {name} {digest}{note}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": info,
              "setup_s": setup, "result": result,
              "ops": [{"mode": op.mode, "rec": op.rec, "elapsed": op.elapsed,
                       "hashes": op.hashes, "bytes": op.bytes_written,
                       "fails": op.fails} for op in ops]}
    path = OUT / "results" / (f"{workload.name}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
