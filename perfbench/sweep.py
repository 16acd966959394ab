"""Run the benchmark over several seeds and workloads and summarize.

    python3 perfbench/sweep.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]
                               [--seconds S]

Runs `run.py` once per (workload, seed), one at a time, and prints for
every metric its median over the runs, its quartiles and the spread
(q3 - q1) / median that the bound in BENCHMARK.json is compared with,
plus operations attempted and failed.  The seconds default to
`run_seconds` from BENCHMARK.json.  Raw results go to
`.bench_out/sweep-trace<T>.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {}
    for name in args.workloads.split(","):
        runs = results[name] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}: "
                      f"{proc.stderr.strip()}", file=sys.stderr)
                continue
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in
                runs[-1]["metrics"].items() if m in bounds or args.trace),
                flush=True)
        summarize(name, runs, bounds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"sweep-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1), encoding="utf-8")


def summarize(name, runs, bounds):
    if not runs:
        return
    print(f"== {name}: runs={len(runs)} "
          f"attempted={sum(r['attempted'] for r in runs)} "
          f"failed={sum(r['failed'] for r in runs)} "
          f"correct={all(r['correct'] for r in runs)}")
    for metric in runs[0]["metrics"]:
        vals = [r["metrics"][metric]["value"] for r in runs]
        unit = runs[0]["metrics"][metric]["unit"]
        med = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(metric)
        note = "" if bound is None else f" bound={bound:g}"
        print(f"   {metric:40s} {med:14.6g} {unit:6s} q1={q1:.6g} "
              f"q3={q3:.6g} spread={spread:.4f}{note}")


if __name__ == "__main__":
    main()
