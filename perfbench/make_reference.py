"""Capture the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one untraced invocation of each workload at REFERENCE_SEED and writes
`reference/<workload>.json`: each CSV's header, row count, NaN counts, a
row sample and sha256, plus the tolerance every identity reports.  Run it
on the commit whose outputs are the reference; it refuses to write a
reference from an invocation that does not print the expected verdicts.
"""

import json
import shutil
import sys

import checks
import run
from workloads import REFERENCE_SEED, WORKLOADS


def capture(workload, env, work):
    op_dir = work / workload.name
    op_dir.mkdir(parents=True)
    out = op_dir / "out"
    config = op_dir / "run.ini"
    config.write_text(workload.config, encoding="utf-8")
    rec, _, proc = run.spawn(env, "run", op_dir, [
        workload.command, "--config", str(config), "--out", str(out),
        "--seed", str(REFERENCE_SEED)])
    if rec is None or rec["rc"] != 0:
        raise SystemExit(f"{workload.name}: invocation failed: "
                         f"{run.stderr_tail(proc)}")
    summary = (out / workload.summary).read_text(encoding="utf-8")
    lines = checks.verdict_lines(summary)
    if [(n, v) for n, v, _ in lines] != list(workload.verdicts):
        raise SystemExit(f"{workload.name}: unexpected verdicts {lines}")
    return {
        "seed": REFERENCE_SEED,
        "tolerances": {n: tol for n, _, tol in lines if tol is not None},
        "csv": {f.name: checks.describe_csv(f)
                for f in sorted(out.glob("*.csv"))},
    }


def main(names):
    env = run.child_env()
    work = run.OUT / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    run.HERE.joinpath("reference").mkdir(exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            ref = capture(WORKLOADS[name], env, work)
            path = checks.reference_path(WORKLOADS[name])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
