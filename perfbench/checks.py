"""Output-correctness gate for one CLI invocation.

An invocation passes when it exits 0, its summary holds exactly the
workload's expected verdict lines (and no FAIL), and every CSV matches the
stored reference: same files, header and row count; sampled rows within
each column's stated relative tolerance (relative to max(|reference|, 1));
NaN where the reference has NaN; and every residual column below the
tolerance its identity reports, which must itself equal the reference's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from workloads import RESIDUAL_COLUMN

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
_VERDICTS = ("PASS", "FAIL", "INDETERMINATE", "SKIP", "SKIPPED")
_SAMPLE_ROWS = 400


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload.name}.json")


def load_reference(workload):
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def verdict_lines(text):
    """(identity, verdict, tol string or None) per verdict line."""
    out = []
    for line in text.splitlines():
        tok = line.split()
        if len(tok) < 2 or tok[1].split("(")[0] not in _VERDICTS:
            continue
        tol = next((t[4:] for t in tok if t.startswith("tol=")), None)
        out.append((tok[0], tok[1], tol))
    return out


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def sample_rows(nrows):
    stride = max(1, nrows // _SAMPLE_ROWS)
    idx = list(range(0, nrows, stride))
    if idx[-1] != nrows - 1:
        idx.append(nrows - 1)
    return idx


def describe_csv(path):
    """Reference record of one CSV: header, size, NaN counts, sample."""
    header, data = read_csv(path)
    idx = sample_rows(data.shape[0])
    return {
        "header": header,
        "rows": int(data.shape[0]),
        "nan": {c: int(np.sum(np.isnan(data[:, k])))
                for k, c in enumerate(header)},
        "sample_index": idx,
        "sample": [[None if math.isnan(v) else float(v) for v in data[i]]
                   for i in idx],
        "sha256": sha256(path),
    }


def check_invocation(workload, ref, rc, out_dir):
    """List of reasons the invocation failed (empty when it passed)."""
    if rc != 0:
        return [f"exit code {rc}"]
    fails = []
    summary_path = os.path.join(out_dir, workload.summary)
    if not os.path.isfile(summary_path):
        return [f"no {workload.summary}"]
    with open(summary_path, encoding="utf-8") as fh:
        lines = verdict_lines(fh.read())
    got = [(name, verdict) for name, verdict, _ in lines]
    if got != list(workload.verdicts):
        fails.append(f"summary verdicts {got} != expected "
                     f"{list(workload.verdicts)}")
    tols = {name: tol for name, _, tol in lines}

    csvs = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
    if csvs != sorted(ref["csv"]):
        fails.append(f"CSV files {csvs} != reference {sorted(ref['csv'])}")
    for name in csvs:
        if name in ref["csv"]:
            fails.extend(_check_csv(workload, name, ref,
                                    os.path.join(out_dir, name), tols))
    return fails


def _check_csv(workload, name, ref, path, tols):
    want = ref["csv"][name]
    header, data = read_csv(path)
    if header != want["header"] or data.shape[0] != want["rows"]:
        return [f"{name}: header {header} / {data.shape[0]} rows != "
                f"reference {want['header']} / {want['rows']}"]
    fails = []
    sample = np.array([[np.nan if v is None else v for v in row]
                       for row in want["sample"]])
    got = data[want["sample_index"]]
    rtol = workload.csv_rtol.get(name, {})
    for k, col in enumerate(header):
        nans = int(np.sum(np.isnan(data[:, k])))
        if nans != want["nan"][col]:
            fails.append(f"{name}:{col} has {nans} NaN, reference "
                         f"{want['nan'][col]}")
        if not np.array_equal(np.isnan(got[:, k]), np.isnan(sample[:, k])):
            fails.append(f"{name}:{col} NaN positions differ")
            continue
        if col == RESIDUAL_COLUMN:
            identity = name[len("verify_"):-len(".csv")]
            tol = tols.get(identity)
            if tol is None or tol != ref["tolerances"].get(identity):
                fails.append(f"{name}: tolerance {tol} != reference "
                             f"{ref['tolerances'].get(identity)}")
                continue
            finite = data[~np.isnan(data[:, k]), k]
            worst = float(np.max(finite)) if finite.size else 0.0
            if worst > float(tol):
                fails.append(f"{name}: residual {worst:.3e} > tol {tol}")
        elif col in rtol:
            ok = ~np.isnan(sample[:, k])
            err = np.abs(got[ok, k] - sample[ok, k]) \
                / np.maximum(np.abs(sample[ok, k]), 1.0)
            if err.size and float(np.max(err)) > rtol[col]:
                fails.append(f"{name}:{col} differs from reference by "
                             f"{float(np.max(err)):.3e} > {rtol[col]:g}")
        else:
            fails.append(f"{name}: no tolerance stated for column {col}")
    return fails
