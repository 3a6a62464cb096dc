"""fairmlp benchmark: one workload, seeded synthetic inputs, checked outputs.

Usage (from the root of a fairmlp checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates Adult-shaped CSVs from the seed, then repeats the workload's
``fairmlp`` command, each time in a fresh worker process with BLAS pinned
to one thread, until S seconds have passed. With ``--trace 0`` every
repetition is untraced and the end-to-end metrics are medians over the
repetitions. With ``--trace 1`` untraced and traced repetitions
alternate; the per-layer metrics come from the traced ones and the
traced-minus-untraced wall time is the tracing overhead. Every output is
checked; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen_adult

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
# glibc adapts its mmap threshold to the sizes freed so far, which moved
# a worker's peak RSS by ~20 MB between seeds; a fixed value (the
# adaptive maximum on 64-bit) makes it repeat
MALLOC_MMAP_THRESHOLD = 32 * 1024 * 1024
TRAIN_ROWS = 48_842
AUDIT_ROWS = 200_000
MIN_REPS = 3
WORKER_TIMEOUT_S = 120
CATEGORICAL = ["workclass", "education", "marital-status", "occupation",
               "relationship", "race", "native-country"]
N_NUMERIC = 6

BASE_CONFIG = {"schema": "adult", "h1": 100, "h2": 50, "lr_theta": 0.001,
               "epsilon": 0.05,
               # larger than max_epochs: every run does the same epochs
               "convergence_window": 1_000_000}

WORKLOADS = {
    # the paper's setting: BLAS-bound forward/backward at S=500
    "crossval-dp-b500": {
        "command": "crossval",
        "config": {"folds": 5, "constraint": "dp", "objective": "ce",
                   "batch_size": 500, "max_epochs": 4},
        "metric": "dp_soft",
    },
    # small batches: Adam, fairloss and per-step glue dominate, class
    # stratified batching, many small audit batches, ingest per sweep value
    "sweep-eomax-qmean-b64": {
        "command": "sweep",
        "config": {"folds": 2, "constraint": "eo-max", "objective": "qmean",
                   "batch_size": 64, "max_epochs": 2,
                   "sweep": [0.02, 0.05, 0.1]},
    },
    # inference only: ingest and whole-set forward on 200k rows
    "audit-200k": {
        "command": "audit",
        # the set-up training run that writes the audited checkpoint
        "config": {"constraint": "dp", "objective": "ce", "batch_size": 500,
                   "max_epochs": 2},
        "metric": "dp_soft",
    },
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "rows_per_s": "rows/s",
             "peak_rss_mb": "MB", "accuracy": "frac", "fairness_gap": "frac",
             "ok_frac": "frac"}


class CheckFailed(Exception):
    """An output of the measured command is missing or wrong."""


def describe_csv(path) -> dict:
    """Row counts, encoded width and (a, y) cell sizes of the kept rows,
    computed independently of fairmlp."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cat_idx = [header.index(c) for c in CATEGORICAL]
        sex, income = header.index("sex"), header.index("income")
        vocab = [set() for _ in CATEGORICAL]
        cells = {(a, y): 0 for a in (0, 1) for y in (0, 1)}
        rows = kept = 0
        for row in reader:
            rows += 1
            if "?" in row:
                continue
            kept += 1
            for v, j in zip(vocab, cat_idx):
                v.add(row[j])
            cells[(int(row[sex] == "Female"), int(row[income] == ">50K"))] += 1
    return {"rows": rows, "kept": kept,
            "d": N_NUMERIC + sum(len(v) for v in vocab),
            "cells": [cells[c] for c in sorted(cells)]}


def fold_sizes(cells, k: int) -> list[int]:
    """Test-fold sizes of a k-fold split stratified by (a, y) cell, each
    cell dealt round-robin over the folds."""
    return [sum(-(-(c - f) // k) for c in cells) for f in range(k)]


def train_rows(info: dict, cfg: dict, runs: int) -> int:
    """Rows stepped through train_step: every fold trains max_epochs
    epochs of ceil(n_train / S) full batches; ``runs`` crossvals."""
    n, s = info["kept"], cfg["batch_size"]
    per_crossval = sum(cfg["max_epochs"] * -(-(n - f) // s) * s
                       for f in fold_sizes(info["cells"], cfg["folds"]))
    return per_crossval * runs


def environment(inputs: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "malloc_mmap_threshold": MALLOC_MMAP_THRESHOLD,
            "nproc": os.cpu_count(), "cpu": cpu,
            "inputs": {name: {k: v for k, v in info.items() if k != "cells"}
                       for name, info in inputs.items()}}


def run_worker(job: dict, work: Path, tag: str, src: Path) -> dict:
    job_path, result_path = work / f"{tag}.job.json", work / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path),
             str(result_path)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"rc": None, "error": proc.stderr[-2000:]}
    return json.loads(result_path.read_text(encoding="utf-8"))


def _finite_in(value, lo, hi) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


def check_metrics_report(rep: dict, what: str) -> None:
    """Every reported metric of one MetricsReport dict is finite and in range."""
    for key in ("accuracy", "dp_soft", "dp_hard", "eo_sum_soft", "eo_max_soft",
                "di_ratio", "q_mean"):
        if not _finite_in(rep[key], 0.0, 2.0 if key == "eo_sum_soft" else 1.0):
            raise CheckFailed(f"{what}: {key}={rep[key]!r} out of range")
    if not _finite_in(rep["p_percent"], 0.0, 100.0):
        raise CheckFailed(f"{what}: p_percent={rep['p_percent']!r} out of range")
    for key in ("fpr_by_group", "fnr_by_group"):
        for g, v in rep[key].items():
            if not _finite_in(v, 0.0, 1.0):
                raise CheckFailed(f"{what}: {key}[{g}]={v!r} out of range")


def outputs(spec: dict, result: dict, out_dir: Path,
            inputs: dict) -> tuple[str, float, float, int]:
    """Check one run's outputs; returns (canonical output, accuracy,
    fairness gap, rows processed). The canonical output is what must
    repeat byte for byte across runs of one seed."""
    if result.get("error") or result.get("rc") != 0:
        raise CheckFailed(f"exit code {result.get('rc')}: {result.get('error')}")
    cfg = spec["config"]
    if spec["command"] == "crossval":
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        report.pop("metadata")
        sizes = fold_sizes(inputs["train"]["cells"], cfg["folds"])
        if [f["n"] for f in report["folds"]] != sizes:
            raise CheckFailed(f"fold sizes {[f['n'] for f in report['folds']]} != {sizes}")
        for i, fold in enumerate(report["folds"]):
            check_metrics_report(fold, f"fold {i}")
        if [len(t) for t in report["training"]] != [cfg["max_epochs"]] * cfg["folds"]:
            raise CheckFailed("a fold did not train exactly max_epochs epochs")
        mean = report["aggregate"]["mean"]
        return (json.dumps(report, indent=1, sort_keys=True), mean["accuracy"],
                mean[spec["metric"]], train_rows(inputs["train"], cfg, 1))
    if spec["command"] == "sweep":
        text = (out_dir / "tradeoff.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(text.splitlines()))
        if [float(r["epsilon_or_p"]) for r in rows] != cfg["sweep"]:
            raise CheckFailed(f"tradeoff.csv has {len(rows)} rows, "
                              f"expected one per sweep value {cfg['sweep']}")
        for r in rows:
            if not (_finite_in(float(r["mean_accuracy"]), 0.0, 1.0)
                    and _finite_in(float(r["mean_constraint_value"]), 0.0, 1.0)
                    and _finite_in(float(r["stddev_accuracy"]), 0.0, 1.0)):
                raise CheckFailed(f"tradeoff.csv row out of range: {r}")
        acc = statistics.fmean(float(r["mean_accuracy"]) for r in rows)
        gap = statistics.fmean(float(r["mean_constraint_value"]) for r in rows)
        return text, acc, gap, train_rows(inputs["train"], cfg, len(rows))
    report = json.loads(result["stdout"])
    if report["n"] != inputs["audit"]["kept"]:
        raise CheckFailed(f"audit n={report['n']} but {inputs['audit']['kept']} rows kept")
    check_metrics_report(report, "audit")
    return result["stdout"], report["accuracy"], report[spec["metric"]], report["n"]


def prepare(spec: dict, seed: int, work: Path, src: Path):
    """Generate inputs (and, for audit, train the checkpoint); returns
    (argv, setup spec, input descriptions)."""
    train_csv = work / "train.csv"
    gen_adult.write(train_csv, TRAIN_ROWS, seed)
    inputs = {"train": describe_csv(train_csv)}
    cfg = dict(BASE_CONFIG, **spec["config"], data=str(train_csv), seed=seed,
               out_dir=str(work / "out"))
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    setup = {"schema": "adult", "csv": str(train_csv)}
    if spec["command"] != "audit":
        return [spec["command"], "--config", str(cfg_path)], setup, inputs

    audit_csv = work / "audit.csv"
    gen_adult.write(audit_csv, AUDIT_ROWS, seed + 1_000_000)
    inputs["audit"] = describe_csv(audit_csv)
    model_dir = work / "model"
    trained = run_worker({"argv": ["train", "--config", str(cfg_path),
                                   "--out", str(model_dir)], "trace": False},
                         work, "train", src)
    if trained.get("rc") != 0:
        raise CheckFailed(f"set-up training failed: {trained.get('error')}")
    setup.update(csv=str(audit_csv), model=str(model_dir / "model.json"),
                 encoder=str(model_dir / "encoder.json"))
    argv = ["audit", "--model", setup["model"], "--data", str(audit_csv),
            "--schema", "adult", "--encoder", setup["encoder"]]
    return argv, setup, inputs


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path):
    spec = WORKLOADS[name]
    src = root / "src"
    work = root / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv, setup, inputs = prepare(spec, seed, work, src)
    out_dir = work / "out"
    print("env " + json.dumps(environment(inputs), sort_keys=True), flush=True)

    runs, traced, failures = [], [], []
    reference = None
    start = time.perf_counter()
    rounds = 0
    # trace 0: untraced runs only; trace 1: untraced/traced pairs
    while rounds < (1 if trace else MIN_REPS) or time.perf_counter() - start < seconds:
        rounds += 1
        for t in ([False, True] if trace else [False]):
            shutil.rmtree(out_dir, ignore_errors=True)
            # set-up is timed in the first repetitions only, so that more
            # of the run goes to the command itself
            timed_setup = not trace and rounds <= MIN_REPS
            job = {"argv": argv, "trace": t, "setup": setup if timed_setup else None,
                   "spans_out": str(work / "spans.json")}
            result = run_worker(job, work, f"rep{rounds}{'t' if t else ''}", src)
            try:
                canon, acc, gap, rows = outputs(spec, result, out_dir, inputs)
                if reference is None:
                    reference = canon
                elif canon != reference:
                    raise CheckFailed("output differs from the first run of this seed"
                                      + (" (traced)" if t else ""))
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
                continue
            (traced if t else runs).append(
                dict(result, accuracy=acc, fairness_gap=gap, rows=rows))
            setup_s = f" setup_s={result['setup_s']:.4f}" if "setup_s" in result else ""
            print(f"rep {rounds}{' traced' if t else ''} wall_s={result['wall_s']:.4f}"
                  f"{setup_s} peak_rss_mb={result['peak_rss_mb']:.1f}", flush=True)
    return runs, traced, failures


def _med(runs, key) -> float:
    return float(statistics.median(r[key] for r in runs))


def summarize(runs, traced, trace: bool) -> dict:
    if not trace:
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        m = {"wall_s": _med(runs, "wall_s"),
             "setup_s": float(statistics.median(setups)) if setups else 0.0,
             "rows_per_s": statistics.median(r["rows"] / r["wall_s"] for r in runs),
             "peak_rss_mb": _med(runs, "peak_rss_mb"),
             "accuracy": _med(runs, "accuracy"),
             "fairness_gap": _med(runs, "fairness_gap")}
        return {k: (v, E2E_UNITS[k]) for k, v in m.items()}
    layers = {}
    for key, (_, unit) in traced[0]["layers"].items():
        layers[key] = (float(statistics.median(t["layers"][key][0] for t in traced)), unit)
    layers["trace.overhead_frac"] = (
        _med(traced, "wall_s") / _med(runs, "wall_s") - 1.0, "frac")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run raises SystemExit inside subprocess.run, which
    # kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "fairmlp" / "cli.py").is_file():
        print(f"error: no fairmlp sources under {root / 'src'}; run from the "
              "root of a fairmlp checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        runs, traced, failures = measure(args.workload, args.seed, args.seconds,
                                         trace, root)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    attempted = len(runs) + len(traced) + len(failures)
    if not runs or (trace and not traced):
        print("error: no run succeeded", file=sys.stderr)
        return 1
    metrics = summarize(runs, traced, trace)
    if not trace:
        metrics["ok_frac"] = ((attempted - len(failures)) / attempted, "frac")
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
