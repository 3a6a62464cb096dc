"""Command-line entry point: train / crossval / sweep / audit / bounds /
counterexample.

Run configuration lives in a JSON file; command-line flags override
individual keys. All outputs are deterministic given the seed and the
BLAS thread count, with wall-clock data confined to a separate metadata
field. Every command that reads a CSV reads it in byte-range windows
(``_map_windows``), audit also encoding and forwarding each window
where it is read, and crossval and sweep train their folds, in forked
worker processes when the BLAS threads leave more than one usable CPU
free (see ``_workers``); the outputs do not depend on how many. A
window that numpy does not read (``data.NotPlain``) sends the command
to the csv module's whole-file read.

Exit codes: 0 success, 2 config/parameter/io or out of memory,
3 schema/data, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import audit, data, fairloss, lagrange, model
from .errors import (DataError, DegenerateBatchError, NumericError,
                     ParameterError, SchemaError)
from .fairloss import CONSTRAINTS, OBJECTIVES

REPORT_FORMAT = "fairmlp-report/1"


@dataclass(kw_only=True)
class RunConfig(lagrange.TrainConfig):
    """One training/evaluation run as described by a config JSON: the
    TrainConfig hyperparameters and the run-level settings. Checked whole
    when it is built, every sweep value included."""

    data: str
    schema: str
    out_dir: str = "runs/out"
    folds: int = 5
    holdout_fraction: float = 0.2
    sweep: list[float] = field(default_factory=list)

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.holdout_fraction < 1.0:  # NaN fails too
            raise ParameterError("holdout_fraction must be in (0, 1)")
        for value in self.sweep:
            fairloss.slack(self.constraint, value)

    @classmethod
    def from_json(cls, path, **overrides) -> "RunConfig":
        """The config in ``path`` with ``overrides`` replacing its keys."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            return cls(**{**raw, **overrides})
        except TypeError as exc:
            raise ParameterError(f"bad config {path}: {exc}")


def _log_rows(log) -> list[dict]:
    # wall_ms goes to metadata's epoch_wall_ms, so reruns are byte-identical
    return [{"epoch": r.epoch, "objective": r.objective,
             "constraint_value": r.constraint_value, "lambda": r.lam}
            for r in log]


def _mean_std(values) -> tuple[float, float]:
    vals = np.asarray(values)
    return float(vals.mean()), float(vals.std())


def _aggregate(reports: list[audit.MetricsReport]) -> dict:
    """Mean and stddev over ``reports`` of every float field of
    MetricsReport and of every group's entry in its per-group dict
    fields."""
    mean, stddev = {}, {}
    for name, hint in get_type_hints(audit.MetricsReport).items():
        values = [getattr(r, name) for r in reports]
        if hint is float:
            mean[name], stddev[name] = _mean_std(values)
        elif hint is dict:
            mean[name], stddev[name] = {}, {}
            for g in values[0]:
                mean[name][str(g)], stddev[name][str(g)] = _mean_std(
                    [v[g] for v in values])
    return {"mean": mean, "stddev": stddev}


def _report_run(cfg: RunConfig, mode: str,
                fold_reports: list[audit.MetricsReport], training_logs: list,
                t0: float, fold_workers: int) -> None:
    """Write report.json into ``cfg.out_dir`` and print the fold means;
    ``t0`` is when the command began and ``fold_workers`` the number of
    processes that trained the folds (1: this one)."""
    config = asdict(cfg)
    # where the report is written does not change what it reports
    out_dir = config.pop("out_dir")
    aggregate = _aggregate(fold_reports)
    payload = {
        "format": REPORT_FORMAT,
        "mode": mode,
        "baseline": bool(cfg.lambda_zero),
        "config": config,
        "folds": [asdict(r) for r in fold_reports],
        "aggregate": aggregate,
        "training": [_log_rows(log) for log in training_logs],
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "epoch_wall_ms": [[r.wall_ms for r in log]
                              for log in training_logs],
            "fold_workers": fold_workers,
            "out_dir": out_dir,
            "wall_ms_total": (time.perf_counter() - t0) * 1000.0,
        },
    }
    with open(Path(out_dir) / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(json.dumps(aggregate["mean"], sort_keys=True))


def cmd_train(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schema = data.resolve_schema(cfg.schema)
    parts = _map_windows(_row_codes, cfg.data, schema)
    train_idx, test_idx = data.holdout_split(*data.a_and_y(parts, schema),
                                             cfg.holdout_fraction, cfg.seed)
    test = data.take(parts, test_idx)
    ds_train = data.encode_parts(data.take(parts, train_idx), schema)
    ds_test = data.encode_parts(test, schema, ds_train.encoder)

    params, log = lagrange.fit(ds_train, cfg)
    report = audit.evaluate(params, ds_test, cfg.batch_size, seed=cfg.seed)
    model.save_checkpoint(out / "model.json", params, cfg.seed)
    ds_train.encoder.to_json(out / "encoder.json")
    data.write_csv(test, schema, out / "test_split.csv")
    _report_run(cfg, "train", [report], [log], t0, 1)
    return 0


def _window(path, schema: data.SchemaConfig, fn,
            window: tuple[int, int | None]):
    """``fn`` of the row codes of bytes [lo, hi) of the CSV at ``path``,
    one window task; raises data.NotPlain for a window that numpy does
    not read (``data.row_codes``)."""
    return fn(data.row_codes(path, schema, *window))


def _map_windows(fn, path, schema: data.SchemaConfig) -> list:
    """``fn`` of the row codes of each line-aligned window of the CSV at
    ``path`` (``data.byte_parts``), in window order, spread over the
    workers, so that only what ``fn`` returns comes back here. numpy
    reads each window (``data.row_codes``); at the first that is not
    plain (data.NotPlain: a '"', a lone '\\r' or NUL byte, a short or
    whitespace-only line, a long field, text that is not UTF-8, ...) or
    whose ``fn`` raises DataError, the windows not yet started are
    cancelled and the result is ``[fn(codes)]`` of the whole file read
    as one part by the csv module, which raises any load or encode error
    as the one-part read does."""
    windows = data.byte_parts(path)
    try:
        return _fork_map(functools.partial(_window, path, schema, fn),
                         windows)
    except (data.NotPlain, DataError):
        pass  # so no window's result or traceback lives through the read
    return [fn(data.load_csv(path, schema))]


def _row_codes(codes: data.RowCodes) -> data.RowCodes:
    """The window function of ``_ingest`` and ``train``: the row codes
    themselves."""
    return codes


def _ingest(path, schema: data.SchemaConfig) -> data.Dataset:
    """``data.encode(data.load_csv(path, schema), schema)``, with the file
    read in windows of about ``data.PART_BYTES`` (``_map_windows``) and
    only their row codes held here. The Dataset, and any error, is the
    same for any window count and either reader."""
    return data.encode_parts(_map_windows(_row_codes, path, schema), schema)


def _fold(dataset: data.Dataset, folds: list[np.ndarray],
          task: tuple[RunConfig, int]
          ) -> tuple[audit.MetricsReport, list[lagrange.LogRow]]:
    """Train fold i of ``folds`` with ``cfg`` at ``seed + i`` on the
    other folds' rows and audit it on its own; returns the MetricsReport
    and the log."""
    cfg, i = task
    in_test = np.zeros(dataset.n, dtype=bool)
    in_test[folds[i]] = True
    params, log = lagrange.fit(dataset.subset(np.flatnonzero(~in_test)),
                               replace(cfg, seed=cfg.seed + i))
    return audit.evaluate(params, dataset.subset(folds[i]), cfg.batch_size,
                          seed=cfg.seed), log


def _workers(tasks: int) -> int:
    """How many processes run ``tasks`` tasks, folds or CSV windows: one
    per usable CPU that the BLAS threads leave free, and at most one per
    task. The BLAS thread count is the first of OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS that holds a positive integer, as numpy's OpenBLAS
    reads them; without one, the BLAS uses every usable CPU and the tasks
    run in this process."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            threads = value
            break
    return max(1, min(tasks, cpus // threads))


# the function that a forked worker of _fork_map applies to each task,
# set when the worker starts
_WORKER_FN: Callable | None = None


def _start_worker(fn) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _task(task):
    return _WORKER_FN(task)


def _fork_map(fn, tasks: list) -> list:
    """``fn`` of each task, in task order; ``fn`` may be any callable, as
    only the tasks and their results are pickled. With more than one
    worker the tasks run in forked processes; a failing task raises what
    the serial loop would, the first failure in task order, and cancels
    the tasks not yet started, and a worker that ends without a result
    (killed, say) raises ChildProcessError. No worker outlives the
    call."""
    workers = _workers(len(tasks))
    if workers == 1:
        return list(map(fn, tasks))
    # imported here, as the pool's modules add ~2 MB resident that a
    # command with one worker does not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, so each worker inherits fn, and the data it holds, through
    # the initializer's arguments, and numpy's errstate and the BLAS
    # settings; the pool pickles only _task, by name. OpenBLAS stops its
    # own threads before a fork
    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker, initargs=(fn,)) as pool:
            # a raise in the map cancels the tasks not yet started
            return list(pool.map(_task, tasks))
    except BrokenProcessPool:
        # every worker is joined by now; main exits 2 on an OSError
        raise ChildProcessError("a fold or ingest worker ended without a "
                                "result (for example, killed for memory)")


def _fold_results(cfg: RunConfig, configs: list[RunConfig]) -> list:
    """Ingest the CSV of ``cfg`` and cut its folds once, then train and
    audit each of them with each of ``configs`` (``_fold``) through
    ``_fork_map``; returns the (MetricsReport, log) of every fold of the
    first config, then of the next, and so on."""
    dataset = _ingest(cfg.data, data.resolve_schema(cfg.schema))
    folds = data.kfold(dataset, cfg.folds, cfg.seed)
    return _fork_map(functools.partial(_fold, dataset, folds),
                     [(c, i) for c in configs for i in range(cfg.folds)])


def _crossval_reports(cfg: RunConfig):
    """Ingest the CSV, then train and audit each fold; returns the
    fold reports and the training logs."""
    results = _fold_results(cfg, [cfg])
    return [r for r, _ in results], [log for _, log in results]


def cmd_crossval(cfg: RunConfig) -> int:
    if cfg.folds < 2:
        raise ParameterError("crossval requires folds >= 2")
    t0 = time.perf_counter()
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    fold_reports, logs = _crossval_reports(cfg)
    _report_run(cfg, "crossval", fold_reports, logs, t0,
                _workers(cfg.folds))
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep:
        raise ParameterError("sweep requires a nonempty 'sweep' list in config")
    if cfg.folds < 2:
        raise ParameterError("sweep requires folds >= 2")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entry = CONSTRAINTS[cfg.constraint]
    # every fold of every value in one pool; rows first, so a failed
    # sweep leaves no partial tradeoff.csv
    results = _fold_results(cfg, [replace(cfg, **{entry.param: value})
                                  for value in cfg.sweep])
    rows = []
    for j, value in enumerate(cfg.sweep):
        agg = _aggregate([r for r, _ in
                          results[j * cfg.folds:(j + 1) * cfg.folds]])
        rows.append([repr(float(value)),
                     repr(agg["mean"]["accuracy"]),
                     repr(agg["stddev"]["accuracy"]),
                     repr(agg["mean"][entry.metric]),
                     repr(agg["stddev"][entry.metric])])
    path = out / "tradeoff.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon_or_p", "mean_accuracy", "stddev_accuracy",
                         "mean_constraint_value", "stddev_constraint_value"])
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _release_freed_heap() -> None:
    """Return the pages of freed heap chunks to the OS (glibc's
    malloc_trim; nothing elsewhere). Chunks freed below live data stay
    resident otherwise, and whether a later allocation reuses them
    depends on the sizes of earlier ones, so the peak would too."""
    import ctypes  # numpy has loaded it already

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError, TypeError):  # not glibc
        pass


def _audit_window(params: model.MlpParams, schema: data.SchemaConfig,
                  encoder: data.Encoder, codes: data.RowCodes):
    """The window function of ``audit``: p, a and y of the rows of
    ``codes``, encoded with the run's encoder and forwarded
    (``audit.probabilities``)."""
    if not len(codes):  # every row dropped
        return (np.empty(0), *data.a_and_y([codes], schema))
    dataset = data.encode_parts([codes], schema, encoder)
    return audit.probabilities(params, dataset), dataset.a, dataset.y


def cmd_audit(args) -> int:
    # what RunConfig rejects on the run commands, before any file is read
    if args.batch_size < 2:
        raise ParameterError(f"--batch-size must be >= 2, got {args.batch_size}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    params = model.load_checkpoint(args.model)
    schema = data.resolve_schema(args.schema)
    # the run's encoder fixes the width, so a wrong one fails before ingest
    encoder = data.Encoder.from_json(args.encoder)
    width = encoder.width(schema)
    if width != params.dims[0]:
        raise SchemaError(f"checkpoint expects {params.dims[0]} features but "
                          f"the data encodes to {width}")
    # each window is encoded and forwarded where it is read, and only its
    # p, a and y come back
    fn = functools.partial(_audit_window, params, schema, encoder)
    p, a, y = map(np.concatenate, zip(*_map_windows(fn, args.data, schema)))
    if not a.size:  # every row dropped: what encoding no rows raises
        raise DataError("cannot encode an empty table")
    # what the windows' results freed stays resident otherwise: on the
    # audit-200k input, 1.6 MB of the peak, which scoring sets
    _release_freed_heap()
    report = audit.score(p, a, y, args.batch_size, seed=args.seed)
    print(json.dumps(asdict(report), indent=1, sort_keys=True))
    return 0


def _whole_numbers(flag: str, text: str) -> list[int]:
    """The ','-separated whole numbers in ``text``; '1e3' is 1000."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(v.is_integer() for v in values):  # NaN and inf fail too
        raise ParameterError(
            f"{flag} must be ','-separated whole numbers, got {text!r}")
    return [int(v) for v in values]


def cmd_bounds(args) -> int:
    if not math.isfinite(args.empirical_mean):
        raise ParameterError(
            f"--empirical-mean must be finite, got {args.empirical_mean!r}")
    inputs = audit.BoundInputs(R=args.r, D=args.d, W=args.w, L=args.l,
                               S=args.s, B=1, delta=args.delta, C=args.c,
                               radius_divisor=args.radius_divisor)
    b_values = _whole_numbers("--b-values", args.b_values)
    rows = audit.bound_sweep(inputs, b_values,
                             empirical_mean=args.empirical_mean)
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["B", "omega_closed", "omega_grid", "full_bound"])
        writer.writerows([b, *map(repr, values)] for b, *values in rows)
    return 0


def cmd_counterexample(args) -> int:
    pairs = [audit.di_counterexample(mu) for mu in args.mu]
    print("mu,sup_distance,const_h,const_h_hat,gap")
    for mu, pair in zip(args.mu, pairs):
        print(f"{mu!r},{pair.sup_distance!r},{pair.const_h!r},"
              f"{pair.const_h_hat!r},{pair.gap!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmlp",
        description="Fairness-constrained MLP training, auditing, and bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--lambda-zero", action="store_true", default=None,
                       dest="lambda_zero",
                       help="freeze lambda at 0 (unconstrained baseline)")
        p.add_argument("--constraint", choices=sorted(CONSTRAINTS))
        p.add_argument("--epsilon", type=float)
        p.add_argument("--p-percent", type=float, dest="p_percent")
        p.add_argument("--objective", choices=sorted(OBJECTIVES))
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--max-epochs", type=int, dest="max_epochs")
        p.add_argument("--folds", type=int)

    for name in ("train", "crossval", "sweep"):
        add_run_flags(sub.add_parser(name))

    p_audit = sub.add_parser("audit")
    p_audit.add_argument("--model", required=True)
    p_audit.add_argument("--data", required=True)
    p_audit.add_argument("--schema", required=True)
    p_audit.add_argument("--encoder", required=True,
                         help="encoder JSON from training")
    # the run's defaults, so a default audit reproduces a default run
    p_audit.add_argument("--batch-size", type=int, dest="batch_size",
                         default=lagrange.TrainConfig.batch_size)
    p_audit.add_argument("--seed", type=int, default=lagrange.TrainConfig.seed)

    p_bounds = sub.add_parser("bounds")
    p_bounds.add_argument("--r", type=int, default=2)
    p_bounds.add_argument("--d", type=int, required=True)
    p_bounds.add_argument("--w", type=float, required=True)
    p_bounds.add_argument("--l", type=float, required=True)
    p_bounds.add_argument("--s", type=int, required=True)
    p_bounds.add_argument("--b-values", dest="b_values",
                          default="100,1000,10000,100000,1000000",
                          help="comma list of B values")
    p_bounds.add_argument("--delta", type=float, default=0.1)
    p_bounds.add_argument("--c", type=float, default=4.0)
    p_bounds.add_argument("--radius-divisor", choices=["S", "2S"], default="S",
                          dest="radius_divisor")
    p_bounds.add_argument("--empirical-mean", type=float, default=0.0,
                          dest="empirical_mean")
    p_bounds.add_argument("--out")

    p_ce = sub.add_parser("counterexample")
    p_ce.add_argument("mu", type=float, nargs="+")

    return parser


RUN_COMMANDS = {"train": cmd_train, "crossval": cmd_crossval,
                "sweep": cmd_sweep}
TOOL_COMMANDS = {"audit": cmd_audit, "bounds": cmd_bounds,
                 "counterexample": cmd_counterexample}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite value ends in one NumericError line, so numpy's
        # overflow warnings on the way there would only repeat it
        with np.errstate(all="ignore"):
            if args.command in RUN_COMMANDS:
                overrides = {f.name: getattr(args, f.name)
                             for f in fields(RunConfig)
                             if getattr(args, f.name, None) is not None}
                cfg = RunConfig.from_json(args.config, **overrides)
                return RUN_COMMANDS[args.command](cfg)
            return TOOL_COMMANDS[args.command](args)
    except (ParameterError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a network too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, DataError, DegenerateBatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
