"""Command-line entry point: train / crossval / sweep / audit / bounds /
counterexample.

Run configuration lives in a JSON file; command-line flags override
individual keys. All outputs are deterministic given the seed, with
wall-clock data confined to a separate metadata field.

Exit codes: 0 success, 2 config/parameter/io, 3 schema/data,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import audit, data, lagrange, model
from .errors import (DataError, DegenerateBatchError, NumericError,
                     ParameterError, SchemaError)
from .fairloss import CONSTRAINTS, OBJECTIVES, ConstraintKind

REPORT_FORMAT = "fairmlp-report/1"


@dataclass(kw_only=True)
class RunConfig(lagrange.TrainConfig):
    """One training/evaluation run as described by a config JSON: the
    TrainConfig hyperparameters, the constraint by its CONSTRAINTS name
    with its epsilon or p_percent, and the run-level settings."""

    constraint: str = "dp"
    epsilon: float | None = 0.05
    p_percent: float | None = None
    data: str
    schema: str
    out_dir: str = "runs/out"
    folds: int = 5
    holdout_fraction: float = 0.2
    sweep: list = field(default_factory=list)

    def __post_init__(self):
        # hyperparameters are checked when train_config() builds the
        # TrainConfig, after command-line overrides
        if self.constraint not in CONSTRAINTS:
            raise ParameterError(f"unknown constraint {self.constraint!r}")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ParameterError(f"bad config {path}: {exc}")

    def constraint_kind(self, value: float | None = None) -> ConstraintKind:
        """The constraint relaxed by ``value``, or by the config's own
        epsilon or p_percent when ``value`` is None."""
        if value is None:
            value = getattr(self, CONSTRAINTS[self.constraint].param)
        return ConstraintKind.of(self.constraint, value)

    def train_config(self, sweep_value: float | None = None,
                     seed: int | None = None) -> lagrange.TrainConfig:
        hyper = {f.name: getattr(self, f.name)
                 for f in fields(lagrange.TrainConfig)}
        hyper["constraint"] = self.constraint_kind(sweep_value)
        if seed is not None:
            hyper["seed"] = seed
        return lagrange.TrainConfig(**hyper)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    for key in ("seed", "constraint", "epsilon", "p_percent", "objective",
                "batch_size", "max_epochs", "folds"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "lambda_zero", False):
        cfg.lambda_zero = True
    return cfg


def _log_rows(log) -> list[dict]:
    # wall_ms stays out of the report payload so reruns are byte-identical
    return [{"epoch": r.epoch, "objective": r.objective,
             "constraint_value": r.constraint_value, "lambda": r.lam}
            for r in log]


def _aggregate(reports: list[audit.MetricsReport]) -> dict:
    scalar_fields = ["accuracy", "dp_soft", "dp_hard", "eo_sum_soft",
                     "eo_max_soft", "di_ratio", "p_percent", "q_mean"]
    mean, stddev = {}, {}
    for name in scalar_fields:
        vals = np.asarray([getattr(r, name) for r in reports])
        mean[name] = float(vals.mean())
        stddev[name] = float(vals.std())
    for name in ("fpr_by_group", "fnr_by_group"):
        mean[name], stddev[name] = {}, {}
        for g in ("0", "1"):
            vals = np.asarray([getattr(r, name)[int(g)] for r in reports])
            mean[name][g] = float(vals.mean())
            stddev[name][g] = float(vals.std())
    return {"mean": mean, "stddev": stddev}


def _write_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _report_payload(cfg: RunConfig, mode: str,
                    fold_reports: list[audit.MetricsReport],
                    training_logs: list, wall_ms: float) -> dict:
    config = asdict(cfg)
    # where the report is written does not change what it reports
    out_dir = config.pop("out_dir")
    return {
        "format": REPORT_FORMAT,
        "mode": mode,
        "baseline": bool(cfg.lambda_zero),
        "config": config,
        "folds": [r.to_dict() for r in fold_reports],
        "aggregate": _aggregate(fold_reports),
        "training": [_log_rows(log) for log in training_logs],
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "out_dir": out_dir,
            "wall_ms_total": wall_ms,
        },
    }


def cmd_train(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    tc = cfg.train_config()  # a bad hyperparameter fails before ingest
    schema = data.resolve_schema(cfg.schema)
    table = data.load_csv(cfg.data, schema)
    a, y = data.extract_labels(table, schema)
    train_idx, test_idx = data.holdout_split(a, y, cfg.holdout_fraction,
                                             cfg.seed)
    test_table = table.take(test_idx)
    ds_train = data.encode(table.take(train_idx), schema)
    ds_test = data.encode(test_table, schema, ds_train.encoder)

    params, log = lagrange.fit(ds_train, tc)
    report = audit.evaluate(params, ds_test, tc.batch_size, seed=cfg.seed)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(out / "model.json", params, cfg.seed)
    lagrange.write_training_log(out / "training_log.csv", log)
    ds_train.encoder.to_json(out / "encoder.json")
    test_table.to_csv(out / "test_split.csv")
    wall = (time.perf_counter() - t0) * 1000.0
    payload = _report_payload(cfg, "train", [report], [log], wall)
    _write_report(out / "report.json", payload)
    print(json.dumps(payload["aggregate"]["mean"], sort_keys=True))
    return 0


def _load_folds(cfg: RunConfig) -> tuple[data.Dataset, list[np.ndarray]]:
    """The encoded dataset and its k folds; these depend on the seed but
    not on the constraint, so a sweep builds them once."""
    schema = data.resolve_schema(cfg.schema)
    table = data.load_csv(cfg.data, schema)
    dataset = data.encode(table, schema)
    return dataset, data.kfold(dataset, cfg.folds, cfg.seed)


def _crossval_reports(cfg: RunConfig, dataset: data.Dataset | None = None,
                      folds=None, sweep_value: float | None = None):
    """Train and audit each fold; ingests the CSV unless a sweep passes
    the dataset and folds it already built."""
    if dataset is None:
        dataset, folds = _load_folds(cfg)
    fold_reports, logs = [], []
    for i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(dataset.n), test_idx)
        tc = cfg.train_config(sweep_value, seed=cfg.seed + i)
        params, log = lagrange.fit(dataset.subset(train_idx), tc)
        fold_reports.append(audit.evaluate(params, dataset.subset(test_idx),
                                           tc.batch_size, seed=cfg.seed))
        logs.append(log)
    return fold_reports, logs


def cmd_crossval(cfg: RunConfig) -> int:
    if cfg.folds < 2:
        raise ParameterError("crossval requires folds >= 2")
    t0 = time.perf_counter()
    cfg.train_config()  # a bad hyperparameter fails before ingest
    fold_reports, logs = _crossval_reports(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, log in enumerate(logs):
        lagrange.write_training_log(out / f"training_log_fold{i}.csv", log)
    wall = (time.perf_counter() - t0) * 1000.0
    payload = _report_payload(cfg, "crossval", fold_reports, logs, wall)
    _write_report(out / "report.json", payload)
    print(json.dumps(payload["aggregate"]["mean"], sort_keys=True))
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep:
        raise ParameterError("sweep requires a nonempty 'sweep' list in config")
    if cfg.folds < 2:
        raise ParameterError("sweep requires folds >= 2")
    for value in cfg.sweep:  # a bad value fails before ingest
        cfg.train_config(value)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metric = CONSTRAINTS[cfg.constraint].metric
    dataset, folds = _load_folds(cfg)
    rows = []
    for value in cfg.sweep:
        fold_reports, _ = _crossval_reports(cfg, dataset, folds,
                                            sweep_value=value)
        agg = _aggregate(fold_reports)
        rows.append({
            "epsilon_or_p": value,
            "mean_accuracy": agg["mean"]["accuracy"],
            "stddev_accuracy": agg["stddev"]["accuracy"],
            "mean_constraint_value": agg["mean"][metric],
            "stddev_constraint_value": agg["stddev"][metric],
        })
    path = out / "tradeoff.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon_or_p", "mean_accuracy", "stddev_accuracy",
                         "mean_constraint_value", "stddev_constraint_value"])
        for row in rows:
            writer.writerow([repr(float(row["epsilon_or_p"])),
                             repr(row["mean_accuracy"]),
                             repr(row["stddev_accuracy"]),
                             repr(row["mean_constraint_value"]),
                             repr(row["stddev_constraint_value"])])
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_audit(args) -> int:
    params, meta = model.load_checkpoint(args.model)
    schema = data.resolve_schema(args.schema)
    encoder = data.Encoder.from_json(args.encoder) if args.encoder else None
    # no reference to the raw table outlives encode, so it is freed
    # before the evaluation
    dataset = data.encode(data.load_csv(args.data, schema), schema, encoder)
    d = meta["dims"][0]
    if dataset.d != d:
        raise SchemaError(
            f"checkpoint expects {d} features but the dataset encodes to {dataset.d}")
    report = audit.evaluate(params, dataset, args.batch_size, seed=args.seed)
    print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    return 0


def _parse_b_values(args) -> list[int]:
    if args.b_values:
        return [int(float(v)) for v in args.b_values.split(",")]
    lo, hi = (float(v) for v in args.b_range.split(":"))
    lo_e, hi_e = math.log10(lo), math.log10(hi)
    if abs(lo_e - round(lo_e)) > 1e-9 or abs(hi_e - round(hi_e)) > 1e-9:
        raise ParameterError("--b-range endpoints must be powers of 10")
    return [10 ** e for e in range(int(round(lo_e)), int(round(hi_e)) + 1)]


def cmd_bounds(args) -> int:
    inputs = audit.BoundInputs(R=args.r, D=args.d, W=args.w, L=args.l,
                               S=args.s, B=1, delta=args.delta, C=args.c,
                               radius_divisor=args.radius_divisor)
    rows = audit.bound_sweep(inputs, _parse_b_values(args),
                             empirical_mean=args.empirical_mean)
    if args.out is None:
        _write_bounds(sys.stdout, rows)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_bounds(fh, rows)
    return 0


def _write_bounds(fh, rows: list[dict]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["B", "omega_closed", "omega_grid", "full_bound"])
    for row in rows:
        writer.writerow([row["B"], repr(row["omega_closed"]),
                         repr(row["omega_grid"]), repr(row["full_bound"])])


def cmd_counterexample(args) -> int:
    print("mu,sup_distance,const_h,const_h_hat,gap")
    for mu in args.mu:
        pair = audit.di_counterexample(mu)
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
        p.add_argument("--out", help="output directory")
        p.add_argument("--lambda-zero", action="store_true", dest="lambda_zero",
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
    p_audit.add_argument("--encoder", help="encoder JSON from training")
    p_audit.add_argument("--batch-size", type=int, default=500, dest="batch_size")
    p_audit.add_argument("--seed", type=int, default=0)

    p_bounds = sub.add_parser("bounds")
    p_bounds.add_argument("--r", type=int, default=2)
    p_bounds.add_argument("--d", type=int, required=True)
    p_bounds.add_argument("--w", type=float, required=True)
    p_bounds.add_argument("--l", type=float, required=True)
    p_bounds.add_argument("--s", type=int, required=True)
    p_bounds.add_argument("--b-range", default="1e2:1e6", dest="b_range",
                          help="decades MIN:MAX, e.g. 1e2:1e6")
    p_bounds.add_argument("--b-values", dest="b_values",
                          help="explicit comma list of B values")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("train", "crossval", "sweep"):
            cfg = _apply_overrides(RunConfig.from_json(args.config), args)
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "crossval":
                return cmd_crossval(cfg)
            return cmd_sweep(cfg)
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "bounds":
            return cmd_bounds(args)
        if args.command == "counterexample":
            return cmd_counterexample(args)
        parser.error(f"unknown command {args.command}")
    except (ParameterError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, DataError, DegenerateBatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
