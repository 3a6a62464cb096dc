import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gradcheck
from fairmlp import data
from fairmlp.audit import MetricsReport
from fairmlp.cli import RunConfig, _crossval_reports, build_parser, main
from fairmlp.fairloss import CONSTRAINTS, OBJECTIVES, ConstraintKind
from conftest import write_csv


def run_config(tmp_path, csv_path, schema_path, **overrides):
    cfg = {
        "data": str(csv_path),
        "schema": str(schema_path),
        "out_dir": str(tmp_path / "out"),
        "folds": 2,
        "constraint": "dp",
        "epsilon": 0.05,
        "objective": "ce",
        "h1": 8,
        "h2": 4,
        "lr_theta": 0.01,
        "batch_size": 64,
        "max_epochs": 12,
        "seed": 5,
    }
    cfg.update(overrides)
    path = tmp_path / f"config_{abs(hash(json.dumps(cfg, sort_keys=True)))}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def strip_metadata(report_path) -> str:
    payload = json.loads(Path(report_path).read_text(encoding="utf-8"))
    payload.pop("metadata")
    return json.dumps(payload, sort_keys=True)


class TestTrain:
    def test_writes_outputs_and_exits_zero(self, tmp_path, biased_csv,
                                           biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("model.json", "training_log.csv", "report.json",
                     "encoder.json", "test_split.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["format"] == "fairmlp-report/1"
        assert report["mode"] == "train"
        assert not report["baseline"]

    def test_missing_dataset_exits_two(self, tmp_path, biased_schema_json,
                                       capsys):
        cfg = run_config(tmp_path, tmp_path / "nope.csv", biased_schema_json)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_lambda_zero_marks_baseline(self, tmp_path, biased_csv,
                                        biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        assert main(["train", "--config", str(cfg), "--lambda-zero"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["baseline"] is True
        lambdas = [row["lambda"] for row in report["training"][0]]
        assert all(v == 0.0 for v in lambdas)


class TestCrossval:
    def test_fold_reports_and_aggregate(self, tmp_path, biased_csv,
                                        biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=8)
        assert main(["crossval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["folds"]) == 2
        accs = [f["accuracy"] for f in report["folds"]]
        assert abs(report["aggregate"]["mean"]["accuracy"]
                   - float(np.mean(accs))) <= 1e-12

    def test_same_seed_byte_identical(self, tmp_path, biased_csv,
                                      biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=6)
        report_path = tmp_path / "out" / "report.json"
        assert main(["crossval", "--config", str(cfg)]) == 0
        first = strip_metadata(report_path)
        assert main(["crossval", "--config", str(cfg)]) == 0
        second = strip_metadata(report_path)
        assert first == second

    def test_out_dir_only_in_metadata(self, tmp_path, biased_csv,
                                      biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=2)
        reports = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["crossval", "--config", str(cfg), "--out",
                         str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["metadata"]["out_dir"] == str(out)
            reports.append(strip_metadata(out / "report.json"))
        assert reports[0] == reports[1]


    def test_crossval_reports_ingests_when_given_only_the_config(
            self, tmp_path, biased_csv, biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=2)
        assert main(["crossval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        reports, logs = _crossval_reports(
            RunConfig(**json.loads(cfg.read_text(encoding="utf-8"))))
        assert len(logs) == 2
        assert (json.loads(json.dumps([r.to_dict() for r in reports]))
                == report["folds"])


class TestThreadCountDeterminism:
    def test_reruns_byte_identical_at_each_thread_count(self, tmp_path,
                                                         biased_csv,
                                                         biased_schema_json):
        # the training step updates its buffers in place; reruns must still
        # agree byte for byte as long as the BLAS thread count is the same
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         h1=32, h2=16, max_epochs=3)
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            reports = []
            for rerun in range(2):
                out = tmp_path / f"threads{threads}"
                env = dict(os.environ, PYTHONPATH=path,
                           OPENBLAS_NUM_THREADS=threads)
                proc = subprocess.run(
                    [sys.executable, "-m", "fairmlp.cli", "crossval",
                     "--config", str(cfg), "--out", str(out)],
                    env=env, capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
                reports.append(strip_metadata(out / "report.json"))
            assert reports[0] == reports[1], threads


class TestAuditCommand:
    def test_audit_matches_train_report(self, tmp_path, biased_csv,
                                        biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        code = main(["audit",
                     "--model", str(out / "model.json"),
                     "--data", str(out / "test_split.csv"),
                     "--schema", str(biased_schema_json),
                     "--encoder", str(out / "encoder.json"),
                     "--batch-size", "64", "--seed", "5"])
        assert code == 0
        audited = json.loads(capsys.readouterr().out)
        assert audited == report["folds"][0]

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, biased_csv, biased_schema_json):
        tmp_path = tmp_path_factory.mktemp("trained")
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        return tmp_path / "out"

    @staticmethod
    def _test_split_rows(out):
        with open(out / "test_split.csv", newline="") as fh:
            return list(csv.reader(fh))

    @classmethod
    def _ragged_csv(cls, out):
        rows = cls._test_split_rows(out)
        rows[3] = rows[3][:2]
        write_csv(out / "bad.csv", rows[0], rows[1:])
        return {"--data": out / "bad.csv"}

    @classmethod
    def _non_numeric_cell(cls, out):
        rows = cls._test_split_rows(out)
        rows[3][rows[0].index("f1")] = "abc"
        write_csv(out / "bad.csv", rows[0], rows[1:])
        return {"--data": out / "bad.csv"}

    @staticmethod
    def _checkpoint_without_layer(out):
        payload = json.loads((out / "model.json").read_text())
        del payload["layers"]["w2"]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--model": out / "bad.json"}

    @staticmethod
    def _encoder_without_key(out):
        payload = json.loads((out / "encoder.json").read_text())
        del payload["vocabulary"]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_without_column(out):
        payload = json.loads((out / "encoder.json").read_text())
        del payload["numeric_stats"]["f2"]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @pytest.mark.parametrize("corrupt", [
        "_ragged_csv", "_non_numeric_cell", "_checkpoint_without_layer",
        "_encoder_without_key", "_encoder_without_column"])
    def test_bad_input_exits_three(self, trained, biased_schema_json, corrupt,
                                   capsys):
        args = {"--model": trained / "model.json",
                "--data": trained / "test_split.csv",
                "--schema": biased_schema_json,
                "--encoder": trained / "encoder.json"}
        args.update(getattr(self, corrupt)(trained))
        argv = ["audit"] + [str(v) for kv in args.items() for v in kv]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_wrong_dims_exits_three(self, tmp_path, biased_csv,
                                    biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        # re-audit against a dataset whose encoding has a different width
        bad_schema = tmp_path / "bad_schema.json"
        bad_schema.write_text(json.dumps({
            "numeric": ["f1"], "categorical": [], "label": "outcome",
            "positive_label": "yes", "sensitive": "grp",
            "protected_value": "f", "missing_token": "?"}), encoding="utf-8")
        code = main(["audit", "--model", str(out / "model.json"),
                     "--data", str(out / "test_split.csv"),
                     "--schema", str(bad_schema)])
        assert code == 3

    def test_constant_model_has_zero_dp(self, tmp_path, biased_csv,
                                        biased_schema_json, capsys):
        from fairmlp.model import MlpParams, save_checkpoint
        import numpy as np
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        d = json.loads((out / "model.json").read_text())["dims"]
        zero = MlpParams(w1=np.zeros((d["d"], d["h1"])), b1=np.zeros(d["h1"]),
                         w2=np.zeros((d["h1"], d["h2"])), b2=np.zeros(d["h2"]),
                         w_out=np.zeros((d["h2"], 2)), b_out=np.zeros(2))
        save_checkpoint(out / "zero.json", zero, seed=0)
        capsys.readouterr()
        code = main(["audit", "--model", str(out / "zero.json"),
                     "--data", str(out / "test_split.csv"),
                     "--schema", str(biased_schema_json),
                     "--encoder", str(out / "encoder.json")])
        assert code == 0
        audited = json.loads(capsys.readouterr().out)
        assert audited["dp_soft"] == 0.0


class TestEmptyTable:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        from fairmlp.model import MlpParams, save_checkpoint
        path = tmp_path_factory.mktemp("empty") / "model.json"
        save_checkpoint(path, MlpParams(
            w1=np.zeros((4, 2)), b1=np.zeros(2), w2=np.zeros((2, 2)),
            b2=np.zeros(2), w_out=np.zeros((2, 2)), b_out=np.zeros(2)), seed=0)
        return path

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep", "audit"])
    @pytest.mark.parametrize("rows", [
        [], [["0.5", "?", "red", "f", "yes"], ["?", "1.0", "blue", "m", "no"]]],
        ids=["header_only", "all_missing"])
    def test_exits_three(self, tmp_path, biased_schema_json, checkpoint,
                         command, rows, capsys):
        csv_path = tmp_path / "empty.csv"
        write_csv(csv_path, ["f1", "f2", "shade", "grp", "outcome"], rows)
        if command == "audit":
            argv = ["audit", "--model", str(checkpoint), "--data",
                    str(csv_path), "--schema", str(biased_schema_json)]
        else:
            cfg = run_config(tmp_path, csv_path, biased_schema_json,
                             sweep=[0.05])
            argv = [command, "--config", str(cfg)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestNonFiniteCell:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, biased_csv, biased_schema_json):
        tmp_path = tmp_path_factory.mktemp("trained")
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        return tmp_path / "out"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["crossval", "audit", "audit-encoder"])
    def test_exits_three_naming_the_column(self, tmp_path, biased_csv,
                                           biased_schema_json, trained,
                                           command, cell, capsys):
        with open(biased_csv, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        rows[7][header.index("f2")] = cell
        csv_path = tmp_path / "nonfinite.csv"
        write_csv(csv_path, header, rows)
        if command == "crossval":
            argv = ["crossval", "--config",
                    str(run_config(tmp_path, csv_path, biased_schema_json))]
        else:
            argv = ["audit", "--model", str(trained / "model.json"),
                    "--data", str(csv_path), "--schema", str(biased_schema_json)]
            if command == "audit-encoder":
                argv += ["--encoder", str(trained / "encoder.json")]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'f2'" in err


def census_shaped_rows(n, seed):
    """Synthetic rows with the UCI census column layout, so the bundled
    'adult' preset can be exercised without the real data."""
    gen = np.random.default_rng(seed)
    work = ["Private", "Self-emp", "Gov"]
    edu = ["Bachelors", "HS-grad", "Masters"]
    marital = ["Married", "Never-married"]
    occ = ["Tech", "Sales", "Service"]
    rel = ["Husband", "Wife", "Own-child"]
    race = ["White", "Black", "Asian"]
    country = ["United-States", "Mexico"]
    header = ["age", "workclass", "fnlwgt", "education", "education-num",
              "marital-status", "occupation", "relationship", "race", "sex",
              "capital-gain", "capital-loss", "hours-per-week",
              "native-country", "income"]
    rows = []
    for _ in range(n):
        female = int(gen.integers(0, 2))
        rich = int(gen.random() < (0.15 if female else 0.4))
        age = int(25 + 20 * rich + gen.integers(0, 15))
        hours = int(30 + 15 * rich + gen.integers(0, 10))
        rows.append([str(age), str(gen.choice(work)), str(gen.integers(1e4, 9e5)),
                     str(gen.choice(edu)), str(gen.integers(9, 16)),
                     str(gen.choice(marital)), str(gen.choice(occ)),
                     str(gen.choice(rel)), str(gen.choice(race)),
                     "Female" if female else "Male",
                     str(2000 * rich), "0", str(hours),
                     "?" if gen.random() < 0.02 else str(gen.choice(country)),
                     ">50K" if rich else "<=50K"])
    return header, rows


class TestAdultPresetPipeline:
    def test_crossval_runs_on_census_shaped_csv(self, tmp_path, capsys):
        header, rows = census_shaped_rows(400, seed=2)
        csv_path = tmp_path / "census.csv"
        write_csv(csv_path, header, rows)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(csv_path), "schema": "adult",
            "out_dir": str(tmp_path / "out"), "folds": 2,
            "constraint": "dp", "epsilon": 0.05, "h1": 8, "h2": 4,
            "lr_theta": 0.01, "batch_size": 50, "max_epochs": 5,
            "seed": 1}), encoding="utf-8")
        assert main(["crossval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["folds"]) == 2
        assert 0.0 <= report["aggregate"]["mean"]["accuracy"] <= 1.0


class TestSweep:
    def test_tradeoff_csv(self, tmp_path, biased_csv, biased_schema_json,
                          capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=6, sweep=[0.01, 0.05, 0.1])
        assert main(["sweep", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "tradeoff.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [float(r["epsilon_or_p"]) for r in rows] == [0.01, 0.05, 0.1]
        # values parse back bit-exactly through repr round-trip
        for r in rows:
            assert repr(float(r["mean_accuracy"])) == r["mean_accuracy"]

    def test_ingests_once_and_rows_match_crossval(self, tmp_path, biased_csv,
                                                  biased_schema_json, capsys,
                                                  monkeypatch):
        calls = {"load_csv": 0, "encode": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(data, name), **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(data, name, counted)
        values = [0.01, 0.05, 0.1]
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=4, sweep=values)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert calls == {"load_csv": 1, "encode": 1}
        with open(tmp_path / "out" / "tradeoff.csv") as fh:
            rows = list(csv.DictReader(fh))
        for value, row in zip(values, rows):
            cv = run_config(tmp_path, biased_csv, biased_schema_json,
                            max_epochs=4, epsilon=value,
                            out_dir=str(tmp_path / f"cv{value}"))
            assert main(["crossval", "--config", str(cv)]) == 0
            agg = json.loads((tmp_path / f"cv{value}" / "report.json")
                             .read_text())["aggregate"]
            assert float(row["epsilon_or_p"]) == value
            assert float(row["mean_accuracy"]) == agg["mean"]["accuracy"]
            assert float(row["stddev_accuracy"]) == agg["stddev"]["accuracy"]
            assert float(row["mean_constraint_value"]) == agg["mean"]["dp_soft"]
            assert (float(row["stddev_constraint_value"])
                    == agg["stddev"]["dp_soft"])

    def test_empty_sweep_exits_two(self, tmp_path, biased_csv,
                                   biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, sweep=[])
        assert main(["sweep", "--config", str(cfg)]) == 2


class TestBadHyperparameters:
    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []
        real = data.load_csv

        def counted(*args, **kw):
            calls.append(args)
            return real(*args, **kw)
        monkeypatch.setattr(data, "load_csv", counted)
        return calls

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    @pytest.mark.parametrize("key,value", [
        ("lr_lambda", 0.0), ("lr_lambda", -0.05),
        ("convergence_window", 0), ("convergence_tol", -1e-6)])
    def test_exits_two_before_ingest(self, tmp_path, biased_csv,
                                     biased_schema_json, loads, command, key,
                                     value, capsys):
        # with SGD ascent a negative lr_lambda would silently descend on
        # lambda instead
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         lambda_optimizer="sgd", sweep=[0.05, 0.1],
                         **{key: value})
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err
        assert loads == []

    def test_bad_sweep_value_exits_two_before_ingest(self, tmp_path,
                                                     biased_csv,
                                                     biased_schema_json,
                                                     loads, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         sweep=[0.05, -0.1])
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "epsilon" in capsys.readouterr().err
        assert loads == []


class TestBounds:
    def test_decade_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--d", "3", "--w", "0.5", "--l", "1",
                     "--s", "10", "--b-range", "1e2:1e6", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        omegas = [float(r["omega_closed"]) for r in rows]
        assert all(x > z for x, z in zip(omegas, omegas[1:]))

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        argv = ["bounds", "--d", "3", "--w", "0.5", "--l", "1", "--s", "10",
                "--b-values", "100,10000"]
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "bounds.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").splitlines() == printed.splitlines()

    def test_bad_delta_exits_two(self, capsys):
        code = main(["bounds", "--d", "3", "--w", "0.5", "--l", "1",
                     "--s", "10", "--delta", "1.0"])
        assert code == 2

    def test_larger_s_larger_omega(self, tmp_path, capsys):
        def omega_at_s(s):
            out = tmp_path / f"b{s}.csv"
            main(["bounds", "--d", "3", "--w", "0.5", "--l", "1",
                  "--s", str(s), "--b-values", "10000", "--out", str(out)])
            with open(out) as fh:
                return float(next(csv.DictReader(fh))["omega_closed"])
        assert omega_at_s(20) > omega_at_s(10)


class TestCounterexample:
    def test_six_mus_constant_gap(self, capsys):
        mus = ["1e-1", "1e-2", "1e-3", "1e-4", "1e-5", "1e-6"]
        assert main(["counterexample", *mus]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7  # header + 6 rows
        for line in lines[1:]:
            assert float(line.split(",")[-1]) == 0.5

    def test_empty_list_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample"])
        assert exc.value.code == 2

    def test_nonpositive_mu_exits_two(self, capsys):
        assert main(["counterexample", "-0.5"]) == 2

    def test_cap_rule(self, capsys):
        assert main(["counterexample", "0.5"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert float(line.split(",")[1]) == 0.25


def _flag_choices(command, flag):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if flag in a.option_strings)


class TestConstraintRegistry:
    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_flag_choices_follow_tables(self, command):
        assert _flag_choices(command, "--constraint") == sorted(CONSTRAINTS)
        assert _flag_choices(command, "--objective") == sorted(OBJECTIVES)

    def test_metrics_are_report_fields(self):
        report_fields = {f.name for f in fields(MetricsReport)}
        for name, entry in CONSTRAINTS.items():
            assert entry.metric in report_fields, name

    def test_params_build_constraint_kinds(self):
        for name, entry in CONSTRAINTS.items():
            kind = ConstraintKind(name, **{entry.param: 50.0})
            assert kind.kind == name
            assert ConstraintKind.of(name, 50.0) == kind

    def test_gradient_check_covers_every_constraint(self):
        kinds = {f().kind for f in gradcheck.KIND_FACTORY.values()}
        assert kinds == set(CONSTRAINTS)

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_unknown_constraint_exits_two(self, tmp_path, biased_csv,
                                          biased_schema_json, command, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         constraint="eo_sum", sweep=[0.1])
        assert main([command, "--config", str(cfg)]) == 2
        assert "unknown constraint" in capsys.readouterr().err
