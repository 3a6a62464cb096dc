import argparse
import contextlib
import csv
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradcheck
from fairmlp import audit, cli, data, fairloss, lagrange
from fairmlp.audit import MetricsReport
from fairmlp.errors import DataError, SchemaError
from fairmlp.cli import RunConfig, _crossval_reports, build_parser, main
from fairmlp.fairloss import CONSTRAINTS, OBJECTIVES
from conftest import SRC, no_window, not_plain, run_cli, write_csv


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


def record_ingest(monkeypatch) -> list:
    """Patch ``cli._map_windows``, the one way every command reads its
    CSV, to record the name of each call before making it; returns the
    list of names."""
    calls, real = [], cli._map_windows

    def recorded(*args, **kw):
        calls.append("_map_windows")
        return real(*args, **kw)
    monkeypatch.setattr(cli, "_map_windows", recorded)
    return calls


class TestTrain:
    def test_writes_outputs_and_exits_zero(self, tmp_path, biased_csv,
                                           biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("model.json", "report.json", "encoder.json",
                     "test_split.csv"):
            assert (out / name).exists(), name
        # report.json is the only training record
        assert list(out.glob("training_log*.csv")) == []
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

    def test_test_split_holds_every_source_cell(self, tmp_path, capsys):
        # numeric cells that are not bare integers, a quoted cell with a
        # comma (so the csv module reads the file), the sensitive column
        # also a feature, and labels and groups other than the positive
        # and protected ones
        numbers = ["0.1", "1e5", "39.0", "-3", "007"]
        header = ["n1", "c1", "grp", "outcome", "note"]
        rows = [[numbers[i % 5], ["a", "Pri, vate", " b "][i % 3],
                 ["f", "m", "x"][i % 7 % 3], ["yes", "no", "maybe"][i % 11 % 3],
                 "note"] for i in range(300)]
        # a category that only a test row holds, which the encoder must
        # not learn
        _, test_idx = data.holdout_split(
            np.array([row[2] == "f" for row in rows], np.int8),
            np.array([row[3] == "yes" for row in rows], np.int8), 0.2, 5)
        rows[test_idx[0]][1] = "rare"
        path = tmp_path / "cells.csv"
        write_csv(path, header, rows)
        schema = data.SchemaConfig(numeric=["n1"], categorical=["c1", "grp"],
                                   label="outcome", positive_label="yes",
                                   sensitive="grp", protected_value="f")
        schema_json = tmp_path / "schema.json"
        schema_json.write_text(json.dumps(asdict(schema)))
        cfg = run_config(tmp_path, path, schema_json, h1=4, h2=2,
                         batch_size=32, max_epochs=2)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        encoder = json.loads((out / "encoder.json").read_text())
        assert encoder["vocabulary"]["c1"] == ["Pri, vate", "a", "b"]
        with open(out / "test_split.csv", newline="") as fh:
            written_header, *written = csv.reader(fh)
        assert written_header == ["n1", "c1", "grp", "outcome"]
        assert len(written) == len(test_idx)
        for row, i in zip(written, test_idx.tolist()):
            source = [rows[i][header.index(col)].strip()
                      for col in written_header]
            assert float(row[0]).hex() == float(source[0]).hex()
            assert row[1:] == source[1:]
        assert {row[0] for row in written} == {"0.1", "100000", "39", "-3",
                                               "7"}
        assert {row[3] for row in written} == {"yes", "no", "maybe"}
        report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        assert main(["audit", "--model", str(out / "model.json"),
                     "--data", str(out / "test_split.csv"),
                     "--schema", str(schema_json),
                     "--encoder", str(out / "encoder.json"),
                     "--batch-size", "32", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out) == report["folds"][0]


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

    def test_byte_order_mark_gives_the_plain_report(self, tmp_path,
                                                    biased_csv,
                                                    biased_schema_json,
                                                    capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + biased_csv.read_bytes())
        reports = []
        for path in (biased_csv, bom):
            cfg = run_config(tmp_path, path, biased_schema_json, max_epochs=3)
            assert main(["crossval", "--config", str(cfg)]) == 0
            report = json.loads(strip_metadata(tmp_path / "out" / "report.json"))
            assert report["config"].pop("data") == str(path)
            reports.append(report)
        assert reports[0] == reports[1]

    def test_epoch_wall_times_only_in_metadata(self, tmp_path, biased_csv,
                                               biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, folds=3,
                         max_epochs=4)
        assert main(["crossval", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert list(out.glob("training_log*.csv")) == []
        report = json.loads((out / "report.json").read_text())
        walls = report["metadata"]["epoch_wall_ms"]
        assert [len(w) for w in walls] == [len(t) for t in report["training"]]
        assert len(walls) == 3
        assert all(ms >= 0.0 for w in walls for ms in w)
        assert all("wall_ms" not in row for t in report["training"] for row in t)

    def test_aggregate_covers_every_metric_field(self, tmp_path, biased_csv,
                                                 biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=2)
        assert main(["crossval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        folds, agg = report["folds"], report["aggregate"]
        hints = get_type_hints(MetricsReport)
        scalars = [n for n, h in hints.items() if h is float]
        groups = [n for n, h in hints.items() if h is dict]
        assert len(scalars) == 8 and len(groups) == 2
        assert set(agg["mean"]) == set(agg["stddev"]) == {*scalars, *groups}
        for name in scalars:
            vals = np.asarray([f[name] for f in folds])
            assert agg["mean"][name] == float(vals.mean()), name
            assert agg["stddev"][name] == float(vals.std()), name
        for name in groups:
            assert set(agg["mean"][name]) == {"0", "1"}
            assert set(agg["stddev"][name]) == {"0", "1"}
            for g in ("0", "1"):
                vals = np.asarray([f[name][g] for f in folds])
                assert agg["mean"][name][g] == float(vals.mean()), name
                assert agg["stddev"][name][g] == float(vals.std()), name
        # the printed line is the mean aggregate
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(printed) == agg["mean"]

    def test_di_config_without_epsilon_echoes_null(self, tmp_path, biased_csv,
                                                  biased_schema_json, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         constraint="di", p_percent=80.0, max_epochs=2)
        raw = json.loads(cfg.read_text(encoding="utf-8"))
        del raw["epsilon"]
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["crossval", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["epsilon"] is None
        assert report["config"]["p_percent"] == 80.0

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
        assert (json.loads(json.dumps([asdict(r) for r in reports]))
                == report["folds"])


def two_cpus() -> bool:
    return len(os.sched_getaffinity(0)) >= 2


class TestThreadCountDeterminism:
    def test_reruns_byte_identical_at_each_thread_count(self, tmp_path,
                                                         biased_csv,
                                                         biased_schema_json):
        # the training step updates its buffers in place; reruns must still
        # agree byte for byte as long as the BLAS thread count is the same
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         h1=32, h2=16, max_epochs=3)
        for threads in ("1", "2"):
            reports = []
            for rerun in range(2):
                out = tmp_path / f"threads{threads}"
                proc = run_cli(["crossval", "--config", str(cfg), "--out",
                                str(out)], threads)
                assert proc.returncode == 0, proc.stderr
                reports.append(strip_metadata(out / "report.json"))
            assert reports[0] == reports[1], threads

    def test_one_and_two_fold_workers_byte_identical(self, tmp_path,
                                                     biased_csv,
                                                     biased_schema_json):
        # at one BLAS thread, one usable CPU trains the folds in-process
        # and two train them in two forked workers
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         h1=32, h2=16, max_epochs=3, sweep=[0.05, 0.1])
        outputs, workers = [], []
        for one_cpu in (True, False):
            if not one_cpu and not two_cpus():
                pytest.skip("the fold pool needs 2 usable CPUs")
            out = tmp_path / f"one_cpu{one_cpu}"
            for command in ("crossval", "sweep"):
                proc = run_cli([command, "--config", str(cfg), "--out",
                                str(out)], "1", one_cpu)
                assert proc.returncode == 0, proc.stderr
            report = json.loads((out / "report.json").read_text())
            workers.append(report["metadata"]["fold_workers"])
            outputs.append((strip_metadata(out / "report.json"),
                            (out / "tradeoff.csv").read_bytes()))
        assert workers == [1, 2]
        assert outputs[0] == outputs[1]


class TestFoldWorkers:
    @pytest.mark.parametrize("env,cpus,tasks,expected", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 5, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 2, 2),
        ({}, 2, 5, 1),
        ({}, 8, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 5, 4),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 5, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 5, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 2, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2, 5, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 5, 1),
    ])
    def test_one_per_cpu_the_blas_leaves_free(self, monkeypatch, env, cpus,
                                              tasks, expected):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        assert cli._workers(tasks) == expected

    def test_importing_cli_loads_no_pool_modules(self):
        # a command with one worker, and audit, never loads them
        code = ("import sys, numpy; before = 'multiprocessing' in sys.modules; "
                "import fairmlp.cli; "
                "print(before, 'multiprocessing' in sys.modules)")
        proc = run_cli([], "1", script=code)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before, proc.stdout

    @staticmethod
    def _fold_zero_ends_last(monkeypatch, fit):
        # the forked workers inherit the patched fit; fold 0 of a run at
        # seed 5 ends well after fold 1, which starts beside it
        def slow_first(dataset, cfg):
            if cfg.seed == 5:
                time.sleep(1.0)
            return fit(dataset, cfg)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(lagrange, "fit", slow_first)

    @pytest.mark.skipif(not two_cpus(), reason="the fold pool needs 2 usable "
                        "CPUs")
    def test_reports_keep_fold_order_when_a_later_fold_ends_first(
            self, tmp_path, biased_csv, biased_schema_json, monkeypatch,
            capsys):
        self._fold_zero_ends_last(monkeypatch, lagrange.fit)
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=2)
        assert main(["crossval", "--config", str(cfg)]) == 0
        pooled = tmp_path / "out" / "report.json"
        assert json.loads(pooled.read_text())["metadata"]["fold_workers"] == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["crossval", "--config", str(cfg), "--out",
                     str(tmp_path / "serial")]) == 0
        assert (strip_metadata(pooled)
                == strip_metadata(tmp_path / "serial" / "report.json"))

    @pytest.mark.skipif(not two_cpus(), reason="the fold pool needs 2 usable "
                        "CPUs")
    def test_first_failing_fold_in_fold_order_is_reported(
            self, tmp_path, biased_csv, biased_schema_json, monkeypatch,
            capsys):
        def failing(dataset, cfg):
            raise DataError(f"fold at seed {cfg.seed}")
        self._fold_zero_ends_last(monkeypatch, failing)
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        assert main(["crossval", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: fold at seed 5\n"

    # runs main in this interpreter, then reports its exit code and the
    # worker processes still alive after it returned
    MAIN = ("import json, multiprocessing, sys\n"
            "from fairmlp.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc, len(multiprocessing.active_children())]))")

    def _run(self, cfg, one_cpu=False):
        proc = run_cli(["crossval", "--config", str(cfg)], "1", one_cpu,
                       script=self.MAIN)
        rc, alive = json.loads(proc.stdout.splitlines()[-1])
        assert alive == 0
        return rc, proc.stderr

    @pytest.mark.skipif(not two_cpus(), reason="the fold pool needs 2 usable "
                        "CPUs")
    def test_success_and_failures_leave_no_worker(self, tmp_path, biased_csv,
                                                  biased_schema_json):
        ok = run_config(tmp_path, biased_csv, biased_schema_json,
                        max_epochs=2)
        assert self._run(ok) == (0, "")
        overflow = run_config(tmp_path, biased_csv, biased_schema_json,
                              lr_theta=1e200)
        assert self._run(overflow) == (
            4, "numeric error: probabilities must be finite\n")
        # 500 rows is more than a fold's training rows, not than the data
        too_big = run_config(tmp_path, biased_csv, biased_schema_json,
                             batch_size=500)
        rc, err = self._run(too_big)
        assert rc == 3
        assert err.startswith("error: batch size 500 exceeds dataset size ")
        assert err.count("\n") == 1, err
        assert (rc, err) == self._run(too_big, one_cpu=True)

    @pytest.mark.skipif(not two_cpus(), reason="the fold pool needs 2 usable "
                        "CPUs")
    def test_dead_worker_exits_two_and_leaves_no_worker(self, tmp_path,
                                                        biased_csv,
                                                        biased_schema_json):
        # os._exit stands in for a worker the kernel kills, say for memory;
        # it runs in a child interpreter, as a serial run would end this one
        dies = ("import os\n"
                "from fairmlp import lagrange\n"
                "lagrange.fit = lambda dataset, cfg: os._exit(1)\n" + self.MAIN)
        cfg = run_config(tmp_path, biased_csv, biased_schema_json)
        proc = run_cli(["crossval", "--config", str(cfg)], "1", script=dies)
        assert json.loads(proc.stdout.splitlines()[-1]) == [2, 0]
        assert proc.stderr == ("error: a fold or ingest worker ended without "
                               "a result (for example, killed for memory)\n")

    # maps a closure over a lock, which cannot be pickled, and over an
    # object watched by a weakref; prints the results, whether the object
    # is freed once the map is done, and the workers still alive
    CLOSURE = ("import json, multiprocessing, threading, weakref\n"
               "from fairmlp import cli\n"
               "class Box:\n"
               "    offset = 100\n"
               "def mapped(tasks):\n"
               "    lock, box = threading.Lock(), Box()\n"
               "    def fn(i):\n"
               "        with lock:\n"
               "            return i * i + box.offset\n"
               "    return list(cli._fork_map(fn, tasks)), weakref.ref(box)\n"
               "results, box = mapped(list(range(8)))\n"
               "print(json.dumps([results, box() is None,\n"
               "                  len(multiprocessing.active_children())]))\n")

    @pytest.mark.skipif(not two_cpus(), reason="the fold pool needs 2 usable "
                        "CPUs")
    def test_any_callable_maps_in_task_order_and_is_freed(self, tmp_path):
        # stdout goes to a file and the child leads its own process group:
        # a worker left behind would hold a pipe open past the timeout
        out = tmp_path / "out.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        with open(out, "w") as fh:
            proc = subprocess.Popen([sys.executable, "-c", self.CLOSURE],
                                    stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, start_new_session=True)
            try:
                rc = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert rc == 0, out.read_text() or "timed out"
        assert json.loads(out.read_text().splitlines()[-1]) == [
            [i * i + 100 for i in range(8)], True, 0]


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

    def audit_argv(self, trained, schema_json):
        return ["audit", "--model", str(trained / "model.json"),
                "--data", str(trained / "test_split.csv"),
                "--schema", str(schema_json),
                "--encoder", str(trained / "encoder.json")]

    def test_freed_heap_released_between_the_forward_and_scoring(
            self, trained, biased_schema_json, monkeypatch, capsys):
        order = []
        for mod, name in ((cli, "_map_windows"), (audit, "probabilities"),
                          (audit, "score"), (cli, "_release_freed_heap")):
            def logged(*args, _f=getattr(mod, name), _name=name, **kwargs):
                order.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(mod, name, logged)
        # one window, forwarded in this process
        assert main(self.audit_argv(trained, biased_schema_json)) == 0
        assert order == ["_map_windows", "probabilities",
                         "_release_freed_heap", "score"]

    def test_encoded_features_are_freed_before_scoring(
            self, trained, biased_schema_json, monkeypatch, capsys):
        num, alive = [], []

        def encode_parts(*args, _real=data.encode_parts):
            dataset = _real(*args)
            num.append(weakref.ref(dataset.num))
            return dataset

        def score(*args, _real=audit.score, **kwargs):
            alive.append([ref() is not None for ref in num])
            return _real(*args, **kwargs)

        monkeypatch.setattr(data, "encode_parts", encode_parts)
        monkeypatch.setattr(audit, "score", score)
        assert main(self.audit_argv(trained, biased_schema_json)) == 0
        assert alive == [[False]]

    def test_a_set_without_both_groups_exits_three(
            self, trained, biased_schema_json, capsys):
        rows = self._test_split_rows(trained)
        grp = rows[0].index("grp")
        for row in rows[1:]:
            row[grp] = rows[1][grp]
        write_csv(trained / "one_group.csv", rows[0], rows[1:])
        argv = self.audit_argv(trained, biased_schema_json)
        argv[argv.index("--data") + 1] = str(trained / "one_group.csv")
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: evaluation set must contain both sensitive groups\n")

    def test_record_ingest_sees_a_good_audit(self, trained,
                                             biased_schema_json, monkeypatch,
                                             capsys):
        # the control for the before-ingest tests below
        loads = record_ingest(monkeypatch)
        assert main(["audit", "--model", str(trained / "model.json"),
                     "--data", str(trained / "test_split.csv"),
                     "--schema", str(biased_schema_json),
                     "--encoder", str(trained / "encoder.json")]) == 0
        assert loads == ["_map_windows"]

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
    def _row_with_extra_cells(cls, out):
        rows = cls._test_split_rows(out)
        rows[3].append("EXTRA")
        write_csv(out / "bad.csv", rows[0], rows[1:])
        return {"--data": out / "bad.csv"}

    @classmethod
    def _repeated_header_column(cls, out):
        rows = cls._test_split_rows(out)
        for row in rows:
            row.append(row[rows[0].index("shade")])
        write_csv(out / "bad.csv", rows[0], rows[1:])
        return {"--data": out / "bad.csv"}

    @classmethod
    def _non_numeric_cell(cls, out):
        rows = cls._test_split_rows(out)
        rows[3][rows[0].index("f1")] = "abc"
        write_csv(out / "bad.csv", rows[0], rows[1:])
        return {"--data": out / "bad.csv"}

    @classmethod
    def _oversized_cell(cls, out):
        # longer than the csv module's default field size limit
        rows = cls._test_split_rows(out)
        rows[3][rows[0].index("shade")] = "x" * 200_000
        write_csv(out / "bad.csv", rows[0], rows[1:])
        return {"--data": out / "bad.csv"}

    @staticmethod
    def _undecodable_csv(out):
        raw = (out / "test_split.csv").read_bytes()
        (out / "bad.csv").write_bytes(raw.replace(b"\n", b"\n\xff", 1))
        return {"--data": out / "bad.csv"}

    @staticmethod
    def _checkpoint_without_layer(out):
        payload = json.loads((out / "model.json").read_text())
        del payload["layers"]["w2"]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--model": out / "bad.json"}

    @staticmethod
    def _checkpoint_short_bias(out):
        payload = json.loads((out / "model.json").read_text())
        payload["layers"]["b1"].pop()
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--model": out / "bad.json"}

    @staticmethod
    def _checkpoint_inferred_dim(out):
        # reshape would infer h1 = -1 from w1's length, so the short bias
        # loaded and only broadcasting failed
        payload = json.loads((out / "model.json").read_text())
        payload["dims"]["h1"] = -1
        payload["layers"]["b1"].pop()
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--model": out / "bad.json"}

    @staticmethod
    def _checkpoint_empty_layer(out):
        # a network no TrainConfig can build, which audited with exit 0
        payload = json.loads((out / "model.json").read_text())
        payload["dims"]["h2"] = 0
        for name in ("w2", "b2", "w_out"):
            payload["layers"][name] = []
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--model": out / "bad.json"}

    @staticmethod
    def _checkpoint_non_finite(out):
        payload = json.loads((out / "model.json").read_text())
        payload["layers"]["w2"][3] = float("nan")
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--model": out / "bad.json"}

    @staticmethod
    def _checkpoint_top_level_list(out):
        payload = json.loads((out / "model.json").read_text())
        (out / "bad.json").write_text(json.dumps([payload]))
        return {"--model": out / "bad.json"}

    @staticmethod
    def _checkpoint_top_level_string(out):
        (out / "bad.json").write_text(json.dumps("x"))
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

    @staticmethod
    def _encoder_stat_not_a_pair(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["numeric_stats"]["f2"] = [0.5]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_top_level_list(out):
        payload = json.loads((out / "encoder.json").read_text())
        (out / "bad.json").write_text(json.dumps([payload]))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_stat_strings(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["numeric_stats"]["f2"] = ["a", "b"]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_stats_a_string(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["numeric_stats"] = "f2"
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @pytest.mark.parametrize("corrupt", [
        "_ragged_csv", "_row_with_extra_cells", "_repeated_header_column",
        "_non_numeric_cell", "_oversized_cell",
        "_undecodable_csv",
        "_checkpoint_without_layer",
        "_checkpoint_short_bias", "_checkpoint_inferred_dim",
        "_checkpoint_empty_layer", "_checkpoint_non_finite",
        "_checkpoint_top_level_list", "_checkpoint_top_level_string",
        "_encoder_without_key", "_encoder_without_column",
        "_encoder_stat_not_a_pair", "_encoder_top_level_list",
        "_encoder_stat_strings", "_encoder_stats_a_string"])
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

    @staticmethod
    def _encoder_extra_category(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["vocabulary"]["shade"].append("violet")
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_extra_column(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["vocabulary"]["size"] = ["big"]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_with_vocabulary(out, vocab):
        # feature_names follow the vocabulary, so only its own check fails
        payload = json.loads((out / "encoder.json").read_text())
        payload["vocabulary"]["shade"] = vocab
        payload["feature_names"] = ["f1", "f2"] + [f"shade={v}" for v in vocab]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    def _encoder_vocabulary_reordered(self, out):
        # sorted order is the one-hot order, so this would swap columns
        return self._encoder_with_vocabulary(out, ["red", "green", "blue"])

    def _encoder_vocabulary_duplicated(self, out):
        return self._encoder_with_vocabulary(out, ["blue", "green", "green"])

    def _encoder_vocabulary_not_strings(self, out):
        # no cell would match, so every row would encode as unseen
        return self._encoder_with_vocabulary(out, [1, 2, 3])

    @staticmethod
    def _encoder_negative_std(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["numeric_stats"]["f2"][1] = -1.0
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_infinite_mean(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["numeric_stats"]["f2"][0] = float("inf")
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_nan_std(out):
        payload = json.loads((out / "encoder.json").read_text())
        payload["numeric_stats"]["f1"][1] = float("nan")
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @staticmethod
    def _encoder_feature_names_disagree(out):
        payload = json.loads((out / "encoder.json").read_text())
        names = payload["feature_names"]
        names[-1], names[-2] = names[-2], names[-1]
        (out / "bad.json").write_text(json.dumps(payload))
        return {"--encoder": out / "bad.json"}

    @pytest.mark.parametrize("corrupt", [
        "_encoder_without_column", "_encoder_extra_category",
        "_encoder_extra_column", "_encoder_vocabulary_reordered",
        "_encoder_vocabulary_duplicated", "_encoder_vocabulary_not_strings",
        "_encoder_negative_std", "_encoder_infinite_mean", "_encoder_nan_std",
        "_encoder_feature_names_disagree"])
    def test_wrong_encoder_exits_three_before_ingest(
            self, trained, biased_schema_json, corrupt, capsys, monkeypatch):
        loads = record_ingest(monkeypatch)
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
        assert loads == []

    def test_reordered_schema_exits_three_before_ingest(
            self, trained, biased_schema_json, tmp_path, capsys, monkeypatch):
        # the encoder's feature_names are its only record of the training
        # column order; without the check the audit would permute columns
        loads = record_ingest(monkeypatch)
        schema = json.loads(biased_schema_json.read_text())
        assert schema["numeric"] == ["f1", "f2"]
        schema["numeric"] = ["f2", "f1"]
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        capsys.readouterr()
        assert main(["audit", "--model", str(trained / "model.json"),
                     "--data", str(trained / "test_split.csv"),
                     "--schema", str(path),
                     "--encoder", str(trained / "encoder.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert loads == []

    def test_negative_seed_exits_two(self, trained, biased_schema_json,
                                     capsys):
        capsys.readouterr()
        assert main(["audit", "--model", str(trained / "model.json"),
                     "--data", str(trained / "test_split.csv"),
                     "--schema", str(biased_schema_json),
                     "--encoder", str(trained / "encoder.json"),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed must be >= 0") and err.count(
            "\n") == 1, err

    @pytest.mark.parametrize("flag,value,message", [
        ("--batch-size", "1", "error: --batch-size must be >= 2, got 1\n"),
        ("--seed", "-1", "error: --seed must be >= 0, got -1\n")])
    def test_bad_batch_size_or_seed_exits_two_before_ingest(
            self, trained, biased_schema_json, tmp_path, flag, value, message,
            capsys):
        # a --data path that does not exist shows that no ingest ran
        capsys.readouterr()
        assert main(["audit", "--model", str(trained / "model.json"),
                     "--data", str(tmp_path / "missing.csv"),
                     "--schema", str(biased_schema_json),
                     "--encoder", str(trained / "encoder.json"),
                     flag, value]) == 2
        assert capsys.readouterr().err == message

    def test_overflowing_checkpoint_exits_four(self, trained,
                                               biased_schema_json, capsys):
        # finite weights whose products overflow give non-finite p
        payload = json.loads((trained / "model.json").read_text())
        for name in ("w1", "w2"):
            payload["layers"][name] = [1e308] * len(payload["layers"][name])
        (trained / "huge.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["audit", "--model", str(trained / "huge.json"),
                     "--data", str(trained / "test_split.csv"),
                     "--schema", str(biased_schema_json),
                     "--encoder", str(trained / "encoder.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1, err

    def test_wrong_dims_exits_three(
            self, trained, tmp_path, biased_schema_json, capsys, monkeypatch):
        # an encoder that fits its own schema but not the checkpoint's width
        bad_schema = tmp_path / "bad_schema.json"
        bad_schema.write_text(json.dumps({
            "numeric": ["f1"], "categorical": [], "label": "outcome",
            "positive_label": "yes", "sensitive": "grp",
            "protected_value": "f", "missing_token": "?"}), encoding="utf-8")
        schema = data.resolve_schema(str(bad_schema))
        data.encode(data.load_csv(trained / "test_split.csv", schema),
                    schema).encoder.to_json(tmp_path / "encoder.json")
        loads = record_ingest(monkeypatch)
        capsys.readouterr()
        code = main(["audit", "--model", str(trained / "model.json"),
                     "--data", str(trained / "test_split.csv"),
                     "--schema", str(bad_schema),
                     "--encoder", str(tmp_path / "encoder.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("error: checkpoint expects 5 features but the data "
                       "encodes to 1\n"), err
        assert loads == []

    def test_missing_encoder_exits_two_before_ingest(
            self, trained, biased_schema_json, capsys, monkeypatch):
        loads = record_ingest(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--model", str(trained / "model.json"),
                  "--data", str(trained / "test_split.csv"),
                  "--schema", str(biased_schema_json)])
        assert exc.value.code == 2
        assert "--encoder" in capsys.readouterr().err
        assert loads == []

    def test_defaults_are_the_run_config_defaults(self):
        args = build_parser().parse_args(
            ["audit", "--model", "m.json", "--data", "d.csv",
             "--schema", "adult", "--encoder", "e.json"])
        defaults = lagrange.TrainConfig()
        assert args.batch_size == defaults.batch_size
        assert args.seed == defaults.seed

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


PART_SCHEMA = data.SchemaConfig(numeric=["n1", "n2"], categorical=["c1"],
                                label="outcome", positive_label="yes",
                                sensitive="grp", protected_value="f")
PART_HEADER = "n1,c1,grp,n2,outcome,note"
PART_NUMBERS = st.one_of(st.integers(-9, 9).map(str),
                         st.floats(-1e3, 1e3, allow_nan=False).map(repr))


@st.composite
def part_csvs(draw):
    """CSV bytes in PART_SCHEMA's columns plus an unused one: LF or CRLF
    line ends, blank and all-empty lines, rows with the missing token,
    categories the saved encoder never saw, now and then a byte-order
    mark, a bad numeric cell or a row of the wrong width."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [PART_HEADER]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 24))
        if kind == 0:
            lines.append("")
            continue
        if kind == 1:
            lines.append(" , ,,, , ")
            continue
        row = [draw(PART_NUMBERS), draw(st.sampled_from(["a", "b", "c", "日本"])),
               draw(st.sampled_from(["f", "m"])), draw(PART_NUMBERS),
               draw(st.sampled_from(["yes", "no"])), "x"]
        if kind == 2:
            row[draw(st.integers(0, 5))] = "?"
        elif kind == 3:
            row[draw(st.sampled_from([0, 3]))] = draw(
                st.sampled_from(["abc", "nan", "-inf"]))
        elif kind == 4:
            row = row[:draw(st.integers(1, 5))]
        lines.append(",".join(row))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode()


# numeric cells of a plain CSV: bare digits of 1 to 17 (numpy converts up
# to 15, float the rest), leading zeros, and cells that are not bare,
# among them the bytes either side of '0' to '9'
PLAIN_NUMBERS = st.one_of(
    st.integers(0, 10**17).map(str),
    st.text("0123456789", min_size=1, max_size=16),
    st.sampled_from([" 7", "7 ", "1.5", "-2", "+3", "1e3", "1_0", "nan",
                     "-inf", "abc", "", "12:30", "1/2", "٣", "日本",
                     "12345678901234567"]))
# categories unseen by PART_SCHEMA's other tests, non-ASCII ones, and ones
# that strip to the same value
PLAIN_CATEGORIES = st.sampled_from(["a", "b", " a", "b ", "c", "日本", "é",
                                    "", " "])


@st.composite
def plain_csvs(draw):
    """A missing token and CSV bytes in PART_SCHEMA's columns that
    ``data.row_codes`` tokenizes in numpy: LF or CRLF line ends, empty
    lines, no whitespace-only, short or quoted rows, and a visible ASCII
    byte in every row's unused cell. Now and then a row has the token in
    any column, every row from some point on has it, and the file has a
    byte-order mark or no final line end."""
    token = draw(st.sampled_from(["?", "0", ""]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [PART_HEADER]
    n = draw(st.integers(1, 30))
    dropped_from = draw(st.integers(0, n))
    for i in range(n):
        if draw(st.integers(0, 7)) == 0:
            lines.append("")
        row = [draw(PLAIN_NUMBERS), draw(PLAIN_CATEGORIES),
               draw(st.sampled_from(["f", "m", " f"])), draw(PLAIN_NUMBERS),
               draw(st.sampled_from(["yes", "no", "yes "])),
               draw(st.sampled_from(["x", "ü x"]))]
        if i >= dropped_from or draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, 5))] = token
        lines.append(",".join(row))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return token, b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode()


def code_fields(codes: data.RowCodes):
    """Everything a RowCodes holds, dtypes included, with each numeric
    column's error as its type and message."""
    def array(x):
        return x.dtype.str, x.shape, x.tobytes()
    return ([(type(x), str(x)) if isinstance(x, ValueError) else array(x)
             for x in codes.numeric],
            [(values, array(c)) for values, c in codes.text])


class TestRowCodes:
    @settings(max_examples=300, deadline=None)
    @given(plain_csvs(), st.integers(1, 4))
    def test_plain_windows_match_the_csv_path_without_calling_it(self, plain,
                                                                parts):
        token, raw = plain
        schema = replace(PART_SCHEMA, missing_token=token)
        header = raw[:raw.index(b"\n") + 1]
        with tempfile.TemporaryDirectory() as tmp:
            path, alone = Path(tmp) / "plain.csv", Path(tmp) / "window.csv"
            path.write_bytes(raw)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "PART_BYTES", max(1, len(raw) // parts))
                windows = data.byte_parts(path)

            def unread(*args):
                raise AssertionError("row_codes called load_csv")

            for lo, hi in windows:
                # the window's rows under the header, read by the csv module
                alone.write_bytes((b"" if lo == 0 else header)
                                  + raw[lo:hi])
                csv_path = data.load_csv(alone, schema)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(data, "load_csv", unread)
                    try:
                        codes = data.row_codes(path, schema, lo, hi)
                    except data.NotPlain:
                        # only a window with no row line, such as a part
                        # 0 that holds the header alone, or one whose rows
                        # times a used column's widest field outgrow it
                        rows = raw[len(header) if lo == 0 else lo:hi]
                        rows = rows.replace(b"\r\n", b"\n")
                        cells = [line.split(b",")
                                 for line in rows.split(b"\n") if line]
                        assert not cells or max(
                            len(cells) * max(len(c[j]) for c in cells)
                            for j in range(5)) > len(rows)
                        continue
                assert code_fields(codes) == code_fields(csv_path)

    def test_fields_that_share_a_key_go_to_the_csv_path(self, tmp_path,
                                                        monkeypatch):
        # with no mixing, a field's key is its last word: these two c1
        # values share one
        path = tmp_path / "collide.csv"
        path.write_text("\n".join([PART_HEADER, "1,aaaaaaaaX,f,2,yes,x",
                                   "3,bbbbbbbbX,m,4,no,x", ""]),
                        encoding="utf-8")
        one = ingested(lambda: data.encode(data.load_csv(path, PART_SCHEMA),
                                           PART_SCHEMA))
        monkeypatch.setattr(data, "_MIX", np.uint64(0))
        assert not_plain(path, PART_SCHEMA)
        assert ingested(lambda: cli._ingest(path, PART_SCHEMA)) == one
        assert json.loads(one[1])["vocabulary"]["c1"] == ["aaaaaaaaX",
                                                          "bbbbbbbbX"]


def ingested(ingest):
    """Everything ``ingest()`` returns, as bytes, dtypes and encoder JSON,
    or the type and message of the error it raised."""
    try:
        ds = ingest()
    except (DataError, SchemaError) as exc:
        return type(exc), str(exc)
    arrays = (ds.num, ds.cols, ds.a, ds.y)
    return ([(x.dtype.str, x.shape, x.tobytes()) for x in arrays],
            json.dumps(asdict(ds.encoder), sort_keys=True))


def cut_in_process(mp, path, parts):
    """Make ``cli._ingest`` cut the file at ``path`` into about ``parts``
    parts, exactly that many when it has parts**2 bytes and the lines to
    cut at, and read them in this process, in order."""
    mp.setattr(data, "PART_BYTES", max(1, path.stat().st_size // parts))
    mp.setattr(os, "sched_getaffinity", lambda pid: {0})  # one worker


class TestIngestParts:
    @staticmethod
    def _same_as_one_part(path, parts, encoder=None):
        one = ingested(lambda: data.encode(data.load_csv(path, PART_SCHEMA),
                                           PART_SCHEMA, encoder))
        with pytest.MonkeyPatch.context() as mp:
            cut_in_process(mp, path, parts)
            assert ingested(lambda: data.encode_parts(
                cli._map_windows(cli._row_codes, path, PART_SCHEMA),
                PART_SCHEMA, encoder)) == one
        return one

    # a saved encoder's std can scale a cell past the largest double
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(part_csvs(), st.integers(1, 4), st.booleans())
    def test_any_part_count_gives_the_one_part_dataset(self, raw, parts,
                                                       saved):
        encoder = None
        with tempfile.TemporaryDirectory() as tmp:
            if saved:
                fitted = Path(tmp) / "fitted.csv"
                fitted.write_text("n1,c1,grp,n2,outcome\n1,a,f,0,yes\n"
                                  "4,b,m,2,no\n", encoding="utf-8")
                encoder = data.encode(data.load_csv(fitted, PART_SCHEMA),
                                      PART_SCHEMA).encoder
            path = Path(tmp) / "parts.csv"
            path.write_bytes(raw)
            self._same_as_one_part(path, parts, encoder)

    @staticmethod
    def _rows(n):
        return [f"{i},{'ab'[i % 2]},{'fm'[i % 3 % 2]},{i % 7},"
                f"{('yes', 'no')[i % 5 % 2]},x" for i in range(n)]

    def _write(self, tmp_path, rows):
        path = tmp_path / "parts.csv"
        path.write_text("\n".join([PART_HEADER, *rows, ""]), encoding="utf-8")
        return path

    # row 30 of 40 as each case writes it; numpy reads the plain cases,
    # and for any other the csv module reads the whole file. The last case
    # drops rows 15 to 39, the whole second window
    @pytest.mark.parametrize("end,row_30,drop_from,plain", [
        (b"\n", b'30,"a",f,2,yes,x', 40, False),
        (b"\n", b"30,a,f,2,yes,x\r31,b,m,3,no,x", 40, False),
        (b"\r\n", b"30,a,f,2,yes,x", 40, True),
        (b"\n", b"30,a,f,2,yes,\0", 40, False),
        (b"\n", b"30,\xff,f,2,yes,x", 40, False),
        (b"\n", b"30,a,f,2,yes,\xff", 40, False),
        (b"\n", b"1,a,f", 40, False),
        (b"\n", b"30,a,f,2,yes,x,,,,\n1,a", 40, False),
        (b"\n", b"", 40, True),
        (b"\n", b" , ,,, , ", 40, False),
        (b"\n", b"30,a,f,2,yes," + b"x" * (csv.field_size_limit() + 1), 40,
         False),
        (b"\n", b"30,a,f,2,?,x", 15, True)],
        ids=["quote", "lone CR", "CRLF", "NUL", "invalid UTF-8 in a used "
             "column", "invalid UTF-8 in the unused column", "short row",
             "long then short row", "blank row", "all-blank row",
             "field over the limit", "all rows dropped"])
    def test_a_window_the_numpy_reader_leaves_gives_the_csv_path_result(
            self, tmp_path, end, row_30, drop_from, plain):
        rows = [row.encode() for row in self._rows(40)]
        rows[drop_from:] = [row.replace(b",yes,", b",?,").replace(
            b",no,", b",?,") for row in rows[drop_from:]]
        at = len(end.join([PART_HEADER.encode(), *rows[:30], b""]))
        rows[30] = row_30
        path = tmp_path / "plain_but_one.csv"
        path.write_bytes(end.join([PART_HEADER.encode(), *rows, b""]))
        one = ingested(lambda: data.encode(data.load_csv(path, PART_SCHEMA),
                                           PART_SCHEMA))
        real, calls = data.load_csv, []

        def recorded(*args):
            calls.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            cut_in_process(mp, path, 2)
            windows = data.byte_parts(path)
            assert len(windows) == 2
            left = [not_plain(path, PART_SCHEMA, lo, hi)
                    for lo, hi in windows]
            mp.setattr(data, "load_csv", recorded)
            assert ingested(lambda: cli._ingest(path, PART_SCHEMA)) == one
        if plain:
            assert not any(left) and calls == []
        else:
            window = next(i for i, (lo, hi) in enumerate(windows)
                          if lo <= at < (hi or path.stat().st_size))
            assert left[window]
            assert calls == [(path, PART_SCHEMA)]

    def test_bad_count_in_the_last_part_names_its_line_in_the_file(
            self, tmp_path):
        rows = self._rows(30)
        rows[-1] = "1,a,f"
        path = self._write(tmp_path, rows)
        assert self._same_as_one_part(path, 4) == (
            DataError, f"{path} line 31 has 3 cells, the header has 6")

    def test_bad_count_in_part_two_beats_non_numeric_in_part_one(
            self, tmp_path):
        rows = self._rows(40)
        rows[2] = rows[2].replace("2,", "abc,", 1)
        rows[30] += ",extra"
        path = self._write(tmp_path, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "PART_BYTES", path.stat().st_size // 2)
            (_, hi), _ = data.byte_parts(path)
        raw = path.read_bytes()
        assert raw.index(b"abc,") < hi < raw.index(b",extra")
        assert self._same_as_one_part(path, 2) == (
            DataError, f"{path} line 32 has 7 cells, the header has 6")

    def test_non_utf8_in_a_later_part_is_the_one_part_error(self, tmp_path):
        # past the 8 KiB that reading the header decodes; the position in
        # the message counts from the start of a decoded chunk
        path = self._write(tmp_path, self._rows(2000))
        raw = path.read_bytes()
        assert len(raw) > 3 * 8192
        path.write_bytes(raw[:-30] + b"\xff" + raw[-29:])
        error, message = self._same_as_one_part(path, 3)
        assert error is DataError and "is not UTF-8 text" in message

    def test_quoted_newline_is_one_part_and_the_same_table(self, tmp_path):
        # the first row whose quoted field a cut into 4 parts lands in
        path = tmp_path / "quoted.csv"
        for r in range(40):
            rows = [row.split(",") for row in self._rows(40)]
            rows[r][5] = "two\nlines"
            write_csv(path, PART_HEADER.split(","), rows)
            raw = path.read_bytes()
            inside = raw.index(b"two\n") + len(b"two\n")
            with pytest.MonkeyPatch.context() as mp:
                cut_in_process(mp, path, 4)
                windows = data.byte_parts(path)
            if any(lo == inside for lo, _ in windows):
                break
        else:
            pytest.fail("no cut lands in the quoted field")
        assert [lo for lo, hi in windows
                if not_plain(path, PART_SCHEMA, lo, hi)] == [
            lo for lo, hi in windows if b'"' in raw[lo:hi]]
        assert isinstance(self._same_as_one_part(path, 4)[0], list)

    def _quoted_in_window_0(self, tmp_path, monkeypatch):
        """A CSV cut into at least 3 windows whose first holds a '"', its
        one-part Dataset, and the end of window 0."""
        rows = self._rows(60)
        rows[2] = rows[2].replace(",a,", ',"a",', 1)
        path = self._write(tmp_path, rows)
        one = ingested(lambda: data.encode(data.load_csv(path, PART_SCHEMA),
                                           PART_SCHEMA))
        monkeypatch.setattr(data, "PART_BYTES", path.stat().st_size // 3)
        windows = data.byte_parts(path)
        raw = path.read_bytes()
        assert len(windows) >= 3 and raw.index(b'"') < windows[0][1]
        return path, one, windows[0][1]

    def test_one_worker_stops_at_the_first_window_numpy_leaves(
            self, tmp_path, monkeypatch):
        path, one, hi = self._quoted_in_window_0(tmp_path, monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = []
        for name in ("row_codes", "load_csv"):
            def recorded(*args, _real=getattr(data, name), _name=name):
                calls.append((_name, *args))
                return _real(*args)
            monkeypatch.setattr(data, name, recorded)
        assert ingested(lambda: cli._ingest(path, PART_SCHEMA)) == one
        assert calls == [("row_codes", path, PART_SCHEMA, 0, hi),
                         ("load_csv", path, PART_SCHEMA)]

    def test_two_workers_stop_early_and_leave_no_worker(self, tmp_path,
                                                        monkeypatch):
        import multiprocessing

        path, one, _ = self._quoted_in_window_0(tmp_path, monkeypatch)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli._workers(3) == 2
        assert ingested(lambda: cli._ingest(path, PART_SCHEMA)) == one
        assert multiprocessing.active_children() == []

    # the audit's stdout from two window workers, and the part count on
    # stderr; then from the whole-file read, as numpy reads no window
    FORKED = ("import sys\n"
              "from fairmlp import cli, data\n"
              "cut = data.byte_parts\n"
              "def counted(path):\n"
              "    parts = cut(path)\n"
              "    print(len(parts), file=sys.stderr)\n"
              "    return parts\n"
              "data.byte_parts = counted\n"
              "sys.exit(cli.main(sys.argv[1:]))")
    SERIAL = ("import sys\n"
              "from fairmlp import cli, data\n"
              "def whole(*window):\n"
              "    raise data.NotPlain\n"
              "data.row_codes = whole\n"
              "sys.exit(cli.main(sys.argv[1:]))")

    @pytest.mark.skipif(not two_cpus(), reason="the ingest pool needs 2 "
                        "usable CPUs")
    def test_forked_audit_matches_the_serial_audit(self, tmp_path, capsys):
        gen = str(Path(__file__).resolve().parent.parent / "perfbench"
                  / "gen_adult.py")
        # ~2.6 MB: two parts of more than data.PART_BYTES each
        for name, rows, seed in (("train.csv", 3000, 1),
                                 ("audit.csv", 24_000, 2)):
            subprocess.run([sys.executable, gen, str(rows), str(seed),
                            str(tmp_path / name)], check=True)
        assert (tmp_path / "audit.csv").stat().st_size >= 2 * data.PART_BYTES
        cfg = run_config(tmp_path, tmp_path / "train.csv", "adult",
                         max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        argv = ["audit", "--model", str(out / "model.json"),
                "--data", str(tmp_path / "audit.csv"), "--schema", "adult",
                "--encoder", str(out / "encoder.json"), "--batch-size", "500"]
        forked = run_cli(argv, "1", script=self.FORKED)
        serial = run_cli(argv, "1", script=self.SERIAL)
        assert forked.returncode == serial.returncode == 0, forked.stderr
        assert forked.stderr == "2\n"
        assert json.loads(serial.stdout)["n"] > 20_000
        assert forked.stdout == serial.stdout

    # the audit of a CSV cut into windows of about PART_BYTES, the first
    # argument, with p's SHA-256 on stderr
    HASHED = ("import hashlib, sys\n"
              "from fairmlp import audit, cli, data\n"
              "data.PART_BYTES = int(sys.argv.pop(1))\n"
              "score = audit.score\n"
              "def hashed(p, *args, **kwargs):\n"
              "    print(hashlib.sha256(p.tobytes()).hexdigest(),\n"
              "          file=sys.stderr)\n"
              "    return score(p, *args, **kwargs)\n"
              "audit.score = hashed\n"
              "sys.exit(cli.main(sys.argv[1:]))")
    # the same from audit.probabilities of the whole Dataset: the model,
    # CSV and encoder paths are the arguments
    WHOLE_DATASET = (
        "import hashlib, json, sys\n"
        "from dataclasses import asdict\n"
        "from fairmlp import audit, data, model\n"
        "model_path, path, encoder_path = sys.argv[1:]\n"
        "schema = data.adult_schema()\n"
        "dataset = data.encode(data.load_csv(path, schema), schema,\n"
        "                      data.Encoder.from_json(encoder_path))\n"
        "p = audit.probabilities(model.load_checkpoint(model_path), dataset)\n"
        "print(hashlib.sha256(p.tobytes()).hexdigest(), file=sys.stderr)\n"
        "print(json.dumps(asdict(audit.score(p, dataset.a, dataset.y, 500,\n"
        "                                    seed=0)), indent=1,\n"
        "                 sort_keys=True))")

    @pytest.mark.skipif(not two_cpus(), reason="the window pool needs 2 "
                        "usable CPUs")
    def test_windows_forward_to_the_whole_dataset_p(self, tmp_path,
                                                    monkeypatch):
        # at the default widths, with more kept rows than one output-layer
        # call of the whole set needs to leave OpenBLAS's small-matrix
        # kernel: each ~3.7k-row window's output layer is padded past it
        gen = str(Path(__file__).resolve().parent.parent / "perfbench"
                  / "gen_adult.py")
        for name, rows, seed in (("train.csv", 3000, 1),
                                 ("audit.csv", 12_000, 2)):
            subprocess.run([sys.executable, gen, str(rows), str(seed),
                            str(tmp_path / name)], check=True)
        path = tmp_path / "audit.csv"
        part_bytes = path.stat().st_size // 3
        monkeypatch.setattr(data, "PART_BYTES", part_bytes)
        assert len(data.byte_parts(path)) == 3
        cfg = run_config(tmp_path, tmp_path / "train.csv", "adult",
                         max_epochs=1, h1=lagrange.TrainConfig.h1,
                         h2=lagrange.TrainConfig.h2)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        argv = ["audit", "--model", str(out / "model.json"),
                "--data", str(path), "--schema", "adult",
                "--encoder", str(out / "encoder.json"),
                "--batch-size", "500", "--seed", "0"]
        runs = [run_cli([str(part_bytes), *argv], "1", one_cpu,
                        script=self.HASHED) for one_cpu in (False, True)]
        runs.append(run_cli([str(out / "model.json"), str(path),
                             str(out / "encoder.json")], "1",
                            script=self.WHOLE_DATASET))
        assert [r.returncode for r in runs] == [0, 0, 0], runs[0].stderr
        assert len({r.stderr for r in runs}) == 1
        assert len({r.stdout for r in runs}) == 1
        h2 = lagrange.TrainConfig.h2
        assert json.loads(runs[0].stdout)["n"] > audit.SMALL_GEMM // (2 * h2)

    # the audit of the CSV cut into windows of about PART_BYTES, the first
    # argument; with "whole" second, numpy reads no window, so the csv
    # module reads the file as one part, and with "numpy" it must not
    CUT = ("import sys\n"
           "from fairmlp import cli, data\n"
           "data.PART_BYTES = int(sys.argv.pop(1))\n"
           "how = sys.argv.pop(1)\n"
           "def whole(*window):\n"
           "    raise data.NotPlain\n"
           "if how == 'whole':\n"
           "    data.row_codes = whole\n"
           "if how == 'numpy':\n"
           "    data.load_csv = None\n"
           "sys.exit(cli.main(sys.argv[1:]))")

    @staticmethod
    def _non_numeric(rows, col):
        # f1 comes before f2 in the schema, so window 1's f1 is the error
        rows[2][col("f2")] = "abc"
        rows[len(rows) * 3 // 8][col("f1")] = "xyz"

    @staticmethod
    def _window_dropped(rows, col):
        n = len(rows)
        for row in rows[n // 4 - 8:n // 2 + 8]:
            row[col("outcome")] = "?"

    @staticmethod
    def _all_dropped(rows, col):
        for row in rows:
            row[col("outcome")] = "?"

    @staticmethod
    def _one_group(rows, col):
        for row in rows:
            row[col("grp")] = rows[0][col("grp")]

    @pytest.mark.parametrize("case,code,err", [
        ("non_numeric", 3, "error: non-numeric value in column 'f1': could "
         "not convert string to float: 'xyz'\n"),
        ("window_dropped", 0, ""),
        ("all_dropped", 3, "error: cannot encode an empty table\n"),
        ("one_group", 3, "error: evaluation set must contain both sensitive "
         "groups\n")],
        ids=["non-numeric in window 0 and an earlier column in window 1",
             "one window all dropped", "every row dropped",
             "one sensitive group"])
    def test_windowed_audit_is_the_whole_file_audit(
            self, trained, biased_schema_json, monkeypatch, case, code,
            err):
        with open(trained / "test_split.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        getattr(self, f"_{case}")(rows, header.index)
        path = trained.parent / "windows.csv"
        write_csv(path, header, rows)
        part_bytes = path.stat().st_size // 4
        monkeypatch.setattr(data, "PART_BYTES", part_bytes)
        windows = data.byte_parts(path)
        assert len(windows) == 4
        if case == "non_numeric":
            raw, (_, end_0), (_, end_1) = path.read_bytes(), *windows[:2]
            assert raw.index(b"abc") < end_0 < raw.index(b"xyz") < end_1
        if case == "window_dropped":
            schema = data.resolve_schema(str(biased_schema_json))
            assert [len(data.row_codes(path, schema, lo, hi)) == 0
                    for lo, hi in windows] == [False, True, False, False]
        argv = ["audit", "--model", str(trained / "model.json"),
                "--data", str(path), "--schema", str(biased_schema_json),
                "--encoder", str(trained / "encoder.json")]
        # only window 0's encode error sends the file to the csv module
        how = "windows" if case == "non_numeric" else "numpy"
        windowed, whole = (run_cli([str(part_bytes), read, *argv], "1",
                                   script=self.CUT)
                           for read in (how, "whole"))
        assert (windowed.returncode, windowed.stderr) == (code, err)
        assert (whole.returncode, whole.stdout, whole.stderr) == (
            windowed.returncode, windowed.stdout, windowed.stderr)

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, biased_csv, biased_schema_json):
        tmp_path = tmp_path_factory.mktemp("trained")
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        return tmp_path / "out"

    def test_train_writes_the_same_files_in_windows_and_whole(
            self, tmp_path, monkeypatch, capsys):
        gen = str(Path(__file__).resolve().parent.parent / "perfbench"
                  / "gen_adult.py")
        path = tmp_path / "train.csv"
        subprocess.run([sys.executable, gen, "3000", "1", str(path)],
                       check=True)
        monkeypatch.setattr(data, "PART_BYTES", path.stat().st_size // 3)
        assert len(data.byte_parts(path)) == 3
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        row_codes, load_csv = data.row_codes, data.load_csv
        outputs = []
        # two window workers, one, and the whole-file read by the csv
        # module, as numpy reads no window
        for name, cpus, windows in (("two", {0, 1}, True),
                                    ("one", {0}, True),
                                    ("whole", {0, 1}, False)):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus)
            assert cli._workers(3) == len(cpus)
            monkeypatch.setattr(data, "row_codes", row_codes if windows
                                else no_window)
            monkeypatch.setattr(data, "load_csv", None if windows
                                else load_csv)
            cfg = run_config(tmp_path, path, "adult", max_epochs=1,
                             batch_size=200, out_dir=str(tmp_path / name))
            assert main(["train", "--config", str(cfg)]) == 0
            out = tmp_path / name
            outputs.append([(out / file).read_bytes() for file in
                            ("model.json", "encoder.json", "test_split.csv")]
                           + [strip_metadata(out / "report.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_one_long_cell_sends_the_file_to_the_csv_path(
            self, tmp_path, monkeypatch, capsys):
        # one 20,000-byte occupation in a kept row of a one-window file:
        # its rows times that width, ~60 MB of field words, outgrow the
        # ~0.3 MB window
        gen = str(Path(__file__).resolve().parent.parent / "perfbench"
                  / "gen_adult.py")
        path = tmp_path / "long.csv"
        subprocess.run([sys.executable, gen, "3000", "3", str(path)],
                       check=True)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, row in enumerate(rows) if "?" not in row)
        cells = rows[at].split(",")
        cells[header.split(",").index("occupation")] = "L" * 20_000
        rows[at] = ",".join(cells)
        path.write_text("\n".join([header, *rows, ""]), encoding="utf-8")
        assert data.byte_parts(path) == [(0, None)]
        tracemalloc.start()
        try:
            with pytest.raises(data.NotPlain):
                data.row_codes(path, data.adult_schema())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = run_config(tmp_path, path, "adult", max_epochs=1,
                         batch_size=200)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert "L" * 20_000 in data.Encoder.from_json(
            out / "encoder.json").vocabulary["occupation"]
        outputs = []
        # the numpy reader, then the whole-file read alone
        for name, reader in (("windows", data.row_codes),
                             ("whole", no_window)):
            monkeypatch.setattr(data, "row_codes", reader)
            cfg = run_config(tmp_path, path, "adult", max_epochs=1,
                             batch_size=200, out_dir=str(tmp_path / name))
            assert main(["crossval", "--config", str(cfg)]) == 0
            capsys.readouterr()
            assert main(["audit", "--model", str(out / "model.json"),
                         "--data", str(path), "--schema", "adult",
                         "--encoder", str(out / "encoder.json")]) == 0
            outputs.append((strip_metadata(tmp_path / name / "report.json"),
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("corrupt", [
        "_ragged_csv", "_row_with_extra_cells", "_repeated_header_column",
        "_non_numeric_cell", "_oversized_cell", "_undecodable_csv"])
    def test_train_fails_on_a_bad_file_as_crossval_does(
            self, trained, biased_schema_json, monkeypatch, capsys,
            corrupt):
        bad = getattr(TestAuditCommand, corrupt)(trained)["--data"]
        monkeypatch.setattr(data, "PART_BYTES", bad.stat().st_size // 3)
        assert len(data.byte_parts(bad)) == 3
        failures = []
        for command in ("train", "crossval"):
            cfg = run_config(trained.parent, bad, biased_schema_json,
                             max_epochs=1,
                             out_dir=str(trained.parent / command))
            capsys.readouterr()
            failures.append((main([command, "--config", str(cfg)]),
                             capsys.readouterr().err))
        assert failures[0] == failures[1]
        code, err = failures[0]
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("h1,h2", [(100, 50), (2, 2)])
    def test_train_report_is_the_audit_of_its_test_split_in_windows(
            self, tmp_path, monkeypatch, h1, h2):
        # train forwards its test split in one call, the audit in three
        # windows; at one BLAS thread, p of a row is the same in both
        gen = str(Path(__file__).resolve().parent.parent / "perfbench"
                  / "gen_adult.py")
        subprocess.run([sys.executable, gen, "3000", "1",
                        str(tmp_path / "train.csv")], check=True)
        cfg = run_config(tmp_path, tmp_path / "train.csv", "adult", h1=h1,
                         h2=h2, max_epochs=2, batch_size=200, seed=1)
        trained = run_cli(["train", "--config", str(cfg)], "1")
        assert trained.returncode == 0, trained.stderr
        out = tmp_path / "out"
        split = out / "test_split.csv"
        part_bytes = split.stat().st_size // 3
        monkeypatch.setattr(data, "PART_BYTES", part_bytes)
        assert len(data.byte_parts(split)) == 3
        argv = ["audit", "--model", str(out / "model.json"),
                "--data", str(split), "--schema", "adult",
                "--encoder", str(out / "encoder.json"),
                "--batch-size", "200", "--seed", "1"]
        audited = run_cli([str(part_bytes), "numpy", *argv], "1",
                          script=self.CUT)
        assert audited.returncode == 0, audited.stderr
        report = json.loads((out / "report.json").read_text())
        assert json.loads(audited.stdout) == report["folds"][0]

    @pytest.mark.skipif(not two_cpus(), reason="the ingest pool needs 2 "
                        "usable CPUs")
    def test_dead_worker_exits_two_and_leaves_no_worker(
            self, trained, biased_schema_json):
        # os._exit stands in for a worker the kernel kills; each line of
        # the test split is a window, and each worker dies on its first
        dies = ("import os\n"
                "from fairmlp import data\n"
                "data.PART_BYTES = 1\n"
                "data.row_codes = lambda *window: os._exit(1)\n"
                + TestFoldWorkers.MAIN)
        proc = run_cli(["audit", "--model", str(trained / "model.json"),
                        "--data", str(trained / "test_split.csv"),
                        "--schema", str(biased_schema_json),
                        "--encoder", str(trained / "encoder.json")], "1",
                       script=dies)
        assert json.loads(proc.stdout.splitlines()[-1]) == [2, 0]
        assert proc.stderr == ("error: a fold or ingest worker ended without "
                               "a result (for example, killed for memory)\n")


class TestReleaseFreedHeap:
    def test_trims_through_the_libc(self, monkeypatch):
        import ctypes

        calls = []

        class Libc:
            def malloc_trim(self, pad):
                calls.append(pad)
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        cli._release_freed_heap()
        assert calls == [0]

    @pytest.mark.parametrize("error", [None, OSError, TypeError])
    def test_a_libc_without_malloc_trim_is_left_alone(self, monkeypatch,
                                                      error):
        # None: a libc with no malloc_trim; OSError: none loads;
        # TypeError: CDLL(None) where that is not the running program
        import ctypes

        def cdll(name):
            if error is not None:
                raise error("no libc")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli._release_freed_heap() is None


class TestEmptyTable:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        """A checkpoint and an encoder JSON of the biased schema's width,
        5, so only the empty table can make audit exit 3."""
        from fairmlp.model import MlpParams, save_checkpoint
        folder = tmp_path_factory.mktemp("empty")
        data.Encoder(numeric_stats={"f1": (0.0, 1.0), "f2": (0.0, 1.0)},
                     vocabulary={"shade": ["blue", "green", "red"]},
                     feature_names=["f1", "f2", "shade=blue", "shade=green",
                                    "shade=red"]).to_json(folder / "encoder.json")
        save_checkpoint(folder / "model.json", MlpParams(
            w1=np.zeros((5, 2)), b1=np.zeros(2), w2=np.zeros((2, 2)),
            b2=np.zeros(2), w_out=np.zeros((2, 2)), b_out=np.zeros(2)), seed=0)
        return folder / "model.json"

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep", "audit"])
    @pytest.mark.parametrize("rows", [
        None, [],
        [["0.5", "?", "red", "f", "yes"], ["?", "1.0", "blue", "m", "no"]]],
        ids=["no_header", "header_only", "all_missing"])
    def test_exits_three(self, tmp_path, biased_schema_json, checkpoint,
                         command, rows, capsys):
        csv_path = tmp_path / "empty.csv"
        if rows is None:  # a file of zero bytes
            csv_path.write_bytes(b"")
        else:
            write_csv(csv_path, ["f1", "f2", "shade", "grp", "outcome"], rows)
        if command == "audit":
            argv = ["audit", "--model", str(checkpoint), "--data",
                    str(csv_path), "--schema", str(biased_schema_json),
                    "--encoder", str(checkpoint.parent / "encoder.json")]
        else:
            cfg = run_config(tmp_path, csv_path, biased_schema_json,
                             sweep=[0.05])
            argv = [command, "--config", str(cfg)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if rows is None:
            assert err == f"error: {csv_path} is empty\n", err


class TestTooLargeToAllocate:
    """A network whose weights cannot be allocated exits 2 with one line.
    Each size below asks for more than 700 TiB, beyond any machine's
    memory and beyond a 47-bit address space, so numpy's allocation is
    refused at once and nothing is ever partly allocated."""

    @pytest.mark.parametrize("dims", [{"h1": 10 ** 12, "h2": 4},
                                      {"h1": 100, "h2": 10 ** 12}],
                             ids=["h1", "h2"])
    def test_exits_two_with_one_line(self, tmp_path, biased_csv,
                                     biased_schema_json, dims, capsys):
        # f1 as a category gives one column per row, so d > 800 and the
        # first layer of 10**12 units needs d * 10**12 float64 weights
        schema = json.loads(biased_schema_json.read_text())
        schema.update(numeric=["f2"], categorical=["f1", "shade"])
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        cfg = run_config(tmp_path, biased_csv, path, **dims)
        capsys.readouterr()
        assert main(["crossval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: "), err
        assert err.count("\n") == 1, err


class TestFileSystemErrors:
    """A path that cannot be read or written, or a JSON input that is not
    UTF-8 text, exits 2 with one line, and before any model is trained."""

    @staticmethod
    def _out_is_a_file(tmp_path, cfg):
        return ["train", "--config", str(cfg), "--out", str(tmp_path / "taken")]

    @staticmethod
    def _out_under_a_file(tmp_path, cfg):
        return ["train", "--config", str(cfg), "--out",
                str(tmp_path / "taken" / "out")]

    @staticmethod
    def _crossval_out_is_a_file(tmp_path, cfg):
        return ["crossval", "--config", str(cfg), "--out",
                str(tmp_path / "taken")]

    @staticmethod
    def _crossval_out_under_a_file(tmp_path, cfg):
        return ["crossval", "--config", str(cfg), "--out",
                str(tmp_path / "taken" / "out")]

    @staticmethod
    def _bounds_out_under_a_file(tmp_path, cfg):
        return ["bounds", "--d", "3", "--w", "0.5", "--l", "1", "--s", "10",
                "--out", str(tmp_path / "taken" / "x")]

    @staticmethod
    def _undecodable_schema(tmp_path, cfg):
        config = json.loads(cfg.read_text(encoding="utf-8"))
        schema = Path(config["schema"]).read_bytes()
        (tmp_path / "bad_schema.json").write_bytes(
            schema.replace(b"f1", b"f\xff", 1))
        config["schema"] = str(tmp_path / "bad_schema.json")
        cfg.write_text(json.dumps(config), encoding="utf-8")
        return ["crossval", "--config", str(cfg)]

    @pytest.mark.parametrize("case", [
        "_out_is_a_file", "_out_under_a_file", "_crossval_out_is_a_file",
        "_crossval_out_under_a_file", "_bounds_out_under_a_file",
        "_undecodable_schema"])
    def test_exits_two_with_one_line(self, tmp_path, biased_csv,
                                     biased_schema_json, case, capsys,
                                     monkeypatch):
        fits = []
        monkeypatch.setattr(lagrange, "fit",
                            lambda *args, **kw: fits.append(args))
        (tmp_path / "taken").write_text("x")
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, max_epochs=1)
        assert main(getattr(self, case)(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert fits == []


class TestNonFiniteCell:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, biased_csv, biased_schema_json):
        tmp_path = tmp_path_factory.mktemp("trained")
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        return tmp_path / "out"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["crossval", "audit-encoder"])
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
                    "--data", str(csv_path), "--schema", str(biased_schema_json),
                    "--encoder", str(trained / "encoder.json")]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'f2'" in err

    @pytest.mark.parametrize("cells", [["1e200", "-1e200"], ["1.7e308"]],
                             ids=["std", "mean"])
    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_overflowing_column_exits_three_before_training(
            self, tmp_path, biased_csv, biased_schema_json, monkeypatch,
            command, cells, capsys):
        # every cell is finite, but the column's std or mean is not
        with open(biased_csv, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for i, row in enumerate(rows):
            row[header.index("f2")] = cells[i % len(cells)]
        csv_path = tmp_path / "overflow.csv"
        write_csv(csv_path, header, rows)

        def no_fit(*args):
            raise AssertionError("fit ran")
        monkeypatch.setattr(lagrange, "fit", no_fit)
        cfg = run_config(tmp_path, csv_path, biased_schema_json)
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'f2'" in err
        # no encoder.json, nor any other file that could hold an Infinity
        assert list((tmp_path / "out").iterdir()) == []

    def test_overflowing_z_score_exits_three_naming_the_column(
            self, trained, biased_schema_json, tmp_path, capsys):
        # the cell is finite, but a saved std of 0.1 scales it past the
        # largest double
        payload = json.loads((trained / "encoder.json").read_text())
        payload["numeric_stats"]["f2"] = [0.2, 0.1]
        (tmp_path / "encoder.json").write_text(json.dumps(payload))
        with open(trained / "test_split.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        rows[3][header.index("f2")] = "1.7e308"
        write_csv(tmp_path / "big.csv", header, rows)
        capsys.readouterr()
        assert main(["audit", "--model", str(trained / "model.json"),
                     "--data", str(tmp_path / "big.csv"),
                     "--schema", str(biased_schema_json),
                     "--encoder", str(tmp_path / "encoder.json")]) == 3
        assert capsys.readouterr().err == ("error: column 'f2' overflows its "
                                           "z-score\n")


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
        calls = {"_ingest": 0, "encode_parts": 0}
        for owner, name in ((cli, "_ingest"), (data, "encode_parts")):
            def counted(*args, _name=name, _real=getattr(owner, name), **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(owner, name, counted)
        values = [0.01, 0.05, 0.1]
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=4, sweep=values)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert calls == {"_ingest": 1, "encode_parts": 1}
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
        return record_ingest(monkeypatch)

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_loads_records_a_good_run_s_ingest(self, tmp_path, biased_csv,
                                               biased_schema_json, loads,
                                               command, capsys):
        # the control for the tests below: their empty ``loads`` would
        # mean nothing if the patch missed the command's ingest
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         max_epochs=1, sweep=[0.05])
        assert main([command, "--config", str(cfg)]) == 0
        assert loads[0] == "_map_windows"

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    @pytest.mark.parametrize("key,value", [
        ("lr_lambda", 0.0), ("lr_lambda", -0.05),
        ("convergence_window", 0), ("convergence_tol", -1e-6), ("h1", 0),
        ("h2", 0), ("epsilon", "0.05"), ("batch_size", "64"),
        ("lr_theta", "0.1"), ("max_epochs", 1.5), ("folds", "a"),
        ("seed", "a"), ("data", None), ("objective", []),
        ("lambda_zero", "no"), ("batch_size", True), ("lr_theta", True),
        ("holdout_fraction", 1.5), ("holdout_fraction", 0.0),
        ("holdout_fraction", float("nan")), ("seed", -1),
        ("epsilon", float("inf")), ("lr_theta", float("inf")),
        ("lr_lambda", float("inf")), ("lambda_init", float("inf")),
        ("p_percent", 80.0), ("batch_size", 1), ("max_epochs", 0),
        ("objective", "hinge")])
    def test_exits_two_before_ingest(self, tmp_path, biased_csv,
                                     biased_schema_json, loads, command, key,
                                     value, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         sweep=[0.05, 0.1], **{key: value})
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err
        assert loads == []

    @pytest.mark.parametrize("command", ["crossval", "sweep"])
    def test_one_fold_exits_two_before_ingest(self, tmp_path, biased_csv,
                                              biased_schema_json, loads,
                                              command, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, folds=1,
                         sweep=[0.05])
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"error: {command} requires "
                                           "folds >= 2\n")
        assert loads == []

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_batch_larger_than_data_exits_three(self, tmp_path, biased_csv,
                                                biased_schema_json, command,
                                                capsys):
        # a workspace of 10**12 rows is refused at allocation, so this
        # size ends in a traceback unless it is rejected before then
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         batch_size=10**12, sweep=[0.05])
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: batch size 1000000000000 exceeds "
                              "dataset size ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("bad", [-0.1, float("inf")])
    def test_bad_sweep_value_exits_two_before_ingest(self, tmp_path,
                                                     biased_csv,
                                                     biased_schema_json,
                                                     loads, bad, capsys):
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         sweep=[0.05, bad])
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "epsilon" in capsys.readouterr().err
        assert loads == []

    def test_bad_unused_sweep_value_exits_two(self, tmp_path, biased_csv,
                                              biased_schema_json, loads,
                                              capsys):
        # the config is checked whole, sweep included, for every command
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         sweep=[0.05, -0.1])
        for command in ("train", "crossval"):
            assert main([command, "--config", str(cfg)]) == 2
            assert "epsilon" in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_wrongly_typed_schema_exits_three_before_ingest(
            self, tmp_path, biased_csv, biased_schema_json, loads, command,
            capsys):
        schema = json.loads(biased_schema_json.read_text())
        schema["label"] = ["outcome"]
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        cfg = run_config(tmp_path, biased_csv, path, sweep=[0.05])
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: label must be ") and err.count("\n") == 1, err
        assert loads == []

    @pytest.mark.parametrize("change,named", [
        ({"categorical": ["shade", "outcome"]}, "'outcome' is also a feature"),
        ({"sensitive": "outcome"}, "'outcome' is also the sensitive column")],
        ids=["label_as_feature", "label_as_sensitive"])
    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_label_column_reused_exits_three_before_ingest(
            self, tmp_path, biased_csv, biased_schema_json, loads, command,
            change, named, capsys):
        schema = {**json.loads(biased_schema_json.read_text()), **change}
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        cfg = run_config(tmp_path, biased_csv, path, sweep=[0.05])
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: label column ") and named in err, err
        assert err.count("\n") == 1, err
        assert loads == []

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_unknown_schema_key_exits_three_before_ingest(
            self, tmp_path, biased_csv, biased_schema_json, loads, command,
            capsys):
        schema = {**json.loads(biased_schema_json.read_text()),
                  "weights": "fnlwgt"}
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        cfg = run_config(tmp_path, biased_csv, path, sweep=[0.05])
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad schema file {path}: "), err
        assert err.count("\n") == 1, err
        assert "weights" in err
        assert loads == []

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_unknown_key_exits_two_before_ingest(self, tmp_path, biased_csv,
                                                 biased_schema_json, loads,
                                                 command, capsys):
        # a key that is not a RunConfig field, a retired one included
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         lambda_update="sgd")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "lambda_update" in err
        assert loads == []

    # one wrongly typed value for each annotation a RunConfig field has
    WRONG_TYPE = {"str": None, "int": "1", "float": "0.1",
                  "float | None": "0.1", "bool": "no", "list[float]": ["x"]}

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
    def test_wrongly_typed_field_exits_two_before_ingest(
            self, tmp_path, biased_csv, biased_schema_json, loads, command,
            key, capsys):
        ftype = {f.name: f.type for f in fields(RunConfig)}[key]
        overrides = {"sweep": [0.05], key: self.WRONG_TYPE[ftype]}
        cfg = run_config(tmp_path, biased_csv, biased_schema_json, **overrides)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1, err
        assert loads == []

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_every_run_flag_is_a_config_key(self, command):
        # main merges flags into the config by field name
        keys = {f.name for f in fields(RunConfig)}
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions}
        assert dests - {"help", "config"} <= keys


class TestBounds:
    def test_decade_sweep_csv(self, tmp_path, capsys):
        # with no B flag, B runs over the decades 10^2 .. 10^6
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--d", "3", "--w", "0.5", "--l", "1",
                     "--s", "10", "--out", str(out)])
        assert code == 0
        expect = ["B,omega_closed,omega_grid,full_bound"]
        for e in range(2, 7):
            inputs = audit.BoundInputs(R=2, D=3, W=0.5, L=1.0, S=10, B=10 ** e)
            om = audit.omega(inputs)
            expect.append(f"{10 ** e},{om.closed_form!r},{om.grid!r},"
                          f"{audit.full_bound(0.0, inputs)!r}")
        assert out.read_bytes() == ("\r\n".join(expect) + "\r\n").encode()
        omegas = [float(line.split(",")[1]) for line in expect[1:]]
        assert all(x > z for x, z in zip(omegas, omegas[1:]))

    def test_b_range_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--d", "3", "--w", "0.5", "--l", "1", "--s", "10",
                  "--b-range", "1e2:1e6"])
        assert exc.value.code == 2
        assert "--b-range" in capsys.readouterr().err

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

    def test_b_in_exponent_notation_is_a_whole_number(self, capsys):
        argv = ["bounds", "--d", "3", "--w", "0.5", "--l", "1", "--s", "10"]
        capsys.readouterr()
        assert main(argv + ["--b-values", "1e3"]) == 0
        exponent = capsys.readouterr().out
        assert main(argv + ["--b-values", "1000"]) == 0
        assert exponent == capsys.readouterr().out
        assert exponent.splitlines()[1].startswith("1000,")

    def test_bad_delta_exits_two(self, capsys):
        code = main(["bounds", "--d", "3", "--w", "0.5", "--l", "1",
                     "--s", "10", "--delta", "1.0"])
        assert code == 2

    def test_overflowing_weight_power_stays_in_logs(self, capsys):
        # (2W)^(R+1) = 20^401 is beyond the float range
        assert main(["bounds", "--d", "3", "--w", "10", "--l", "1", "--s", "10",
                     "--r", "400", "--b-values", "100,10000"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 2
        for row in rows:
            assert all(np.isfinite(float(row[k])) for k in
                       ("omega_closed", "omega_grid", "full_bound"))

    def test_larger_s_larger_omega(self, tmp_path, capsys):
        def omega_at_s(s):
            out = tmp_path / f"b{s}.csv"
            main(["bounds", "--d", "3", "--w", "0.5", "--l", "1",
                  "--s", str(s), "--b-values", "10000", "--out", str(out)])
            with open(out) as fh:
                return float(next(csv.DictReader(fh))["omega_closed"])
        assert omega_at_s(20) > omega_at_s(10)


class TestBadBoundsValues:
    @pytest.mark.parametrize("argv, named", [
        (["bounds", "--b-values", "1,x"], "--b-values"),
        (["bounds", "--b-values", "inf"], "--b-values"),
        (["bounds", "--b-values", "nan"], "--b-values"),
        (["bounds", "--b-values", "2.5"], "--b-values"),
        (["bounds", "--b-values", "100,100.9"], "--b-values"),
        (["bounds", "--b-values", "0.5"], "--b-values"),
        (["counterexample", "nan"], "mu"),
        (["bounds", "--w", "nan"], "W"),
        (["bounds", "--l", "nan"], "L"),
        (["bounds", "--c", "nan"], "C"),
        (["bounds", "--empirical-mean", "nan"], "--empirical-mean"),
        (["bounds", "--empirical-mean", "inf"], "--empirical-mean"),
        (["bounds", "--d", "1" + "0" * 400], "D"),
        (["bounds", "--s", "1" + "0" * 400], "S"),
        (["bounds", "--w", "10", "--r", "1" + "0" * 400], "R"),
    ], ids=["b-values-x", "b-values-inf",
            "b-values-nan", "b-values-2.5", "b-values-100.9", "b-values-0.5",
            "mu-nan", "w-nan", "l-nan", "c-nan",
            "empirical-mean-nan", "empirical-mean-inf", "d-401-digits",
            "s-401-digits", "r-401-digits"])
    def test_exits_two_with_one_line(self, argv, named, capsys):
        if argv[0] == "bounds":
            # the case's own flags come last, so they win
            argv = ["bounds", "--d", "3", "--w", "0.5", "--l", "1",
                    "--s", "10", *argv[1:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert named in lines[0]


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

    def test_params_give_the_slack(self):
        for name, entry in CONSTRAINTS.items():
            expect = -0.5 if entry.param == "p_percent" else 50.0
            assert fairloss.slack(name, 50.0) == expect, name

    def test_gradient_check_covers_every_constraint(self):
        checked = {term for term, _ in gradcheck.KINDS.values()}
        for name, entry in CONSTRAINTS.items():
            assert entry.value_and_grad in checked, name

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    @pytest.mark.parametrize("constraint", ["eo_sum", "dp-multi"])
    def test_unknown_constraint_exits_two(self, tmp_path, biased_csv,
                                          biased_schema_json, constraint,
                                          command, capsys, monkeypatch):
        loads = record_ingest(monkeypatch)
        cfg = run_config(tmp_path, biased_csv, biased_schema_json,
                         constraint=constraint, sweep=[0.1])
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown constraint {constraint!r}\n", err
        assert loads == []

    @pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
    def test_dp_multi_flag_is_not_a_choice(self, command, capsys):
        # argparse refuses it before the config is opened
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "/nonexistent.json",
                  "--constraint", "dp-multi"])
        assert exc.value.code == 2
        assert "invalid choice: 'dp-multi'" in capsys.readouterr().err
