"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import csv
import io
import json
from pathlib import Path

import numpy as np

import gen_adult
import run
import spans


def test_generator_same_seed_same_bytes():
    assert gen_adult.generate(2000, 7) == gen_adult.generate(2000, 7)
    assert gen_adult.generate(2000, 7) != gen_adult.generate(2000, 8)


def test_generator_shape(tmp_path):
    path = tmp_path / "adult.csv"
    gen_adult.write(path, 20_000, 3)
    info = run.describe_csv(path)
    assert info["rows"] == 20_000
    assert info["d"] == 103
    assert 0.05 < 1 - info["kept"] / info["rows"] < 0.09
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert list(rows[0]) == gen_adult.COLUMNS
    female = [r["sex"] == "Female" for r in rows]
    assert 0.30 < np.mean(female) < 0.37
    # the positive rate differs by group, so a DP constraint binds
    pos = np.asarray([r["income"] == ">50K" for r in rows])
    female = np.asarray(female)
    assert pos[~female].mean() - pos[female].mean() > 0.1


def test_self_time_subtracts_children():
    # root [0, 10] has children [1, 3] and [4, 8]; the second has a
    # child [5, 6]; a grandchild never counts against the root
    tree = [["root", 0.0, 10.0, -1],
            ["a", 1.0, 3.0, 0],
            ["b", 4.0, 8.0, 0],
            ["c", 5.0, 6.0, 2]]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    tree = [["root", 0.0, 10.0, -1],
            ["a", 2.0, 6.0, 0],
            ["b", 4.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == 2.0


def test_tracer_records_nesting():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    st = spans.self_times(tracer.spans)
    assert 0.0 <= st[0] <= tracer.spans[0][2] - tracer.spans[0][1]


def test_dup_fraction():
    epoch = [np.asarray([0, 1, 2]), np.asarray([3, 4, 0])]
    assert spans.dup_fraction([epoch]) == 1 / 6


def test_fold_sizes_deal_each_cell_round_robin():
    assert run.fold_sizes([5, 3, 0, 2], 2) == [3 + 2 + 0 + 1, 2 + 1 + 0 + 1]


def test_adam_median_is_per_step_sum():
    tree = [["lagrange.train_step", 0.0, 10.0, -1],
            ["numcore.adam_step", 1.0, 4.0, 0],
            ["numcore.adam_step", 4.0, 5.0, 0],
            ["lagrange.train_step", 10.0, 20.0, -1],
            ["numcore.adam_step", 11.0, 13.0, 3],
            ["numcore.adam_step", 13.0, 15.0, 3]]
    m = spans.layer_metrics(tree, {})
    assert m["numcore.adam_step.median_ms"] == (4000.0, "ms")
    assert m["numcore.adam_step.calls"] == (4.0, "count")
    assert m["lagrange.train_step.self_median_ms"] == (6000.0, "ms")


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    layers = {k: u for k, (_, u) in spans.layer_metrics([], {}).items()}
    layers["trace.overhead_frac"] = "frac"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
