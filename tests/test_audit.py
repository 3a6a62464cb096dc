import math
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import oracles
from fairmlp import audit, fairloss
from fairmlp.audit import (BoundInputs, bound_sweep, covering_number,
                           di_counterexample, evaluate, full_bound, omega)
from fairmlp.data import (UNSEEN, Dataset, Encoder, SchemaConfig, encode,
                          epoch_batches, load_csv)
from fairmlp.errors import DataError, ParameterError
from fairmlp.lagrange import TrainConfig, fit
from fairmlp.model import MlpParams, forward, init_params
from fairmlp.numcore import Rng
from conftest import numeric_dataset, run_cli

TESTS = str(Path(__file__).resolve().parent)


def sigmoid_network() -> MlpParams:
    """A d=1 network computing p = sigmoid(x) exactly for |x| < 10."""
    return MlpParams(
        w1=np.array([[1.0, -1.0]]),
        b1=np.array([10.0, 10.0]),
        w2=np.eye(2),
        b2=np.array([-10.0, -10.0]),
        w_out=np.array([[0.0, 1.0], [0.0, -1.0]]),
        b_out=np.zeros(2),
    )


def dataset_with_probs(p_target, a, y) -> Dataset:
    p_target = np.asarray(p_target, dtype=np.float64)
    x = np.log(p_target / (1.0 - p_target))
    return numeric_dataset(x.reshape(-1, 1), a, y)


def soft_metrics(report) -> tuple[float, float, float, float]:
    return (report.dp_soft, report.eo_sum_soft, report.eo_max_soft,
            report.q_mean)


@st.composite
def audit_sets(draw):
    """(p, a, y, S) with S a divisor of n, a non-divisor (the final batch
    is topped up by resampling) or at least n (clamped to one batch).
    The first four rows hold every (a, y) pair, which the hard rates
    need."""
    n = draw(st.integers(8, 60))
    prob = st.floats(1e-3, 1.0 - 1e-3)
    cells = [(draw(prob), ai, yi) for ai in (0, 1) for yi in (0, 1)]
    rows = st.tuples(prob, st.integers(0, 1), st.integers(0, 1))
    p, a, y = map(np.array, zip(*cells, *draw(st.lists(
        rows, min_size=n - 4, max_size=n - 4))))
    S = draw(st.one_of(
        st.sampled_from([s for s in range(4, n + 1) if n % s == 0]),
        st.integers(4, n - 1).filter(lambda s: n % s),
        st.integers(n, 2 * n)))
    return p, a, y, S


class TestEvaluate:
    def test_sigmoid_construction_reproduces_probs(self):
        ds = dataset_with_probs([0.9, 0.8, 0.35, 0.7, 0.2, 0.6],
                                [1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 1, 0])
        p = forward(sigmoid_network(), ds.num).p
        np.testing.assert_allclose(p, [0.9, 0.8, 0.35, 0.7, 0.2, 0.6],
                                   atol=1e-12)

    def test_perfect_balanced_predictor(self):
        ds = dataset_with_probs([0.95, 0.05, 0.95, 0.05],
                                [1, 1, 0, 0], [1, 0, 1, 0])
        report = evaluate(sigmoid_network(), ds, S=4)
        assert report.accuracy == 1.0
        assert report.dp_hard == 0.0
        assert report.p_percent == 100.0
        assert report.di_ratio == 1.0

    def test_prediction_equals_attribute(self):
        ds = dataset_with_probs([0.95, 0.95, 0.05, 0.05],
                                [1, 1, 0, 0], [1, 0, 1, 0])
        report = evaluate(sigmoid_network(), ds, S=4)
        assert report.dp_hard == 1.0
        assert report.p_percent < 0.01

    def test_six_row_fixture_matches_loop_oracle(self):
        a = [1, 1, 1, 0, 0, 0]
        y = [1, 0, 1, 0, 1, 0]
        ds = dataset_with_probs([0.9, 0.8, 0.35, 0.7, 0.2, 0.6], a, y)
        params = sigmoid_network()
        p = forward(params, ds.num).p.tolist()
        report = evaluate(params, ds, S=6)

        yhat = [1 if v >= 0.5 else 0 for v in p]
        assert abs(report.accuracy - oracles.loop_accuracy(yhat, y)) <= 1e-12
        assert abs(report.dp_soft - oracles.loop_dp(p, a)) <= 1e-12
        hard1 = oracles.loop_rate(yhat, [ai == 1 for ai in a])
        hard0 = oracles.loop_rate(yhat, [ai == 0 for ai in a])
        assert abs(report.dp_hard - abs(hard1 - hard0)) <= 1e-12
        assert abs(report.eo_sum_soft - oracles.loop_eo_sum(p, a, y)) <= 1e-12
        assert abs(report.eo_max_soft - oracles.loop_eo_max(p, a, y)) <= 1e-12
        assert abs(report.q_mean - oracles.loop_qmean(p, y)) <= 1e-12
        for g in (0, 1):
            fpr = oracles.loop_rate(
                yhat, [ai == g and yi == 0 for ai, yi in zip(a, y)])
            fnr = oracles.loop_rate(
                [1 - v for v in yhat],
                [ai == g and yi == 1 for ai, yi in zip(a, y)])
            assert abs(report.fpr_by_group[g] - fpr) <= 1e-12
            assert abs(report.fnr_by_group[g] - fnr) <= 1e-12
        expected_ratio = min(hard1 / hard0, hard0 / hard1)
        assert abs(report.di_ratio - expected_ratio) <= 1e-12
        assert abs(report.p_percent - 100.0 * report.di_ratio) <= 1e-12
        assert report.n == 6
        assert report.n_group1 == 3 and report.n_group0 == 3

    def test_soft_gaps_average_over_batches(self):
        # S = n/2 so the soft gap is a two-batch mean, not the whole-set gap
        gen = np.random.default_rng(5)
        n = 40
        a = np.tile([1, 0], n // 2)
        y = np.tile([1, 1, 0, 0], n // 4)
        probs = gen.uniform(0.2, 0.8, n)
        ds = dataset_with_probs(probs, a, y)
        params = sigmoid_network()
        p = forward(params, ds.num).p
        report = evaluate(params, ds, S=20, seed=3)
        batches = epoch_batches(ds.a, ds.y, 20, Rng(3), need_classes=True)
        expect = np.mean([oracles.loop_dp(p[idx].tolist(), ds.a[idx].tolist())
                          for idx in batches])
        assert abs(report.dp_soft - expect) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(audit_sets(), st.integers(0, 2 ** 32 - 1))
    def test_stacked_pass_equals_per_batch_loop(self, case, seed):
        # each soft metric is bit for bit the mean of its per-batch term
        probs, a, y, S = case
        ds = dataset_with_probs(probs, a, y)
        try:
            batches = epoch_batches(ds.a, ds.y, min(S, ds.n), Rng(seed),
                                    need_classes=True)
        except DataError:  # a group or class too small to stratify
            reject()
        # score, not evaluate: the padded forward of this d = 1 network
        # costs ~36 ms a call (TestBlockedEvaluate pins evaluate as score
        # of probabilities)
        p = forward(sigmoid_network(), ds.num).p
        report = audit.score(p, ds.a, ds.y, S, seed=seed)
        assert soft_metrics(report) == oracles.loop_soft_metrics(
            p, ds.a, ds.y, batches)

    def test_missing_group_rejected(self):
        ds = dataset_with_probs([0.6, 0.4], [1, 1], [1, 0])
        with pytest.raises(DataError):
            evaluate(sigmoid_network(), ds, S=2)

    @pytest.mark.parametrize("a,y,match", [
        ([1, 0], [1, 1], "both label classes"),
        ([1, 1, 0, 0], [1, 1, 0, 1], "empty conditioning cell")],
        ids=["one_class", "no_negative_in_group_1"])
    def test_missing_class_or_cell_rejected(self, a, y, match):
        ds = dataset_with_probs(np.linspace(0.3, 0.7, len(a)), a, y)
        with pytest.raises(DataError, match=match):
            evaluate(sigmoid_network(), ds, S=len(a))


class TestBlockedEvaluate:
    """A set of more than EVAL_ROWS rows is forwarded in near-equal row
    blocks, each block's hidden layers in SUB_ROWS-row sub-blocks, on the
    benchmark's layout and network dimensions: 6 numeric columns, 7
    one-hot blocks of 97 columns."""

    SIZES = (8, 16, 7, 14, 6, 5, 41)
    D, H1, H2 = 6 + sum(SIZES), 100, 50
    # each block's hidden-layer calls: 13 sub-blocks of 1,536 rows, and a
    # last one that also takes the remainder
    HIDDEN_ROWS = [[1536] * 13 + [1878], [1536] * 13 + [1878],
                   [1536] * 13 + [1877]]

    @classmethod
    def dataset(cls) -> Dataset:
        n = 2 * audit.EVAL_ROWS + 1
        gen = np.random.default_rng(11)
        starts = 6 + np.cumsum((0,) + cls.SIZES[:-1])
        cols = starts + gen.integers(0, cls.SIZES, (n, len(cls.SIZES)))
        cols[gen.random(cols.shape) < 0.01] = UNSEEN
        vocabulary = {f"c{k}": [str(v) for v in range(size)]
                      for k, size in enumerate(cls.SIZES)}
        ds = Dataset(num=gen.normal(size=(n, 6)), cols=cols.astype(np.int8),
                     a=gen.integers(0, 2, n), y=gen.integers(0, 2, n),
                     encoder=Encoder(vocabulary=vocabulary))
        assert ds.d == cls.D
        return ds

    @pytest.fixture(scope="class")
    def case(self):
        return init_params(self.D, self.H1, self.H2, Rng(3)), self.dataset()

    @staticmethod
    def record_layers(monkeypatch) -> list:
        """Patch the forward's layers to record each call as ("relu",
        input, output) or ("output", a2, probs, p) before making it."""
        calls = []

        def relu(x, w, b, out, _real=audit.relu_layer):
            calls.append(("relu", x, out))
            return _real(x, w, b, out)

        def output(params, a2, probs, p, _real=audit.output_layer):
            calls.append(("output", a2, probs, p))
            return _real(params, a2, probs, p)

        monkeypatch.setattr(audit, "relu_layer", relu)
        monkeypatch.setattr(audit, "output_layer", output)
        return calls

    @staticmethod
    def hidden_calls(calls) -> list:
        """(x, a1, a2) of each sub-block's two ReLU-layer calls."""
        relu = [arrays for tag, *arrays in calls if tag == "relu"]
        return [(x, a1, a2)
                for (x, a1), (_, a2) in zip(relu[::2], relu[1::2])]

    @classmethod
    def rows_per_block(cls, calls) -> list:
        """[(output rows, [(layer-1 rows, layer-2 rows), ...]), ...], one
        per block: the rows of each layer's calls."""
        blocks, hidden = [], []
        for tag, *arrays in calls:
            if tag == "relu":
                hidden.append(arrays[0].shape[0])
            else:
                blocks.append((arrays[0].shape[0],
                               list(zip(hidden[::2], hidden[1::2]))))
                hidden = []
        assert hidden == []
        return blocks

    @classmethod
    def unpadded(cls) -> list:
        """rows_per_block of the set: no call of it is padded."""
        return [(m, [(r, r) for r in hidden]) for m, hidden in
                zip([21846, 21846, 21845], cls.HIDDEN_ROWS)]

    def test_report_equals_whole_set_forward(self, case, monkeypatch):
        params, ds = case
        calls = self.record_layers(monkeypatch)
        blocked = evaluate(params, ds, S=500, seed=2)
        assert self.rows_per_block(calls) == self.unpadded()
        del calls[:]
        monkeypatch.setattr(audit, "EVAL_ROWS", ds.n)
        whole = evaluate(params, ds, S=500, seed=2)
        [(rows, _)] = self.rows_per_block(calls)
        assert rows == ds.n
        assert asdict(blocked) == asdict(whole)

    @pytest.mark.parametrize("S", [500, 64])
    def test_soft_metrics_equal_per_batch_loop(self, case, monkeypatch, S):
        # 132 batches of 500 or 1,025 of 64: each spans two gather chunks
        params, ds = case
        calls = self.record_layers(monkeypatch)
        report = evaluate(params, ds, S=S, seed=2)
        blocks = [c[3].copy() for c in calls if c[0] == "output"]
        assert len(blocks) == 3
        batches = epoch_batches(ds.a, ds.y, S, Rng(2), need_classes=True)
        assert len(batches) > audit.GATHER_CELLS // S
        assert soft_metrics(report) == oracles.loop_soft_metrics(
            np.concatenate(blocks), ds.a, ds.y, batches)

    def test_peak_memory_well_below_whole_set_activations(self, case):
        params, ds = case
        tracemalloc.start()
        try:
            evaluate(params, ds, S=500, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # under half of what one block's dense rows, a1 and a2 would hold:
        # only a sub-block's dense rows and a1 are alive at a time
        assert peak < 21846 * (self.D + self.H1 + self.H2) * 8 / 2

    def test_blocks_share_one_input_buffer_and_trace(self, case, monkeypatch):
        params, ds = case
        calls = self.record_layers(monkeypatch)
        evaluate(params, ds, S=500, seed=2)

        def start(array):
            return array.__array_interface__["data"][0]

        hidden = self.hidden_calls(calls)
        output = [arrays for tag, *arrays in calls if tag == "output"]
        assert len(hidden) == 3 * 14 and len(output) == 3
        # every sub-block shares one input and one a1 buffer
        (x0, a1_0, _), (a2_0, probs0, p0) = hidden[0], output[0]
        for x, a1, _ in hidden:
            assert start(x) == start(x0) and start(a1) == start(a1_0)
        # every block shares one a2 and one probs buffer, its sub-blocks
        # write their a2 rows in place, and each block's p is written
        # straight into the whole-set result
        for k, (a2, probs, _) in enumerate(output):
            assert start(a2) == start(a2_0) and start(probs) == start(probs0)
            cuts = np.cumsum([0] + self.HIDDEN_ROWS[k][:-1])
            assert [start(sub) - start(a2) for _, _, sub in
                    hidden[14 * k:14 * (k + 1)]] == list(cuts * self.H2 * 8)
        assert [start(p) - start(p0) for _, _, p in output] == [
            0, 21846 * 8, 2 * 21846 * 8]

    def test_evaluate_is_score_of_probabilities(self, case):
        params, ds = case
        assert asdict(evaluate(params, ds, S=500, seed=2)) == asdict(
            audit.score(audit.probabilities(params, ds), ds.a, ds.y, 500, 2))

    @classmethod
    def rows_off_one_forward_per_block(cls, h1: int, h2: int) -> int:
        """Rows whose p differs in any bit from one forward call per
        block, the blocking's reference; each call takes zero rows after
        the block's, as many as the most that a layer is padded to."""
        ds = cls.dataset()
        params = init_params(cls.D, h1, h2, Rng(3))
        low = audit.SMALL_GEMM // min(h1 * cls.D, h1 * h2, 2 * h2) + 1
        expect = []
        for rows in np.array_split(np.arange(ds.n), 3):
            x = np.zeros((max(rows.size, low), cls.D))
            ds.densify(rows, x[:rows.size])
            expect.append(forward(params, x).p[:rows.size])
        got = audit.probabilities(params, ds)
        expect = np.concatenate(expect)
        return int((got.view(np.int64) != expect.view(np.int64)).sum())

    @pytest.mark.parametrize("h1,h2", [(2, 2), (16, 8), (100, 50),
                                       (300, 200)])
    def test_p_equals_one_forward_per_block(self, h1, h2):
        # the sub-blocks round the hidden layers as one call per block
        # does, and networks whose sub-block calls would take OpenBLAS's
        # small-matrix kernel keep one call per block. Checked at one BLAS
        # thread: with more, OpenBLAS rounds h1 = 300, h2 = 200 by the
        # call's row count whatever the sub-block size.
        proc = run_cli([], "1", script=(
            f"import sys; sys.path.insert(0, {TESTS!r}); import test_audit; "
            f"print(test_audit.TestBlockedEvaluate"
            f".rows_off_one_forward_per_block({h1}, {h2}))"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_pad_keeps_every_matmul_off_the_small_matrix_kernel(
            self, case, monkeypatch):
        params, ds = case
        calls = self.record_layers(monkeypatch)
        few = ds.subset(np.arange(5))
        p = audit.probabilities(params, few)
        # the least rows past SMALL_GEMM of each layer: 98 * 100 * 103,
        # 201 * 50 * 100 and 10,001 * 2 * 50
        assert self.rows_per_block(calls) == [(10_001, [(98, 201)])]
        assert p.shape == (5,) and p.base is not None
        del calls[:]
        audit.probabilities(params, ds)
        # a set this large has no call short of any least row count
        assert self.rows_per_block(calls) == self.unpadded()

    @classmethod
    def check_pieces_give_the_whole_set_p(cls, h1: int, h2: int) -> None:
        """Cut the set at random rows and forward each piece in a call
        of its own: the pieces' p must be the whole set's, bit for bit."""
        ds = cls.dataset()
        params = init_params(cls.D, h1, h2, Rng(3))
        whole = audit.probabilities(params, ds).view(np.int64)

        # pieces of a few rows, of a few thousand and of more than one
        # block
        @settings(max_examples=12, deadline=None, database=None)
        @given(st.lists(st.one_of(st.integers(1, 300),
                                  st.integers(1, 3 * audit.SUB_ROWS),
                                  st.integers(1, 2 * audit.EVAL_ROWS)),
                        min_size=1, max_size=8))
        def pieces_give_the_whole_set_p(sizes):
            cuts = [0, *(c for c in np.cumsum(sizes) if c < ds.n), ds.n]
            got = np.concatenate([
                audit.probabilities(params, ds.subset(np.arange(lo, hi)))
                for lo, hi in zip(cuts, cuts[1:])])
            assert np.array_equal(got.view(np.int64), whole)

        pieces_give_the_whole_set_p()

    @pytest.mark.parametrize("h1,h2", [(2, 2), (16, 8), (100, 50)])
    def test_p_of_a_row_does_not_depend_on_the_other_rows(self, h1, h2):
        # at one BLAS thread; at 300/200 a few rows differ (EVAL_ROWS)
        proc = run_cli([], "1", script=(
            f"import sys; sys.path.insert(0, {TESTS!r}); import test_audit; "
            f"test_audit.TestBlockedEvaluate"
            f".check_pieces_give_the_whole_set_p({h1}, {h2})"))
        assert proc.returncode == 0, proc.stderr


class TestLabelWidth:
    SCHEMA = SchemaConfig(numeric=["f1", "f2"], categorical=["shade"],
                          label="outcome", positive_label="yes",
                          sensitive="grp", protected_value="f")

    @pytest.mark.parametrize("constraint,objective", [("dp", "ce"),
                                                      ("eo-max", "qmean")])
    def test_int8_and_int64_labels_train_and_score_alike(
            self, biased_csv, constraint, objective):
        narrow = encode(load_csv(biased_csv, self.SCHEMA), self.SCHEMA)
        assert narrow.a.dtype == narrow.y.dtype == np.int8
        wide = replace(narrow, a=narrow.a.astype(np.int64),
                       y=narrow.y.astype(np.int64))
        cfg = TrainConfig(constraint=constraint, epsilon=0.05,
                          objective=objective, h1=8, h2=4, batch_size=64,
                          max_epochs=3, seed=5)
        (p8, log8), (p64, log64) = fit(narrow, cfg), fit(wide, cfg)
        assert p8.flatten().tobytes() == p64.flatten().tobytes()
        assert ([replace(r, wall_ms=0) for r in log8]
                == [replace(r, wall_ms=0) for r in log64])
        assert asdict(evaluate(p8, narrow, 64, seed=5)) == asdict(
            evaluate(p8, wide, 64, seed=5))


BOUND_EXAMPLE = dict(R=2, D=3, W=0.5, L=1.0, S=10, B=10 ** 4,
                     radius_divisor="S")


class TestCoveringNumber:
    def test_hand_value(self):
        inputs = BoundInputs(**BOUND_EXAMPLE)
        out = covering_number(inputs, 1.0)
        assert abs(out - 3.0 * math.log(30.0)) <= 1e-12
        assert abs(out - 10.2036) <= 1e-3

    def test_doubling_mu_never_increases(self):
        inputs = BoundInputs(**BOUND_EXAMPLE)
        mus = np.logspace(-6, 0, 40)
        for mu in mus:
            assert covering_number(inputs, 2 * mu) <= covering_number(inputs, mu)

    def test_weight_half_kills_r_dependence(self):
        # (2W)^(R+1) == 1 when W = 0.5
        for r in (1, 2, 5, 9):
            inputs = BoundInputs(**{**BOUND_EXAMPLE, "R": r})
            assert covering_number(inputs, 0.3) == covering_number(
                BoundInputs(**BOUND_EXAMPLE), 0.3)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ParameterError):
            covering_number(BoundInputs(**BOUND_EXAMPLE), 0.0)

    @pytest.mark.parametrize("w,mu", [(0.5, 30.0), (0.5, 1e3), (1e-200, 0.1)],
                             ids=["inner_1", "inner_below_1", "underflow"])
    def test_one_ball_covers_when_inner_is_at_most_one(self, w, mu):
        # D*L*S = 30 and (2W)^3 = 1 at W = 0.5; it underflows to 0 at 1e-200
        inputs = BoundInputs(**{**BOUND_EXAMPLE, "W": w})
        assert covering_number(inputs, mu) == 0.0

    @pytest.mark.parametrize("r", [400, 10 ** 6])
    def test_stays_in_logs_when_the_weight_power_overflows(self, r):
        # (2W)^(R+1) = 20^(R+1) leaves the float range at R = 236
        inputs = BoundInputs(**{**BOUND_EXAMPLE, "W": 10.0, "R": r})
        expect = 3 * (math.log(3 * 10 / 0.1) + (r + 1) * math.log(20.0))
        assert abs(covering_number(inputs, 0.1) - expect) <= 1e-12 * expect

    def test_log_form_agrees_just_below_the_overflow(self):
        # the count itself is still a finite float here, ~1e303
        inputs = BoundInputs(**{**BOUND_EXAMPLE, "W": 10.0, "R": 230})
        expect = 3 * (math.log(3 * 10 / 0.1) + 231 * math.log(20.0))
        assert abs(covering_number(inputs, 0.1) - expect) <= 1e-12 * expect


class TestOmega:
    def test_closed_form_hand_value(self):
        om = omega(BoundInputs(**BOUND_EXAMPLE))
        expect = 0.01 + math.sqrt(2 * 3 * math.log(3000.0) / 10 ** 4)
        assert abs(om.closed_form - expect) <= 1e-12
        assert abs(om.closed_form - 0.079309) <= 1e-6

    def test_grid_never_exceeds_closed_form(self):
        for b in (10 ** 2, 10 ** 4, 10 ** 6):
            om = omega(BoundInputs(**{**BOUND_EXAMPLE, "B": b}))
            assert om.grid <= om.closed_form + 1e-12

    def test_vanishes_for_huge_b(self):
        om = omega(BoundInputs(**{**BOUND_EXAMPLE, "B": 10 ** 12}))
        assert om.closed_form < 0.01

    def test_strictly_decreasing_in_b(self):
        values = [omega(BoundInputs(**{**BOUND_EXAMPLE, "B": 10 ** e})).closed_form
                  for e in range(2, 9)]
        assert all(x > z for x, z in zip(values, values[1:]))

    def test_grows_with_s(self):
        small = omega(BoundInputs(**{**BOUND_EXAMPLE, "S": 10}))
        large = omega(BoundInputs(**{**BOUND_EXAMPLE, "S": 20}))
        assert large.closed_form > small.closed_form

    def test_radius_divisor_2s_is_larger(self):
        base = omega(BoundInputs(**BOUND_EXAMPLE))
        double = omega(BoundInputs(**{**BOUND_EXAMPLE,
                                      "radius_divisor": "2S"}))
        assert double.closed_form > base.closed_form


class TestFullBound:
    def test_hand_value(self):
        inputs = BoundInputs(**BOUND_EXAMPLE)
        om = omega(inputs).closed_form
        expect = 2 * om + 4.0 * math.sqrt(math.log(10.0) / 10 ** 4)
        out = full_bound(0.0, inputs)
        assert abs(out - expect) <= 1e-12
        assert abs(out - 0.219315) <= 5e-6

    def test_slack_vanishes_with_b(self):
        big = BoundInputs(**{**BOUND_EXAMPLE, "B": 10 ** 14})
        assert full_bound(0.0, big) < 1e-2

    def test_smaller_delta_larger_bound(self):
        lo = full_bound(0.0, BoundInputs(**{**BOUND_EXAMPLE, "delta": 0.1}))
        hi = full_bound(0.0, BoundInputs(**{**BOUND_EXAMPLE, "delta": 0.01}))
        assert hi > lo

    def test_bad_delta_rejected(self):
        with pytest.raises(ParameterError):
            BoundInputs(**{**BOUND_EXAMPLE, "delta": 1.0})

    def test_bad_radius_divisor_rejected(self):
        with pytest.raises(ParameterError, match="radius_divisor"):
            BoundInputs(**{**BOUND_EXAMPLE, "radius_divisor": "3S"})

    @pytest.mark.parametrize("name", ["R", "D", "W", "L", "S", "B", "C"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0, 10 ** 400],
                             ids=["nan", "inf", "0", "401-digits"])
    def test_non_finite_or_nonpositive_capacity_rejected(self, name, value):
        with pytest.raises(ParameterError, match=name):
            BoundInputs(**{**BOUND_EXAMPLE, name: value})

    def test_sweep_rows(self):
        rows = bound_sweep(BoundInputs(**BOUND_EXAMPLE),
                           [10 ** e for e in range(2, 7)])
        assert [r[0] for r in rows] == [10 ** e for e in range(2, 7)]
        omegas = [r[1] for r in rows]
        assert all(x > z for x, z in zip(omegas, omegas[1:]))


class TestDiCounterexample:
    def test_constant_gap_small_mu(self):
        for mu in (1e-1, 1e-2, 1e-6, 5e-324, math.inf):
            pair = di_counterexample(mu)
            assert pair.sup_distance <= mu
            assert abs(pair.const_h - (-1.0)) <= 1e-9
            assert abs(pair.const_h_hat - (-0.5)) <= 1e-9
            assert abs(pair.gap - 0.5) <= 1e-9

    def test_cap_keeps_probabilities_valid(self):
        pair = di_counterexample(0.9)
        assert pair.sup_distance == 0.25
        assert np.all(pair.h_hat < 1.0) and np.all(pair.h > 0.0)

    def test_gap_to_mu_ratio_unbounded(self):
        ratios = [di_counterexample(mu).gap / mu
                  for mu in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(x < z for x, z in zip(ratios, ratios[1:]))
        assert ratios[-1] >= 0.5 / 1e-8 * 0.999

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ParameterError):
            di_counterexample(0.0)


class TestBoundSanity:
    @staticmethod
    def layer_l1_norms(params: MlpParams) -> list[float]:
        """Per-layer l1 norms of (weights, bias) taken as one vector."""
        return [
            float(np.abs(params.w1).sum() + np.abs(params.b1).sum()),
            float(np.abs(params.w2).sum() + np.abs(params.b2).sum()),
            float(np.abs(params.w_out).sum() + np.abs(params.b_out).sum()),
        ]

    @classmethod
    def model_bound_inputs(cls, params: MlpParams, S: int, B: int,
                           L: float) -> BoundInputs:
        """BoundInputs read off a trained network: R = 2 hidden layers,
        D = parameter count, W = max per-layer l1 norm. L (the output
        bound) depends on the input scale and must be supplied."""
        return BoundInputs(R=2, D=params.n_params,
                           W=max(cls.layer_l1_norms(params)), L=L, S=S, B=B)

    def test_bound_holds_on_most_random_splits(self):
        # 20 random 70/30 splits of a synthetic set: the trained model's
        # bound must cover the held-out mean constraint almost always
        gen = np.random.default_rng(17)
        n = 400
        a = gen.integers(0, 2, n)
        y = (gen.random(n) < np.where(a == 1, 0.35, 0.65)).astype(np.int64)
        X = np.stack([(2 * y - 1) + gen.normal(0, 0.8, n),
                      gen.normal(0, 1, n)], axis=1)
        S = 25
        hold = 0
        trials = 20
        for split_seed in range(trials):
            order = np.random.default_rng(split_seed).permutation(n)
            tr, te = order[:280], order[280:]
            ds_tr = numeric_dataset(X[tr], a[tr], y[tr])
            ds_te = numeric_dataset(X[te], a[te], y[te])
            cfg = TrainConfig(constraint="dp", epsilon=0.05, h1=6, h2=3,
                              lr_theta=0.01, batch_size=S, max_epochs=15,
                              seed=split_seed, lambda_zero=True)
            params, _ = fit(ds_tr, cfg)

            def mean_const(ds):
                from fairmlp.data import epoch_batches
                p = forward(params, ds.num).p
                batches = epoch_batches(ds.a, ds.y, min(S, ds.n), Rng(0))
                return float(np.mean([
                    fairloss.const_dp(fairloss.Batch(p[i], ds.a[i], ds.y[i]))
                    for i in batches]))

            b_train = max(1, ds_tr.n // S)
            inputs = self.model_bound_inputs(params, S=S, B=b_train, L=1.0)
            if full_bound(mean_const(ds_tr), inputs) >= mean_const(ds_te):
                hold += 1
        assert hold >= int(0.95 * trials)
