import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import gradcheck
from fairmlp.data import (UNSEEN, SchemaConfig, encode, epoch_batches,
                          load_csv)
from fairmlp.errors import DataError, ParameterError
from fairmlp.lagrange import TrainConfig, fit, init_state, train_step
from fairmlp.model import MlpParams, backward, forward, predict_hard
from fairmlp.numcore import AdamState, Rng, adam_step
from fairmlp import fairloss
from conftest import dense, numeric_dataset


def separable_dataset(n=200, seed=0):
    gen = np.random.default_rng(seed)
    y = gen.integers(0, 2, n)
    a = gen.integers(0, 2, n)
    X = np.stack([(2 * y - 1) * 1.5 + gen.normal(0, 0.3, n),
                  (2 * y - 1) * 1.5 + gen.normal(0, 0.3, n)], axis=1)
    return numeric_dataset(X, a, y)


def biased_dataset(n=800, seed=1):
    # labels predictable from x1 but with group-dependent base rates, so
    # accurate unconstrained models show a large parity gap
    gen = np.random.default_rng(seed)
    a = gen.integers(0, 2, n)
    y = (gen.random(n) < np.where(a == 1, 0.25, 0.75)).astype(np.int64)
    X = np.stack([(2 * y - 1) + gen.normal(0, 0.6, n),
                  a + gen.normal(0, 0.8, n),
                  gen.normal(0, 1, n)], axis=1)
    return numeric_dataset(X, a, y)


def toy_config(**kw):
    base = dict(constraint="dp", epsilon=0.5, h1=8, h2=4,
                lr_theta=0.01, batch_size=32, max_epochs=50, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def one_batch(ds, size=32, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        idx = rng.choice(ds.n, size=size, replace=False)
        if 0 < ds.a[idx].sum() < size and 0 < ds.y[idx].sum() < size:
            return ds.num[idx], ds.a[idx], ds.y[idx]


class TestTrainConfig:
    def test_slack_follows_the_constraint_table(self):
        assert toy_config(epsilon=0.2).slack == 0.2
        assert toy_config(constraint="di", p_percent=80).slack == -0.8

    def test_slack_is_not_a_field(self):
        # report.json echoes asdict(cfg); its keys stay the config keys
        assert "slack" not in asdict(toy_config())

    def test_replace_rebuilds_slack(self):
        assert replace(toy_config(), epsilon=0.3).slack == 0.3

    def test_float_fields_take_ints(self):
        cfg = toy_config(epsilon=0, lr_theta=1, lr_lambda=2, lambda_init=0,
                         convergence_tol=0)
        assert cfg.slack == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["epsilon", "lr_theta", "lr_lambda",
                                     "lambda_init", "convergence_tol"])
    def test_nan_rejected(self, key, value):
        with pytest.raises(ParameterError, match=key):
            toy_config(**{key: value})


class TestTrainStep:
    def test_violated_constraint_raises_lambda(self):
        ds = biased_dataset()
        cfg = toy_config(epsilon=0.0)
        state = init_state(ds.d, cfg)
        info = train_step(state, *one_batch(ds), cfg)
        l_k = info.constraint - cfg.slack
        assert l_k > 0
        assert state.lam > 0.0
        # the reported total is L = l_obj + lambda * l_k at the new lambda
        assert info.total == info.objective + state.lam * l_k

    def test_satisfied_constraint_keeps_lambda_at_zero(self):
        ds = biased_dataset()
        cfg = toy_config(epsilon=2.0)  # always satisfied
        state = init_state(ds.d, cfg)
        train_step(state, *one_batch(ds), cfg)
        assert state.lam == 0.0

    def test_one_step_reduces_loss_at_fixed_lambda(self):
        gen = np.random.default_rng(7)
        y = np.array([0, 1] * 4)
        a = np.array([0, 0, 1, 1] * 2)
        X = gen.normal(size=(8, 2)) + (2 * y - 1)[:, None]
        ds = numeric_dataset(X, a, y)
        cfg = toy_config(epsilon=0.05, seed=7,
                         batch_size=8, lambda_init=0.5)
        state = init_state(ds.d, cfg)
        lam_before = state.lam

        def loss_at(params):
            p = forward(params, ds.num).p
            b = fairloss.Batch(p, ds.a, ds.y)
            lk = fairloss.const_dp(b) - cfg.slack
            return fairloss.cross_entropy(p, ds.y) + lam_before * lk

        before = loss_at(state.params)
        train_step(state, ds.num, ds.a, ds.y, cfg)
        assert loss_at(state.params) < before

    def test_warm_step_allocates_no_batch_sized_array(self):
        # forward, backward and the flat gradient reuse the state's
        # workspace, so one step at the paper's shape (S=500, d=103,
        # h=(100, 50)) holds no (S, h1) or (S, d) temporary: the smallest,
        # a (S, h2) float64 array, is 200 KB
        gen = np.random.default_rng(0)
        cfg = TrainConfig(batch_size=500, lambda_init=0.5)
        x = gen.normal(size=(500, 103))
        a, y = np.tile([0, 1], 250), np.repeat([0, 1], 250)
        state = init_state(103, cfg)
        train_step(state, x, a, y, cfg)
        tracemalloc.start()
        try:
            train_step(state, x, a, y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_lambda_never_negative(self):
        ds = biased_dataset()
        cfg = toy_config(epsilon=1.5)
        state = init_state(ds.d, cfg)
        rng = np.random.default_rng(0)
        for i in range(50):
            train_step(state, *one_batch(ds, seed=i), cfg)
            assert state.lam >= 0.0


class TestFit:
    def test_unconstrained_learns_separable_data(self):
        ds = separable_dataset()
        cfg = toy_config(lambda_zero=True, max_epochs=200)
        params, log = fit(ds, cfg)
        acc = (predict_hard(forward(params, ds.num).p) == ds.y).mean()
        assert acc >= 0.95
        assert len(log) <= 200

    def test_dp_constraint_reduces_gap(self):
        ds = biased_dataset()
        baseline_cfg = toy_config(epsilon=0.01,
                                  lambda_zero=True, max_epochs=120)
        constrained_cfg = toy_config(epsilon=0.01,
                                     lr_lambda=0.05, max_epochs=120)
        _, base_log = fit(ds, baseline_cfg)
        _, cons_log = fit(ds, constrained_cfg)
        assert base_log[-1].constraint_value >= 0.3
        assert cons_log[-1].constraint_value <= 0.05

    def test_seed_reproducibility(self):
        ds = biased_dataset(n=300)
        cfg = toy_config(max_epochs=20)
        params1, log1 = fit(ds, cfg)
        params2, log2 = fit(ds, cfg)
        assert params1.flatten().tobytes() == params2.flatten().tobytes()
        rows1 = [(r.epoch, r.objective, r.constraint_value, r.lam) for r in log1]
        rows2 = [(r.epoch, r.objective, r.constraint_value, r.lam) for r in log2]
        assert rows1 == rows2

    def test_log_epochs_are_contiguous(self):
        ds = biased_dataset(n=300)
        _, log = fit(ds, toy_config(max_epochs=15))
        assert [r.epoch for r in log] == list(range(len(log)))

    def test_lambda_zero_matches_pure_ce_loop(self):
        # the baseline path must be exactly unconstrained cross-entropy
        ds = biased_dataset(n=300)
        cfg = toy_config(lambda_zero=True, max_epochs=10,
                         epsilon=0.01)
        fitted, _ = fit(ds, cfg)

        params = init_state(ds.d, cfg).params
        adam = AdamState.zeros(params.n_params)
        rng = Rng(cfg.seed + 1)
        for _ in range(10):
            for idx in epoch_batches(ds.a, ds.y, cfg.batch_size, rng):
                trace = forward(params, ds.num[idx])
                b = fairloss.Batch(trace.p, ds.a[idx], ds.y[idx])
                grads = backward(params, trace,
                                 fairloss.grad_wrt_p("ce", b))
                theta = adam_step(adam, params.flatten(),
                                  grads.flatten(), cfg.lr_theta)
                params = MlpParams.unflatten(theta, *params.dims)
        assert fitted.flatten().tobytes() == params.flatten().tobytes()

    def test_lambda_zero_ignores_lambda_init(self):
        # the baseline holds lambda at 0 from the first epoch, so the log
        # and the convergence window see the objective alone
        ds = biased_dataset(n=300)
        runs = [fit(ds, toy_config(lambda_zero=True, lambda_init=init,
                                   max_epochs=8, convergence_window=2,
                                   convergence_tol=1e-3,
                                   epsilon=0.01))
                for init in (0.5, 0.0)]
        (params, log), (ref_params, ref_log) = runs
        assert [r.lam for r in log] == [0.0] * len(log)
        assert ([(r.epoch, r.objective, r.constraint_value, r.lam) for r in log]
                == [(r.epoch, r.objective, r.constraint_value, r.lam)
                    for r in ref_log])
        assert params.flatten().tobytes() == ref_params.flatten().tobytes()

    def test_compact_dataset_trains_as_its_dense_rows(self, biased_csv,
                                                      biased_schema_json):
        # one-hot columns and an unseen category, densified per batch, train
        # the same network bit for bit as their dense rows given as numbers
        schema = SchemaConfig.from_json(biased_schema_json)
        table = load_csv(biased_csv, schema)
        ds = encode(table, schema)
        shade = table.columns["shade"]
        shade[:5] = ["violet"] * 5
        ds = encode(table, schema, ds.encoder)
        assert (ds.cols == UNSEEN).sum() == 5
        cfg = toy_config(max_epochs=3, batch_size=48)  # 800 rows: a short batch
        params, log = fit(ds, cfg)
        ref_params, ref_log = fit(numeric_dataset(dense(ds), ds.a, ds.y), cfg)
        assert params.flatten().tobytes() == ref_params.flatten().tobytes()
        assert log == [replace(r, wall_ms=l.wall_ms) for r, l in zip(ref_log, log)]

    def test_missing_group_rejected(self):
        gen = np.random.default_rng(0)
        ds = numeric_dataset(gen.normal(size=(50, 2)), np.zeros(50, dtype=int),
                          gen.integers(0, 2, 50))
        with pytest.raises(DataError):
            fit(ds, toy_config())

    def test_missing_class_rejected(self):
        gen = np.random.default_rng(0)
        ds = numeric_dataset(gen.normal(size=(50, 2)), gen.integers(0, 2, 50),
                             np.ones(50, dtype=int))
        with pytest.raises(DataError, match="both label classes"):
            fit(ds, toy_config())

    def test_batch_larger_than_data_rejected_before_workspace(self,
                                                               monkeypatch):
        def no_workspace(*args):
            raise AssertionError("init_state ran")
        monkeypatch.setattr("fairmlp.lagrange.init_state", no_workspace)
        ds = biased_dataset(n=400)
        with pytest.raises(DataError,
                           match="^batch size 401 exceeds dataset size 400$"):
            fit(ds, toy_config(batch_size=401))

    def test_qmean_objective_trains(self):
        ds = biased_dataset(n=400)
        cfg = toy_config(objective="qmean", max_epochs=30)
        params, log = fit(ds, cfg)
        assert log[-1].objective < log[0].objective


class TestCompositeGradient:
    @pytest.mark.parametrize("kind", gradcheck.ALL_KINDS)
    @pytest.mark.parametrize("objective", gradcheck.ALL_OBJECTIVES)
    def test_matches_finite_differences(self, kind, objective):
        for seed in range(3):
            err = gradcheck.max_rel_error(kind, objective, seed)
            assert err <= 1e-4, (kind, objective, seed, err)

