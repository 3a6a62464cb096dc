import numpy as np
import pytest

import gradcheck
from fairmlp.data import Dataset, Encoder
from fairmlp.errors import DataError, ParameterError
from fairmlp.fairloss import ConstraintKind
from fairmlp.lagrange import (LogRow, TrainBatch, TrainConfig, fit,
                              init_state, total_loss, train_step,
                              write_training_log)
from fairmlp.model import MlpParams, backward, forward, predict_hard
from fairmlp.numcore import AdamState, adam_step
from fairmlp import fairloss


def make_dataset(X, a, y):
    return Dataset(X=np.asarray(X, dtype=np.float64),
                   a=np.asarray(a), y=np.asarray(y),
                   feature_names=[f"x{i}" for i in range(X.shape[1])],
                   encoder=Encoder())


def separable_dataset(n=200, seed=0):
    gen = np.random.default_rng(seed)
    y = gen.integers(0, 2, n)
    a = gen.integers(0, 2, n)
    X = np.stack([(2 * y - 1) * 1.5 + gen.normal(0, 0.3, n),
                  (2 * y - 1) * 1.5 + gen.normal(0, 0.3, n)], axis=1)
    return make_dataset(X, a, y)


def biased_dataset(n=800, seed=1):
    # labels predictable from x1 but with group-dependent base rates, so
    # accurate unconstrained models show a large parity gap
    gen = np.random.default_rng(seed)
    a = gen.integers(0, 2, n)
    y = (gen.random(n) < np.where(a == 1, 0.25, 0.75)).astype(np.int64)
    X = np.stack([(2 * y - 1) + gen.normal(0, 0.6, n),
                  a + gen.normal(0, 0.8, n),
                  gen.normal(0, 1, n)], axis=1)
    return make_dataset(X, a, y)


def toy_config(**kw):
    base = dict(constraint=ConstraintKind.dp(0.5), h1=8, h2=4,
                lr_theta=0.01, batch_size=32, max_epochs=50, seed=3)
    base.update(kw)
    return TrainConfig(**base)


class TestTotalLoss:
    def test_hand_value(self):
        assert abs(total_loss(0.6931, 2.0, 0.25) - 1.1931) <= 1e-12

    def test_lambda_zero_is_objective(self):
        assert total_loss(0.42, 0.0, 5.0) == 0.42

    def test_zero_constraint_loss(self):
        assert total_loss(0.42, 3.7, 0.0) == 0.42

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            total_loss(0.1, -0.5, 0.1)


def one_batch(ds, size=32, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        idx = rng.choice(ds.n, size=size, replace=False)
        if 0 < ds.a[idx].sum() < size and 0 < ds.y[idx].sum() < size:
            return TrainBatch(ds.X[idx], ds.a[idx], ds.y[idx])


class TestTrainStep:
    def test_violated_constraint_raises_lambda(self):
        ds = biased_dataset()
        cfg = toy_config(constraint=ConstraintKind.dp(0.0))
        state = init_state(ds.d, cfg)
        batch = one_batch(ds)
        info = train_step(state, batch, cfg)
        assert info.constraint - cfg.constraint.slack > 0
        assert state.lam > 0.0

    def test_satisfied_constraint_keeps_lambda_at_zero(self):
        ds = biased_dataset()
        cfg = toy_config(constraint=ConstraintKind.dp(2.0))  # always satisfied
        state = init_state(ds.d, cfg)
        train_step(state, one_batch(ds), cfg)
        assert state.lam == 0.0

    def test_one_step_reduces_loss_at_fixed_lambda(self):
        gen = np.random.default_rng(7)
        y = np.array([0, 1] * 4)
        a = np.array([0, 0, 1, 1] * 2)
        X = gen.normal(size=(8, 2)) + (2 * y - 1)[:, None]
        ds = make_dataset(X, a, y)
        cfg = toy_config(constraint=ConstraintKind.dp(0.05), seed=7,
                         batch_size=8, lambda_init=0.5)
        state = init_state(ds.d, cfg)
        lam_before = state.lam
        batch = TrainBatch(ds.X, ds.a, ds.y)

        def loss_at(params):
            p = forward(params, batch.x).p
            b = fairloss.Batch(p, batch.a, batch.y)
            lk = fairloss.const_dp(b) - cfg.constraint.slack
            return total_loss(fairloss.cross_entropy(p, batch.y), lam_before, lk)

        before = loss_at(state.params)
        train_step(state, batch, cfg)
        assert loss_at(state.params) < before

    def test_lambda_never_negative(self):
        ds = biased_dataset()
        cfg = toy_config(constraint=ConstraintKind.dp(1.5))
        state = init_state(ds.d, cfg)
        rng = np.random.default_rng(0)
        for i in range(50):
            train_step(state, one_batch(ds, seed=i), cfg)
            assert state.lam >= 0.0


class TestFit:
    def test_unconstrained_learns_separable_data(self):
        ds = separable_dataset()
        cfg = toy_config(lambda_zero=True, max_epochs=200)
        params, log = fit(ds, cfg)
        acc = (predict_hard(forward(params, ds.X).p) == ds.y).mean()
        assert acc >= 0.95
        assert len(log) <= 200

    def test_dp_constraint_reduces_gap(self):
        ds = biased_dataset()
        baseline_cfg = toy_config(constraint=ConstraintKind.dp(0.01),
                                  lambda_zero=True, max_epochs=120)
        constrained_cfg = toy_config(constraint=ConstraintKind.dp(0.01),
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
                         constraint=ConstraintKind.dp(0.01))
        fitted, _ = fit(ds, cfg)

        from fairmlp.data import batch_iter
        params = init_state(ds.d, cfg).params.copy()
        adam = AdamState.zeros(params.n_params)
        epochs = batch_iter(ds, cfg.batch_size, cfg.seed + 1,
                            require_classes=False)
        for _, batches in zip(range(10), epochs):
            for idx in batches:
                trace = forward(params, ds.X[idx])
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
                                   constraint=ConstraintKind.dp(0.01)))
                for init in (0.5, 0.0)]
        (params, log), (ref_params, ref_log) = runs
        assert [r.lam for r in log] == [0.0] * len(log)
        assert ([(r.epoch, r.objective, r.constraint_value, r.lam) for r in log]
                == [(r.epoch, r.objective, r.constraint_value, r.lam)
                    for r in ref_log])
        assert params.flatten().tobytes() == ref_params.flatten().tobytes()

    def test_missing_group_rejected(self):
        gen = np.random.default_rng(0)
        ds = make_dataset(gen.normal(size=(50, 2)), np.zeros(50, dtype=int),
                          gen.integers(0, 2, 50))
        with pytest.raises(DataError):
            fit(ds, toy_config())

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


class TestTrainingLogCsv:
    def test_roundtrip_columns(self, tmp_path):
        log = [LogRow(epoch=0, objective=0.5, constraint_value=0.1,
                      lam=0.0, wall_ms=12.0),
               LogRow(epoch=1, objective=0.4, constraint_value=0.05,
                      lam=0.2, wall_ms=11.0)]
        path = tmp_path / "log.csv"
        write_training_log(path, log)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,objective,constraint_value,lambda,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.5
