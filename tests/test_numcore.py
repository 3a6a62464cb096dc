import numpy as np
import pytest

from fairmlp.errors import ParameterError, ShapeError
from fairmlp.numcore import AdamState, Rng, adam_step


class TestRng:
    def test_same_seed_identical(self):
        s1 = Rng(42).normal(0.0, 1.0, 1000)
        s2 = Rng(42).normal(0.0, 1.0, 1000)
        assert s1.tobytes() == s2.tobytes()

    def test_zero_std_constant(self):
        out = Rng(1).normal(3.5, 0.0, 10)
        np.testing.assert_array_equal(out, np.full(10, 3.5))

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            Rng(1).normal(0.0, -1.0, 5)

    def test_large_sample_mean(self):
        out = Rng(7).normal(0.0, 1.0, 10 ** 5)
        assert abs(out.mean()) < 0.02


class TestAdam:
    def test_zero_grad_unchanged(self):
        state = AdamState.zeros(3)
        params = np.array([1.0, -2.0, 0.5])
        out = adam_step(state, params, np.zeros(3), lr=0.01)
        np.testing.assert_array_equal(out, params)
        assert state.t == 1

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2, so the first update is ~ lr * sign(g)
        state = AdamState.zeros(1)
        out = adam_step(state, np.array([1.0]), np.array([0.5]), lr=0.01)
        assert abs((1.0 - out[0]) - 0.01) <= 1e-6
        assert abs(out[0] - 0.99) <= 1e-6

    def test_two_steps_reduce_quadratic(self):
        state = AdamState.zeros(2)
        x = np.array([0.8, -0.6])
        f = lambda v: float((v ** 2).sum())
        before = f(x)
        for _ in range(2):
            x = adam_step(state, x, 2.0 * x, lr=0.01)
        assert f(x) < before

    def test_hundred_steps_monotone(self):
        for seed in range(5):
            rng = Rng(seed)
            x = rng.gen.uniform(-1.0, 1.0, 10)
            state = AdamState.zeros(10)
            prev = float((x ** 2).sum())
            for _ in range(100):
                x = adam_step(state, x, 2.0 * x, lr=0.001)
                curr = float((x ** 2).sum())
                assert curr < prev
                prev = curr

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(AdamState.zeros(2), np.zeros(2), np.zeros(3), lr=0.1)

    def test_bad_lr(self):
        with pytest.raises(ParameterError):
            adam_step(AdamState.zeros(1), np.zeros(1), np.zeros(1), lr=0.0)
