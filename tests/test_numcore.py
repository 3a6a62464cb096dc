import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairmlp.errors import NumericError, ParameterError, ShapeError
from fairmlp.numcore import AdamState, Rng, adam_step


class TestRng:
    def test_same_seed_identical(self):
        s1 = Rng(42).normal(0.0, 1.0, 1000)
        s2 = Rng(42).normal(0.0, 1.0, 1000)
        assert s1.tobytes() == s2.tobytes()

    def test_is_a_seeded_pcg64_generator(self):
        rng = Rng(42)
        assert type(rng) is np.random.Generator
        twin = np.random.Generator(np.random.PCG64(42))
        for draw in (lambda g: g.permutation(50),
                     lambda g: g.normal(0.0, 1.0, 9)):
            assert draw(rng).tobytes() == draw(twin).tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            Rng(-1)

    def test_importing_fairmlp_loads_no_numpy_random(self):
        # numpy 2 loads numpy.random on first use; fairmlp leaves it
        # unloaded until the first Rng is built
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import fairmlp.cli; "
                "print(before, 'numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before, proc.stdout


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
            x = rng.uniform(-1.0, 1.0, 10)
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

    def test_nan_gradient_leaves_params_unchanged(self):
        state = AdamState.zeros(3)
        params = np.array([1.0, -2.0, 0.5])
        before = params.tobytes()
        with pytest.raises(NumericError):
            adam_step(state, params, np.array([0.1, np.nan, 0.2]), lr=0.01)
        assert params.tobytes() == before

    def test_float32_params_rejected(self):
        with pytest.raises(ParameterError, match="float64"):
            adam_step(AdamState.zeros(2), np.zeros(2, np.float32),
                      np.zeros(2), lr=0.1)

    def test_bad_lr(self):
        with pytest.raises(ParameterError):
            adam_step(AdamState.zeros(1), np.zeros(1), np.zeros(1), lr=0.0)
