import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from fairmlp.errors import ParameterError, SchemaError, ShapeError
from fairmlp.fairloss import PROB_CLAMP
from fairmlp.model import (BackwardBuffers, ForwardTrace, MlpParams, backward,
                           forward, he_std, init_params, load_checkpoint,
                           predict_hard, save_checkpoint)
from fairmlp.numcore import Rng


def tiny_params(seed=3, d=3, h1=4, h2=3):
    return init_params(d, h1, h2, Rng(seed))


class TestInit:
    def test_he_std_formula(self):
        assert abs(he_std(100) - math.sqrt(2.0 / 100)) < 1e-12
        assert abs(he_std(100) - 0.141421) < 1e-6

    def test_weight_scale_statistics(self):
        params = init_params(100, 400, 50, Rng(0))
        sample_std = params.w1.std()
        assert abs(sample_std - he_std(100)) < 0.005

    def test_biases_zero(self):
        params = tiny_params()
        assert not params.b1.any() and not params.b2.any() and not params.b_out.any()

    def test_same_seed_identical(self):
        p1, p2 = tiny_params(9), tiny_params(9)
        assert p1.flatten().tobytes() == p2.flatten().tobytes()

    def test_zero_dim_rejected(self):
        with pytest.raises(ParameterError):
            init_params(0, 4, 3, Rng(0))

    def test_flatten_roundtrip(self):
        params = tiny_params()
        back = MlpParams.unflatten(params.flatten(), *params.dims)
        assert back.flatten().tobytes() == params.flatten().tobytes()


class TestForward:
    def test_zero_params_give_half(self):
        params = tiny_params()
        for arr in (params.w1, params.b1, params.w2, params.b2,
                    params.w_out, params.b_out):
            arr[:] = 0.0
        trace = forward(params, np.ones((6, 3)))
        np.testing.assert_allclose(trace.p, 0.5, atol=1e-15)

    def test_equal_logits_give_half(self):
        # zero output weights and a shared bias produce logits (z, z)
        params = tiny_params()
        params.w_out[:] = 0.0
        params.b_out[:] = 7.3
        trace = forward(params, Rng(1).normal(size=(5, 3)))
        np.testing.assert_allclose(trace.p, 0.5, atol=1e-15)

    def test_probabilities_stay_clamped(self):
        rng = Rng(2)
        for _ in range(100):
            params = init_params(4, 6, 5, rng)
            x = rng.normal(0, 5, size=(100, 4))
            p = forward(params, x).p
            assert np.all(p >= PROB_CLAMP) and np.all(p <= 1.0 - PROB_CLAMP)

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(3)
        params = init_params(3, 4, 3, rng)
        trace = forward(params, rng.normal(size=(50, 3)))
        np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_pure_function(self):
        params = tiny_params()
        x = Rng(4).normal(size=(8, 3))
        assert forward(params, x).p.tobytes() == forward(params, x).p.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            forward(tiny_params(), np.zeros((4, 5)))

    def test_trace_of_another_batch_size_rejected(self):
        trace = ForwardTrace.empty(np.zeros((4, 3)), 4, 3)
        with pytest.raises(ShapeError):
            forward(tiny_params(), np.zeros((5, 3)), out=trace)


def central_diff(loss_of_theta, theta, h=1e-5):
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (loss_of_theta(up) - loss_of_theta(down)) / (2 * h)
    return fd


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        params = tiny_params()
        trace = forward(params, Rng(5).normal(size=(6, 3)))
        grads = backward(params, trace, np.zeros(6))
        assert not grads.flatten().any()

    def test_matches_finite_differences(self):
        params = tiny_params(seed=6)
        # keep pre-activations clear of the ReLU kinks the FD step straddles
        params.b1[:] = 0.05
        params.b2[:] = 0.05
        x = Rng(7).normal(size=(5, 3))
        trace = forward(params, x)
        z1 = x @ params.w1 + params.b1
        z2 = np.maximum(z1, 0.0) @ params.w2 + params.b2
        assert np.abs(z1).min() > 1e-3 and np.abs(z2).min() > 1e-3

        def loss(theta):
            p = MlpParams.unflatten(theta, *params.dims)
            return float(forward(p, x).p.sum())

        analytic = backward(params, trace, np.ones(5)).flatten()
        fd = central_diff(loss, params.flatten())
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() <= 1e-4

    def test_dead_relu_zero_grads(self):
        params = tiny_params()
        params.b1[:] = -100.0  # first hidden layer never fires
        x = Rng(8).uniform(0, 1, size=(6, 3))
        trace = forward(params, x)
        assert np.all(x @ params.w1 + params.b1 < 0)
        grads = backward(params, trace, np.ones(6))
        assert not grads.w1.any() and not grads.b1.any()

    def test_length_mismatch(self):
        params = tiny_params()
        trace = forward(params, np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            backward(params, trace, np.zeros(5))

    def test_buffers_of_another_batch_size_rejected(self):
        params = tiny_params()
        trace = forward(params, np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            backward(params, trace, np.zeros(4),
                     out=BackwardBuffers.empty(5, *params.dims))


LAYERS = ("w1", "b1", "w2", "b2", "w_out", "b_out")
# a few exact values, zeros of both signs among them, so that exact-zero
# pre-activations and ties are common; large weights saturate the clamp
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.floats(-20.0, 20.0))


def _arr(draw, *shape):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(VALUES, min_size=n, max_size=n)),
                    dtype=np.float64).reshape(shape)


@st.composite
def networks(draw):
    """(params, x, dL_dp) for a small network and batch."""
    d, h1, h2, size = (draw(st.integers(1, n)) for n in (4, 5, 4, 8))

    def arr(*shape):
        return _arr(draw, *shape)

    params = MlpParams(w1=arr(d, h1), b1=arr(h1), w2=arr(h1, h2), b2=arr(h2),
                       w_out=arr(h2, 2), b_out=arr(2))
    return params, arr(size, d), arr(size)


@st.composite
def two_batches(draw):
    """(params, [(x, dL_dp), (x, dL_dp)]): two batches of one size."""
    params, x, dL_dp = draw(networks())
    return params, [(x, dL_dp), (_arr(draw, *x.shape), _arr(draw, len(x)))]


def zero_rows_case():
    # zero biases and all-zero input rows: those rows' pre-activations
    # are exactly 0 in both hidden layers
    params = tiny_params(seed=12)
    x = Rng(13).normal(size=(6, 3))
    x[[1, 4]] = 0.0
    return params, x, Rng(14).normal(size=6)


def dead_layer_case(layer):
    params = tiny_params(seed=15)
    getattr(params, layer)[:] = -100.0  # that hidden layer never fires
    x = Rng(16).uniform(0, 1, size=(5, 3))
    return params, x, np.ones(5)


def assert_matches_twin(params, x, dL_dp, trace, grads):
    twin = oracles.twin_forward(params, x)
    for name in ("p", "probs", "a1", "a2"):
        got, ref = getattr(trace, name), getattr(twin, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    twin_grads = oracles.twin_backward(params, twin, dL_dp)
    for name in LAYERS:
        got, ref = getattr(grads, name), getattr(twin_grads, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


class TestMatchesPreActivationTwin:
    """Masking on the activations, in place, gives the bits of masking on
    the pre-activations (the passes in oracles that kept z1 and z2)."""

    @settings(max_examples=300, deadline=None)
    @given(networks())
    @example(zero_rows_case())
    @example(dead_layer_case("b1"))
    @example(dead_layer_case("b2"))
    def test_bit_identical(self, case):
        params, x, dL_dp = case
        trace = forward(params, x)
        assert_matches_twin(params, x, dL_dp, trace,
                            backward(params, trace, dL_dp))

    @settings(max_examples=200, deadline=None)
    @given(two_batches())
    def test_reused_buffers_bit_identical(self, case):
        # NaN-filled buffers reused across two batches: any element the
        # in-place passes leave unwritten shows as NaN or as the first
        # batch's value
        params, batches = case
        size, d = batches[0][0].shape
        _, h1, h2 = params.dims
        trace = ForwardTrace.empty(np.empty((size, d)), h1, h2)
        back = BackwardBuffers.empty(size, d, h1, h2)
        for arr in (trace.a1, trace.a2, trace.probs, trace.p, back.dz_out,
                    back.dz2, back.dz1, back.live2, back.live1,
                    *(getattr(back.grads, name) for name in LAYERS)):
            arr.fill(np.nan)
        for x, dL_dp in batches:
            assert forward(params, x, out=trace) is trace
            grads = backward(params, trace, dL_dp, out=back)
            assert grads is back.grads
            assert_matches_twin(params, x, dL_dp, trace, grads)

    def test_trace_keeps_only_activations(self):
        names = [f.name for f in dataclasses.fields(ForwardTrace)]
        assert names == ["x", "a1", "a2", "probs", "p"]


class TestPredictHard:
    def test_basic(self):
        np.testing.assert_array_equal(
            predict_hard(np.array([0.9, 0.4])), [1, 0])

    def test_tie_goes_to_one(self):
        assert predict_hard(np.array([0.5]))[0] == 1
        np.testing.assert_array_equal(
            predict_hard(np.full(4, 0.5)), np.ones(4, dtype=int))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = tiny_params(seed=11)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, seed=11)
        loaded = load_checkpoint(path)
        assert loaded.flatten().tobytes() == params.flatten().tobytes()
        assert loaded.dims == params.dims
        assert json.loads(path.read_text(encoding="utf-8"))["seed"] == 11

    @pytest.mark.parametrize("key,value", [
        ("h1", -1), ("h2", 0), ("d", True), ("h1", 4.0), ("h2", "3")])
    def test_rejects_dims_that_are_not_sizes(self, tmp_path, key, value):
        path = tmp_path / "model.json"
        save_checkpoint(path, tiny_params(seed=11), seed=11)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["dims"][key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError, match="dims must be integers >= 1"):
            load_checkpoint(path)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}', encoding="utf-8")
        with pytest.raises(SchemaError):
            load_checkpoint(path)
