"""Two-hidden-layer feed-forward classifier with exact backpropagation.

Layer sizes d -> h1 -> h2 -> 2; hidden activations are ReLU, the output
is a 2-unit softmax whose class-1 component is the predicted
probability p, clamped to [PROB_CLAMP, 1 - PROB_CLAMP]. The backward
pass propagates arbitrary per-probability upstream gradients dL/dp, so
any batch loss built from p can be trained.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SchemaError, ShapeError
from .fairloss import PROB_CLAMP
from .numcore import Rng

CHECKPOINT_FORMAT = "fairmlp-checkpoint/1"


@dataclass
class MlpParams:
    """Weights and biases for the d -> h1 -> h2 -> 2 network."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.w1.shape[0], self.w1.shape[1], self.w2.shape[1]

    @property
    def n_params(self) -> int:
        return sum(arr.size for arr in self._arrays())

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w_out, self.b_out)

    def flatten(self, out: np.ndarray | None = None) -> np.ndarray:
        """All arrays as one vector, written into ``out`` when given."""
        return np.concatenate([arr.ravel() for arr in self._arrays()], out=out)

    @classmethod
    def unflatten(cls, vec: np.ndarray, d: int, h1: int, h2: int) -> "MlpParams":
        shapes = [(d, h1), (h1,), (h1, h2), (h2,), (h2, 2), (2,)]
        total = sum(int(np.prod(s)) for s in shapes)
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (total,):
            raise ShapeError(f"expected flat vector of length {total}, got {vec.shape}")
        parts, at = [], 0
        for s in shapes:
            size = int(np.prod(s))
            parts.append(vec[at:at + size].reshape(s))
            at += size
        return cls(*parts)


def he_std(fan_in: int) -> float:
    """Weight init scale sqrt(2/fan_in)."""
    return math.sqrt(2.0 / fan_in)


def init_params(d: int, h1: int, h2: int, rng: Rng) -> MlpParams:
    """He-initialized weights, zero biases."""
    if d < 1 or h1 < 1 or h2 < 1:
        raise ParameterError(f"all dimensions must be >= 1, got ({d}, {h1}, {h2})")
    return MlpParams(
        w1=rng.normal(0.0, he_std(d), d * h1).reshape(d, h1),
        b1=np.zeros(h1),
        w2=rng.normal(0.0, he_std(h1), h1 * h2).reshape(h1, h2),
        b2=np.zeros(h2),
        w_out=rng.normal(0.0, he_std(h2), h2 * 2).reshape(h2, 2),
        b_out=np.zeros(2),
    )


@dataclass
class ForwardTrace:
    """Per-layer activations kept for the backward pass. The ReLU
    pre-activations are not kept: z > 0 exactly where max(z, 0) > 0, so
    the activations alone give backward its masks."""

    x: np.ndarray        # (S, d) input
    a1: np.ndarray       # (S, h1) ReLU output
    a2: np.ndarray       # (S, h2) ReLU output
    probs: np.ndarray    # (S, 2) softmax rows, pre-clamp
    p: np.ndarray        # (S,) class-1 probability, clamped


def forward(params: MlpParams, x: np.ndarray) -> ForwardTrace:
    """Forward pass over a batch; pure function of (params, x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ShapeError(
            f"input has shape {x.shape}, expected (S, {params.dims[0]})")
    a1 = np.maximum(x @ params.w1 + params.b1, 0.0)
    a2 = np.maximum(a1 @ params.w2 + params.b2, 0.0)
    logits = a2 @ params.w_out + params.b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    p = np.clip(probs[:, 1], PROB_CLAMP, 1.0 - PROB_CLAMP)
    return ForwardTrace(x=x, a1=a1, a2=a2, probs=probs, p=p)


def backward(params: MlpParams, trace: ForwardTrace, dL_dp: np.ndarray) -> MlpParams:
    """Gradients of any scalar L given its per-probability gradients.

    Coordinates where the clamp saturated contribute zero (p is constant
    there), matching the value actually computed from trace.p.
    """
    dL_dp = np.asarray(dL_dp, dtype=np.float64)
    if dL_dp.shape != trace.p.shape:
        raise ShapeError(
            f"dL_dp has shape {dL_dp.shape}, expected {trace.p.shape}")
    s1 = trace.probs[:, 1]
    upstream = np.where(
        (s1 < PROB_CLAMP) | (s1 > 1.0 - PROB_CLAMP), 0.0, dL_dp)
    # dp/dz = s1(1-s1) * [-1, +1] through the 2-way softmax
    dz_common = upstream * s1 * (1.0 - s1)
    dz_out = np.stack([-dz_common, dz_common], axis=1)

    g_w_out = trace.a2.T @ dz_out
    g_b_out = dz_out.sum(axis=0)
    da2 = dz_out @ params.w_out.T
    dz2 = da2 * (trace.a2 > 0.0)
    g_w2 = trace.a1.T @ dz2
    g_b2 = dz2.sum(axis=0)
    da1 = dz2 @ params.w2.T
    dz1 = da1 * (trace.a1 > 0.0)
    g_w1 = trace.x.T @ dz1
    g_b1 = dz1.sum(axis=0)
    return MlpParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2,
                     w_out=g_w_out, b_out=g_b_out)


def predict_hard(p: np.ndarray) -> np.ndarray:
    """Threshold probabilities at 0.5 to 0/1 labels; ties go to 1."""
    p = np.asarray(p, dtype=np.float64)
    return (p >= 0.5).astype(np.int64)


def save_checkpoint(path, params: MlpParams, seed: int) -> None:
    """JSON checkpoint; float values round-trip bit-exactly."""
    d, h1, h2 = params.dims
    payload = {
        "format": CHECKPOINT_FORMAT,
        "dims": {"d": d, "h1": h1, "h2": h2},
        "seed": int(seed),
        "layers": {
            "w1": params.w1.ravel().tolist(),
            "b1": params.b1.tolist(),
            "w2": params.w2.ravel().tolist(),
            "b2": params.b2.tolist(),
            "w_out": params.w_out.ravel().tolist(),
            "b_out": params.b_out.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path) -> tuple[MlpParams, dict]:
    """Load a checkpoint; returns (params, metadata dict with dims/seed)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise SchemaError(f"not a model checkpoint: {path}")
    try:
        dims = payload["dims"]
        d, h1, h2 = dims["d"], dims["h1"], dims["h2"]
        layers = payload["layers"]
        shapes = {"w1": (d, h1), "b1": (h1,), "w2": (h1, h2), "b2": (h2,),
                  "w_out": (h2, 2), "b_out": (2,)}
        arrays = {name: np.asarray(layers[name], dtype=np.float64).reshape(shape)
                  for name, shape in shapes.items()}
    except KeyError as exc:
        raise SchemaError(f"checkpoint {path} lacks key {exc}")
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"checkpoint layer shapes inconsistent with dims: {exc}")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise SchemaError(f"checkpoint {path} layer {name} holds non-finite values")
    params = MlpParams(**arrays)
    return params, {"dims": (d, h1, h2), "seed": payload.get("seed")}
