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
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, SchemaError, ShapeError, has_type
from .fairloss import PROB_CLAMP

CHECKPOINT_FORMAT = "fairmlp-checkpoint/1"


def _layer_shapes(d: int, h1: int, h2: int) -> dict[str, tuple[int, ...]]:
    """The shape of each layer of a d -> h1 -> h2 -> 2 network, by name in
    MlpParams field order: the one table that the parameters, their flat
    layout and the checkpoint are built from."""
    return {"w1": (d, h1), "b1": (h1,), "w2": (h1, h2), "b2": (h2,),
            "w_out": (h2, 2), "b_out": (2,)}


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

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def flatten(self, out: np.ndarray | None = None) -> np.ndarray:
        """All arrays as one vector, written into ``out`` when given."""
        return np.concatenate([arr.ravel() for arr in self._arrays()], out=out)

    @classmethod
    def unflatten(cls, vec: np.ndarray, d: int, h1: int, h2: int) -> "MlpParams":
        """Views into ``vec`` shaped as the layers of a d -> h1 -> h2 -> 2
        network."""
        shapes = _layer_shapes(d, h1, h2)
        total = sum(math.prod(s) for s in shapes.values())
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (total,):
            raise ShapeError(f"expected flat vector of length {total}, got {vec.shape}")
        parts, at = {}, 0
        for name, s in shapes.items():
            size = math.prod(s)
            parts[name] = vec[at:at + size].reshape(s)
            at += size
        return cls(**parts)


def he_std(fan_in: int) -> float:
    """Weight init scale sqrt(2/fan_in)."""
    return math.sqrt(2.0 / fan_in)


def init_params(d: int, h1: int, h2: int,
                rng: np.random.Generator) -> MlpParams:
    """He-initialized weights, zero biases; the weights are drawn in layer
    order."""
    if d < 1 or h1 < 1 or h2 < 1:
        raise ParameterError(f"all dimensions must be >= 1, got ({d}, {h1}, {h2})")
    return MlpParams(**{
        name: (rng.normal(0.0, he_std(s[0]), math.prod(s)).reshape(s)
               if len(s) == 2 else np.zeros(s))
        for name, s in _layer_shapes(d, h1, h2).items()})


@dataclass
class ForwardTrace:
    """Per-layer activations kept for the backward pass. The ReLU
    pre-activations are not kept: z > 0 exactly where max(z, 0) > 0, so
    the activations alone give backward its masks. ``forward(..., out=)``
    overwrites every array but ``x``, which is the batch passed in, so one
    trace serves every batch of its size."""

    x: np.ndarray        # (S, d) input
    a1: np.ndarray       # (S, h1) ReLU output
    a2: np.ndarray       # (S, h2) ReLU output
    probs: np.ndarray    # (S, 2) softmax rows, pre-clamp
    p: np.ndarray        # (S,) class-1 probability, clamped

    @classmethod
    def empty(cls, x: np.ndarray, h1: int, h2: int) -> "ForwardTrace":
        S = x.shape[0]
        return cls(x=x, a1=np.empty((S, h1)), a2=np.empty((S, h2)),
                   probs=np.empty((S, 2)), p=np.empty(S))


@dataclass
class BackwardBuffers:
    """What ``backward(..., out=)`` writes for a batch of S rows: the
    gradients, and the upstream gradients and ReLU masks of each layer."""

    grads: MlpParams
    dz_out: np.ndarray   # (S, 2) dL/dlogits
    dz2: np.ndarray      # (S, h2) dL/dz2
    dz1: np.ndarray      # (S, h1) dL/dz1
    live2: np.ndarray    # (S, h2) bool, a2 > 0
    live1: np.ndarray    # (S, h1) bool, a1 > 0

    @classmethod
    def empty(cls, S: int, d: int, h1: int, h2: int,
              grads: MlpParams | None = None) -> "BackwardBuffers":
        """Buffers for S rows; ``grads``, when given, receives the
        gradients (views into a flat vector, say)."""
        if grads is None:
            grads = MlpParams(**{name: np.empty(s) for name, s
                                 in _layer_shapes(d, h1, h2).items()})
        return cls(grads=grads, dz_out=np.empty((S, 2)),
                   dz2=np.empty((S, h2)), dz1=np.empty((S, h1)),
                   live2=np.empty((S, h2), dtype=bool),
                   live1=np.empty((S, h1), dtype=bool))


def forward(params: MlpParams, x: np.ndarray,
            out: ForwardTrace | None = None) -> ForwardTrace:
    """Forward pass over a batch; a pure function of (params, x). Every
    activation is written in place into ``out``, or into arrays allocated
    once when ``out`` is None."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ShapeError(
            f"input has shape {x.shape}, expected (S, {params.dims[0]})")
    if out is None:
        out = ForwardTrace.empty(x, *params.dims[1:])
    elif out.p.shape != (x.shape[0],):
        raise ShapeError(
            f"trace holds {out.p.shape[0]} rows, the batch {x.shape[0]}")
    out.x = x
    _relu(x, params.w1, params.b1, out.a1)
    _relu(out.a1, params.w2, params.b2, out.a2)
    # softmax of the logits in probs; p, overwritten last, holds each
    # row's max and then its sum
    probs, row = out.probs, out.p[:, None]
    np.matmul(out.a2, params.w_out, out=probs)
    probs += params.b_out
    np.max(probs, axis=1, keepdims=True, out=row)
    probs -= row
    np.exp(probs, out=probs)
    np.sum(probs, axis=1, keepdims=True, out=row)
    probs /= row
    np.clip(probs[:, 1], PROB_CLAMP, 1.0 - PROB_CLAMP, out=out.p)
    return out


def _relu(x: np.ndarray, w: np.ndarray, b: np.ndarray,
          out: np.ndarray) -> None:
    """A ReLU layer of ``forward``, max(x @ w + b, 0), written in place
    into ``out``."""
    np.matmul(x, w, out=out)
    out += b
    np.maximum(out, 0.0, out=out)


def backward(params: MlpParams, trace: ForwardTrace, dL_dp: np.ndarray,
             out: BackwardBuffers | None = None) -> MlpParams:
    """Gradients of any scalar L given its per-probability gradients,
    written into ``out.grads`` (buffers allocated once when ``out`` is
    None) and returned.

    Coordinates where the clamp saturated contribute zero (p is constant
    there), matching the value actually computed from trace.p.
    """
    dL_dp = np.asarray(dL_dp, dtype=np.float64)
    if dL_dp.shape != trace.p.shape:
        raise ShapeError(
            f"dL_dp has shape {dL_dp.shape}, expected {trace.p.shape}")
    if out is None:
        out = BackwardBuffers.empty(trace.p.shape[0], *params.dims)
    elif out.dz_out.shape[0] != trace.p.shape[0]:
        raise ShapeError(
            f"buffers hold {out.dz_out.shape[0]} rows, the trace {trace.p.shape[0]}")
    g, dz_out, dz2, dz1 = out.grads, out.dz_out, out.dz2, out.dz1
    s1 = trace.probs[:, 1]
    # dp/dz = s1(1-s1) * [-1, +1] through the 2-way softmax: column 0
    # holds upstream * s1 on the way
    neg, pos = dz_out[:, 0], dz_out[:, 1]
    np.copyto(neg, dL_dp)
    np.copyto(neg, 0.0, where=(s1 < PROB_CLAMP) | (s1 > 1.0 - PROB_CLAMP))
    neg *= s1
    np.subtract(1.0, s1, out=pos)
    pos *= neg
    np.negative(pos, out=neg)

    np.matmul(trace.a2.T, dz_out, out=g.w_out)
    np.sum(dz_out, axis=0, out=g.b_out)
    np.matmul(dz_out, params.w_out.T, out=dz2)
    # a multiply, not a masked assignment, keeps the sign of zeros
    dz2 *= np.greater(trace.a2, 0.0, out=out.live2)
    np.matmul(trace.a1.T, dz2, out=g.w2)
    np.sum(dz2, axis=0, out=g.b2)
    np.matmul(dz2, params.w2.T, out=dz1)
    dz1 *= np.greater(trace.a1, 0.0, out=out.live1)
    np.matmul(trace.x.T, dz1, out=g.w1)
    np.sum(dz1, axis=0, out=g.b1)
    return g


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
        "layers": {name: getattr(params, name).ravel().tolist()
                   for name in _layer_shapes(d, h1, h2)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path) -> MlpParams:
    """The parameters saved in a checkpoint."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if (not isinstance(payload, dict)
            or payload.get("format") != CHECKPOINT_FORMAT):
        raise SchemaError(f"not a model checkpoint: {path}")
    try:
        dims = payload["dims"]
        d, h1, h2 = dims["d"], dims["h1"], dims["h2"]
        # reshape would infer a -1
        if not all(has_type(size, int) and size >= 1 for size in (d, h1, h2)):
            raise SchemaError(
                f"checkpoint {path} dims must be integers >= 1, got {dims}")
        layers = payload["layers"]
        arrays = {name: np.asarray(layers[name], dtype=np.float64).reshape(shape)
                  for name, shape in _layer_shapes(d, h1, h2).items()}
    except KeyError as exc:
        raise SchemaError(f"checkpoint {path} lacks key {exc}")
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"checkpoint layer shapes inconsistent with dims: {exc}")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise SchemaError(f"checkpoint {path} layer {name} holds non-finite values")
    return MlpParams(**arrays)
