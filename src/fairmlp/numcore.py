"""Seeded RNG and the Adam update rule.

Everything here is deterministic: the same seed yields byte-identical
sequences on every platform (PCG64 has a fixed cross-platform stream),
and all array math is float64 numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


def Rng(seed: int) -> np.random.Generator:
    """numpy's Generator on a seeded PCG64 stream; identical seeds give
    identical streams. A function, not a subclass, because numpy 2 loads
    numpy.random (~6 MB resident) on first use: `bounds` never loads it.
    The audit loads it after its forward pass, for the soft-metric
    batches, and its resident set peaks in that pass, numpy.random
    included."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


# Adam's moment decay rates and the denominator's epsilon
BETA1 = 0.9
BETA2 = 0.999
EPS_HAT = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector,
    plus two work buffers of the same size for the update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.work = np.empty((2,) + self.m.shape)

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr) -> np.ndarray:
    """One bias-corrected Adam update of ``params`` in place; advances
    ``state`` and returns ``params``.

    params <- params - lr * m_hat / (sqrt(v_hat) + EPS_HAT)

    ``lr`` is one rate, or an array with one rate per coordinate. The
    update is checked for finiteness before it is written, so a failing
    step leaves ``params`` as it was.
    """
    if not isinstance(params, np.ndarray) or params.dtype != np.float64:
        raise ParameterError("params must be a float64 array (updated in place)")
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape}, state {state.m.shape} "
            "must all match")
    lr_min = np.min(lr)
    if lr_min <= 0:
        raise ParameterError(f"lr must be > 0, got {lr_min}")
    # the operations, and their order, of
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    #   params - lr * m_hat / (sqrt(v_hat) + eps)
    # done in place and in the work buffers, so the result is bit-identical
    # to that form
    state.t += 1
    m, v = state.m, state.v
    step, denom = state.work
    m *= BETA1
    np.multiply(grads, 1.0 - BETA1, out=step)
    m += step
    v *= BETA2
    np.multiply(grads, 1.0 - BETA2, out=step)
    step *= grads
    v += step
    np.divide(v, 1.0 - BETA2 ** state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS_HAT
    np.divide(m, 1.0 - BETA1 ** state.t, out=step)
    step *= lr
    step /= denom
    np.subtract(params, step, out=step)
    if not np.isfinite(step).all():
        raise NumericError("adam_step produced non-finite parameters")
    params[...] = step
    return params
