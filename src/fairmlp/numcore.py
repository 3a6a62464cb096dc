"""Seeded RNG and the Adam update rule.

Everything here is deterministic: the same seed yields byte-identical
sequences on every platform (PCG64 has a fixed cross-platform stream),
and all array math is float64 numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


class Rng:
    """Seeded random source; identical seeds give identical streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, mean: float, std: float, n: int) -> np.ndarray:
        if std < 0:
            raise ParameterError(f"std must be >= 0, got {std}")
        if n < 0:
            raise ParameterError(f"n must be >= 0, got {n}")
        if std == 0:
            return np.full(n, float(mean))
        return self.gen.normal(mean, std, size=n)

    def shuffled(self, values) -> np.ndarray:
        """A permuted copy of ``values``."""
        arr = np.asarray(values).copy()
        self.gen.shuffle(arr)
        return arr

    def choice(self, values, size: int, replace: bool = False) -> np.ndarray:
        return self.gen.choice(np.asarray(values), size=size, replace=replace)


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8

    @classmethod
    def zeros(cls, n: int, beta1: float = 0.9, beta2: float = 0.999,
              eps_hat: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0,
                   beta1=beta1, beta2=beta2, eps_hat=eps_hat)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float) -> np.ndarray:
    """One bias-corrected Adam update; advances ``state`` in place.

    params <- params - lr * m_hat / (sqrt(v_hat) + eps_hat)
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape}, state {state.m.shape} "
            "must all match")
    if lr <= 0:
        raise ParameterError(f"lr must be > 0, got {lr}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    out = params - lr * m_hat / (np.sqrt(v_hat) + state.eps_hat)
    if not np.all(np.isfinite(out)):
        raise NumericError("adam_step produced non-finite parameters")
    return out
