"""Min-max training: Adam descent on the network weights and projected
Adam ascent on the Lagrange multiplier, one step of each per mini-batch.

The combined objective is L = l_obj + lambda * l_k, where l_obj is
cross-entropy or the batch q-mean loss and l_k is the chosen constraint
value minus its slack. lambda is projected back to [0, inf) after every
ascent step. During training the constraint is estimated on the current
mini-batch (single-batch form); the multi-batch average belongs to the
audit pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import data, fairloss
from .data import Dataset
from .errors import DataError, ParameterError, check_types
from .fairloss import Batch
from .model import (BackwardBuffers, ForwardTrace, MlpParams, backward,
                    forward, init_params)
from .numcore import AdamState, Rng, adam_step


@dataclass
class TrainConfig:
    """Hyperparameters of one training run. ``constraint`` and
    ``objective`` are names in fairloss.CONSTRAINTS and
    fairloss.OBJECTIVES; the constraint is relaxed by ``epsilon`` or by
    ``p_percent`` as its table entry says. Every field is checked against
    its annotation and its range when the config is built, and ``slack``
    (not a field) holds the constraint's slack, fairloss.slack of its
    relaxation."""

    constraint: str = "dp"
    epsilon: float | None = 0.05
    p_percent: float | None = None
    h1: int = 100
    h2: int = 50
    lr_theta: float = 0.001
    lr_lambda: float | None = None  # defaults to lr_theta
    batch_size: int = 500
    max_epochs: int = 5000
    objective: str = "ce"
    seed: int = 0
    lambda_init: float = 0.0
    lambda_zero: bool = False       # freeze lambda at 0 (unconstrained baseline)
    convergence_window: int = 50
    convergence_tol: float = 1e-5

    def __post_init__(self):
        check_types(self, ParameterError)
        if self.h1 < 1 or self.h2 < 1:
            raise ParameterError("h1 and h2 must be >= 1")
        if self.batch_size < 2:
            raise ParameterError("batch_size must be >= 2")
        if not 0 < self.lr_theta < math.inf:  # NaN fails too
            raise ParameterError("lr_theta must be finite and > 0")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be >= 1")
        if self.objective not in fairloss.OBJECTIVES:
            raise ParameterError(
                f"objective must be one of {tuple(fairloss.OBJECTIVES)}")
        if not 0 <= self.lambda_init < math.inf:
            raise ParameterError("lambda_init must be finite and >= 0")
        if self.lr_lambda is not None and not 0 < self.lr_lambda < math.inf:
            raise ParameterError("lr_lambda must be finite and > 0")
        if self.convergence_window < 1:
            raise ParameterError("convergence_window must be >= 1")
        if not 0 <= self.convergence_tol < math.inf:
            raise ParameterError("convergence_tol must be finite and >= 0")
        if self.constraint not in fairloss.CONSTRAINTS:
            raise ParameterError(f"unknown constraint {self.constraint!r}")
        param = fairloss.CONSTRAINTS[self.constraint].param
        # epsilon has a default, so only a stray p_percent can be told apart;
        # a p_percent constraint drops it, so the config echo says null
        if param == "epsilon" and self.p_percent is not None:
            raise ParameterError(
                f"{self.constraint} takes epsilon, not p_percent")
        if param == "p_percent":
            self.epsilon = None
        self.slack = fairloss.slack(self.constraint, getattr(self, param))


@dataclass
class StepInfo:
    objective: float
    constraint: float
    total: float


@dataclass
class TrainState:
    """Joint state of the min-max game.

    ``vec`` is the one flat buffer [w1, b1, w2, b2, w_out, b_out, lambda]
    that Adam updates in place; ``params`` are views into it. ``grad`` and
    ``lr`` are laid out the same way. ``x``, ``trace`` and ``back`` are the
    workspace of one step at ``cfg.batch_size`` rows, reused by every step
    of a fit: the batch rows densified from the dataset, forward's
    activations and backward's buffers, whose gradients are views into
    ``grad``.
    """

    vec: np.ndarray
    params: MlpParams
    grad: np.ndarray
    lr: np.ndarray
    adam: AdamState
    x: np.ndarray
    trace: ForwardTrace
    back: BackwardBuffers

    @property
    def lam(self) -> float:
        return float(self.vec[-1])


@dataclass
class LogRow:
    """One epoch of the training log."""

    epoch: int
    objective: float
    constraint_value: float
    lam: float
    wall_ms: float


def init_state(d: int, cfg: TrainConfig) -> TrainState:
    rng = Rng(cfg.seed)
    init = init_params(d, cfg.h1, cfg.h2, rng)
    n = init.n_params + 1
    vec = np.empty(n)
    init.flatten(out=vec[:-1])
    vec[-1] = 0.0 if cfg.lambda_zero else cfg.lambda_init
    lr = np.full(n, float(cfg.lr_theta))
    lr[-1] = cfg.lr_theta if cfg.lr_lambda is None else cfg.lr_lambda
    params = MlpParams.unflatten(vec[:-1], d, cfg.h1, cfg.h2)
    grad = np.zeros(n)
    grads = MlpParams.unflatten(grad[:-1], d, cfg.h1, cfg.h2)
    x = np.empty((cfg.batch_size, d))
    return TrainState(
        vec=vec, params=params, grad=grad, lr=lr, adam=AdamState.zeros(n),
        x=x, trace=ForwardTrace.empty(x, cfg.h1, cfg.h2),
        back=BackwardBuffers.empty(cfg.batch_size, d, cfg.h1, cfg.h2, grads))


def train_step(state: TrainState, x: np.ndarray, a: np.ndarray,
               y: np.ndarray, cfg: TrainConfig) -> StepInfo:
    """One descent step on theta, then one projected ascent step on
    lambda using the same batch's pre-update probabilities. Mutates
    ``state`` and reports the losses seen by the step, the total
    L = l_obj + lambda * l_k at the updated lambda."""
    trace = forward(state.params, x, out=state.trace)
    fb = Batch(trace.p, a, y)

    obj_val, dobj_dp = fairloss.OBJECTIVES[cfg.objective].value_and_grad(fb)
    c_val, dc_dp = fairloss.CONSTRAINTS[cfg.constraint].value_and_grad(fb)
    l_k = c_val - cfg.slack

    dL_dp = dobj_dp + state.lam * dc_dp
    backward(state.params, trace, dL_dp, out=state.back)  # into state.grad

    # ascent on l_k == descent on -l_k; a --lambda-zero run keeps a zero
    # slot, so Adam leaves lambda at exactly 0.0 (m = v = 0 gives a step
    # of 0) and the projection keeps it there
    state.grad[-1] = 0.0 if cfg.lambda_zero else -l_k
    adam_step(state.adam, state.vec, state.grad, state.lr)
    state.vec[-1] = max(state.lam, 0.0)

    return StepInfo(objective=obj_val, constraint=c_val,
                    total=float(obj_val + state.lam * l_k))


def fit(dataset: Dataset, cfg: TrainConfig) -> tuple[MlpParams, list[LogRow]]:
    """Train until the windowed moving average of the combined loss
    stalls or max_epochs is reached; returns final params and the
    per-epoch log."""
    if dataset.a.sum() < 1 or (1 - dataset.a).sum() < 1:
        raise DataError("dataset must contain both sensitive groups")
    if dataset.y.sum() < 1 or (1 - dataset.y).sum() < 1:
        raise DataError("dataset must contain both label classes")
    if cfg.batch_size > dataset.n:  # init_state sizes its workspace by it
        raise DataError(
            f"batch size {cfg.batch_size} exceeds dataset size {dataset.n}")

    state = init_state(dataset.d, cfg)
    # one stream reshuffles every epoch's batches
    rng = Rng(cfg.seed + 1)
    need_classes = fairloss.OBJECTIVES[cfg.objective].needs_classes

    log: list[LogRow] = []
    recent: list[float] = []
    for epoch in range(cfg.max_epochs):
        batches = data.epoch_batches(dataset.a, dataset.y, cfg.batch_size, rng,
                                     need_classes=need_classes)
        t0 = time.perf_counter()
        objs, consts, totals = [], [], []
        for idx in batches:
            x = dataset.densify(idx, state.x)
            info = train_step(state, x, dataset.a[idx], dataset.y[idx], cfg)
            objs.append(info.objective)
            consts.append(info.constraint)
            totals.append(info.total)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        log.append(LogRow(epoch=epoch, objective=float(np.mean(objs)),
                          constraint_value=float(np.mean(consts)),
                          lam=state.lam, wall_ms=wall_ms))

        recent.append(float(np.mean(totals)))
        w = cfg.convergence_window
        if len(recent) > w:
            prev = float(np.mean(recent[-w - 1:-1]))
            curr = float(np.mean(recent[-w:]))
            if abs(curr - prev) < cfg.convergence_tol:
                break
    return state.params, log
