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

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import fairloss
from .data import Dataset, batch_iter
from .errors import DataError, ParameterError
from .fairloss import Batch, ConstraintKind
from .model import MlpParams, backward, forward, init_params
from .numcore import AdamState, Rng, adam_step


@dataclass
class TrainConfig:
    """Hyperparameters of one training run. ``objective`` is a name in
    fairloss.OBJECTIVES."""

    constraint: ConstraintKind
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
    lambda_optimizer: str = "adam"  # 'adam' or plain 'sgd' ascent
    convergence_window: int = 50
    convergence_tol: float = 1e-5

    def __post_init__(self):
        if self.batch_size < 2:
            raise ParameterError("batch_size must be >= 2")
        if self.lr_theta <= 0:
            raise ParameterError("lr_theta must be > 0")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be >= 1")
        if self.objective not in fairloss.OBJECTIVES:
            raise ParameterError(
                f"objective must be one of {tuple(fairloss.OBJECTIVES)}")
        if self.lambda_optimizer not in ("adam", "sgd"):
            raise ParameterError("lambda_optimizer must be 'adam' or 'sgd'")
        if self.lambda_init < 0:
            raise ParameterError("lambda_init must be >= 0")
        if self.lr_lambda is not None and self.lr_lambda <= 0:
            raise ParameterError("lr_lambda must be > 0")
        if self.convergence_window < 1:
            raise ParameterError("convergence_window must be >= 1")
        if self.convergence_tol < 0:
            raise ParameterError("convergence_tol must be >= 0")

    @property
    def effective_lr_lambda(self) -> float:
        return self.lr_theta if self.lr_lambda is None else self.lr_lambda


@dataclass
class TrainBatch:
    """Raw features plus attribute/label vectors for one step."""

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray


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
    ``lr`` are laid out the same way.
    """

    vec: np.ndarray
    params: MlpParams
    grad: np.ndarray
    lr: np.ndarray
    adam: AdamState
    epoch: int = 0

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


def total_loss(objective_value: float, lam: float,
               constraint_loss_value: float) -> float:
    """Combined scalar L = l_obj + lambda * l_k."""
    if lam < 0:
        raise ParameterError("lambda must be >= 0")
    return float(objective_value + lam * constraint_loss_value)


def init_state(d: int, cfg: TrainConfig) -> TrainState:
    rng = Rng(cfg.seed)
    init = init_params(d, cfg.h1, cfg.h2, rng)
    n = init.n_params + 1
    vec = np.empty(n)
    init.flatten(out=vec[:-1])
    vec[-1] = 0.0 if cfg.lambda_zero else cfg.lambda_init
    lr = np.full(n, float(cfg.lr_theta))
    lr[-1] = cfg.effective_lr_lambda
    params = MlpParams.unflatten(vec[:-1], d, cfg.h1, cfg.h2)
    return TrainState(vec=vec, params=params, grad=np.zeros(n), lr=lr,
                      adam=AdamState.zeros(n))


def train_step(state: TrainState, batch: TrainBatch, cfg: TrainConfig) -> StepInfo:
    """One descent step on theta, then one projected ascent step on
    lambda using the same batch's pre-update probabilities. Mutates
    ``state`` and reports the losses seen by the step."""
    trace = forward(state.params, batch.x)
    fb = Batch(trace.p, batch.a, batch.y)

    obj_val, dobj_dp = fairloss.OBJECTIVES[cfg.objective].value_and_grad(fb)
    c_val, dc_dp = fairloss.CONSTRAINTS[cfg.constraint.kind].value_and_grad(fb)
    l_k = c_val - cfg.constraint.slack

    dL_dp = dobj_dp if cfg.lambda_zero else dobj_dp + state.lam * dc_dp
    backward(state.params, trace, dL_dp).flatten(out=state.grad[:-1])

    # ascent on l_k == descent on -l_k; with a zero slot Adam leaves
    # lambda exactly where it is (m = v = 0 gives a step of 0)
    lambda_adam = not cfg.lambda_zero and cfg.lambda_optimizer == "adam"
    state.grad[-1] = -l_k if lambda_adam else 0.0
    adam_step(state.adam, state.vec, state.grad, state.lr)
    if not cfg.lambda_zero:
        lam = state.lam
        if cfg.lambda_optimizer == "sgd":
            lam += cfg.effective_lr_lambda * l_k
        state.vec[-1] = max(lam, 0.0)

    return StepInfo(objective=obj_val, constraint=c_val,
                    total=total_loss(obj_val, state.lam, l_k))


def fit(dataset: Dataset, cfg: TrainConfig) -> tuple[MlpParams, list[LogRow]]:
    """Train until the windowed moving average of the combined loss
    stalls or max_epochs is reached; returns final params and the
    per-epoch log."""
    if dataset.a.sum() < 1 or (1 - dataset.a).sum() < 1:
        raise DataError("dataset must contain both sensitive groups")
    if dataset.y.sum() < 1 or (1 - dataset.y).sum() < 1:
        raise DataError("dataset must contain both label classes")

    state = init_state(dataset.d, cfg)
    epochs = batch_iter(dataset, cfg.batch_size, cfg.seed + 1,
                        fairloss.OBJECTIVES[cfg.objective].needs_classes)

    log: list[LogRow] = []
    recent: list[float] = []
    for epoch, batches in zip(range(cfg.max_epochs), epochs):
        t0 = time.perf_counter()
        objs, consts, totals = [], [], []
        for idx in batches:
            info = train_step(
                state,
                TrainBatch(dataset.X[idx], dataset.a[idx], dataset.y[idx]),
                cfg)
            objs.append(info.objective)
            consts.append(info.constraint)
            totals.append(info.total)
        state.epoch = epoch + 1
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


def write_training_log(path, log: list[LogRow]) -> None:
    """CSV log: epoch, objective, constraint_value, lambda, wall_ms."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "objective", "constraint_value",
                         "lambda", "wall_ms"])
        for row in log:
            writer.writerow([row.epoch, repr(row.objective),
                             repr(row.constraint_value), repr(row.lam),
                             f"{row.wall_ms:.3f}"])
