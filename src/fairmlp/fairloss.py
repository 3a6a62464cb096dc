"""Batch-level fairness constraints and performance losses with exact
gradients in the prediction probabilities.

Every quantity here is a function of one fixed-size batch
(p, a, y): per-example class-1 probabilities, binary sensitive
attribute (1 = protected group), and binary labels. The constraints are
non-decomposable: they only make sense across a batch that contains
both groups, which is why training happens on stratified mini-batches.

Value conventions:
  demographic parity gap      in [0, 1], 0 = parity
  false-pos/false-neg gaps    in [0, 1] each (group-size denominators)
  equalized odds (sum / max)  in [0, 2] / [0, 1]
  disparate impact            -min(r, 1/r) in [-1, 0), -1 = equal rates
  q-mean                      root of summed squared per-class errors

Subgradient conventions (deterministic training): 0 at absolute-value
kinks, first branch at min/max ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DegenerateBatchError, NumericError, ParameterError,
                     ShapeError)

# Probabilities are clamped to this band after the softmax so that logs
# and ratio denominators stay finite.
PROB_CLAMP = 1e-7

# Floor applied to group-mean denominators inside the disparate-impact
# ratio; without it the ratio is not Lipschitz and gradients blow up.
DI_MEAN_FLOOR = 1e-7


def _is_binary(x: np.ndarray) -> bool:
    return bool(((x == 0) | (x == 1)).all())


class _Split:
    """A 0/1 indicator, its complement and the two counts, computed once
    and shared by every quantity taken on one batch."""

    def __init__(self, ones: np.ndarray):
        self.ones = ones
        self.zeros = 1.0 - ones
        self.n_ones = ones.sum()
        self.n_zeros = self.zeros.sum()

    def means(self, values: np.ndarray) -> tuple[float, float]:
        """Means of ``values`` over the 1-rows and over the 0-rows."""
        return (float((values * self.ones).sum() / self.n_ones),
                float((values * self.zeros).sum() / self.n_zeros))

    @cached_property
    def direction(self) -> np.ndarray:
        # d/dp_i of (mean over the 1-rows - mean over the 0-rows)
        return self.ones / self.n_ones - self.zeros / self.n_zeros


@dataclass
class Batch:
    """One fixed-size batch (p, a, y) on which constraints are computed.
    ``groups`` splits it by the attribute a, ``classes`` by the label y."""

    p: np.ndarray
    a: np.ndarray
    y: np.ndarray
    groups: _Split = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.a = np.asarray(self.a)
        self.y = np.asarray(self.y)
        if not (self.p.shape == self.a.shape == self.y.shape) or self.p.ndim != 1:
            raise ShapeError("p, a, y must be 1-D arrays of equal length")
        if not ((self.p > 0.0) & (self.p < 1.0)).all():  # NaN fails too
            if not np.all(np.isfinite(self.p)):
                raise NumericError("probabilities must be finite")
            raise ParameterError("probabilities must lie strictly in (0, 1)")
        if not (_is_binary(self.a) and _is_binary(self.y)):
            raise ParameterError("a and y must be binary")
        self.a = self.a.astype(np.float64)
        self.y = self.y.astype(np.float64)
        self.groups = _Split(self.a)
        if self.groups.n_ones < 1 or self.groups.n_zeros < 1:
            raise DegenerateBatchError("batch must contain both sensitive groups")

    @cached_property
    def classes(self) -> _Split:
        return _Split(self.y)


@dataclass
class MultiGroupBatch:
    """Batch with an m-way group index instead of a binary attribute: the
    library API for m-group DP, which no CONSTRAINTS entry takes."""

    p: np.ndarray
    group: np.ndarray
    m: int

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.group = np.asarray(self.group, dtype=np.int64)
        if self.p.shape != self.group.shape or self.p.ndim != 1:
            raise ShapeError("p and group must be 1-D arrays of equal length")
        if self.m < 2:
            raise ParameterError("m must be >= 2")
        if np.any(self.group < 0) or np.any(self.group >= self.m):
            raise ParameterError("group indices must lie in [0, m)")
        for j in range(self.m):
            if not np.any(self.group == j):
                raise DegenerateBatchError(f"group {j} missing from batch")


def _gap(split: _Split, values: np.ndarray, slope) -> tuple[float, np.ndarray]:
    """|mean of ``values`` over the 1-rows - mean over the 0-rows| and its
    gradient in p, where ``slope`` is d values / dp (a scalar or per row)."""
    m1, m0 = split.means(values)
    return abs(m1 - m0), np.sign(m1 - m0) * slope * split.direction


def _dp(batch: Batch) -> tuple[float, np.ndarray]:
    return _gap(batch.groups, batch.p, 1.0)


def _fpr(batch: Batch) -> tuple[float, np.ndarray]:
    not_y = batch.classes.zeros
    return _gap(batch.groups, batch.p * not_y, not_y)


def _fnr(batch: Batch) -> tuple[float, np.ndarray]:
    return _gap(batch.groups, (1.0 - batch.p) * batch.y, -batch.y)


def _eo_sum(batch: Batch) -> tuple[float, np.ndarray]:
    (fpr, g_fpr), (fnr, g_fnr) = _fpr(batch), _fnr(batch)
    return fpr + fnr, g_fpr + g_fnr


def _eo_max(batch: Batch) -> tuple[float, np.ndarray]:
    fpr, fnr = _fpr(batch), _fnr(batch)
    return fpr if fpr[0] >= fnr[0] else fnr


def _di(batch: Batch, mean_floor: float = DI_MEAN_FLOOR) -> tuple[float, np.ndarray]:
    g = batch.groups
    m1, m0 = g.means(batch.p)
    m1f = max(m1, mean_floor)
    m0f = max(m0, mean_floor)
    dm1 = g.ones / g.n_ones
    dm0 = g.zeros / g.n_zeros
    # derivative of a floored denominator is zero where the floor binds
    dm1f = dm1 if m1 > mean_floor else np.zeros_like(dm1)
    dm0f = dm0 if m0 > mean_floor else np.zeros_like(dm0)
    r = m1 / m0f
    r_inv = m0 / m1f
    if r <= r_inv:  # first branch: const = -m1/m0f
        return -r, -(dm1 * m0f - m1 * dm0f) / (m0f * m0f)
    return -r_inv, -(dm0 * m1f - m0 * dm1f) / (m1f * m1f)


def _dp_multi(batch: MultiGroupBatch) -> tuple[float, np.ndarray]:
    total, grad = 0.0, np.zeros_like(batch.p)
    for j in range(batch.m):
        gap, g = _gap(_Split((batch.group == j).astype(np.float64)), batch.p, 1.0)
        total += gap
        grad += g
    return total, grad


def _ce(batch: Batch) -> tuple[float, np.ndarray]:
    # p from forward() already lies in the clamp band, where the clip in
    # cross_entropy is the identity
    p, y = batch.p, batch.y
    return cross_entropy(p, y), (-y / p + (1.0 - y) / (1.0 - p)) / p.shape[0]


def _qmean(batch: Batch) -> tuple[float, np.ndarray]:
    c = batch.classes
    if c.n_ones < 1 or c.n_zeros < 1:
        raise DegenerateBatchError("q-mean needs both classes in the batch")
    u = 1.0 - float((batch.y * batch.p).sum() / c.n_ones)
    v = 1.0 - float((c.zeros * (1.0 - batch.p)).sum() / c.n_zeros)
    q = float(np.sqrt(u * u + v * v))
    return q, (u * (-batch.y / c.n_ones) + v * (c.zeros / c.n_zeros)) / q


def const_dp(batch: Batch) -> float:
    """Demographic-parity gap: |mean p over a=1 - mean p over a=0|."""
    return _dp(batch)[0]


def fpr_gap(batch: Batch) -> float:
    """|sum p(1-y)a / sum a  -  sum p(1-y)(1-a) / sum (1-a)|.

    Denominators are full group sizes, not negative-label counts.
    """
    return _fpr(batch)[0]


def fnr_gap(batch: Batch) -> float:
    """|sum (1-p)y a / sum a  -  sum (1-p)y(1-a) / sum (1-a)|."""
    return _fnr(batch)[0]


def const_eo(batch: Batch, variant: str = "sum") -> float:
    """Equalized-odds constraint: fpr+fnr ('sum') or max(fpr, fnr) ('max')."""
    if variant not in ("sum", "max"):
        raise ParameterError(f"unknown EO variant {variant!r}")
    return (_eo_sum if variant == "sum" else _eo_max)(batch)[0]


def const_di(batch: Batch, mean_floor: float = DI_MEAN_FLOOR) -> float:
    """Disparate-impact constraint -min(r, 1/r) with r the ratio of group
    mean probabilities (a=1 over a=0); equals -1 iff the rates match.

    ``mean_floor`` clamps each ratio denominator; pass 0 for the exact
    unclamped ratio (used by the non-coverability counterexample).
    """
    # unfloored, the unused gradient divides by a square that can underflow
    with np.errstate(divide="ignore", invalid="ignore"):
        return _di(batch, mean_floor)[0]


def const_dp_multi(batch: MultiGroupBatch) -> float:
    """Sum over groups j of the one-vs-rest demographic-parity gap."""
    return _dp_multi(batch)[0]


def cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy -y log p - (1-y) log(1-p)."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError("p and y must have equal length")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def q_mean(batch: Batch) -> float:
    """Batch q-mean loss: sqrt(u^2 + v^2) where u, v are the per-class
    soft error rates 1 - sum(y p)/sum(y) and 1 - sum((1-y)(1-p))/sum(1-y)."""
    return _qmean(batch)[0]


# A term's value on one batch together with its (sub)gradient in p
Terms = Callable[[Batch], tuple[float, np.ndarray]]


class Objective(NamedTuple):
    """A performance loss: its value and gradient in p on one batch, and
    whether every training batch must hold both label classes."""

    value_and_grad: Terms
    needs_classes: bool


class Constraint(NamedTuple):
    """A fairness constraint: its value and gradient in p on one batch,
    the relaxation parameter it takes ('epsilon' or 'p_percent'), and the
    MetricsReport field a sweep reports for it."""

    value_and_grad: Terms
    param: str
    metric: str


# Keyed by the config and CLI name.
CONSTRAINTS = {
    "dp": Constraint(_dp, "epsilon", "dp_soft"),
    "eo-sum": Constraint(_eo_sum, "epsilon", "eo_sum_soft"),
    "eo-max": Constraint(_eo_max, "epsilon", "eo_max_soft"),
    "di": Constraint(_di, "p_percent", "p_percent"),
}

OBJECTIVES = {
    "ce": Objective(_ce, False),
    "qmean": Objective(_qmean, True),
}


def _constraint(name: str) -> Constraint:
    if name not in CONSTRAINTS:
        raise ParameterError(f"unknown constraint {name!r}")
    return CONSTRAINTS[name]


def slack(constraint: str, value: float | None) -> float:
    """The slack subtracted from ``constraint``'s value in the constraint
    loss, given its relaxation ``value``: a finite epsilon >= 0 is the
    slack itself, and a p_percent in (0, 100] enters as -p_percent/100.
    The constraint's table entry says which of the two ``value`` is."""
    if _constraint(constraint).param == "p_percent":
        if value is None or not 0.0 < value <= 100.0:  # NaN fails too
            raise ParameterError(f"{constraint} requires p_percent in (0, 100]")
        return -value / 100.0
    if value is None or not 0.0 <= value < math.inf:
        raise ParameterError(f"{constraint} requires a finite epsilon >= 0")
    return value


def constraint_value(batch: Batch, constraint: str) -> float:
    """The raw value of the named constraint on a binary-attribute batch."""
    return _constraint(constraint).value_and_grad(batch)[0]


def grad_wrt_p(kind: str, batch: Batch) -> np.ndarray:
    """Exact (sub)gradient of a constraint or loss in the probabilities.

    ``kind`` is a name in CONSTRAINTS or OBJECTIVES. At |.| kinks the
    subgradient 0 is returned; at min/max ties the first branch is
    differentiated.
    """
    entry = CONSTRAINTS.get(kind) or OBJECTIVES.get(kind)
    if entry is None:
        raise ParameterError(f"unknown gradient kind {kind!r}")
    return entry.value_and_grad(batch)[1]
