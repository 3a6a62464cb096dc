"""Post-hoc fairness/accuracy metrics, covering-number generalization
bounds, and the disparate-impact non-coverability counterexample.

Soft fairness gaps are averaged over stratified batches of the
evaluation set (the multi-batch empirical form). They come from one
stacked pass: the batches form a (B, S) index matrix, and each batch's
gaps are row sums over it, taken a bounded number of batches at a time;
the whole set's probabilities and labels are validated once. Hard
metrics come from 0.5-thresholded predictions over the whole set, which
is forwarded in near-equal row blocks: each block's rows are densified
and run through the hidden layers a fixed-size sub-block at a time, and
its output layer in one call, through buffers allocated once, so that
only one sub-block's dense rows and first-layer activations and one
block's second-layer activations are alive at a time. The bound
calculator works in log space: raw covering numbers overflow for
any realistic parameter count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fairloss
from .data import Dataset, epoch_batches
from .errors import DataError, ParameterError
from .fairloss import Batch
# forward is no longer called here, but perfbench's traced runs wrap it
# under this module's name
from .model import (MlpParams, forward, hidden_layers,
                    output_layer, predict_hard)
from .numcore import Rng

RATE_FLOOR = 1e-7
# Most rows one output-layer call takes. A larger set is split into
# near-equal blocks of more than EVAL_ROWS / 2 rows, not fixed blocks and
# a short tail: OpenBLAS 0.3.31 takes its small-matrix kernel, which
# rounds differently, on calls of M * N * K <= SMALL_GEMM, so the h2 -> 2
# output matmul must not run on blocks of at most 10^6 / (2 * h2) rows
# (10,000 at h2 = 50). For h2 >= 31 every block thus rounds its output
# layer as one whole-set call would; the hidden layers' matmuls still
# round with the call's row count: at 1 BLAS thread on the audit-200k
# input, the blocked p equalled one whole-set forward on every row at
# h1 = 100, h2 = 50, but at h1 = 300, h2 = 200 differed in 2 of the
# first 70,001 rows.
EVAL_ROWS = 32768
# Rows of one hidden-layer call: each block is cut from its first row
# into SUB_ROWS-row sub-blocks, the last one taking the remainder, so a
# block's dense input and a1 are never alive whole. 1536 is a multiple
# of the 192-row dgemm panel of OpenBLAS 0.3.31's SkylakeX kernels, and
# of 256 and 512, so at one BLAS thread every sub-block gives a1 and a2
# bit for bit as one call over the block does (also on the Haswell,
# Sandybridge and SapphireRapids kernels; 1024- and 2048-row sub-blocks
# did not at h1 = 300, h2 = 200). With more threads OpenBLAS rounds a
# wide network's call by its row count whatever the sub-block size. A
# network so narrow that a SUB_ROWS-row hidden matmul is a small-matrix
# call keeps one hidden-layer call per block.
SUB_ROWS = 1536
SMALL_GEMM = 10 ** 6
# Most gathered cells the soft-metric pass holds at once: the (B, S)
# batch index matrix is taken in chunks of whole batches, so the pass
# allocates no float array as large as the evaluation set.
GATHER_CELLS = 65536


@dataclass
class MetricsReport:
    """Fairness and accuracy summary of one model on one dataset."""

    accuracy: float
    dp_soft: float
    dp_hard: float
    fpr_by_group: dict
    fnr_by_group: dict
    eo_sum_soft: float
    eo_max_soft: float
    di_ratio: float
    p_percent: float
    q_mean: float
    n: int
    n_group1: int
    n_group0: int


def _conditional_rate(pred: np.ndarray, cond: np.ndarray) -> float:
    n = cond.sum()
    if n == 0:
        raise DataError("empty conditioning cell in evaluation")
    return float(pred[cond].sum() / n)


def _soft_terms(whole: Batch, idx: np.ndarray) -> np.ndarray:
    """Rows dp, fpr, fnr and q-mean of the batches ``whole`` takes
    through the (k, S) index matrix ``idx``, one column per batch. Each
    value is bit for bit the fairloss term on a ``Batch`` of that batch's
    rows: the same products, each row summed along axis 1 (the pairwise
    sum one batch's ``.sum()`` takes), and the same divisions."""
    p, a, y = whole.p[idx], whole.a[idx], whole.y[idx]
    not_a, not_y, miss = 1.0 - a, 1.0 - y, 1.0 - p
    n1, n0 = a.sum(axis=1), not_a.sum(axis=1)

    def gap(values):  # _Split.means over the groups, then |m1 - m0|
        return np.abs((values * a).sum(axis=1) / n1
                      - (values * not_a).sum(axis=1) / n0)

    u = 1.0 - (y * p).sum(axis=1) / y.sum(axis=1)
    v = 1.0 - (not_y * miss).sum(axis=1) / not_y.sum(axis=1)
    return np.stack([gap(p), gap(p * not_y), gap(miss * y),
                     np.sqrt(u * u + v * v)])


def _probabilities(params: MlpParams, dataset: Dataset) -> np.ndarray:
    """p of every row, forwarded in near-equal row blocks. Each block's
    sub-blocks are densified into the leading rows of one input buffer
    and run through the hidden layers into one a1 buffer and the block's
    rows of one a2 buffer; the block's output layer then writes its p in
    place into the result. The buffers are freed on return."""
    d, h1, h2 = params.dims
    blocks = np.array_split(np.arange(dataset.n), -(-dataset.n // EVAL_ROWS))
    big = blocks[0].size  # the first block is the largest
    step = SUB_ROWS if SUB_ROWS * h1 * min(d, h2) > SMALL_GEMM else big
    x = np.empty((min(big, 2 * step - 1), d))
    a1 = np.empty((x.shape[0], h1))
    a2, probs = np.empty((big, h2)), np.empty((big, 2))
    p = np.empty(dataset.n)
    for rows in blocks:
        m, lo = rows.size, rows[0]
        k = max(1, m // step)  # the last sub-block takes the remainder
        cuts = [*range(0, k * step, step), m]
        for i, j in zip(cuts, cuts[1:]):
            hidden_layers(params, dataset.densify(rows[i:j], x[:j - i]),
                          a1[:j - i], a2[i:j])
        output_layer(params, a2[:m], probs[:m], p[lo:lo + m])
    return p


def evaluate(params: MlpParams, dataset: Dataset, S: int,
             seed: int = 0) -> MetricsReport:
    """Full metrics report; deterministic given (params, dataset, S, seed).

    ``S`` is the batch size for the soft multi-batch gap estimates; it is
    clamped to the dataset size, so small evaluation sets degrade to a
    single whole-set batch.
    """
    a, y = dataset.a, dataset.y
    if a.sum() < 1 or (1 - a).sum() < 1:
        raise DataError("evaluation set must contain both sensitive groups")
    if y.sum() < 1 or (1 - y).sum() < 1:
        raise DataError("evaluation set must contain both label classes")

    p = _probabilities(params, dataset)
    yhat = predict_hard(p)

    s_eff = min(S, dataset.n)
    batches = epoch_batches(a, y, s_eff, Rng(seed), need_classes=True)
    # every row lands in some audit batch, so validating the whole set
    # checks every batch's rows
    whole = Batch(p, a, y)
    per = max(1, GATHER_CELLS // s_eff)
    dp, fpr, fnr, q = np.concatenate(
        [_soft_terms(whole, np.stack(batches[i:i + per]))
         for i in range(0, len(batches), per)], axis=1)

    g1, g0 = a == 1, a == 0
    rate1, rate0 = _conditional_rate(yhat, g1), _conditional_rate(yhat, g0)
    pos1, pos0 = max(rate1, RATE_FLOOR), max(rate0, RATE_FLOOR)
    di_ratio = min(pos1 / pos0, pos0 / pos1)

    fpr_by_group, fnr_by_group = {}, {}
    for g, mask in ((1, g1), (0, g0)):
        fpr_by_group[g] = _conditional_rate(yhat, mask & (y == 0))
        fnr_by_group[g] = _conditional_rate(1 - yhat, mask & (y == 1))

    return MetricsReport(
        accuracy=float((yhat == y).mean()),
        dp_soft=float(np.mean(dp)),
        dp_hard=abs(rate1 - rate0),
        fpr_by_group=fpr_by_group,
        fnr_by_group=fnr_by_group,
        eo_sum_soft=float(np.mean(fpr + fnr)),
        eo_max_soft=float(np.mean(np.maximum(fpr, fnr))),
        di_ratio=float(di_ratio),
        p_percent=float(100.0 * di_ratio),
        q_mean=float(np.mean(q)),
        n=dataset.n,
        n_group1=int(g1.sum()),
        n_group0=int(g0.sum()),
    )


# ---------------------------------------------------------------------------
# Generalization bound calculator
# ---------------------------------------------------------------------------

@dataclass
class BoundInputs:
    """Network capacity description for the bound formulas.

    R hidden layers, D parameters, per-layer l1 weight bound W, output
    bound L, batch size S, batch count B, confidence delta, constant C,
    and the covering radius divisor ('S' or '2S').
    """

    R: int
    D: int
    W: float
    L: float
    S: int
    B: int
    delta: float = 0.1
    C: float = 4.0
    radius_divisor: str = "S"

    def __post_init__(self):
        for name in ("R", "D", "W", "L", "S", "B", "C"):
            try:
                ok = 0 < float(getattr(self, name)) < math.inf  # NaN fails too
            except OverflowError:  # an int too large for the float formulas
                ok = False
            if not ok:
                raise ParameterError(f"{name} must be positive and finite")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError("delta must be in (0, 1)")
        if self.radius_divisor not in ("S", "2S"):
            raise ParameterError("radius_divisor must be 'S' or '2S'")

    @property
    def divisor_value(self) -> float:
        return float(self.S) if self.radius_divisor == "S" else 2.0 * self.S


def covering_number(inputs: BoundInputs, mu: float) -> float:
    """log of the network-class covering count max(1, ceil(inner))^D,
    inner = D*L*div*(2W)^(R+1)/mu, where div is S or 2S as
    ``radius_divisor`` says (the ball radius is mu / div); an underflowed
    (2W)^(R+1) counts 1. An inner past the float range is summed in log
    space, where the ceil no longer moves the value."""
    if mu <= 0:
        raise ParameterError("mu must be > 0")
    try:
        inner = (inputs.D * inputs.L * inputs.divisor_value
                 * (2.0 * inputs.W) ** (inputs.R + 1) / mu)
    except OverflowError:  # (2W)^(R+1) alone leaves the float range
        inner = math.inf
    if inner < math.inf:
        return inputs.D * math.log(max(1, math.ceil(inner)))
    return inputs.D * (math.log(inputs.D * inputs.L * inputs.divisor_value / mu)
                       + (inputs.R + 1) * math.log(2.0 * inputs.W))


@dataclass
class OmegaResult:
    """Complexity term mu + sqrt(2 log N / B), closed form and grid min."""

    closed_form: float
    grid: float


def _omega_at(inputs: BoundInputs, mu: float) -> float:
    return mu + math.sqrt(2.0 * covering_number(inputs, mu) / inputs.B)


def omega(inputs: BoundInputs) -> OmegaResult:
    """Evaluate the complexity term at mu = 1/sqrt(B) and minimized over
    400 log-spaced mu values in [1e-6, 1]; the minimum starts from the
    closed-form point, so grid <= closed_form."""
    closed = best = _omega_at(inputs, 1.0 / math.sqrt(inputs.B))
    for mu in np.logspace(-6.0, 0.0, 400).tolist():
        val = _omega_at(inputs, mu)
        if val < best:
            best = val
    return OmegaResult(closed_form=closed, grid=best)


def full_bound(empirical_mean: float, inputs: BoundInputs) -> float:
    """Upper bound on the expected constraint value:
    empirical mean + 2*Omega + C*sqrt(log(1/delta)/B), with Omega at the
    closed-form mu = 1/sqrt(B)."""
    om = _omega_at(inputs, 1.0 / math.sqrt(inputs.B))
    slack = inputs.C * math.sqrt(math.log(1.0 / inputs.delta) / inputs.B)
    return float(empirical_mean + 2.0 * om + slack)


def bound_sweep(inputs: BoundInputs, b_values,
                empirical_mean: float = 0.0) -> list[tuple]:
    """Rows (B, omega_closed, omega_grid, full_bound), one per B value."""
    rows = []
    for b in b_values:
        bi = replace(inputs, B=int(b))
        om = omega(bi)
        rows.append((bi.B, om.closed_form, om.grid,
                     full_bound(empirical_mean, bi)))
    return rows


# ---------------------------------------------------------------------------
# Disparate-impact non-coverability counterexample
# ---------------------------------------------------------------------------

@dataclass
class CounterexamplePair:
    """Two classifiers within sup-distance mu whose DI values differ by
    a constant 0.5 no matter how small mu is."""

    a: np.ndarray
    h: np.ndarray
    h_hat: np.ndarray
    mu: float
    sup_distance: float
    const_h: float
    const_h_hat: float
    gap: float


def di_counterexample(mu: float) -> CounterexamplePair:
    """Emit h = (t, t) and h_hat = (t, 2t) on one protected / one
    unprotected example, with t = min(mu, 0.25): the sup-distance is t
    but the (unfloored) DI values are -1 and -0.5, a gap of 0.5 for
    every mu > 0. This is why no sup-norm cover of the DI constraint
    class can exist."""
    if not mu > 0:  # also rejects nan
        raise ParameterError("mu must be > 0")
    t = min(mu, 0.25)
    a = np.asarray([1, 0])
    h = np.asarray([t, t])
    h_hat = np.asarray([t, 2.0 * t])
    y = np.zeros(2, dtype=np.int64)
    const_h = fairloss.const_di(Batch(h, a, y), mean_floor=0.0)
    const_h_hat = fairloss.const_di(Batch(h_hat, a, y), mean_floor=0.0)
    return CounterexamplePair(
        a=a, h=h, h_hat=h_hat, mu=mu,
        sup_distance=float(np.max(np.abs(h - h_hat))),
        const_h=const_h, const_h_hat=const_h_hat,
        gap=abs(const_h - const_h_hat),
    )
