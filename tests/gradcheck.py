"""Finite-difference harness for the full composite loss: objective plus
lambda times constraint, differentiated through the network.

Instances are regenerated until every kink argument (absolute values,
min/max ties, ReLU pre-activations, probability clamps) is safely away
from zero, since central differences are meaningless on a kink.
"""

import numpy as np

from fairmlp import fairloss
from fairmlp.fairloss import Batch
from fairmlp.model import MlpParams, backward, forward, init_params
from fairmlp.numcore import Rng
from conftest import two_groups


def _table(name: str, value: float):
    """A CONSTRAINTS entry's value-and-gradient term and its slack at
    ``value``, its epsilon or p_percent."""
    return fairloss.CONSTRAINTS[name].value_and_grad, fairloss.slack(name, value)


# each checked kind: its value-and-gradient term on one batch and its
# slack; the m-group term, which no table entry holds, runs on 2 groups
KINDS = {
    "dp": _table("dp", 0.05),
    "eo_sum": _table("eo-sum", 0.05),
    "eo_max": _table("eo-max", 0.05),
    "di": _table("di", 80.0),
    "dp_multi": (lambda b: fairloss._dp_multi(two_groups(b)), 0.05),
}

ALL_KINDS = tuple(KINDS)
ALL_OBJECTIVES = ("ce", "qmean")


def _kink_margins(p, a, y):
    af = a.astype(float)
    yf = y.astype(float)
    n1, n0 = af.sum(), (1 - af).sum()
    m1, m0 = (p * af).sum() / n1, (p * (1 - af)).sum() / n0
    fpr_in = (p * (1 - yf) * af).sum() / n1 - (p * (1 - yf) * (1 - af)).sum() / n0
    fnr_in = ((1 - p) * yf * af).sum() / n1 - ((1 - p) * yf * (1 - af)).sum() / n0
    r = m1 / m0
    return [abs(m1 - m0), abs(fpr_in), abs(fnr_in),
            abs(abs(fpr_in) - abs(fnr_in)), abs(r - 1.0)]


def make_instance(seed, s_min=4, s_max=32, d=3, h1=4, h2=3):
    """(params, x, a, y, lam) with all kink arguments clear of zero."""
    for attempt in range(200):
        rng = Rng(seed * 1000 + attempt)
        size = int(rng.integers(s_min, s_max + 1))
        params = init_params(d, h1, h2, rng)
        params.b1 += 0.05
        params.b2 += 0.05
        x = rng.normal(0.0, 1.0, size=(size, d))
        a = rng.integers(0, 2, size)
        y = rng.integers(0, 2, size)
        if not (0 < a.sum() < size and 0 < y.sum() < size):
            continue
        z1 = x @ params.w1 + params.b1
        z2 = np.maximum(z1, 0.0) @ params.w2 + params.b2
        if np.abs(z1).min() < 1e-4 or np.abs(z2).min() < 1e-4:
            continue
        trace = forward(params, x)
        if trace.p.min() < 1e-3 or trace.p.max() > 1.0 - 1e-3:
            continue
        if min(_kink_margins(trace.p, a, y)) < 1e-5:
            continue
        lam = float(rng.uniform(0.2, 1.5))
        return params, x, a, y, lam
    raise RuntimeError("could not draw a kink-free instance")


def composite_loss(theta, dims, x, a, y, lam, constraint: fairloss.Terms,
                   slack: float, objective: str) -> float:
    params = MlpParams.unflatten(theta, *dims)
    p = forward(params, x).p
    b = Batch(p, a, y)
    if objective == "ce":
        obj = fairloss.cross_entropy(p, y)
    else:
        obj = fairloss.q_mean(b)
    return obj + lam * (constraint(b)[0] - slack)


def composite_grad(params, x, a, y, lam, constraint: fairloss.Terms,
                   objective: str) -> np.ndarray:
    trace = forward(params, x)
    b = Batch(trace.p, a, y)
    if objective == "ce":
        dobj = fairloss.grad_wrt_p("ce", b)
    else:
        dobj = fairloss.grad_wrt_p("qmean", b)
    dL_dp = dobj + lam * constraint(b)[1]
    return backward(params, trace, dL_dp).flatten()


def max_rel_error(kind_name: str, objective: str, seed: int,
                  h: float = 1e-5) -> float:
    """Analytic vs central-difference gradient for one random instance."""
    constraint, slack = KINDS[kind_name]
    params, x, a, y, lam = make_instance(seed)
    dims = params.dims
    theta = params.flatten()
    analytic = composite_grad(params, x, a, y, lam, constraint, objective)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (composite_loss(up, dims, x, a, y, lam, constraint, slack,
                                objective)
                 - composite_loss(down, dims, x, a, y, lam, constraint, slack,
                                  objective)) / (2 * h)
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
    return float((np.abs(analytic - fd) / scale).max())
