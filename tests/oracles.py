"""Naive per-element loop implementations of every batch quantity, the
separate value and gradient functions of each fairness term, the
audit's per-batch loop over its soft metrics, the loop versions of the
ingest, splits and batching, and the network passes that kept the ReLU
pre-activations, all of which the package replaced.

These are intentionally written with plain Python loops and no shared
code with the package beyond its containers and errors: they are the
independent reference the vectorized implementations are checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from fairmlp.data import Dataset, Encoder, SchemaConfig
from fairmlp.errors import (DataError, DegenerateBatchError, ParameterError,
                            SchemaError, ShapeError)
from fairmlp.fairloss import (Batch, MultiGroupBatch, _Split, const_dp,
                              const_eo, q_mean)
from fairmlp.model import MlpParams
from fairmlp.numcore import Rng


def loop_dp(p, a):
    s1 = n1 = s0 = n0 = 0.0
    for pi, ai in zip(p, a):
        if ai == 1:
            s1 += pi
            n1 += 1
        else:
            s0 += pi
            n0 += 1
    return abs(s1 / n1 - s0 / n0)


def loop_fpr(p, a, y):
    s1 = n1 = s0 = n0 = 0.0
    for pi, ai, yi in zip(p, a, y):
        if ai == 1:
            s1 += pi * (1 - yi)
            n1 += 1
        else:
            s0 += pi * (1 - yi)
            n0 += 1
    return abs(s1 / n1 - s0 / n0)


def loop_fnr(p, a, y):
    s1 = n1 = s0 = n0 = 0.0
    for pi, ai, yi in zip(p, a, y):
        if ai == 1:
            s1 += (1 - pi) * yi
            n1 += 1
        else:
            s0 += (1 - pi) * yi
            n0 += 1
    return abs(s1 / n1 - s0 / n0)


def loop_eo_sum(p, a, y):
    return loop_fpr(p, a, y) + loop_fnr(p, a, y)


def loop_eo_max(p, a, y):
    return max(loop_fpr(p, a, y), loop_fnr(p, a, y))


def loop_di(p, a, floor=1e-7):
    s1 = n1 = s0 = n0 = 0.0
    for pi, ai in zip(p, a):
        if ai == 1:
            s1 += pi
            n1 += 1
        else:
            s0 += pi
            n0 += 1
    m1, m0 = s1 / n1, s0 / n0
    if floor > 0:
        r = m1 / max(m0, floor)
        r_inv = m0 / max(m1, floor)
    else:
        r = m1 / m0
        r_inv = m0 / m1
    return -min(r, r_inv)


def loop_qmean(p, y):
    sp = np_ = sn = nn = 0.0
    for pi, yi in zip(p, y):
        if yi == 1:
            sp += pi
            np_ += 1
        else:
            sn += 1 - pi
            nn += 1
    u = 1.0 - sp / np_
    v = 1.0 - sn / nn
    return math.sqrt(u * u + v * v)


def loop_dp_multi(p, group, m):
    total = 0.0
    for j in range(m):
        a = [1 if g == j else 0 for g in group]
        total += loop_dp(p, a)
    return total


def loop_cross_entropy(p, y, clamp=1e-7):
    total = 0.0
    for pi, yi in zip(p, y):
        pc = min(max(pi, clamp), 1.0 - clamp)
        total += -yi * math.log(pc) - (1 - yi) * math.log(1.0 - pc)
    return total / len(p)


def loop_accuracy(yhat, y):
    return sum(1 for h, t in zip(yhat, y) if h == t) / len(y)


def loop_rate(pred, mask):
    num = sum(v for v, m in zip(pred, mask) if m)
    den = sum(1 for m in mask if m)
    return num / den


# The separate value and gradient functions that fairloss's one
# (value, gradient) function per term replaced, kept verbatim but for
# their names: each term must give the same value and gradient bits and
# raise the same errors.
TWIN_PROB_CLAMP = 1e-7
TWIN_DI_MEAN_FLOOR = 1e-7


def twin_const_dp(batch: Batch) -> float:
    """Demographic-parity gap: |mean p over a=1 - mean p over a=0|."""
    m1, m0 = batch.groups.means(batch.p)
    return abs(m1 - m0)


def twin_grad_dp(batch: Batch) -> np.ndarray:
    m1, m0 = batch.groups.means(batch.p)
    return np.sign(m1 - m0) * batch.groups.direction


def twin_fpr_gap(batch: Batch) -> float:
    """|sum p(1-y)a / sum a  -  sum p(1-y)(1-a) / sum (1-a)|.

    Denominators are full group sizes, not negative-label counts.
    """
    m1, m0 = batch.groups.means(batch.p * batch.classes.zeros)
    return abs(m1 - m0)


def twin_fnr_gap(batch: Batch) -> float:
    """|sum (1-p)y a / sum a  -  sum (1-p)y(1-a) / sum (1-a)|."""
    m1, m0 = batch.groups.means((1.0 - batch.p) * batch.y)
    return abs(m1 - m0)


def twin_const_eo(batch: Batch, variant: str = "sum") -> float:
    """Equalized-odds constraint: fpr+fnr ('sum') or max(fpr, fnr) ('max')."""
    fpr = twin_fpr_gap(batch)
    fnr = twin_fnr_gap(batch)
    if variant == "sum":
        return fpr + fnr
    if variant == "max":
        return max(fpr, fnr)
    raise ParameterError(f"unknown EO variant {variant!r}")


def twin_eo_grads(batch: Batch) -> tuple[np.ndarray, np.ndarray, float, float]:
    # gradients of the FPR and FNR gaps, then the two gap values
    p, y, not_y = batch.p, batch.y, batch.classes.zeros
    d = batch.groups.direction
    m1f, m0f = batch.groups.means(p * not_y)
    g_fpr = np.sign(m1f - m0f) * not_y * d
    m1n, m0n = batch.groups.means((1.0 - p) * y)
    g_fnr = np.sign(m1n - m0n) * (-y) * d
    return g_fpr, g_fnr, abs(m1f - m0f), abs(m1n - m0n)


def twin_grad_eo_sum(batch: Batch) -> np.ndarray:
    g_fpr, g_fnr, _, _ = twin_eo_grads(batch)
    return g_fpr + g_fnr


def twin_grad_eo_max(batch: Batch) -> np.ndarray:
    g_fpr, g_fnr, fpr, fnr = twin_eo_grads(batch)
    return g_fpr if fpr >= fnr else g_fnr


def twin_const_di(batch: Batch, mean_floor: float = TWIN_DI_MEAN_FLOOR) -> float:
    """Disparate-impact constraint -min(r, 1/r) with r the ratio of group
    mean probabilities (a=1 over a=0); equals -1 iff the rates match.

    ``mean_floor`` clamps each ratio denominator; pass 0 for the exact
    unclamped ratio (used by the non-coverability counterexample).
    """
    m1, m0 = batch.groups.means(batch.p)
    r = m1 / max(m0, mean_floor) if mean_floor > 0 else m1 / m0
    r_inv = m0 / max(m1, mean_floor) if mean_floor > 0 else m0 / m1
    return -min(r, r_inv)


def twin_grad_di(batch: Batch) -> np.ndarray:
    g = batch.groups
    m1, m0 = g.means(batch.p)
    m1f = max(m1, TWIN_DI_MEAN_FLOOR)
    m0f = max(m0, TWIN_DI_MEAN_FLOOR)
    dm1 = g.ones / g.n_ones
    dm0 = g.zeros / g.n_zeros
    # derivative of a floored denominator is zero where the floor binds
    dm1f = dm1 if m1 > TWIN_DI_MEAN_FLOOR else np.zeros_like(dm1)
    dm0f = dm0 if m0 > TWIN_DI_MEAN_FLOOR else np.zeros_like(dm0)
    r = m1 / m0f
    r_inv = m0 / m1f
    if r <= r_inv:  # first branch: const = -m1/m0f
        return -(dm1 * m0f - m1 * dm0f) / (m0f * m0f)
    return -(dm0 * m1f - m0 * dm1f) / (m1f * m1f)


def twin_const_dp_multi(batch: MultiGroupBatch) -> float:
    """Sum over groups j of the one-vs-rest demographic-parity gap."""
    total = 0.0
    for j in range(batch.m):
        m1, m0 = _Split((batch.group == j).astype(np.float64)).means(batch.p)
        total += abs(m1 - m0)
    return total


def twin_grad_dp_multi_wrt_p(batch: MultiGroupBatch) -> np.ndarray:
    """Gradient of the m-group summed one-vs-rest parity constraint."""
    g = np.zeros_like(batch.p)
    for j in range(batch.m):
        split = _Split((batch.group == j).astype(np.float64))
        m1, m0 = split.means(batch.p)
        g += np.sign(m1 - m0) * split.direction
    return g


def twin_cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy -y log p - (1-y) log(1-p)."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError("p and y must have equal length")
    p = np.clip(p, TWIN_PROB_CLAMP, 1.0 - TWIN_PROB_CLAMP)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def twin_grad_ce(batch: Batch) -> np.ndarray:
    # p from forward() already lies in the clamp band, where the clip in
    # cross_entropy is the identity
    p, y = batch.p, batch.y
    return (-y / p + (1.0 - y) / (1.0 - p)) / p.shape[0]


def twin_q_mean(batch: Batch, include_class_factor: bool = False) -> float:
    """Batch q-mean loss: sqrt(u^2 + v^2) where u, v are the per-class
    soft error rates 1 - sum(y p)/sum(y) and 1 - sum((1-y)(1-p))/sum(1-y).

    With ``include_class_factor`` the bracket is halved (the 1/m-class
    normalization), which scales the result by exactly 1/sqrt(2).
    """
    u, v = twin_qmean_terms(batch)
    return twin_qmean_from_terms(u, v, include_class_factor)


def twin_qmean_from_terms(u: float, v: float,
                          include_class_factor: bool = False) -> float:
    bracket = u * u + v * v
    if include_class_factor:
        bracket /= 2.0
    return float(np.sqrt(bracket))


def twin_qmean_terms(batch: Batch) -> tuple[float, float]:
    c = batch.classes
    if c.n_ones < 1 or c.n_zeros < 1:
        raise DegenerateBatchError("q-mean needs both classes in the batch")
    u = 1.0 - float((batch.y * batch.p).sum() / c.n_ones)
    v = 1.0 - float((c.zeros * (1.0 - batch.p)).sum() / c.n_zeros)
    return u, v


def twin_grad_qmean(batch: Batch) -> np.ndarray:
    y = batch.y
    u, v = twin_qmean_terms(batch)
    q = twin_qmean_from_terms(u, v)
    if q == 0.0:
        return np.zeros_like(batch.p)
    du = -y / batch.classes.n_ones
    dv = batch.classes.zeros / batch.classes.n_zeros
    return (u * du + v * dv) / q


# (value, gradient) of every CONSTRAINTS and OBJECTIVES name, as the
# tables paired them
TWIN_TERMS = {
    "dp": (twin_const_dp, twin_grad_dp),
    "eo-sum": (lambda b: twin_const_eo(b, "sum"), twin_grad_eo_sum),
    "eo-max": (lambda b: twin_const_eo(b, "max"), twin_grad_eo_max),
    "di": (twin_const_di, twin_grad_di),
    "ce": (lambda b: twin_cross_entropy(b.p, b.y), twin_grad_ce),
    "qmean": (lambda b: twin_q_mean(b), twin_grad_qmean),
}


# The per-batch loop that audit.evaluate's stacked pass replaced: one
# Batch per audit batch, each soft metric read through the public term
# functions and averaged over the batches.
def loop_soft_metrics(p, a, y, batches) -> tuple[float, float, float, float]:
    """(dp_soft, eo_sum_soft, eo_max_soft, q_mean) over ``batches``."""
    dp, eo_sum, eo_max, q = [], [], [], []
    for idx in batches:
        b = Batch(p[idx], a[idx], y[idx])
        dp.append(const_dp(b))
        eo_sum.append(const_eo(b, "sum"))
        eo_max.append(const_eo(b, "max"))
        q.append(q_mean(b))
    return tuple(float(np.mean(v)) for v in (dp, eo_sum, eo_max, q))


# The set-based batching that data.epoch_batches replaced, kept as it
# was but for its name and numpy's ``permutation`` in place of the old
# shuffled copies, which drew the same way: the vectorised version must
# return the same batches, make the same random draws and raise the same
# errors.
def loop_epoch_batches(a: np.ndarray, y: np.ndarray, size: int,
                       rng: np.random.Generator,
                       need_classes: bool = False) -> list[np.ndarray]:
    """One epoch of exactly-``size`` index batches covering all rows.

    Every batch is guaranteed to intersect each required cell: both
    sensitive groups, and both label classes with ``need_classes``. Full
    batches are seeded with one fresh row per cell and then filled in
    shuffled order; when the row count is not a multiple of ``size``,
    the final batch takes the leftovers and is topped up by resampling
    (without replacement) rows already placed in earlier batches, with
    missing cells refilled first.
    """
    n = a.shape[0]
    if size < 2:
        raise ParameterError(f"batch size must be >= 2, got {size}")
    if size > n:
        raise DataError(f"batch size {size} exceeds dataset size {n}")
    n_batches = -(-n // size)
    divisible = n % size == 0
    n_seeded = n_batches if divisible else n_batches - 1
    required = [np.where(a == 1)[0], np.where(a == 0)[0]]
    if need_classes:
        required += [np.where(y == 1)[0], np.where(y == 0)[0]]
    for cell in required:
        if cell.size == 0:
            raise DataError("dataset lacks a group/class the constraint needs")
        if cell.size < max(n_seeded, 1):
            raise DataError(
                f"a required cell has {cell.size} rows but {n_batches} batches "
                "are needed; reduce the batch count or rebalance the data")

    batches: list[list[int]] = [[] for _ in range(n_batches)]
    batch_sets: list[set] = [set() for _ in range(n_batches)]
    used = np.zeros(n, dtype=bool)
    # give each full batch one row from every required cell it does not
    # already intersect (cells overlap, so a row can cover several)
    for cell in required:
        cell_set = {int(r) for r in cell}
        order = (int(r) for r in rng.permutation(cell))
        for b in range(n_seeded):
            if batch_sets[b] & cell_set:
                continue
            row = next((r for r in order if not used[r]), None)
            if row is None:
                raise DataError(
                    "stratification cells overlap too much to seed batches")
            batches[b].append(row)
            batch_sets[b].add(row)
            used[row] = True
            if len(batches[b]) > size:
                raise DataError(
                    f"batch size {size} cannot hold the required cells")

    pool = rng.permutation(np.where(~used)[0])
    at = 0
    for b in range(n_seeded):
        take = size - len(batches[b])
        batches[b].extend(int(r) for r in pool[at:at + take])
        at += take

    if not divisible:
        # leftovers start the final batch; resample the rest from earlier rows
        final = [int(r) for r in pool[at:]]
        in_final = set(final)
        for cell in required:
            if not any(int(r) in in_final for r in cell):
                fill = next(int(r) for r in rng.permutation(cell)
                            if int(r) not in in_final)
                final.append(fill)
                in_final.add(fill)
        short = size - len(final)
        if short < 0:
            raise DataError("dataset too small to stratify the final batch")
        if short > 0:
            earlier = {int(r) for b in batches[:-1] for r in b}
            candidates = np.asarray(sorted(earlier - in_final), dtype=np.int64)
            if candidates.size < short:
                raise DataError("dataset too small to fill the final batch")
            final.extend(int(r) for r in rng.choice(candidates, size=short,
                                                    replace=False))
        batches[-1] = final
    return [np.asarray(b, dtype=np.int64) for b in batches]


# The row-based ingest that the columnar one replaced (data.load_csv,
# whose RowCodes hold each column's distinct values and one code per
# row, and data.encode), kept verbatim but for the names and the result
# type: the columnar encode, densified, must give the same bytes, the
# same encoder and the same errors.
@dataclass
class DenseDataset:
    """What the row-based encode returned: the dense (n, d) matrix."""

    X: np.ndarray
    a: np.ndarray
    y: np.ndarray
    encoder: Encoder


@dataclass
class RowTable:
    """Parsed CSV restricted to the schema's columns, missing rows dropped."""

    header: list[str]
    rows: list[list[str]]
    n_dropped: int

    def column(self, name: str) -> list[str]:
        j = self.header.index(name)
        return [row[j] for row in self.rows]


def _loop_numeric_column(table: RowTable, col: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in table.column(col)])
    except ValueError as exc:
        raise DataError(f"non-numeric value in column {col!r}: {exc}")


def loop_fit_encoder(table: RowTable, schema: SchemaConfig) -> Encoder:
    """Learn per-column statistics and vocabularies from a table."""
    if not table.rows:
        raise DataError("cannot fit an encoder on an empty table")
    enc = Encoder()
    for col in schema.numeric:
        values = _loop_numeric_column(table, col)
        enc.numeric_stats[col] = (float(values.mean()), float(values.std()))
        enc.feature_names.append(col)
    for col in schema.categorical:
        vocab = sorted(set(table.column(col)))
        enc.vocabulary[col] = vocab
        enc.feature_names.extend(f"{col}={v}" for v in vocab)
    return enc


def loop_encode(table: RowTable, schema: SchemaConfig,
           encoder: Encoder | None = None) -> DenseDataset:
    """Encode a table; fits an encoder from the table itself unless one
    (from the training split) is supplied."""
    if not table.rows:
        raise DataError("cannot encode an empty table")
    if encoder is None:
        encoder = loop_fit_encoder(table, schema)
    missing = ([c for c in schema.numeric if c not in encoder.numeric_stats]
               + [c for c in schema.categorical if c not in encoder.vocabulary])
    if missing:
        raise SchemaError(f"encoder does not cover schema columns {missing}")
    n = len(table.rows)
    blocks = []
    for col in schema.numeric:
        mean, std = encoder.numeric_stats[col]
        values = _loop_numeric_column(table, col)
        # zero-variance columns encode to all zeros
        z = (values - mean) / std if std > 0 else np.zeros(n)
        blocks.append(z.reshape(n, 1))
    for col in schema.categorical:
        vocab = encoder.vocabulary[col]
        pos = {v: j for j, v in enumerate(vocab)}
        block = np.zeros((n, len(vocab)))
        for i, v in enumerate(table.column(col)):
            j = pos.get(v)
            if j is not None:  # unseen category -> all-zero row
                block[i, j] = 1.0
        blocks.append(block)
    X = np.hstack(blocks) if blocks else np.zeros((n, 0))
    a, y = loop_extract_labels(table, schema)
    return DenseDataset(X=X, a=a, y=y, encoder=encoder)


def loop_extract_labels(table: RowTable, schema: SchemaConfig) -> tuple[np.ndarray, np.ndarray]:
    """(a, y) binary vectors straight from the raw cells, no encoding."""
    a = np.asarray([1 if v == schema.protected_value else 0
                    for v in table.column(schema.sensitive)], dtype=np.int8)
    y = np.asarray([1 if v == schema.positive_label else 0
                    for v in table.column(schema.label)], dtype=np.int8)
    return a, y


# The loop-based stratified splits that data.kfold and data.holdout_split
# replaced, kept verbatim but for the names: the vectorised versions must
# return the same folds and splits, draw the same shuffles and raise the
# same errors.
def _loop_joint_cells(a: np.ndarray, y: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    return {(ga, gy): np.where((a == ga) & (y == gy))[0]
            for ga in (0, 1) for gy in (0, 1)}


def loop_kfold(dataset: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint, exhaustive folds stratified by the joint (a, y) cell.

    Every nonempty cell must have at least k rows (so each fold receives
    one), which guarantees both groups and both classes in every fold.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    a, y = dataset.a, dataset.y
    if a.sum() < 1 or (1 - a).sum() < 1 or y.sum() < 1 or (1 - y).sum() < 1:
        raise DataError("dataset must contain both groups and both classes")
    cells = _loop_joint_cells(a, y)
    for cell, idx in cells.items():
        if 0 < idx.size < k:
            raise DataError(
                f"cell (a={cell[0]}, y={cell[1]}) has {idx.size} rows, needs >= {k}")
    rng = Rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cell in sorted(cells):
        order = rng.permutation(cells[cell])
        for pos, row in enumerate(order):
            folds[pos % k].append(int(row))
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


def loop_holdout_split(a: np.ndarray, y: np.ndarray, test_fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified (train_idx, test_idx) split by joint (a, y) cell. Takes
    the raw attribute and label vectors, so a split can be made before
    encoding."""
    if not (0.0 < test_fraction < 1.0):
        raise ParameterError("test_fraction must be in (0, 1)")
    if a.sum() < 1 or (1 - a).sum() < 1 or y.sum() < 1 or (1 - y).sum() < 1:
        raise DataError("dataset must contain both groups and both classes")
    rng = Rng(seed)
    test: list[int] = []
    cells = _loop_joint_cells(a, y)
    for cell in sorted(cells):
        idx = cells[cell]
        if idx.size == 0:
            continue
        if idx.size < 2:
            raise DataError(
                f"cell (a={cell[0]}, y={cell[1]}) needs >= 2 rows to split")
        order = rng.permutation(idx)
        n_test = max(1, int(round(idx.size * test_fraction)))
        n_test = min(n_test, idx.size - 1)  # keep at least one row in train
        test.extend(int(i) for i in order[:n_test])
    test_idx = np.asarray(sorted(test), dtype=np.int64)
    mask = np.ones(a.shape[0], dtype=bool)
    mask[test_idx] = False
    return np.where(mask)[0], test_idx


# The forward and backward passes that kept both ReLU pre-activations,
# kept verbatim but for their names and the trace's: masking on the
# activations must give the same probabilities, activations and
# gradient bits.
@dataclass
class TwinForwardTrace:
    """Per-layer activations kept for the backward pass."""

    x: np.ndarray        # (S, d) input
    z1: np.ndarray       # (S, h1) pre-activation
    a1: np.ndarray       # (S, h1) ReLU output
    z2: np.ndarray       # (S, h2)
    a2: np.ndarray       # (S, h2)
    probs: np.ndarray    # (S, 2) softmax rows, pre-clamp
    p: np.ndarray        # (S,) class-1 probability, clamped


def twin_forward(params: MlpParams, x: np.ndarray) -> TwinForwardTrace:
    """Forward pass over a batch; pure function of (params, x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ShapeError(
            f"input has shape {x.shape}, expected (S, {params.dims[0]})")
    z1 = x @ params.w1 + params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.w2 + params.b2
    a2 = np.maximum(z2, 0.0)
    logits = a2 @ params.w_out + params.b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    p = np.clip(probs[:, 1], TWIN_PROB_CLAMP, 1.0 - TWIN_PROB_CLAMP)
    return TwinForwardTrace(x=x, z1=z1, a1=a1, z2=z2, a2=a2, probs=probs, p=p)


def twin_backward(params: MlpParams, trace: TwinForwardTrace,
                  dL_dp: np.ndarray) -> MlpParams:
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
        (s1 < TWIN_PROB_CLAMP) | (s1 > 1.0 - TWIN_PROB_CLAMP), 0.0, dL_dp)
    # dp/dz = s1(1-s1) * [-1, +1] through the 2-way softmax
    dz_common = upstream * s1 * (1.0 - s1)
    dz_out = np.stack([-dz_common, dz_common], axis=1)

    g_w_out = trace.a2.T @ dz_out
    g_b_out = dz_out.sum(axis=0)
    da2 = dz_out @ params.w_out.T
    dz2 = da2 * (trace.z2 > 0.0)
    g_w2 = trace.a1.T @ dz2
    g_b2 = dz2.sum(axis=0)
    da1 = dz2 @ params.w2.T
    dz1 = da1 * (trace.z1 > 0.0)
    g_w1 = trace.x.T @ dz1
    g_b1 = dz1.sum(axis=0)
    return MlpParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2,
                     w_out=g_w_out, b_out=g_b_out)
