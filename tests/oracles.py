"""Naive per-element loop implementations of every batch quantity.

These are intentionally written with plain Python loops and no shared
code with the package: they are the independent reference the vectorized
implementations are checked against.
"""

import math

import numpy as np

from fairmlp.errors import DataError, ParameterError
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


def loop_qmean(p, y, include_class_factor=False):
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
    bracket = u * u + v * v
    if include_class_factor:
        bracket /= 2.0
    return math.sqrt(bracket)


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


# The set-based batching that data.epoch_batches replaced, kept verbatim
# but for its name: the vectorised version must return the same batches,
# make the same random draws and raise the same errors.
def loop_epoch_batches(a: np.ndarray, y: np.ndarray, size: int, rng: Rng,
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
        order = (int(r) for r in rng.shuffled(cell))
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

    pool = rng.shuffled(np.where(~used)[0])
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
                fill = next(int(r) for r in rng.shuffled(cell)
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
