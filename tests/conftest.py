import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairmlp import data
from fairmlp.data import Dataset, Encoder
from fairmlp.fairloss import Batch, MultiGroupBatch

ADULT_ENV = "FAIRMLP_ADULT_CSV"

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, threads, one_cpu=False, script=None):
    """Run the fairmlp CLI (or ``script``) in a fresh interpreter with
    ``threads`` BLAS threads, on one usable CPU when ``one_cpu``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
    cpu = min(os.sched_getaffinity(0))
    args = (["-c", script, *argv] if script
            else ["-m", "fairmlp.cli", *argv])
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu
        else None, timeout=300)


def adult_csv_path():
    """Resolve the census CSV used by the full-scale acceptance runs."""
    candidate = os.environ.get(ADULT_ENV)
    if candidate and Path(candidate).exists():
        return Path(candidate)
    default = Path(__file__).resolve().parent.parent / "data" / "adult.csv"
    if default.exists():
        return default
    return None


def random_batch(rng: np.random.Generator, s_min=4, s_max=32, p_lo=0.05,
                 p_hi=0.95, need_classes=True) -> Batch:
    """Random batch guaranteed to contain both groups (and classes)."""
    size = int(rng.integers(s_min, s_max + 1))
    p = rng.uniform(p_lo, p_hi, size)
    while True:
        a = rng.integers(0, 2, size)
        if 0 < a.sum() < size:
            break
    while True:
        y = rng.integers(0, 2, size)
        if not need_classes or 0 < y.sum() < size:
            break
    return Batch(p, a, y)


def two_groups(batch: Batch) -> MultiGroupBatch:
    """The binary attribute as a 2-group index, on which the m-group DP
    term is exactly 2 x dp."""
    return MultiGroupBatch(batch.p, batch.a.astype(np.int64), 2)


def numeric_dataset(X, a, y) -> Dataset:
    """A Dataset with numeric columns only, so ``X`` is its dense layout
    (and its ``num``)."""
    X = np.asarray(X, dtype=np.float64)
    return Dataset(num=X, cols=np.empty((X.shape[0], 0), dtype=np.int8),
                   a=np.asarray(a), y=np.asarray(y), encoder=Encoder())


def dense(ds: Dataset) -> np.ndarray:
    """The whole dense (n, d) matrix of ``ds``."""
    return ds.densify(np.arange(ds.n), np.empty((ds.n, ds.d)))


def biased_rows(n: int, seed: int):
    """Synthetic census-like rows with group-correlated labels.

    The label is strongly predictable from f1, and its base rate differs
    sharply between the groups (0.75 vs 0.25), so an unconstrained
    classifier shows a demographic-parity gap near 0.5.
    """
    gen = np.random.default_rng(seed)
    header = ["f1", "f2", "shade", "grp", "outcome"]
    rows = []
    for _ in range(n):
        a = int(gen.integers(0, 2))
        y = int(gen.random() < (0.25 if a == 1 else 0.75))
        f1 = (2 * y - 1) * 1.0 + gen.normal(0, 0.6)
        f2 = gen.normal(a, 0.8)
        shade = gen.choice(["red", "green", "blue"])
        rows.append([f"{f1:.6f}", f"{f2:.6f}", str(shade),
                     "f" if a == 1 else "m", "yes" if y == 1 else "no"])
    return header, rows


def separable_rows(n: int, seed: int):
    """Linearly separable 2-D toy rows; the attribute is independent noise."""
    gen = np.random.default_rng(seed)
    header = ["f1", "f2", "grp", "outcome"]
    rows = []
    for _ in range(n):
        y = int(gen.integers(0, 2))
        a = int(gen.integers(0, 2))
        f1 = (2 * y - 1) * 1.5 + gen.normal(0, 0.3)
        f2 = (2 * y - 1) * 1.5 + gen.normal(0, 0.3)
        rows.append([f"{f1:.6f}", f"{f2:.6f}",
                     "f" if a == 1 else "m", "yes" if y == 1 else "no"])
    return header, rows


def not_plain(path, schema, lo=0, hi=None) -> bool:
    """Whether ``data.row_codes`` leaves bytes [lo, hi) of the CSV at
    ``path`` to the csv module, raising NotPlain."""
    try:
        data.row_codes(path, schema, lo, hi)
    except data.NotPlain:
        return True
    return False


def no_window(*window):
    """A ``data.row_codes`` that reads no window, so that every command
    reads its CSV whole with the csv module."""
    raise data.NotPlain


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(scope="session")
def biased_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "biased.csv"
    header, rows = biased_rows(800, seed=11)
    write_csv(path, header, rows)
    return path


@pytest.fixture(scope="session")
def biased_schema_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("schema") / "biased_schema.json"
    path.write_text(
        '{"numeric": ["f1", "f2"], "categorical": ["shade"],'
        ' "label": "outcome", "positive_label": "yes",'
        ' "sensitive": "grp", "protected_value": "f",'
        ' "missing_token": "?"}',
        encoding="utf-8")
    return path


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "skipped", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], status.upper()))
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(set(rows)):
            terminalreporter.write_line(f"{name}: {status}")
