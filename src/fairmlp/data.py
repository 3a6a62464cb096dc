"""Dataset ingestion, encoding, stratified batching, and CV splits.

CSV in, numpy out. Categorical columns become one-hot blocks over the
lexicographically sorted vocabulary observed at fit time; numeric
columns are z-scored with population statistics. Batching is stratified
so that every mini-batch contains the sensitive groups (and, when
requested, label classes) that the active constraint needs — the
constraint formulas are undefined on single-group batches.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError, SchemaError, ShapeError
from .numcore import Rng


@dataclass
class SchemaConfig:
    """Names the columns of a CSV and how to binarize label/attribute."""

    numeric: list[str]
    categorical: list[str]
    label: str
    positive_label: str
    sensitive: str
    protected_value: str
    missing_token: str = "?"

    def __post_init__(self):
        names = self.numeric + self.categorical
        if len(set(names)) != len(names):
            raise SchemaError("feature column names must be unique")

    @property
    def used_columns(self) -> list[str]:
        return self.numeric + self.categorical + [self.label, self.sensitive]

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "SchemaConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            return cls(**raw)
        except TypeError as exc:
            raise SchemaError(f"bad schema file {path}: {exc}")


def adult_schema() -> SchemaConfig:
    """Preset for the UCI census-income CSV (header row expected).

    Sex is the sensitive attribute (protected = Female) and is excluded
    from the feature columns; income > 50K is the positive label.
    """
    return SchemaConfig(
        numeric=["age", "fnlwgt", "education-num", "capital-gain",
                 "capital-loss", "hours-per-week"],
        categorical=["workclass", "education", "marital-status", "occupation",
                     "relationship", "race", "native-country"],
        label="income",
        positive_label=">50K",
        sensitive="sex",
        protected_value="Female",
        missing_token="?",
    )


BUILTIN_SCHEMAS = {"adult": adult_schema}


def resolve_schema(name_or_path: str) -> SchemaConfig:
    """A builtin preset name, or a path to a schema JSON file."""
    if name_or_path in BUILTIN_SCHEMAS:
        return BUILTIN_SCHEMAS[name_or_path]()
    return SchemaConfig.from_json(name_or_path)


@dataclass
class RawTable:
    """Parsed CSV restricted to the schema's columns, missing rows dropped:
    one list of cell strings per column, keyed by column name in
    ``SchemaConfig.used_columns`` order."""

    columns: dict[str, list[str]]
    n_dropped: int = 0

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def take(self, idx) -> "RawTable":
        """The rows at ``idx``, in that order."""
        idx = np.asarray(idx).tolist()
        return RawTable({name: [cells[i] for i in idx]
                         for name, cells in self.columns.items()})

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.columns))
            writer.writerows(zip(*self.columns.values()))


def load_csv(path, schema: SchemaConfig) -> RawTable:
    """Read a header CSV, keeping schema columns and dropping any row that
    has the missing-value token in a used column."""
    names = list(dict.fromkeys(schema.used_columns))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path} is empty")
        missing = [c for c in schema.used_columns if c not in header]
        if missing:
            raise SchemaError(f"{path} lacks required columns: {missing}")
        idx = [header.index(c) for c in names]
        columns, n_dropped = [[] for _ in names], 0
        for raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                continue
            try:
                cells = [raw[j].strip() for j in idx]
            except IndexError:
                raise DataError(f"{path} line {reader.line_num} has {len(raw)} "
                                f"cells, the header has {len(header)}")
            if schema.missing_token in cells:
                n_dropped += 1
                continue
            for column, cell in zip(columns, cells):
                column.append(cell)
    return RawTable(dict(zip(names, columns)), n_dropped)


@dataclass
class Encoder:
    """Feature encoding learned from a training split.

    numeric_stats maps column -> (mean, population std); vocabulary maps
    column -> sorted category list. Transforming a table with unseen
    categories yields all-zero one-hot blocks for those cells.
    """

    numeric_stats: dict = field(default_factory=dict)
    vocabulary: dict = field(default_factory=dict)
    feature_names: list[str] = field(default_factory=list)

    def to_json(self, path) -> None:
        payload = {
            "numeric_stats": {k: list(v) for k, v in self.numeric_stats.items()},
            "vocabulary": self.vocabulary,
            "feature_names": self.feature_names,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "Encoder":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            return cls(
                numeric_stats={k: tuple(v)
                               for k, v in payload["numeric_stats"].items()},
                vocabulary=payload["vocabulary"],
                feature_names=payload["feature_names"],
            )
        except KeyError as exc:
            raise SchemaError(f"bad encoder file {path}: missing key {exc}")


@dataclass
class Dataset:
    """Encoded design matrix plus binary attribute/label vectors."""

    X: np.ndarray
    a: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    encoder: Encoder

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ShapeError("X must be 2-D")
        n = self.X.shape[0]
        if self.a.shape != (n,) or self.y.shape != (n,):
            raise ShapeError("a and y must match the number of rows of X")
        if n == 0:
            raise DataError("dataset is empty")
        if not np.all(np.isfinite(self.X)):
            raise DataError("encoded features contain NaN/Inf")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.X[idx], self.a[idx], self.y[idx],
                       self.feature_names, self.encoder)


def encode(table: RawTable, schema: SchemaConfig,
           encoder: Encoder | None = None) -> Dataset:
    """Encode a table into one float64 matrix: the z-scored numeric
    columns, then one one-hot block per categorical column. Fits the
    encoder on the table itself unless one (from the training split) is
    supplied."""
    n = len(table)
    if n == 0:
        raise DataError("cannot encode an empty table")
    fit = encoder is None
    if fit:
        # numeric_stats are filled in below, as each column is parsed
        vocabulary = {col: sorted(set(table.columns[col]))
                      for col in schema.categorical}
        names = list(schema.numeric) + [f"{col}={v}" for col, vocab
                                        in vocabulary.items() for v in vocab]
        encoder = Encoder(vocabulary=vocabulary, feature_names=names)
    else:
        missing = ([c for c in schema.numeric if c not in encoder.numeric_stats]
                   + [c for c in schema.categorical if c not in encoder.vocabulary])
        if missing:
            raise SchemaError(f"encoder does not cover schema columns {missing}")
    vocabs = [encoder.vocabulary[col] for col in schema.categorical]
    X = np.zeros((n, len(schema.numeric) + sum(map(len, vocabs))))
    for j, col in enumerate(schema.numeric):
        try:
            values = np.fromiter(map(float, table.columns[col]), np.float64, n)
        except ValueError as exc:
            raise DataError(f"non-numeric value in column {col!r}: {exc}")
        if not np.isfinite(values).all():
            raise DataError(f"non-finite value in column {col!r}")
        if fit:
            encoder.numeric_stats[col] = (float(values.mean()), float(values.std()))
        mean, std = encoder.numeric_stats[col]
        if std > 0:  # zero-variance columns encode to all zeros
            X[:, j] = (values - mean) / std
    j = len(schema.numeric)
    for col, vocab in zip(schema.categorical, vocabs):
        pos = {v: k for k, v in enumerate(vocab)}
        codes = np.fromiter((pos.get(v, -1) for v in table.columns[col]),
                            np.int64, n)
        rows = np.flatnonzero(codes >= 0)  # unseen category -> all-zero row
        X[rows, j + codes[rows]] = 1.0
        j += len(vocab)
    a, y = extract_labels(table, schema)
    return Dataset(X=X, a=a, y=y, feature_names=list(encoder.feature_names),
                   encoder=encoder)


def extract_labels(table: RawTable, schema: SchemaConfig) -> tuple[np.ndarray, np.ndarray]:
    """(a, y) binary vectors straight from the raw cells, no encoding."""
    a = np.asarray([1 if v == schema.protected_value else 0
                    for v in table.columns[schema.sensitive]], dtype=np.int64)
    y = np.asarray([1 if v == schema.positive_label else 0
                    for v in table.columns[schema.label]], dtype=np.int64)
    return a, y


def _shuffled_cells(a: np.ndarray, y: np.ndarray, seed: int):
    """Yield each joint (a, y) cell in sorted order with its rows shuffled
    by one Rng(seed); the rows must hold both groups and both classes."""
    if a.sum() < 1 or (1 - a).sum() < 1 or y.sum() < 1 or (1 - y).sum() < 1:
        raise DataError("dataset must contain both groups and both classes")
    rng = Rng(seed)
    for ga in (0, 1):
        for gy in (0, 1):
            yield (ga, gy), rng.shuffled(np.flatnonzero((a == ga) & (y == gy)))


def kfold(dataset: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint, exhaustive folds stratified by the joint (a, y) cell.

    Every nonempty cell must have at least k rows (so each fold receives
    one), which guarantees both groups and both classes in every fold.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    fold_of = np.full(dataset.n, -1)
    for (ga, gy), order in _shuffled_cells(dataset.a, dataset.y, seed):
        if 0 < order.size < k:
            raise DataError(
                f"cell (a={ga}, y={gy}) has {order.size} rows, needs >= {k}")
        # the shuffled rows of each cell are dealt to the folds in turn
        fold_of[order] = np.arange(order.size) % k
    return [np.flatnonzero(fold_of == f) for f in range(k)]


def holdout_split(a: np.ndarray, y: np.ndarray, test_fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified (train_idx, test_idx) split by joint (a, y) cell. Takes
    the raw attribute and label vectors, so a split can be made before
    encoding."""
    if not (0.0 < test_fraction < 1.0):
        raise ParameterError("test_fraction must be in (0, 1)")
    test = np.zeros(a.shape[0], dtype=bool)
    for (ga, gy), order in _shuffled_cells(a, y, seed):
        if order.size == 0:
            continue
        if order.size < 2:
            raise DataError(f"cell (a={ga}, y={gy}) needs >= 2 rows to split")
        n_test = max(1, int(round(order.size * test_fraction)))
        n_test = min(n_test, order.size - 1)  # keep at least one row in train
        test[order[:n_test]] = True
    return np.flatnonzero(~test), np.flatnonzero(test)


def epoch_batches(a: np.ndarray, y: np.ndarray, size: int, rng: Rng,
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

    # seeds[b, k]: the row cell k gave full batch b, or -1 where the batch
    # already held a row of that cell (cells overlap, so a row can cover
    # several)
    seeds = np.full((n_seeded, len(required)), -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    in_cell = np.zeros(n, dtype=bool)
    for k, cell in enumerate(required):
        order = rng.shuffled(cell)
        in_cell[:] = False
        in_cell[cell] = True
        placed = seeds[:, :k]
        has = placed >= 0
        need = np.flatnonzero(~(has & in_cell[placed]).any(axis=1))
        free = order[~used[order]]
        # batches are seeded in order, so the first one to fail raises
        too_full = np.flatnonzero(has.sum(axis=1)[need] + 1 > size)
        if too_full.size and too_full[0] < min(need.size, free.size):
            raise DataError(f"batch size {size} cannot hold the required cells")
        if need.size > free.size:
            raise DataError("stratification cells overlap too much to seed batches")
        rows = free[:need.size]
        seeds[need, k] = rows
        used[rows] = True

    # each full batch is its seeds in cell order, then the shuffled pool
    pool = rng.shuffled(np.where(~used)[0])
    full = np.empty((n_seeded, size), dtype=np.int64)
    seeded = seeds >= 0
    n_seeds = seeded.sum(axis=1)
    is_seed = np.arange(size) < n_seeds[:, None]
    full[is_seed] = seeds[seeded]
    at = n_seeded * size - int(n_seeds.sum())
    full[~is_seed] = pool[:at]
    batches = list(full)

    if not divisible:
        # leftovers start the final batch; resample the rest from earlier rows
        final = [int(r) for r in pool[at:]]
        in_final = np.zeros(n, dtype=bool)
        in_final[final] = True
        for cell in required:
            if not in_final[cell].any():
                # no row of the cell is in the final batch yet
                fill = int(rng.shuffled(cell)[0])
                final.append(fill)
                in_final[fill] = True
        short = size - len(final)
        if short < 0:
            raise DataError("dataset too small to stratify the final batch")
        if short > 0:
            # every row not in the final batch sits in an earlier one
            candidates = np.flatnonzero(~in_final)
            if candidates.size < short:
                raise DataError("dataset too small to fill the final batch")
            final.extend(int(r) for r in rng.choice(candidates, size=short,
                                                    replace=False))
        batches.append(np.asarray(final, dtype=np.int64))
    return batches


def batch_iter(dataset: Dataset, size: int, seed: int,
               require_classes: bool = False):
    """Infinite generator of epochs; each item is one epoch's batch list,
    reshuffled epoch to epoch. Every batch holds both sensitive groups;
    pass ``require_classes`` for class-sensitive objectives."""
    rng = Rng(seed)
    while True:
        yield epoch_batches(dataset.a, dataset.y, size, rng,
                            need_classes=require_classes)
