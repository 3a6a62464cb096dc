"""Dataset ingestion, encoding, stratified batching, and CV splits.

CSV in, numpy out. The network reads a dense row layout: the numeric
columns z-scored with population statistics, then one one-hot block per
categorical column over the lexicographically sorted vocabulary observed
at fit time. A Dataset stores that layout compactly, as the numeric
block and one column code per categorical cell, and writes dense rows
only into a buffer the caller passes, one batch or row block at a time.
Batching is stratified so that every mini-batch contains the sensitive
groups (and, when requested, label classes) that the active constraint
needs — the constraint formulas are undefined on single-group batches.

A CSV is read in line-aligned windows (``byte_parts``). ``row_codes``
tokenizes a plain window in numpy, LF or CRLF lines without quotes,
lone carriage returns, NULs, short or whitespace-only lines or text
that is not UTF-8, and hands each distinct value of a used column to
Python once; it raises ``NotPlain`` for any other window, and then the
csv module reads the whole file (``load_csv``), to the same codes: the
one row representation, ``RowCodes``, which ``encode_parts`` encodes,
``take`` selects rows of and ``write_csv`` writes back as a CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from itertools import count

import numpy as np

from .errors import (DataError, ParameterError, SchemaError, ShapeError,
                     check_types, has_type)
from .numcore import Rng


@dataclass
class SchemaConfig:
    """Names the columns of a CSV and how to binarize label/attribute.
    Every field is checked against its annotation when it is built."""

    numeric: list[str]
    categorical: list[str]
    label: str
    positive_label: str
    sensitive: str
    protected_value: str
    missing_token: str = "?"

    def __post_init__(self):
        check_types(self, SchemaError)
        names = self.numeric + self.categorical
        if len(set(names)) != len(names):
            raise SchemaError("feature column names must be unique")
        # the sensitive column may be a feature, the label may not
        if self.label in names:
            raise SchemaError(f"label column {self.label!r} is also a feature")
        if self.label == self.sensitive:
            raise SchemaError(f"label column {self.label!r} is also the "
                              "sensitive column")

    @property
    def text_columns(self) -> list[str]:
        """The categorical columns, the label and the sensitive column."""
        return self.categorical + [self.label, self.sensitive]

    @property
    def used_columns(self) -> list[str]:
        return self.numeric + self.text_columns

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


# the size of an ingest window, which bounds the reader's temporaries: a
# MiB takes ``row_codes`` ~30 ms (2 vCPUs, 1 BLAS thread), and starting
# a worker pool ~40 ms
PART_BYTES = 1 << 20


def byte_parts(path) -> list[tuple[int, int | None]]:
    """Cut the file at ``path`` into byte ranges [lo, hi), for
    ``row_codes`` to read one each: at most one per PART_BYTES of the
    file, of about equal size, the first from byte 0 and each ending just
    after a '\\n' byte. A file too short to cut is one part, (0, None)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        n = size // PART_BYTES
        if n < 2:
            return [(0, None)]
        cuts = [0]
        for k in range(1, n):
            # the rest of the line that the cut lands in, and no more
            fh.seek(max(size * k // n, cuts[-1]))
            end = fh.tell() + len(fh.readline())
            if end == size:
                break
            cuts.append(end)
    return list(zip(cuts, cuts[1:] + [size]))


def _header(reader, path, schema: SchemaConfig) -> list[str]:
    """The stripped cells of the header, the first record of ``reader``,
    once each used column is in it exactly once."""
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise SchemaError(f"{path} is empty")
    missing = [c for c in schema.used_columns if c not in header]
    if missing:
        raise SchemaError(f"{path} lacks required columns: {missing}")
    repeated = [c for c in dict.fromkeys(schema.used_columns)
                if header.count(c) > 1]
    if repeated:
        raise SchemaError(f"{path} repeats columns in its header: {repeated}")
    return header


def load_csv(path, schema: SchemaConfig) -> RowCodes:
    """The row codes of a whole header CSV, read by the csv module: its
    cells stripped, and any row dropped that has the missing-value token
    in a used column. A used column the header repeats, or a non-blank
    row whose cell count is not the header's, is an error."""
    names = list(dict.fromkeys(schema.used_columns))
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet may write
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = _header(reader, path, schema)
            idx, width = [header.index(c) for c in names], len(header)
            # each row's code for each cell: 0, 1, ... as first seen
            columns = [[] for _ in names]
            distinct = [defaultdict(count().__next__) for _ in names]
            for raw in reader:
                if not raw or all(not cell.strip() for cell in raw):
                    continue
                if len(raw) != width:
                    raise DataError(f"{path} line {reader.line_num} has {len(raw)} "
                                    f"cells, the header has {width}")
                cells = [raw[j].strip() for j in idx]
                if schema.missing_token in cells:
                    continue
                for column, seen, cell in zip(columns, distinct, cells):
                    column.append(seen[cell])
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}")
    except csv.Error as exc:  # e.g. a cell over the csv field size limit
        raise DataError(f"{path} line {reader.line_num}: {exc}")
    n = len(columns[0])
    coded = {name: (list(seen), np.fromiter(column, np.intp, n))
             for name, column, seen in zip(names, columns, distinct)}
    return _codes([(np.zeros(n), np.arange(n), *coded[col])
                   for col in schema.numeric],
                  [coded[col] for col in schema.text_columns],
                  np.ones(n, bool))


@dataclass
class Encoder:
    """Feature encoding learned from a training split.

    numeric_stats maps column -> (mean, population std); vocabulary maps
    column -> sorted category list; feature_names names the columns of the
    dense layout. Transforming a table with unseen categories yields
    all-zero one-hot blocks for those cells.
    """

    numeric_stats: dict = field(default_factory=dict)
    vocabulary: dict = field(default_factory=dict)
    feature_names: list[str] = field(default_factory=list)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "Encoder":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            encoder = cls(
                numeric_stats={k: (float(mean), float(std)) for k, (mean, std)
                               in payload["numeric_stats"].items()},
                vocabulary=dict(payload["vocabulary"]),
                feature_names=payload["feature_names"],
            )
        except KeyError as exc:
            raise SchemaError(f"bad encoder file {path}: missing key {exc}")
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"bad encoder file {path}: {exc}")
        for col, (mean, std) in encoder.numeric_stats.items():
            if not (math.isfinite(mean) and 0.0 <= std < math.inf):
                raise SchemaError(f"bad encoder file {path}: {col!r} needs a "
                                  f"finite mean and std >= 0, got {(mean, std)}")
        for col, vocab in encoder.vocabulary.items():
            # encode lays out each one-hot block in sorted order
            if not (has_type(vocab, list[str]) and vocab == sorted(set(vocab))):
                raise SchemaError(f"bad encoder file {path}: the vocabulary of "
                                  f"{col!r} is not a sorted list of distinct "
                                  "strings")
        return encoder

    def width(self, schema: SchemaConfig) -> int:
        """Columns of the dense layout, one per numeric column and one per
        category; the encoder's columns must be exactly the schema's, and
        its feature_names the names of that layout."""
        missing = ([c for c in schema.numeric if c not in self.numeric_stats]
                   + [c for c in schema.categorical if c not in self.vocabulary])
        if missing:
            raise SchemaError(f"encoder does not cover schema columns {missing}")
        extra = ([c for c in self.numeric_stats if c not in schema.numeric]
                 + [c for c in self.vocabulary if c not in schema.categorical])
        if extra:
            raise SchemaError(f"encoder has columns the schema lacks: {extra}")
        names = _feature_names(schema, self.vocabulary)
        if self.feature_names != names:
            raise SchemaError("encoder feature_names are not the columns it "
                              "encodes to under this schema")
        return len(names)


def _feature_names(schema: SchemaConfig, vocabulary: dict) -> list[str]:
    """The names of the dense columns: the numeric columns, then
    ``col=value`` for each category of each categorical column."""
    return list(schema.numeric) + [f"{col}={v}" for col in schema.categorical
                                   for v in vocabulary[col]]


# the column code of a category the encoder never saw: its row has no one
# in that block
UNSEEN = -1


@dataclass
class Dataset:
    """Encoded rows, stored compactly, plus binary attribute/label vectors.

    The dense (n, d) layout is the m z-scored numeric columns, then one
    one-hot block per categorical column. ``num`` is its numeric part,
    float64 (n, m). ``cols`` holds, for each row's c categorical cells,
    the dense column of that cell's one, or UNSEEN, in the smallest signed
    integer type that holds them. ``densify`` writes any rows of the dense
    layout into a caller's buffer; the whole matrix is never built.
    """

    num: np.ndarray
    cols: np.ndarray
    a: np.ndarray
    y: np.ndarray
    encoder: Encoder

    def __post_init__(self):
        if self.num.ndim != 2 or self.cols.ndim != 2:
            raise ShapeError("num and cols must be 2-D")
        n = self.num.shape[0]
        if self.cols.shape[0] != n or self.a.shape != (n,) or self.y.shape != (n,):
            raise ShapeError("cols, a and y must match the number of rows of num")
        if n == 0:
            raise DataError("dataset is empty")
        if not np.all(np.isfinite(self.num)):
            raise DataError("encoded features contain NaN/Inf")
        m = self.num.shape[1]
        if self.cols.dtype.kind not in "iu" or not np.all(
                ((self.cols >= m) & (self.cols < self.d)) | (self.cols == UNSEEN)):
            raise DataError(f"column codes must be UNSEEN or in [{m}, {self.d})")

    @property
    def n(self) -> int:
        return self.num.shape[0]

    @property
    def d(self) -> int:
        return self.num.shape[1] + sum(map(len, self.encoder.vocabulary.values()))

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.num[idx], self.cols[idx], self.a[idx], self.y[idx],
                       self.encoder)

    def densify(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the dense encoded rows at index array ``rows`` (repeats
        allowed) into ``out``, a C-contiguous float64 (len(rows), d)
        buffer, and return it."""
        d = self.d
        if out.shape != (len(rows), d) or not out.flags.c_contiguous:
            raise ShapeError(f"densify needs a C-contiguous ({len(rows)}, {d}) "
                             f"buffer, got {out.shape}")
        out.fill(0.0)
        out[:, :self.num.shape[1]] = np.take(self.num, rows, axis=0)
        hot = np.take(self.cols, rows, axis=0).astype(np.intp)
        seen = hot != UNSEEN
        hot += np.arange(0, out.size, d)[:, None]  # row r starts at r * d
        out.reshape(-1)[hot[seen]] = 1.0
        return out


@dataclass
class RowCodes:
    """The kept rows of one part of a table, coded from that part alone.
    ``numeric`` holds each numeric column as float64, or the ValueError of
    its first non-numeric cell; ``text`` holds each of the schema's
    ``text_columns`` as its sorted distinct values and each row's index
    into them, in the smallest unsigned type that holds them."""

    numeric: list[np.ndarray | ValueError]
    text: list[tuple[list[str], np.ndarray]]

    def __len__(self) -> int:
        return len(self.text[-1][1])


def take(parts: list[RowCodes], idx: np.ndarray) -> list[RowCodes]:
    """The rows at ``idx``, indices into the parts' rows in part order,
    as one part per part, in row order. Each text column keeps only the
    values its rows use, so that ``encode_parts`` fits the rows as if
    they were read alone; a numeric column's error is kept, rows or not."""
    taken, start = [], 0
    for part in parts:
        keep = np.zeros(len(part), bool)
        keep[idx[(idx >= start) & (idx < start + len(part))] - start] = True
        start += len(part)
        taken.append(RowCodes([x if isinstance(x, ValueError) else x[keep]
                               for x in part.numeric],
                              _codes([], part.text, keep).text))
    return taken


def a_and_y(parts: list[RowCodes],
            schema: SchemaConfig) -> tuple[np.ndarray, np.ndarray]:
    """The parts' rows' sensitive attribute (1: the protected value) and
    label (1: the positive one), one byte a row: every use compares them,
    sums them into an int64 or casts them to float64."""
    def flags(k, value):
        return np.concatenate([
            np.array([v == value for v in part.text[k][0]], np.int8)[
                part.text[k][1]] for part in parts])
    return flags(-1, schema.protected_value), flags(-2, schema.positive_label)


def write_csv(parts: list[RowCodes], schema: SchemaConfig, path) -> None:
    """Write the parts' rows as a CSV of the used columns, in
    ``used_columns`` order: each text cell as it was read, stripped, and
    each numeric cell as the repr of its value without a whole number's
    '.0', which reads back to the same float."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dict.fromkeys(schema.used_columns))
        for part in parts:
            # a sensitive column that is also categorical is written once
            columns = dict(zip(schema.used_columns, [
                *([t[:-2] if t.endswith(".0") else t
                   for t in map(repr, x.tolist())] for x in part.numeric),
                *([values[c] for c in codes.tolist()]
                  for values, codes in part.text)]))
            writer.writerows(zip(*columns.values()))


# the low r bytes of a little-endian word, for r = 0..8
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)
# an odd multiplier, so that each word of a field moves all of its key
_MIX = np.uint64(0x9E3779B97F4A7C15)
# the most ASCII digits a field may have for numpy to convert it: any
# 15-digit integer is a float64 exactly
_BARE_DIGITS = 15


class NotPlain(Exception):
    """A CSV window that ``row_codes`` does not read: the csv module reads
    the whole file instead (``load_csv``)."""


def row_codes(path, schema: SchemaConfig, lo: int = 0,
              hi: int | None = None) -> RowCodes:
    """The row codes of the rows in bytes [lo, hi) of a CSV, a window
    from ``byte_parts`` (part 0 also holds the header); raises NotPlain
    when the window is not plain. It is tokenized in numpy, so that Python
    meets each distinct field of a used column once rather than each cell.
    Plain means LF or CRLF line ends and no other '\\r', no '"' or NUL
    byte, valid UTF-8, a row line, each non-empty line holding the
    header's width - 1 commas and a visible ASCII byte other than ',',
    no field over ``csv.field_size_limit()``, no two distinct fields of a
    used column that share a key, and, in each used column, rows times
    its widest field at most the window's bytes. Empty lines are skipped,
    as the csv module skips them."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header = _header(csv.reader(fh), path, schema)
            fh.buffer.seek(lo)
            raw = fh.buffer.read(-1 if hi is None else hi - lo)
        if not raw.isascii():
            raw.decode("utf-8")  # raises on text that is not UTF-8
    except (UnicodeDecodeError, csv.Error):
        raise NotPlain
    if b"\r" in raw:  # a memchr; replace scans ~1.5 ms a MiB for nothing
        raw = raw.replace(b"\r\n", b"\n")
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        raise NotPlain
    start = raw.find(b"\n") + 1 if lo == 0 else 0  # after part 0's header
    if (lo == 0 and start == 0) or start == len(raw):
        raise NotPlain
    # the rows, a '\n' ending the last, then zeros: every field's words
    # lie in the buffer
    n = len(raw) - start + (raw[-1] != ord("\n"))
    buf = np.zeros(n + 8, np.uint8)
    buf[:len(raw) - start] = np.frombuffer(raw, np.uint8, offset=start)
    buf[n - 1] = ord("\n")
    text = buf[:n]
    ends = np.flatnonzero(text == ord("\n"))
    after = np.concatenate(([-1], ends[:-1]))  # the '\n' before each line
    rows = ends - after > 1  # the non-empty lines
    ends, after = ends[rows], after[rows]
    if not ends.size:
        raise NotPlain
    commas = np.flatnonzero(text == ord(","))
    width = len(header)
    if commas.size != ends.size * (width - 1):
        raise NotPlain
    # row i's fields lie between bounds[i, j] and bounds[i, j + 1]
    bounds = np.empty((ends.size, width + 1), np.int64)
    bounds[:, 0] = after
    bounds[:, 1:-1] = commas.reshape(-1, width - 1)
    bounds[:, -1] = ends
    lengths = np.diff(bounds, axis=1) - 1
    if lengths.min() < 0 or lengths.max() > csv.field_size_limit():
        raise NotPlain  # a line without its width - 1 commas, or a long field
    shifted = text - np.uint8(ord("!"))  # '!' to '~' is 0 to 93, ',' 11
    visible = (shifted < 94) & (shifted != 11)
    if not np.logical_or.reduceat(visible, after + 1).all():
        raise NotPlain  # csv reads a line of blank cells as no row
    # words[k] is the little-endian word of bytes k to k + 7
    words = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))

    def field(col):
        j = header.index(col)
        return bounds[:, j] + 1, lengths[:, j]

    token = schema.missing_token
    missing = np.zeros(ends.size, bool)
    texts = {}
    for col in dict.fromkeys(schema.text_columns):
        texts[col] = found = _distinct_fields(buf, words, *field(col))
        missing |= np.array([t == token for t in found[0]], bool)[found[1]]
    numbers = []
    for col in schema.numeric:
        starts, sizes = field(col)
        if token.isascii() and token.isdigit():
            # such a token would hide among the bare numbers
            values, bare = np.zeros(ends.size), np.zeros(ends.size, bool)
        else:
            values, bare = _bare_numbers(buf, starts, sizes)
        rest = np.flatnonzero(~bare)
        found = _distinct_fields(buf, words, starts[rest], sizes[rest])
        missing[rest] |= np.array([t == token for t in found[0]],
                                  bool)[found[1]]
        numbers.append((values, rest, *found))
    return _codes(numbers, [texts[col] for col in schema.text_columns],
                  ~missing)


def _codes(numbers: list, texts: list, keep: np.ndarray) -> RowCodes:
    """The RowCodes of the rows at mask ``keep``. ``texts`` holds, for
    each text column, its distinct cells and each row's index into them;
    ``numbers`` holds, for each numeric column, its values as far as they
    are known, the rows ``rest`` whose value is not, and those rows'
    distinct cells and each one's index into them."""
    numeric = []
    for values, rest, distinct, inverse in numbers:
        parsed, errors = np.zeros(len(distinct)), {}
        for i, t in enumerate(distinct):
            try:
                parsed[i] = float(t)
            except ValueError as exc:
                errors[i] = exc
        failed = np.zeros(len(distinct), bool)
        failed[list(errors)] = True
        kept = inverse[keep[rest]]  # in row order
        bad = np.flatnonzero(failed[kept])
        values[rest] = parsed[inverse]
        numeric.append(errors[int(kept[bad[0]])] if bad.size
                       else values[keep])
    text = []
    for distinct, inverse in texts:
        kept = inverse[keep]
        used = np.zeros(len(distinct), bool)
        used[kept] = True
        values = sorted({t for t, u in zip(distinct, used) if u})
        at = {v: i for i, v in enumerate(values)}
        codes = np.array([at.get(t, 0) for t in distinct],
                         np.min_scalar_type(len(values)))
        text.append((values, codes[kept]))
    return RowCodes(numeric, text)


def _distinct_fields(buf: np.ndarray, words: np.ndarray, starts: np.ndarray,
                     sizes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct fields of ``buf`` at ``starts``/``sizes``, decoded and
    stripped, and each field's index into them. Fields are keyed by their
    size and words, and each is checked word for word against the first
    field with its key. Raises NotPlain when two different fields share a
    key, or when the fields' words, rows times the widest field's bytes,
    would outgrow ``buf``: one long cell would cost its length per row."""
    widest = int(sizes.max(initial=0))
    if sizes.size * widest > buf.size:
        raise NotPlain
    key = sizes.astype(np.uint64)
    chunks = []
    for at in range(0, widest, 8):
        chunk = words[np.minimum(starts + at, words.size - 1)]
        chunk &= _LOW_BYTES[np.clip(sizes - at, 0, 8)]
        chunks.append(chunk)
        key = (key * _MIX) ^ chunk
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    same = first[inverse]
    if not all((x[same] == x).all() for x in [sizes, *chunks]):
        raise NotPlain
    return [buf[s:s + m].tobytes().decode("utf-8").strip()
            for s, m in zip(starts[first].tolist(), sizes[first].tolist())
            ], inverse


def _bare_numbers(buf: np.ndarray, starts: np.ndarray,
                  sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each field's value as float64 where it is 1 to _BARE_DIGITS ASCII
    digits, which is the value ``float`` gives, and a mask of those
    fields."""
    value = np.zeros(starts.size, np.int64)
    bare = (sizes >= 1) & (sizes <= _BARE_DIGITS)
    for at in range(min(int(sizes.max(initial=0)), _BARE_DIGITS)):
        inside = at < sizes
        digit = buf[np.minimum(starts + at, buf.size - 1)] - np.uint8(ord("0"))
        bare &= ~inside | (digit < 10)
        value = np.where(inside, value * 10 + digit, value)
    return value.astype(np.float64), bare


def encode_parts(parts: list[RowCodes], schema: SchemaConfig,
                 encoder: Encoder | None = None) -> Dataset:
    """The Dataset of the parts' rows, in part order: the z-scored
    numeric columns and the dense column of each categorical cell's one.
    Fits the encoder on those rows unless one (from the training split)
    is supplied. The first bad numeric column in schema order, and its
    first bad row, is the error, as if the parts were one table."""
    n = sum(map(len, parts))
    if n == 0:
        raise DataError("cannot encode an empty table")
    fit = encoder is None
    if fit:
        # numeric_stats are filled in below, as each column is checked
        vocabulary = {col: sorted(set().union(*(part.text[k][0]
                                               for part in parts)))
                      for k, col in enumerate(schema.categorical)}
        names = _feature_names(schema, vocabulary)
        encoder = Encoder(vocabulary=vocabulary, feature_names=names)
        d = len(names)
    else:
        d = encoder.width(schema)
    num = np.zeros((n, len(schema.numeric)))
    for j, col in enumerate(schema.numeric):
        for part in parts:
            if isinstance(part.numeric[j], ValueError):
                raise DataError(f"non-numeric value in column {col!r}: "
                                f"{part.numeric[j]}")
        values = np.concatenate([part.numeric[j] for part in parts])
        if not np.isfinite(values).all():
            raise DataError(f"non-finite value in column {col!r}")
        if fit:
            stats = float(values.mean()), float(values.std())
            if not all(map(math.isfinite, stats)):
                raise DataError(f"column {col!r} overflows its mean or std")
            encoder.numeric_stats[col] = stats
        mean, std = encoder.numeric_stats[col]
        if std > 0:  # zero-variance columns encode to all zeros
            num[:, j] = (values - mean) / std
            if not np.isfinite(num[:, j]).all():
                raise DataError(f"column {col!r} overflows its z-score")
    # the smallest signed type holding -d - 1 holds UNSEEN and every column
    # below d
    cols = np.empty((n, len(schema.categorical)), np.min_scalar_type(-d - 1))
    j = len(schema.numeric)
    for k, col in enumerate(schema.categorical):
        vocab = encoder.vocabulary[col]
        pos = {v: j + i for i, v in enumerate(vocab)}
        row = 0
        for part in parts:
            # each of the part's values to its dense column, or UNSEEN
            values, codes = part.text[k]
            dense = np.fromiter((pos.get(v, UNSEEN) for v in values),
                                cols.dtype, len(values))
            cols[row:row + len(codes), k] = dense[codes]
            row += len(codes)
        j += len(vocab)
    return Dataset(num, cols, *a_and_y(parts, schema), encoder)


def encode(codes: RowCodes, schema: SchemaConfig,
           encoder: Encoder | None = None) -> Dataset:
    """``encode_parts`` of one part."""
    return encode_parts([codes], schema, encoder)


def _shuffled_cells(a: np.ndarray, y: np.ndarray, seed: int):
    """Yield each joint (a, y) cell in sorted order with its rows shuffled
    by one Rng(seed); the rows must hold both groups and both classes."""
    if a.sum() < 1 or (1 - a).sum() < 1 or y.sum() < 1 or (1 - y).sum() < 1:
        raise DataError("dataset must contain both groups and both classes")
    rng = Rng(seed)
    for ga in (0, 1):
        for gy in (0, 1):
            yield (ga, gy), rng.permutation(
                np.flatnonzero((a == ga) & (y == gy)))


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


def epoch_batches(a: np.ndarray, y: np.ndarray, size: int,
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

    # seeds[b, k]: the row cell k gave full batch b, or -1 where the batch
    # already held a row of that cell (cells overlap, so a row can cover
    # several)
    seeds = np.full((n_seeded, len(required)), -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    in_cell = np.zeros(n, dtype=bool)
    for k, cell in enumerate(required):
        order = rng.permutation(cell)
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
    pool = rng.permutation(np.where(~used)[0])
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
                fill = int(rng.permutation(cell)[0])
                final.append(fill)
                in_final[fill] = True
        short = size - len(final)
        if short < 0:
            raise DataError("dataset too small to stratify the final batch")
        if short > 0:
            # every row not in the final batch sits in an earlier one; the
            # final batch's rows are distinct and n >= size, so at least
            # ``short`` rows are left to draw from
            candidates = np.flatnonzero(~in_final)
            final.extend(int(r) for r in rng.choice(candidates, size=short,
                                                    replace=False))
        batches.append(np.asarray(final, dtype=np.int64))
    return batches

