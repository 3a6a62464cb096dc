import dataclasses
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from fairmlp import cli, data
from fairmlp.data import (RowCodes, SchemaConfig, adult_schema, byte_parts,
                          encode, epoch_batches, holdout_split, kfold,
                          load_csv, resolve_schema)
from fairmlp.errors import DataError, ParameterError, SchemaError, ShapeError
from fairmlp.fairloss import Batch
from fairmlp.numcore import Rng
from conftest import dense, not_plain, numeric_dataset, write_csv

SCHEMA = SchemaConfig(numeric=["amount"], categorical=["kind"],
                      label="outcome", positive_label="yes",
                      sensitive="grp", protected_value="f")


def small_csv(tmp_path, rows, header=("amount", "kind", "grp", "outcome")):
    path = tmp_path / "small.csv"
    write_csv(path, list(header), rows)
    return path


def cells(codes, col):
    """The kept rows' cells of column ``col`` of ``codes``: floats for a
    numeric column, strings for a text one."""
    if col in SCHEMA.numeric:
        return codes.numeric[SCHEMA.numeric.index(col)].tolist()
    values, index = codes.text[SCHEMA.text_columns.index(col)]
    return [values[i] for i in index.tolist()]


def code_fields(codes):
    """Everything a RowCodes holds, dtypes included, with each numeric
    column's error as its type and message."""
    def array(x):
        return x.dtype.str, x.shape, x.tobytes()
    return ([(type(x), str(x)) if isinstance(x, ValueError) else array(x)
             for x in codes.numeric],
            [(values, array(index)) for values, index in codes.text])


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        codes = load_csv(path, SCHEMA)
        assert len(codes) == 2
        assert cells(codes, "amount") == [1.0, 3.0]
        assert cells(codes, "outcome") == ["yes", "no"]

    def test_missing_token_dropped(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"], ["?", "b", "f", "no"]])
        codes = load_csv(path, SCHEMA)
        assert len(codes) == 1
        # the dropped row's values are gone with it
        assert [values for values, _ in codes.text] == [["a"], ["yes"], ["m"]]

    def test_missing_column_is_schema_error(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m"]], header=("amount", "kind", "grp"))
        with pytest.raises(SchemaError):
            load_csv(path, SCHEMA)

    def test_cells_are_stripped(self, tmp_path):
        path = small_csv(tmp_path, [[" 1 ", " a", "f ", " yes"],
                                    ["2", "a ", " f", "yes"]])
        codes = load_csv(path, SCHEMA)
        assert cells(codes, "amount") == [1.0, 2.0]
        assert cells(codes, "kind") == ["a", "a"]
        assert cells(codes, "grp") == ["f", "f"]
        assert cells(codes, "outcome") == ["yes", "yes"]

    def test_oversized_cell_is_data_error_naming_the_line(self, tmp_path):
        rows = [["1", "a", "m", "yes"], ["2", "b" * 200_000, "f", "no"]]
        with pytest.raises(DataError, match=r"small\.csv line 3: field larger"):
            load_csv(small_csv(tmp_path, rows), SCHEMA)

    def test_repeated_used_column_is_schema_error_before_any_row(self, tmp_path):
        # the short row would be a DataError if any row were read
        path = small_csv(tmp_path, [["1", "a"]],
                         header=("amount", "kind", "grp", "outcome", "kind"))
        with pytest.raises(SchemaError,
                           match=r"repeats columns in its header: \['kind'\]"):
            load_csv(path, SCHEMA)

    def test_repeated_unused_column_loads(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes", "x", "y"]],
                         header=("amount", "kind", "grp", "outcome", "note",
                                 "note"))
        assert cells(load_csv(path, SCHEMA), "kind") == ["a"]

    @pytest.mark.parametrize("row", [["2", "b", "f", "no", "EXTRA"],
                                     ["2", "b", "f"]])
    def test_row_cell_count_other_than_header_is_data_error(self, tmp_path,
                                                            row):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"], row])
        with pytest.raises(DataError, match=rf"small\.csv line 3 has {len(row)} "
                                            "cells, the header has 4$"):
            load_csv(path, SCHEMA)

    def test_blank_and_all_empty_rows_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("amount,kind,grp,outcome\n\n1,a,m,yes\n,,,\n"
                        "  \n , , , \n3,b,f,no\n\n", encoding="utf-8")
        codes = load_csv(path, SCHEMA)
        assert len(codes) == 2
        assert {col: cells(codes, col) for col in SCHEMA.used_columns} == {
            "amount": [1.0, 3.0], "kind": ["a", "b"], "outcome": ["yes", "no"],
            "grp": ["m", "f"]}

    def test_header_only_gives_empty_columns(self, tmp_path):
        codes = load_csv(small_csv(tmp_path, []), SCHEMA)
        assert len(codes) == 0
        assert [x.size for x in codes.numeric] == [0]
        assert [(values, index.size) for values, index in codes.text] == [
            ([], 0)] * 3

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"], ["2", "b", "f", "no"]])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert (code_fields(load_csv(bom, SCHEMA))
                == code_fields(load_csv(path, SCHEMA)))
        assert cells(load_csv(bom, SCHEMA), "amount") == [1.0, 2.0]

    def test_non_utf8_after_byte_order_mark_is_data_error(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"]])
        path.write_bytes(b"\xef\xbb\xbf"
                         + path.read_bytes().replace(b",a,", b",\xff,"))
        with pytest.raises(DataError, match="is not UTF-8 text"):
            load_csv(path, SCHEMA)

    def test_take_then_write_csv_round_trips(self, tmp_path):
        path = small_csv(tmp_path, [["1.5", "a", "m", "yes"],
                                    ["2", "b", "f", "no"],
                                    ["3", "c", "f", "yes"]])
        taken = data.take([load_csv(path, SCHEMA)],
                          np.array([True, False, True]))
        assert len(taken) == 1
        # row order, and only the values the rows use
        assert cells(taken[0], "amount") == [1.5, 3.0]
        assert taken[0].text[0][0] == ["a", "c"]
        data.write_csv(taken, SCHEMA, tmp_path / "taken.csv")
        assert (tmp_path / "taken.csv").read_bytes() == (
            b"amount,kind,outcome,grp\r\n1.5,a,yes,m\r\n3,c,yes,f\r\n")
        assert (code_fields(load_csv(tmp_path / "taken.csv", SCHEMA))
                == code_fields(taken[0]))


def codes_of(rows):
    """The RowCodes of rows of SCHEMA's used cells, (amount, kind,
    outcome, grp), each text column coded over its sorted values."""
    numeric = [np.array([float(row[0]) for row in rows])]
    text = []
    for j in (1, 2, 3):
        values = sorted({row[j] for row in rows})
        text.append((values, np.array([values.index(row[j]) for row in rows],
                                      np.uint8)))
    return RowCodes(numeric, text)


@st.composite
def parts_and_mask(draw):
    """Part lengths, one of them 0 (a window whose every row was
    dropped), the parts' rows and a mask over them."""
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    lengths.insert(draw(st.integers(0, len(lengths))), 0)
    n = sum(lengths)
    rows = draw(st.lists(st.tuples(st.integers(0, 9).map(str),
                                   st.sampled_from("abc"),
                                   st.sampled_from(["yes", "no"]),
                                   st.sampled_from("fm")),
                         min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return lengths, rows, np.array(mask, bool)


class TestTake:
    @settings(max_examples=200, deadline=None)
    @given(parts_and_mask())
    def test_each_part_takes_its_slice_of_the_mask(self, case):
        lengths, rows, mask = case
        cuts = np.cumsum([0] + lengths).tolist()
        parts = [codes_of(rows[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        taken = data.take(parts, mask)
        assert len(taken) == len(parts)
        for part, lo, hi in zip(taken, cuts, cuts[1:]):
            kept = [row for row, keep in zip(rows[lo:hi], mask[lo:hi]) if keep]
            assert code_fields(part) == code_fields(codes_of(kept))
        if mask.any():  # the parts encode as the same take of one part
            joined = data.encode_parts(taken, SCHEMA)
            [one] = data.take([codes_of(rows)], mask)
            one = encode(one, SCHEMA)
            for name in ("num", "cols", "a", "y"):
                x, y = getattr(joined, name), getattr(one, name)
                assert (x.dtype, x.shape, x.tobytes()) == (
                    y.dtype, y.shape, y.tobytes())
            assert joined.encoder == one.encoder


class TestByteParts:
    ROWS = [[str(i), "ab"[i % 2], "mf"[i % 3 % 2], ("yes", "no")[i % 5 % 2]]
            for i in range(40)]

    @staticmethod
    def cut(monkeypatch, path, n):
        """Make ``byte_parts`` cut the file at ``path`` into n parts."""
        monkeypatch.setattr(data, "PART_BYTES", path.stat().st_size // n)

    def test_a_file_under_part_bytes_is_one_part(self, tmp_path):
        path = small_csv(tmp_path, self.ROWS)
        assert path.stat().st_size < data.PART_BYTES
        assert byte_parts(path) == [(0, None)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_parts_tile_the_file_and_end_after_a_newline(self, tmp_path,
                                                         monkeypatch, n):
        path = small_csv(tmp_path, self.ROWS)
        self.cut(monkeypatch, path, n)
        raw = path.read_bytes()
        parts = byte_parts(path)
        if n == 1:
            assert parts == [(0, None)]
            return
        assert len(parts) == n
        assert parts[0][0] == 0 and parts[-1][1] == len(raw)
        for (lo, hi), (next_lo, _) in zip(parts, parts[1:]):
            assert lo < hi == next_lo
            assert raw[hi - 1:hi] == b"\n"
        # about equal: no part is two rows longer than the mean
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - len(raw) / n < 2 * max(map(len, raw.split(b"\n")))

    def test_at_most_one_part_per_part_bytes(self, tmp_path, monkeypatch):
        path = small_csv(tmp_path, self.ROWS)
        monkeypatch.setattr(data, "PART_BYTES", path.stat().st_size // 3)
        assert len(byte_parts(path)) == 3
        monkeypatch.setattr(data, "PART_BYTES", path.stat().st_size // 3 + 1)
        assert len(byte_parts(path)) == 2

    def test_a_quote_anywhere_makes_one_part(self, tmp_path, monkeypatch):
        # the window holding the quoted cell is not plain, so the ingest
        # drops every window and reads the file once, whole
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        real = data.load_csv
        for at in (0, 15, 30, 39):
            rows = [row[:] for row in self.ROWS]
            rows[at][1] = "a\nb"  # written quoted, over two lines
            path = small_csv(tmp_path, rows)
            whole = real(path, SCHEMA)
            assert cells(whole, "kind")[at] == "a\nb"
            self.cut(monkeypatch, path, 4)
            windows = byte_parts(path)
            assert len(windows) == 4
            assert any(not_plain(path, SCHEMA, lo, hi) for lo, hi in windows)
            calls = []
            monkeypatch.setattr(data, "load_csv",
                                lambda *args: calls.append(args) or real(*args))
            ds = cli._ingest(path, SCHEMA)
            monkeypatch.setattr(data, "load_csv", real)
            assert calls == [(path, SCHEMA)]
            one = encode(whole, SCHEMA)
            for name in ("num", "cols", "a", "y"):
                assert np.array_equal(getattr(ds, name), getattr(one, name))
            assert ds.encoder == one.encoder

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_part_tables_concatenate_to_the_whole(self, tmp_path,
                                                  monkeypatch, n):
        rows = [row[:] for row in self.ROWS]
        rows[9][0] = rows[21][2] = "?"
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(
            ["amount,kind,grp,outcome", ""]
            + [",".join(row) for row in rows] + [""]).encode())
        whole = load_csv(path, SCHEMA)
        assert len(whole) == 38  # two rows dropped
        self.cut(monkeypatch, path, n)
        parts = [data.row_codes(path, SCHEMA, lo, hi)
                 for lo, hi in byte_parts(path)]
        assert len(parts) == n and None not in parts
        assert sum(map(len, parts)) == len(whole)
        joined, one = data.encode_parts(parts, SCHEMA), encode(whole, SCHEMA)
        for name in ("num", "cols", "a", "y"):
            assert np.array_equal(getattr(joined, name), getattr(one, name))
        assert joined.encoder == one.encoder


class TestEncode:
    def table(self, tmp_path, rows):
        return load_csv(small_csv(tmp_path, rows), SCHEMA)

    def test_one_hot_width(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"],
                                      ["2", "b", "f", "no"],
                                      ["3", "c", "m", "yes"]])
        ds = encode(table, SCHEMA)
        assert ds.d == 1 + 3
        assert ds.encoder.feature_names == ["amount", "kind=a", "kind=b", "kind=c"]

    def test_zscore_population(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "a", "f", "no"]])
        ds = encode(table, SCHEMA)
        np.testing.assert_allclose(ds.num[:, 0], [-1.0, 1.0], atol=1e-12)

    def test_label_and_attribute_mapping(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "a", "f", "no"]])
        ds = encode(table, SCHEMA)
        np.testing.assert_array_equal(ds.y, [1, 0])
        np.testing.assert_array_equal(ds.a, [0, 1])

    def test_zero_variance_encodes_to_zero(self, tmp_path):
        table = self.table(tmp_path, [["5", "a", "m", "yes"], ["5", "a", "f", "no"]])
        ds = encode(table, SCHEMA)
        np.testing.assert_array_equal(ds.num[:, 0], [0.0, 0.0])

    def test_unseen_category_zero_row(self, tmp_path):
        train = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        enc = encode(train, SCHEMA).encoder
        test = self.table(tmp_path, [["2", "zzz", "m", "yes"]])
        ds = encode(test, SCHEMA, enc)
        np.testing.assert_array_equal(dense(ds)[0, 1:], [0.0, 0.0])

    def test_reencoding_is_identity(self, tmp_path):
        rows = [[str(v), k, g, o] for v, k, g, o in
                zip(range(8), "aabbabab", "mfmfmfmf",
                    ["yes", "no"] * 4)]
        table = self.table(tmp_path, rows)
        ds1 = encode(table, SCHEMA)
        ds2 = encode(table, SCHEMA, ds1.encoder)
        np.testing.assert_allclose(dense(ds1), dense(ds2), atol=1e-12)

    def test_encoder_with_a_column_the_schema_lacks_rejected(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        enc = encode(table, SCHEMA).encoder
        enc.vocabulary["color"] = ["red"]
        with pytest.raises(SchemaError, match=r"schema lacks: \['color'\]"):
            encode(table, SCHEMA, enc)

    @pytest.mark.parametrize("change,error", [
        (lambda ds: {"num": ds.num[:, 0]}, ShapeError),
        (lambda ds: {"a": ds.a[:1]}, ShapeError),
        (lambda ds: {"num": ds.num[:0], "cols": ds.cols[:0], "a": ds.a[:0],
                     "y": ds.y[:0]}, DataError),
        (lambda ds: {"num": np.where(np.arange(2)[:, None], np.nan, ds.num)},
         DataError)], ids=["1d_num", "short_a", "no_rows", "nan_num"])
    def test_malformed_dataset_rejected(self, tmp_path, change, error):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        ds = encode(table, SCHEMA)
        with pytest.raises(error):
            dataclasses.replace(ds, **change(ds))

    @pytest.mark.parametrize("code", [0, 4, -2])
    def test_column_code_out_of_range_rejected(self, tmp_path, code):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        ds = encode(table, SCHEMA)
        cols = ds.cols.copy()
        cols[1, 0] = code
        with pytest.raises(DataError, match="column codes"):
            dataclasses.replace(ds, cols=cols)

    def test_densify_needs_a_contiguous_buffer_of_its_shape(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        ds = encode(table, SCHEMA)
        rows = np.array([1, 0, 1])
        for out in (np.empty((2, ds.d)), np.empty((ds.d, 3)).T):
            with pytest.raises(ShapeError):
                ds.densify(rows, out)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_z_score_names_its_column(self, tmp_path):
        # the cell is finite, but a std of 0.1 scales it past the largest
        # double
        train = self.table(tmp_path, [["0.1", "a", "m", "yes"],
                                      ["0.3", "b", "f", "no"]])
        enc = encode(train, SCHEMA).encoder
        test = self.table(tmp_path, [["0.2", "a", "m", "yes"],
                                     ["1.7e308", "b", "f", "no"]])
        with pytest.raises(DataError,
                           match=r"^column 'amount' overflows its z-score$"):
            encode(test, SCHEMA, enc)

    def test_a_and_y_matches_encode(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "a", "f", "no"]])
        a, y = data.a_and_y([table], SCHEMA)
        ds = encode(table, SCHEMA)
        np.testing.assert_array_equal(a, ds.a)
        np.testing.assert_array_equal(y, ds.y)

    def test_both_readers_and_subset_keep_labels_in_one_byte(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"],
                                    ["3", "b", "f", "no"],
                                    ["2", "a", "f", "yes"]])
        csv_read = encode(load_csv(path, SCHEMA), SCHEMA)
        numpy_read = data.encode_parts([data.row_codes(path, SCHEMA)], SCHEMA)
        for ds in (csv_read, numpy_read, numpy_read.subset([2, 0])):
            assert ds.a.dtype == ds.y.dtype == np.int8
        assert data.a_and_y([load_csv(path, SCHEMA)], SCHEMA)[0].dtype == np.int8
        for name in ("a", "y"):
            assert (getattr(csv_read, name).tobytes()
                    == getattr(numpy_read, name).tobytes())


ENC_SCHEMA = SchemaConfig(numeric=["n1", "n2"], categorical=["c1", "c2"],
                          label="outcome", positive_label="yes",
                          sensitive="grp", protected_value="f")
# accented, mixed-case and CJK categories: vocabularies sort by code point
CATEGORIES = ["a", "B", "b", "z", "Z", "é", "É", "ä", "ß", "日本"]
NUMBERS = st.one_of(st.integers(-5, 5).map(str),
                    st.floats(-1e6, 1e6, allow_nan=False).map(repr))
# unparseable cells, and cells that parse to a non-finite value
BAD_CELLS = ["abc", "", "1,5", "nan", "inf"]


@st.composite
def encode_rows(draw, categories):
    """Rows in ENC_SCHEMA.used_columns order; n2 is sometimes constant
    (zero variance) and now and then one numeric cell is bad."""
    n = draw(st.integers(0, 12))
    constant = draw(NUMBERS) if draw(st.booleans()) else None
    rows = [[draw(NUMBERS), constant or draw(NUMBERS),
             draw(st.sampled_from(categories)), draw(st.sampled_from(categories)),
             draw(st.sampled_from(["yes", "no"])), draw(st.sampled_from(["f", "m"]))]
            for _ in range(n)]
    if rows and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(
            st.sampled_from(BAD_CELLS))
    return rows


def both_tables(rows):
    """The same rows as the row codes ``load_csv`` reads from them and as
    the row-based reference table."""
    names = ENC_SCHEMA.used_columns
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(path, names, rows)
        codes = load_csv(path, ENC_SCHEMA)
    return codes, oracles.RowTable(names, rows, 0)


def encoder_json(encoder) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "encoder.json"
        encoder.to_json(path)
        return path.read_text(encoding="utf-8")


def encode_dense(table, schema, encoder=None):
    """encode, densified whole, in the row-based reference's result type."""
    ds = encode(table, schema, encoder)
    return oracles.DenseDataset(dense(ds), ds.a, ds.y, ds.encoder)


def encoded(encode_fn, table, encoder=None):
    """Everything encode returns, as bytes and JSON, or the error it raised."""
    try:
        ds = encode_fn(table, ENC_SCHEMA, encoder)
    except (DataError, SchemaError) as exc:
        return type(exc), str(exc)
    return (ds.X.shape, ds.X.tobytes(), ds.a.dtype, ds.a.tobytes(), ds.y.dtype,
            ds.y.tobytes(), encoder_json(ds.encoder))


def expected(table, encoder=None):
    """What encode must return: the row-based reference's result, except
    that a non-finite numeric cell, which the reference encoded, is an
    error naming its column."""
    for j, col in enumerate(ENC_SCHEMA.numeric):
        try:
            values = [float(row[j]) for row in table.rows]
        except ValueError:  # non-numeric: both raise the same error
            break
        if not np.isfinite(values).all():
            return DataError, f"non-finite value in column {col!r}"
    return encoded(oracles.loop_encode, table, encoder)


ROW = ["1", "2", "a", "b", "yes", "f"]


# the non-finite cells of a saved encoder's training rows warn inside
# numpy's mean and std
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestEncodeMatchesRowReference:
    @settings(max_examples=300, deadline=None)
    @given(encode_rows(CATEGORIES))
    @example([["1", "5", "é", "日本", "yes", "f"], ["3", "5", "É", "z", "no", "m"],
              ["2", "5", "ä", "Z", "no", "f"]])
    @example([ROW, ["abc"] + ROW[1:]])
    @example([ROW, ROW[:1] + ["nan"] + ROW[2:]])
    @example([ROW, ["-inf"] + ROW[1:]])
    def test_fitted_encoder(self, rows):
        new, old = both_tables(rows)
        assert encoded(encode_dense, new) == expected(old)

    @settings(max_examples=300, deadline=None)
    @given(encode_rows(CATEGORIES[:4]), encode_rows(CATEGORIES))
    @example([ROW, ["3", "2", "b", "a", "no", "m"]],
             [["2", "2", "日本", "b", "yes", "m"], ROW[:1] + ["x"] + ROW[2:]])
    def test_saved_encoder(self, train, rows):
        try:
            encoder = oracles.loop_encode(both_tables(train)[1], ENC_SCHEMA).encoder
        except DataError:
            assume(False)
        new, old = both_tables(rows)
        assert encoded(encode_dense, new, encoder) == expected(old, encoder)

    @settings(max_examples=200, deadline=None)
    @given(encode_rows(CATEGORIES[:4]), encode_rows(CATEGORIES), st.booleans(),
           st.data())
    def test_densify_rows_with_repeats(self, train, rows, saved, data):
        # epoch_batches resamples rows into an epoch's final batch, so rows
        # are densified more than once: any index array, repeats included,
        # gives the reference's rows
        try:
            encoder = (oracles.loop_encode(both_tables(train)[1], ENC_SCHEMA).encoder
                       if saved else None)
            new, old = both_tables(rows)
            ds = encode(new, ENC_SCHEMA, encoder)
        except DataError:
            assume(False)
        X = oracles.loop_encode(old, ENC_SCHEMA, encoder).X
        idx = np.asarray(data.draw(st.lists(st.integers(0, ds.n - 1),
                                            max_size=3 * ds.n)), dtype=np.int64)
        out = np.full((idx.size, ds.d), np.nan)
        assert ds.densify(idx, out) is out
        assert out.tobytes() == X[idx].tobytes()


class TestEncodeMemory:
    def test_peak_well_below_the_dense_matrix(self):
        # the benchmark's layout: 6 numeric columns, 7 one-hot blocks of 97
        # columns, over 65,537 rows
        sizes = (8, 16, 7, 14, 6, 5, 41)
        schema = adult_schema()
        n = 65_537
        gen = np.random.default_rng(5)
        numeric = [gen.integers(0, 100, n).astype(np.float64)
                   for _ in schema.numeric]
        text = [([f"v{v}" for v in range(size)],
                 gen.integers(0, size, n).astype(np.uint8))
                for size in sizes]
        text += [(["<=50K", ">50K"], gen.integers(0, 2, n).astype(np.uint8)),
                 (["Female", "Male"], gen.integers(0, 2, n).astype(np.uint8))]
        table = RowCodes(numeric, text)
        tracemalloc.start()
        try:
            ds = encode(table, schema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.d == 6 + sum(sizes)
        assert peak < ds.n * ds.d * 8 / 4


def balanced_dataset(n, seed=0):
    # attribute perfectly tracks the label: two joint cells of n/2 each
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 3))
    y = np.tile([0, 1], n // 2)
    return numeric_dataset(X, y.copy(), y)


class TestKfold:
    def test_balanced_fold_sizes(self):
        ds = balanced_dataset(10)
        folds = kfold(ds, 5, seed=0)
        assert folds.shape == (10,)
        assert np.bincount(folds).tolist() == [2, 2, 2, 2, 2]

    def test_every_fold_has_all_cells(self):
        gen = np.random.default_rng(3)
        a = gen.integers(0, 2, 200)
        y = gen.integers(0, 2, 200)
        ds = numeric_dataset(gen.normal(size=(200, 2)), a, y)
        folds = kfold(ds, 5, seed=1)
        for f in range(5):
            fa, fy = ds.a[folds == f], ds.y[folds == f]
            for ga in (0, 1):
                for gy in (0, 1):
                    assert np.any((fa == ga) & (fy == gy))

    def test_deterministic(self):
        ds = balanced_dataset(40)
        f1 = kfold(ds, 4, seed=9)
        f2 = kfold(ds, 4, seed=9)
        for x, z in zip(f1, f2):
            np.testing.assert_array_equal(x, z)

    def test_insufficient_cells(self):
        ds = numeric_dataset(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1],
                           [0, 1, 1, 0, 1, 1])
        with pytest.raises(DataError):
            kfold(ds, 3, seed=0)


class TestHoldout:
    def test_disjoint_and_stratified(self):
        ds = balanced_dataset(100, seed=5)
        held = holdout_split(ds.a, ds.y, 0.2, seed=0)
        assert held.dtype == bool and held.shape == (100,)
        for rows in (~held, held):
            assert 0 < ds.a[rows].sum() < rows.sum()
            assert 0 < ds.y[rows].sum() < rows.sum()


@st.composite
def split_cases(draw):
    """(a, y, seed) with few enough rows that some cells are too small."""
    n = draw(st.integers(1, 40))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return (np.asarray(draw(bits), dtype=np.int64),
            np.asarray(draw(bits), dtype=np.int64),
            draw(st.integers(0, 2 ** 32 - 1)))


FOLDS = st.integers(1, 6)
# a few out of (0, 1), which holdout_split rejects
FRACTIONS = st.floats(-0.1, 1.1)


def loop_fold_of(dataset, k, seed):
    """oracles.loop_kfold's folds as each row's fold."""
    fold_of = np.full(dataset.n, -1)
    for f, rows in enumerate(oracles.loop_kfold(dataset, k, seed)):
        fold_of[rows] = f
    return fold_of


def loop_held_out(a, y, fraction, seed):
    """oracles.loop_holdout_split's test rows as a mask."""
    held = np.zeros(a.size, bool)
    held[oracles.loop_holdout_split(a, y, fraction, seed)[1]] = True
    return held


def folds_or_error(kfold_fn, a, y, k, seed):
    """(dtype, each row's fold as a list), or (error type, message)."""
    try:
        folds = kfold_fn(numeric_dataset(np.zeros((a.size, 1)), a, y), k, seed)
    except (DataError, ParameterError) as exc:
        return type(exc), str(exc)
    return folds.dtype, folds.tolist()


def split_or_error(split_fn, a, y, fraction, seed):
    """(dtype, the held-out mask as a list), or (error type, message)."""
    try:
        held = split_fn(a, y, fraction, seed)
    except (DataError, ParameterError) as exc:
        return type(exc), str(exc)
    return held.dtype, held.tolist()


def nonempty_cells(a, y):
    return [cell for cell in ((a == ga) & (y == gy) for ga in (0, 1)
                              for gy in (0, 1)) if cell.any()]


class TestSplitProperties:
    @settings(max_examples=300, deadline=None)
    @given(split_cases(), FOLDS)
    def test_kfold_matches_loop_reference(self, case, k):
        a, y, seed = case
        assert (folds_or_error(kfold, a, y, k, seed)
                == folds_or_error(loop_fold_of, a, y, k, seed))

    @settings(max_examples=300, deadline=None)
    @given(split_cases(), FRACTIONS)
    def test_holdout_matches_loop_reference(self, case, fraction):
        a, y, seed = case
        assert (split_or_error(holdout_split, a, y, fraction, seed)
                == split_or_error(loop_held_out, a, y, fraction, seed))

    @settings(max_examples=300, deadline=None)
    @given(split_cases(), FOLDS)
    def test_kfold_invariants(self, case, k):
        a, y, seed = case
        dtype, folds = folds_or_error(kfold, a, y, k, seed)
        assume(isinstance(folds, list))  # not an error's message
        assert dtype == np.int64
        folds = np.asarray(folds)
        assert folds.shape == a.shape
        assert ((folds >= 0) & (folds < k)).all()  # every row in one fold
        for f in range(k):
            fold = folds == f
            assert set(a[fold]) == {0, 1} and set(y[fold]) == {0, 1}

    @settings(max_examples=300, deadline=None)
    @given(split_cases(), FRACTIONS)
    def test_holdout_invariants(self, case, fraction):
        a, y, seed = case
        dtype, held = split_or_error(holdout_split, a, y, fraction, seed)
        assume(isinstance(held, list))  # not an error's message
        assert dtype == bool
        held = np.asarray(held, bool)
        assert held.shape == a.shape
        for cell in nonempty_cells(a, y):
            assert (cell & ~held).any() and (cell & held).any()


class TestEpochBatches:
    def test_exact_division(self):
        gen = np.random.default_rng(0)
        a = np.tile([0, 1], 500)
        y = gen.integers(0, 2, 1000)
        batches = epoch_batches(a, y, 500, Rng(0))
        assert len(batches) == 2
        assert all(b.size == 500 for b in batches)
        union = np.unique(np.concatenate(batches))
        assert union.size == 1000

    def test_remainder_resampled(self):
        gen = np.random.default_rng(1)
        a = np.concatenate([np.tile([0, 1], 500), [0]])
        y = gen.integers(0, 2, 1001)
        batches = epoch_batches(a, y, 500, Rng(0))
        assert len(batches) == 3
        assert all(b.size == 500 for b in batches)
        assert all(np.unique(b).size == 500 for b in batches)
        union = np.unique(np.concatenate(batches))
        assert union.size == 1001
        # exactly one index of the third batch is fresh, 499 are resampled
        fresh = np.setdiff1d(batches[-1], np.concatenate(batches[:-1]))
        assert fresh.size == 1
        for b in batches:
            assert 0 < a[b].sum() < 500

    def test_batches_satisfy_invariants_100_epochs(self):
        gen = np.random.default_rng(2)
        n = 103
        a = gen.integers(0, 2, n)
        y = gen.integers(0, 2, n)
        a[:4] = [0, 1, 0, 1]
        y[:4] = [0, 0, 1, 1]
        rng = Rng(7)
        for _ in range(100):
            batches = epoch_batches(a, y, 20, rng, need_classes=True)
            seen = np.unique(np.concatenate(batches))
            assert seen.size == n
            for idx in batches:
                assert idx.size == 20
                assert len(set(idx.tolist())) == 20  # no duplicates in a batch
                Batch(np.full(20, 0.5), a[idx], y[idx])  # group invariant holds
                assert 0 < y[idx].sum() < 20

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_one_int64_matrix(self, n):
        a, y = np.arange(n) % 2, np.arange(n) // 2 % 2
        batches = epoch_batches(a, y, 500, Rng(0), need_classes=True)
        assert batches.dtype == np.int64
        assert batches.shape == (-(-n // 500), 500)
        assert batches.flags.c_contiguous

    def test_oversized_batch_rejected(self):
        with pytest.raises(DataError):
            epoch_batches(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]),
                          8, Rng(0))

    def test_epochs_from_one_rng_reshuffle(self):
        ds = balanced_dataset(40)
        rng = Rng(3)
        first, second = ([b.tolist() for b in epoch_batches(ds.a, ds.y, 10, rng)]
                         for _ in range(2))
        assert first != second


@st.composite
def batching_cases(draw):
    """(a, y, size, need_classes, seed), including sizes and cell counts
    that epoch_batches must reject."""
    n = draw(st.integers(1, 60))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    a = np.asarray(draw(bits), dtype=np.int64)
    y = np.asarray(draw(bits), dtype=np.int64)
    # tiny sizes reach the errors raised while seeding the batches
    size = draw(st.one_of(st.integers(1, 4), st.integers(1, n + 2)))
    return (a, y, size, draw(st.booleans()),
            draw(st.integers(0, 2 ** 32 - 1)))


def two_epochs(batching, a, y, size, need_classes, seed):
    """Two consecutive epochs from one Rng, as index lists, or the error
    that ended them."""
    rng = Rng(seed)
    out = []
    for _ in range(2):
        try:
            batches = batching(a, y, size, rng, need_classes=need_classes)
        except (DataError, ParameterError) as exc:
            out.append((type(exc), str(exc)))
            break
        out.append([b.tolist() for b in batches])
    return out


def _case(a, y, size, seed):
    return (np.asarray(a), np.asarray(y), size, True, seed)


class TestEpochBatchesProperties:
    @settings(max_examples=300, deadline=None)
    @given(batching_cases())
    # the rare errors, which random cases reach only now and then: the
    # batch cannot hold the cells, the cells overlap too much to seed, and
    # the final batch is too small to stratify
    @example(_case([1, 1, 1, 0, 0], [1, 1, 0, 0, 1], 2, 1))
    @example(_case([1, 0, 0, 0, 1, 1, 1], [1, 1, 0, 1, 0, 0, 0], 2, 1))
    @example(_case([1, 1, 1, 1, 0, 0, 1, 0], [0, 1, 0, 1, 1, 1, 0, 1], 3, 3))
    def test_matches_set_based_reference(self, case):
        assert (two_epochs(epoch_batches, *case)
                == two_epochs(oracles.loop_epoch_batches, *case))

    @settings(max_examples=300, deadline=None)
    @given(batching_cases())
    def test_invariants(self, case):
        a, y, size, need_classes, seed = case
        epochs = two_epochs(epoch_batches, *case)
        assume(all(isinstance(e, list) for e in epochs))
        cells = [a == 1, a == 0] + ([y == 1, y == 0] if need_classes else [])
        for batches in epochs:
            assert len(batches) == -(-a.size // size)
            for idx in batches:
                assert len(idx) == size
                assert len(set(idx)) == size
                for cell in cells:
                    assert cell[idx].any()
            assert set().union(*batches) == set(range(a.size))


class TestSchema:
    def test_adult_preset_resolves(self):
        schema = resolve_schema("adult")
        assert schema.label == "income"
        assert schema.sensitive == "sex"
        assert schema.protected_value == "Female"
        assert schema.positive_label == ">50K"
        assert adult_schema().missing_token == "?"

    def test_roundtrip_json(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(dataclasses.asdict(SCHEMA)), encoding="utf-8")
        loaded = SchemaConfig.from_json(path)
        assert loaded == SCHEMA

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig(numeric=["x"], categorical=["x"], label="l",
                         positive_label="1", sensitive="s", protected_value="1")

    @pytest.mark.parametrize("features", [
        {"numeric": ["amount", "outcome"]},
        {"categorical": ["kind", "outcome"]}], ids=["numeric", "categorical"])
    def test_label_among_features_rejected(self, features):
        with pytest.raises(SchemaError, match="'outcome' is also a feature"):
            dataclasses.replace(SCHEMA, **features)

    def test_label_as_sensitive_rejected(self):
        with pytest.raises(SchemaError,
                           match="'outcome' is also the sensitive column"):
            dataclasses.replace(SCHEMA, sensitive="outcome")

    def test_sensitive_among_features_allowed(self):
        schema = dataclasses.replace(SCHEMA, categorical=["kind", "grp"])
        assert schema.used_columns.count("grp") == 2

    @pytest.mark.parametrize("key,value", [
        ("numeric", "amount"), ("categorical", "kind"), ("numeric", [1]),
        ("label", ["outcome"]), ("sensitive", None), ("missing_token", 0)])
    def test_wrongly_typed_field_rejected(self, tmp_path, key, value):
        # an integer missing_token would never equal a cell and drop nothing
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({**dataclasses.asdict(SCHEMA), key: value}),
                        encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{key} must be "):
            SchemaConfig.from_json(path)
