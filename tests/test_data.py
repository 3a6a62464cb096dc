import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from fairmlp.data import (Encoder, SchemaConfig, adult_schema, batch_iter,
                          encode, epoch_batches, extract_labels, fit_encoder,
                          holdout_split, kfold, load_csv, resolve_schema)
from fairmlp.errors import DataError, ParameterError, SchemaError
from fairmlp.fairloss import Batch
from fairmlp.numcore import Rng
from conftest import write_csv

SCHEMA = SchemaConfig(numeric=["amount"], categorical=["kind"],
                      label="outcome", positive_label="yes",
                      sensitive="grp", protected_value="f")


def small_csv(tmp_path, rows, header=("amount", "kind", "grp", "outcome")):
    path = tmp_path / "small.csv"
    write_csv(path, list(header), rows)
    return path


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        table = load_csv(path, SCHEMA)
        assert len(table.rows) == 2
        assert table.n_dropped == 0

    def test_missing_token_dropped(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m", "yes"], ["?", "b", "f", "no"]])
        table = load_csv(path, SCHEMA)
        assert len(table.rows) == 1
        assert table.n_dropped == 1

    def test_missing_column_is_schema_error(self, tmp_path):
        path = small_csv(tmp_path, [["1", "a", "m"]], header=("amount", "kind", "grp"))
        with pytest.raises(SchemaError):
            load_csv(path, SCHEMA)

    def test_cells_are_stripped(self, tmp_path):
        path = small_csv(tmp_path, [[" 1 ", " a", "f ", " yes"]])
        table = load_csv(path, SCHEMA)
        assert table.column("amount") == ["1"]
        assert table.column("grp") == ["f"]
        assert table.column("outcome") == ["yes"]


class TestEncode:
    def table(self, tmp_path, rows):
        return load_csv(small_csv(tmp_path, rows), SCHEMA)

    def test_one_hot_width(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"],
                                      ["2", "b", "f", "no"],
                                      ["3", "c", "m", "yes"]])
        ds = encode(table, SCHEMA)
        assert ds.d == 1 + 3
        assert ds.feature_names == ["amount", "kind=a", "kind=b", "kind=c"]

    def test_zscore_population(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "a", "f", "no"]])
        ds = encode(table, SCHEMA)
        np.testing.assert_allclose(ds.X[:, 0], [-1.0, 1.0], atol=1e-12)

    def test_label_and_attribute_mapping(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "a", "f", "no"]])
        ds = encode(table, SCHEMA)
        np.testing.assert_array_equal(ds.y, [1, 0])
        np.testing.assert_array_equal(ds.a, [0, 1])

    def test_zero_variance_encodes_to_zero(self, tmp_path):
        table = self.table(tmp_path, [["5", "a", "m", "yes"], ["5", "a", "f", "no"]])
        ds = encode(table, SCHEMA)
        np.testing.assert_array_equal(ds.X[:, 0], [0.0, 0.0])

    def test_unseen_category_zero_row(self, tmp_path):
        train = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "b", "f", "no"]])
        enc = fit_encoder(train, SCHEMA)
        test = self.table(tmp_path, [["2", "zzz", "m", "yes"]])
        ds = encode(test, SCHEMA, enc)
        np.testing.assert_array_equal(ds.X[0, 1:], [0.0, 0.0])

    def test_reencoding_is_identity(self, tmp_path):
        rows = [[str(v), k, g, o] for v, k, g, o in
                zip(range(8), "aabbabab", "mfmfmfmf",
                    ["yes", "no"] * 4)]
        table = self.table(tmp_path, rows)
        ds1 = encode(table, SCHEMA)
        ds2 = encode(table, SCHEMA, ds1.encoder)
        np.testing.assert_allclose(ds1.X, ds2.X, atol=1e-12)

    def test_extract_labels_matches_encode(self, tmp_path):
        table = self.table(tmp_path, [["1", "a", "m", "yes"], ["3", "a", "f", "no"]])
        a, y = extract_labels(table, SCHEMA)
        ds = encode(table, SCHEMA)
        np.testing.assert_array_equal(a, ds.a)
        np.testing.assert_array_equal(y, ds.y)


def balanced_dataset(n, seed=0):
    # attribute perfectly tracks the label: two joint cells of n/2 each
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 3))
    y = np.tile([0, 1], n // 2)
    return encode_arrays(X, y.copy(), y)


def encode_arrays(X, a, y):
    from fairmlp.data import Dataset
    return Dataset(X=X, a=np.asarray(a), y=np.asarray(y),
                   feature_names=[f"x{i}" for i in range(X.shape[1])],
                   encoder=Encoder())


class TestKfold:
    def test_balanced_fold_sizes(self):
        ds = balanced_dataset(10)
        folds = kfold(ds, 5, seed=0)
        assert [f.size for f in folds] == [2, 2, 2, 2, 2]
        all_idx = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(all_idx, np.arange(10))

    def test_every_fold_has_all_cells(self):
        gen = np.random.default_rng(3)
        a = gen.integers(0, 2, 200)
        y = gen.integers(0, 2, 200)
        ds = encode_arrays(gen.normal(size=(200, 2)), a, y)
        for fold in kfold(ds, 5, seed=1):
            fa, fy = ds.a[fold], ds.y[fold]
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
        ds = encode_arrays(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1],
                           [0, 1, 1, 0, 1, 1])
        with pytest.raises(DataError):
            kfold(ds, 3, seed=0)


class TestHoldout:
    def test_disjoint_and_stratified(self):
        ds = balanced_dataset(100, seed=5)
        train_idx, test_idx = holdout_split(ds.a, ds.y, 0.2, seed=0)
        assert np.intersect1d(train_idx, test_idx).size == 0
        assert train_idx.size + test_idx.size == 100
        for idx in (train_idx, test_idx):
            assert 0 < ds.a[idx].sum() < idx.size
            assert 0 < ds.y[idx].sum() < idx.size


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

    def test_oversized_batch_rejected(self):
        with pytest.raises(DataError):
            epoch_batches(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]),
                          8, Rng(0))

    def test_batch_iter_reshuffles(self):
        ds = balanced_dataset(40)
        it = batch_iter(ds, 10, seed=3)
        first = [b.tolist() for b in next(it)]
        second = [b.tolist() for b in next(it)]
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
        SCHEMA.to_json(path)
        loaded = SchemaConfig.from_json(path)
        assert loaded == SCHEMA

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig(numeric=["x"], categorical=["x"], label="l",
                         positive_label="1", sensitive="s", protected_value="1")
