import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from fairmlp.errors import (DegenerateBatchError, NumericError, ParameterError,
                            ShapeError)
from fairmlp.fairloss import (CONSTRAINTS, OBJECTIVES, Batch, MultiGroupBatch,
                              _dp, _dp_multi, const_di, const_dp,
                              const_dp_multi, const_eo, constraint_value,
                              cross_entropy, fnr_gap, fpr_gap, grad_wrt_p,
                              q_mean, slack)
from fairmlp.numcore import Rng
from conftest import random_batch, two_groups

DP_BATCH = Batch(np.array([0.8, 0.6, 0.2, 0.4]),
                 np.array([1, 1, 0, 0]), np.array([0, 1, 0, 1]))
EO_BATCH = Batch(np.array([0.9, 0.8, 0.1, 0.6]),
                 np.array([1, 1, 0, 0]), np.array([0, 1, 0, 1]))
Q_BATCH = Batch(np.array([0.9, 0.7, 0.2, 0.4]),
                np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))


def swap_groups(batch: Batch) -> Batch:
    return Batch(batch.p, 1 - batch.a.astype(int), batch.y.astype(int))


def random_multi_group_batch(rng: np.random.Generator,
                             m: int) -> MultiGroupBatch:
    """6-30 rows in (0.05, 0.95), each of the m groups present."""
    n = int(rng.integers(6, 30))
    p = rng.uniform(0.05, 0.95, n)
    group = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    return MultiGroupBatch(p, group, m)


class TestHandFixtures:
    def test_dp(self):
        assert abs(const_dp(DP_BATCH) - 0.4) <= 1e-9

    def test_fpr_fnr(self):
        assert abs(fpr_gap(EO_BATCH) - 0.4) <= 1e-9
        assert abs(fnr_gap(EO_BATCH) - 0.1) <= 1e-9

    def test_eo(self):
        assert abs(const_eo(EO_BATCH, "sum") - 0.5) <= 1e-9
        assert abs(const_eo(EO_BATCH, "max") - 0.4) <= 1e-9

    def test_di(self):
        assert abs(const_di(DP_BATCH) - (-3.0 / 7.0)) <= 1e-9

    def test_qmean(self):
        assert abs(q_mean(Q_BATCH) - math.sqrt(0.13)) <= 1e-9

    def test_dp_multi_two_groups(self):
        assert abs(const_dp_multi(two_groups(DP_BATCH)) - 0.8) <= 1e-9


class TestTrivialCases:
    def test_constant_p_gives_zero_dp_eo(self):
        # label composition matches across groups, so the group-size
        # denominators cancel and constant p wipes out every gap
        b = Batch(np.full(6, 0.3), np.array([1, 1, 1, 0, 0, 0]),
                  np.array([1, 0, 1, 1, 0, 1]))
        assert const_dp(b) == 0.0
        assert const_eo(b, "sum") == 0.0
        assert const_eo(b, "max") == 0.0
        assert const_di(b) == -1.0

    def test_group_swap_symmetry(self):
        for batch in (DP_BATCH, EO_BATCH):
            sw = swap_groups(batch)
            assert abs(const_dp(batch) - const_dp(sw)) <= 1e-12
            assert abs(const_eo(batch, "sum") - const_eo(sw, "sum")) <= 1e-12
            assert abs(const_di(batch) - const_di(sw)) <= 1e-12

    def test_all_positive_labels_zero_fpr(self):
        b = Batch(np.array([0.8, 0.3, 0.6, 0.1]),
                  np.array([1, 1, 0, 0]), np.array([1, 1, 1, 1]))
        assert fpr_gap(b) == 0.0

    def test_single_group_rejected(self):
        with pytest.raises(DegenerateBatchError):
            Batch(np.array([0.5, 0.6]), np.array([1, 1]), np.array([0, 1]))

    def test_non_finite_probability_is_a_numeric_error(self):
        with pytest.raises(NumericError):
            Batch(np.array([0.5, np.nan]), np.array([1, 0]), np.array([0, 1]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_finite_probability_outside_open_interval_rejected(self, p):
        with pytest.raises(ParameterError, match=r"strictly in \(0, 1\)"):
            Batch(np.array([0.5, p]), np.array([1, 0]), np.array([0, 1]))

    @pytest.mark.parametrize("a,y", [([1, 2], [0, 1]), ([1, 0], [0, -1]),
                                     ([1, 0], [0.5, 1])],
                             ids=["a_has_2", "y_has_minus_1", "y_has_half"])
    def test_non_binary_attribute_or_label_rejected(self, a, y):
        with pytest.raises(ParameterError, match="binary"):
            Batch(np.array([0.5, 0.6]), np.array(a), np.array(y))

    def test_single_class_qmean_rejected(self):
        b = Batch(np.array([0.5, 0.6]), np.array([1, 0]), np.array([1, 1]))
        with pytest.raises(DegenerateBatchError):
            q_mean(b)

    def test_qmean_perfect_predictions_near_zero(self):
        eps = 1e-7
        b = Batch(np.array([1 - eps, 1 - eps, eps, eps]),
                  np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
        assert q_mean(b) <= 1e-6


class TestSlack:
    def test_slack_values(self):
        assert slack("dp", 0.05) == 0.05
        assert slack("di", 80) == -0.8

    @pytest.mark.parametrize("constraint,value", [
        ("dp", -0.1), ("dp", float("nan")), ("dp", float("inf")),
        ("dp", None), ("di", 0.0), ("di", 150.0), ("di", float("inf")),
        ("di", None), ("nope", 0.1)])
    def test_validation(self, constraint, value):
        with pytest.raises(ParameterError):
            slack(constraint, value)


class TestCrossEntropy:
    def test_half_gives_ln2(self):
        assert abs(cross_entropy(np.array([0.5, 0.5]), np.array([1, 0]))
                   - math.log(2.0)) <= 1e-9

    def test_perfect_prediction_near_zero(self):
        assert cross_entropy(np.array([1.0 - 1e-7]), np.array([1])) <= 2e-7

    def test_clamped_worst_case(self):
        out = cross_entropy(np.array([1e-7]), np.array([1]))
        assert abs(out - (-math.log(1e-7))) <= 1e-9
        assert abs(out - 16.11809565) <= 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.array([0.5]), np.array([1, 0]))


class TestLoopOracleEquivalence:
    def test_thousand_random_batches(self):
        rng = Rng(100)
        for _ in range(1000):
            b = random_batch(rng, s_min=2, s_max=64, need_classes=True)
            p, a, y = b.p.tolist(), b.a.astype(int).tolist(), b.y.astype(int).tolist()
            assert abs(const_dp(b) - oracles.loop_dp(p, a)) <= 1e-12
            assert abs(fpr_gap(b) - oracles.loop_fpr(p, a, y)) <= 1e-12
            assert abs(fnr_gap(b) - oracles.loop_fnr(p, a, y)) <= 1e-12
            assert abs(const_eo(b, "sum") - oracles.loop_eo_sum(p, a, y)) <= 1e-12
            assert abs(const_eo(b, "max") - oracles.loop_eo_max(p, a, y)) <= 1e-12
            assert abs(const_di(b) - oracles.loop_di(p, a)) <= 1e-12
            assert abs(q_mean(b) - oracles.loop_qmean(p, y)) <= 1e-12
            assert abs(cross_entropy(b.p, b.y)
                       - oracles.loop_cross_entropy(p, y)) <= 1e-12
            assert abs(const_dp_multi(two_groups(b))
                       - oracles.loop_dp_multi(p, a, 2)) <= 1e-12


class TestRangeInvariants:
    def test_bounds_on_random_batches(self):
        rng = Rng(200)
        for _ in range(300):
            b = random_batch(rng, need_classes=True)
            assert 0.0 <= const_dp(b) <= 1.0
            eo_sum = const_eo(b, "sum")
            eo_max = const_eo(b, "max")
            assert 0.0 <= eo_sum <= 2.0
            assert 0.0 <= eo_max <= 1.0
            assert eo_max <= eo_sum <= 2.0 * eo_max + 1e-15
            assert -1.0 <= const_di(b) < 0.0


class TestGradients:
    KINDS = ("dp", "eo-sum", "eo-max", "di", "ce", "qmean")

    @staticmethod
    def value_of(kind, batch):
        if kind == "ce":
            return cross_entropy(batch.p, batch.y)
        if kind == "qmean":
            return q_mean(batch)
        return constraint_value(batch, kind)

    @staticmethod
    def away_from_kinks(batch, tol=1e-6):
        m1, m0 = (batch.p * batch.a).sum() / batch.a.sum(), \
            (batch.p * (1 - batch.a)).sum() / (1 - batch.a).sum()
        fpr_in = abs((batch.p * (1 - batch.y) * batch.a).sum() / batch.a.sum()
                     - (batch.p * (1 - batch.y) * (1 - batch.a)).sum()
                     / (1 - batch.a).sum())
        fnr_in = abs(((1 - batch.p) * batch.y * batch.a).sum() / batch.a.sum()
                     - ((1 - batch.p) * batch.y * (1 - batch.a)).sum()
                     / (1 - batch.a).sum())
        r = m1 / m0
        checks = [abs(m1 - m0), fpr_in, fnr_in, abs(fpr_in - fnr_in),
                  abs(r - 1.0)]
        return min(checks) > tol

    def test_dp_gradient_closed_form(self):
        b = DP_BATCH  # positive inner expression: 0.7 - 0.3
        g = grad_wrt_p("dp", b)
        expect = b.a / b.a.sum() - (1 - b.a) / (1 - b.a).sum()
        np.testing.assert_allclose(g, expect, atol=1e-15)

    def test_kink_returns_zero_subgradient(self):
        b = Batch(np.full(4, 0.4), np.array([1, 1, 0, 0]),
                  np.array([1, 0, 1, 0]))
        assert not grad_wrt_p("dp", b).any()

    def test_finite_differences_all_kinds(self):
        rng = Rng(300)
        h = 1e-5
        for kind in self.KINDS:
            checked = 0
            while checked < 100:
                b = random_batch(rng, s_min=4, s_max=24,
                                 p_lo=0.1, p_hi=0.9, need_classes=True)
                if not self.away_from_kinks(b):
                    continue
                g = grad_wrt_p(kind, b)
                fd = np.zeros_like(g)
                for i in range(b.p.shape[0]):
                    up = b.p.copy()
                    down = b.p.copy()
                    up[i] += h
                    down[i] -= h
                    fd[i] = (self.value_of(kind, Batch(up, b.a.astype(int), b.y.astype(int)))
                             - self.value_of(kind, Batch(down, b.a.astype(int), b.y.astype(int)))) / (2 * h)
                scale = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(g - fd) / scale).max() <= 1e-5, kind
                checked += 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_finite_differences_dp_multi(self, m):
        rng = Rng(310 + m)
        h = 1e-5
        checked = 0
        while checked < 100:
            b = random_multi_group_batch(rng, m)
            split_gaps = [abs(b.p[b.group == j].mean() - b.p[b.group != j].mean())
                          for j in range(m)]
            if min(split_gaps) <= 1e-6:  # away from the |.| kinks
                continue
            g = _dp_multi(b)[1]
            fd = np.zeros_like(g)
            for i in range(b.p.shape[0]):
                up = b.p.copy()
                down = b.p.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (const_dp_multi(MultiGroupBatch(up, b.group, m))
                         - const_dp_multi(MultiGroupBatch(down, b.group, m))) / (2 * h)
            scale = np.maximum(np.abs(fd), 1e-6)
            assert (np.abs(g - fd) / scale).max() <= 1e-5, m
            checked += 1

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            grad_wrt_p("nope", DP_BATCH)
        with pytest.raises(ParameterError):
            constraint_value(DP_BATCH, "nope")


class TestMultiGroup:
    def test_three_singleton_groups_equal_means(self):
        mb = MultiGroupBatch(np.array([0.5, 0.5, 0.5]),
                             np.array([0, 1, 2]), 3)
        assert const_dp_multi(mb) == 0.0

    def test_missing_group_rejected(self):
        with pytest.raises(DegenerateBatchError):
            MultiGroupBatch(np.array([0.5, 0.5]), np.array([0, 0]), 2)

    def test_binary_dp_multi_is_exactly_twice_dp(self):
        rng = Rng(45)
        for _ in range(200):
            b = random_batch(rng, s_min=2, s_max=40)
            multi, g_multi = _dp_multi(two_groups(b))
            dp, g_dp = _dp(b)
            assert multi == 2.0 * dp
            np.testing.assert_array_equal(g_multi, 2.0 * g_dp)

    def test_three_group_value_matches_oracle(self):
        rng = Rng(44)
        for _ in range(50):
            mb = random_multi_group_batch(rng, 3)
            assert abs(const_dp_multi(mb)
                       - oracles.loop_dp_multi(mb.p.tolist(), mb.group.tolist(),
                                               3)) <= 1e-12


TERMS = {name: entry.value_and_grad
         for name, entry in {**CONSTRAINTS, **OBJECTIVES}.items()}
PROBS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def term_batches(draw):
    """A batch of 2-64 rows holding both groups; now and then it holds a
    single label class, on which the class-conditioned terms must fail."""
    n = draw(st.integers(2, 64))
    p = draw(st.lists(PROBS, min_size=n, max_size=n))
    a = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    a[draw(st.integers(1, n - 1))] = 1 - a[0]
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Batch(np.array(p), np.array(a), np.array(y))


@st.composite
def multi_group_batches(draw, m):
    """A batch of m-64 rows holding each of its m groups."""
    n = draw(st.integers(m, 64))
    p = draw(st.lists(PROBS, min_size=n, max_size=n))
    rest = draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    group = draw(st.permutations(list(range(m)) + rest))
    return MultiGroupBatch(np.array(p), np.array(group), m)


def outcome(value_and_grad, batch):
    """A term's value and gradient as bits, or the error it raised."""
    try:
        value, grad = value_and_grad(batch)
    except (ArithmeticError, DegenerateBatchError, ParameterError) as exc:
        return type(exc), str(exc)
    return type(value), np.float64(value).tobytes(), grad.dtype, grad.tobytes()


def twin(name):
    value, grad = oracles.TWIN_TERMS[name]
    return lambda batch: (value(batch), grad(batch))


# tiny probabilities overflow the cross-entropy gradient and the ratios
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestTermsMatchTwins:
    def test_every_table_entry_has_a_twin(self):
        assert set(oracles.TWIN_TERMS) == set(TERMS)

    @pytest.mark.parametrize("name", sorted(TERMS))
    @settings(max_examples=200, deadline=None)
    @given(term_batches())
    @example(Batch(np.array([0.4, 0.4, 0.4, 0.4]), np.array([1, 1, 0, 0]),
                   np.array([1, 0, 1, 0])))          # |.| kinks, min/max ties
    @example(Batch(np.array([0.3, 0.6]), np.array([1, 0]),
                   np.array([1, 1])))                # a single label class
    @example(Batch(np.array([1e-9, 0.5, 1e-12]), np.array([1, 0, 1]),
                   np.array([0, 1, 1])))             # the DI floor binds
    def test_value_and_gradient_bits(self, name, batch):
        assert outcome(TERMS[name], batch) == outcome(twin(name), batch)

    @settings(max_examples=200, deadline=None)
    @given(term_batches())
    def test_unfloored_di(self, batch):
        def unfloored(fn):
            try:
                return fn(batch, mean_floor=0.0)
            except ArithmeticError as exc:
                return type(exc), str(exc)
        assert unfloored(const_di) == unfloored(oracles.twin_const_di)

    @pytest.mark.parametrize("m", [2, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_dp_multi_value_and_gradient_bits(self, m, data):
        # the m-group term has no table entry, so it is checked on its own
        batch = data.draw(multi_group_batches(m))
        twin = (lambda b: (oracles.twin_const_dp_multi(b),
                           oracles.twin_grad_dp_multi_wrt_p(b)))
        assert outcome(_dp_multi, batch) == outcome(twin, batch)

    @settings(max_examples=200, deadline=None)
    @given(term_batches())
    def test_dp_multi_is_twice_dp(self, batch):
        dp, g_dp = _dp(batch)
        multi, g_multi = _dp_multi(two_groups(batch))
        assert multi == 2.0 * dp
        np.testing.assert_array_equal(g_multi, 2.0 * g_dp)
