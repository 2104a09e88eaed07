import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyot.errors import DataError, UsageError
from proxyot.numerics import (
    cosine,
    kl_rows,
    l2_normalize_rows,
    log_sum_exp,
    softmax_rows,
)

LN2 = 0.6931471805599453


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(LN2, abs=1e-15)

    def test_no_overflow_at_large_magnitude(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + LN2, abs=1e-12)

    def test_neg_inf_is_absorbing(self):
        assert log_sum_exp([0.0, -np.inf]) == 0.0

    def test_all_neg_inf_gives_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_empty_input_rejected(self):
        with pytest.raises(UsageError):
            log_sum_exp([])

    def test_plus_inf_and_nan_rejected(self):
        with pytest.raises(DataError):
            log_sum_exp([0.0, np.inf])
        with pytest.raises(DataError):
            log_sum_exp([0.0, np.nan])

    def test_matches_direct_evaluation_in_safe_range(self):
        # Direct ln(sum(exp)) with compensated summation is an independent path.
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.uniform(-20, 20, size=rng.integers(1, 9))
            direct = math.log(math.fsum(math.exp(x) for x in v))
            assert log_sum_exp(v) == pytest.approx(direct, rel=1e-13)

    def test_dominates_max(self):
        """log_sum_exp(v) >= max(v), equal only when one finite entry remains."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.uniform(-5, 5, size=6)
            assert log_sum_exp(v) > np.max(v)
        assert log_sum_exp([3.0, -np.inf, -np.inf]) == 3.0


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows([[0.0, 0.0]], tau=1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_small_tau_approaches_argmax(self):
        out = softmax_rows([[1.0, 0.0]], tau=1e-3)
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_frozen_three_way_values(self):
        # Expected values computed with 60-digit decimal arithmetic.
        out = softmax_rows([[1.0, 2.0, 3.0]], tau=1.0)
        expected = [[0.09003057317038046, 0.24472847105479764, 0.6652409557748219]]
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_rows_sum_to_one_and_stay_positive(self):
        """Strict positivity holds while exponent spreads stay representable.

        Float64 underflows exp below about -745, so the test stays inside
        that range; row-stochasticity holds regardless.
        """
        rng = np.random.default_rng(42)
        m = rng.uniform(-3, 3, size=(40, 7))
        out = softmax_rows(m, tau=0.01)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)
        extreme = softmax_rows(rng.uniform(-50, 50, size=(40, 7)), tau=0.01)
        np.testing.assert_allclose(extreme.sum(axis=1), 1.0, atol=1e-12)

    def test_invariant_under_row_shift(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-2, 2, size=(5, 4))
        shifted = m + rng.uniform(-10, 10, size=(5, 1))
        np.testing.assert_allclose(
            softmax_rows(m, 0.5), softmax_rows(shifted, 0.5), atol=1e-13
        )

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(UsageError):
            softmax_rows([[1.0, 2.0]], tau=0.0)
        with pytest.raises(UsageError):
            softmax_rows([[1.0, 2.0]], tau=-1.0)

    def test_huge_magnitudes_stay_finite(self):
        out = softmax_rows([[1.0, -1.0]], tau=1e-4)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15
        )

    def test_axis_rows(self):
        np.testing.assert_allclose(
            l2_normalize_rows([[2.0, 0.0], [0.0, 5.0]]),
            [[1.0, 0.0], [0.0, 1.0]],
            atol=1e-15,
        )

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((20, 6))
        once = l2_normalize_rows(m)
        np.testing.assert_allclose(l2_normalize_rows(once), once, atol=1e-12)

    def test_zero_row_names_index(self):
        with pytest.raises(DataError, match="row 1"):
            l2_normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_names_row(self):
        """Rows whose squared entries over- or underflow are normalized too."""
        out = l2_normalize_rows(
            [[1.0, 0.0], [1e200, 1e200], [1e-200, 1e-200], [1e-170, 0.0], [1e-160, 1e-160]]
        )
        half = math.sqrt(0.5)
        np.testing.assert_allclose(
            out, [[1.0, 0.0], [half, half], [half, half], [1.0, 0.0], [half, half]],
            rtol=0, atol=1e-15,
        )

    def test_zero_row_after_tiny_rows_names_its_index(self):
        with pytest.raises(DataError, match="all-zero row 2"):
            l2_normalize_rows([[1e-200, 0.0], [1e200, 1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_ordinary_rows_unchanged_beside_rescaled_ones(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 4))
        mixed = m.copy()
        mixed[2] *= 1e200
        mixed[4] *= 1e-200
        keep = [0, 1, 3, 5]
        assert np.array_equal(l2_normalize_rows(mixed)[keep], l2_normalize_rows(m)[keep])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3),
            min_size=1, max_size=8,
        ).filter(lambda row: any(row)),
        # the second band is where squared entries are subnormal but not all zero
        st.integers(-1000, 1000) | st.integers(-575, -505),
    )
    def test_power_of_two_scaled_rows_come_out_unit(self, row, exponent):
        base = np.array([row])
        out = l2_normalize_rows(base * 2.0**exponent)  # exact: entries stay normal
        np.testing.assert_allclose(np.linalg.norm(out), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, base / np.linalg.norm(base), rtol=0, atol=1e-12)

    def test_output_norms(self):
        rng = np.random.default_rng(0)
        out = l2_normalize_rows(rng.uniform(0.1, 9.0, size=(30, 5)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 2.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_axes(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal(self):
        v = np.array([0.5, 2.5, -1.0])
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_range(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            c = cosine(rng.standard_normal(8), rng.standard_normal(8))
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestKlRows:
    def test_identical_rows_give_zero(self):
        p = np.array([[0.2, 0.3, 0.5], [0.7, 0.1, 0.2]])
        np.testing.assert_allclose(kl_rows(p, p), 0.0, atol=1e-15)

    def test_one_hot_against_uniform(self):
        out = kl_rows([[1.0, 0.0]], [[0.5, 0.5]])
        np.testing.assert_allclose(out, [LN2], atol=1e-15)

    def test_frozen_derived_value(self):
        # 0.75 ln 1.5 + 0.25 ln 0.5, 60-digit decimal arithmetic.
        out = kl_rows([[0.75, 0.25]], [[0.5, 0.5]])
        np.testing.assert_allclose(out, [0.13081203594113696], rtol=1e-14)

    def test_support_violation_rejected(self):
        with pytest.raises(DataError, match="support"):
            kl_rows([[0.5, 0.5]], [[1.0, 0.0]])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4), size=3)
            q = rng.dirichlet(np.ones(4), size=3)
            out = kl_rows(p, q)
            assert np.all(out >= 0)
        np.testing.assert_allclose(kl_rows(p, p), 0.0, atol=1e-14)

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(DataError):
            kl_rows([[0.5, 0.4]], [[0.5, 0.5]])
