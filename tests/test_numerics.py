import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import softmax_rows
from proxyot.errors import DataError
from proxyot.numerics import (
    _lse,
    _softmax_columns,
    as_matrix,
    l2_normalize_rows,
)

LN2 = 0.6931471805599453


def lse(v):
    """``_lse`` of one vector, as a float."""
    return float(_lse(np.asarray(v, dtype=np.float64), axis=0))


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert lse([0.0, 0.0]) == pytest.approx(LN2, abs=1e-15)

    def test_no_overflow_at_large_magnitude(self):
        assert lse([1000.0, 1000.0]) == pytest.approx(1000.0 + LN2, abs=1e-12)
        assert lse([-1000.0, -1000.0]) == pytest.approx(-1000.0 + LN2, abs=1e-12)

    def test_neg_inf_is_absorbing(self):
        assert lse([0.0, -np.inf]) == 0.0

    def test_all_neg_inf_gives_neg_inf(self):
        assert lse([-np.inf, -np.inf]) == -np.inf

    def test_matches_direct_evaluation_in_safe_range(self):
        # Direct ln(sum(exp)) with compensated summation is an independent path.
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.uniform(-20, 20, size=rng.integers(1, 9))
            direct = math.log(math.fsum(math.exp(x) for x in v))
            assert lse(v) == pytest.approx(direct, rel=1e-13)

    def test_dominates_max(self):
        """lse(v) >= max(v), equal only when one finite entry remains."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.uniform(-5, 5, size=6)
            assert lse(v) > np.max(v)
        assert lse([3.0, -np.inf, -np.inf]) == 3.0


def lse_reference(a, axis):
    """The two-select ``_lse``: a non-finite maximum is selected again at the end.

    Kept frozen for :func:`proxyot.numerics._lse`, which drops that select
    because the shifted sum already returns the maximum. The solver and
    learner references import ``_lse`` itself, so only this test pins it.
    """
    mx = np.max(a, axis=axis, keepdims=True)
    safe_mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_mx + np.log(np.sum(np.exp(a - safe_mx), axis=axis, keepdims=True))
    out = np.where(np.isfinite(mx), out, mx)
    return np.squeeze(out, axis=axis)


LSE_ENTRIES = st.one_of(
    st.floats(-800, 800),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0]),
)


class TestLseMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
               elements=LSE_ENTRIES),
        st.sampled_from([0, 1]),
    )
    def test_bit_equal_on_any_entries(self, a, axis):
        with np.errstate(all="ignore"):
            got, want = _lse(a, axis), lse_reference(a, axis)
        assert got.shape == want.shape and got.dtype == want.dtype
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@st.composite
def wide_columns(draw):
    """K x N logits whose every column spans more than 700, past a plain exp's range."""
    k, n = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    z = draw(arrays(np.float64, (k, n), elements=st.floats(-1000, 1000)))
    z[0] = draw(arrays(np.float64, n, elements=st.floats(710, 1000)))
    z[1] = draw(arrays(np.float64, n, elements=st.floats(-1000, -1)))
    rows = draw(st.permutations(range(k)))
    return z[rows]


def softmax_columns_newton(s):
    """The column softmax as ``newton_semidual`` took it before the learner shared it, frozen."""
    a = s.copy()
    top = a.max(axis=0)
    a -= top
    np.exp(a, out=a)
    total = a.sum(axis=0)
    a /= total
    return a, top + np.log(total)


class TestSoftmaxColumns:
    @settings(max_examples=200, deadline=None)
    @given(wide_columns(), st.sampled_from([1.0, 0.01, 1e-3]))
    def test_columns_sum_to_one_and_lse_matches(self, z, tau):
        q = z.copy()
        lse = _softmax_columns(q, z.max(axis=0), tau)
        assert np.all(np.isfinite(q)) and np.all(q >= 0)
        np.testing.assert_allclose(q.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        # z / tau and (z - top) / tau round apart by an ulp of the largest |z / tau|
        ulp = np.abs(z / tau).max() * np.finfo(np.float64).eps
        np.testing.assert_allclose(lse, _lse(z / tau, axis=0), rtol=0, atol=4 * ulp)

    @settings(max_examples=200, deadline=None)
    @given(wide_columns())
    def test_bit_equal_to_the_newton_softmax_at_unit_tau(self, z):
        q = z.copy()
        lse = _softmax_columns(q, z.max(axis=0))
        want_q, want_lse = softmax_columns_newton(z)
        assert q.tobytes() == want_q.tobytes()
        assert lse.tobytes() == want_lse.tobytes()


class TestSoftmaxRows:
    """The row softmax oracle that A5 and the learner tests build fixed points from."""

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

    def test_rows_of_no_entries_are_all_zero(self):
        """A row of no entries has norm 0, so it fails like any all-zero row."""
        with pytest.raises(DataError, match=r"^cannot normalize all-zero row 0$"):
            l2_normalize_rows(np.zeros((2, 0)))

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


def l2_normalize_rows_reference(m):
    """Whole-matrix normalize: a full finiteness scan, then norms and a new output.

    Kept frozen for :func:`l2_normalize_rows`, which works in row blocks and
    must return the same matrix, or raise the same message, for any input.
    """
    mat = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise DataError(
            f"l2_normalize input has non-finite entry at ({i}, {j}): {float(mat[i, j])}"
        )
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    odd = np.flatnonzero((norms < np.sqrt(np.finfo(np.float64).tiny)) | np.isinf(norms))
    if odd.size == 0:
        return mat / norms[:, None]
    top = np.abs(mat[odd]).max(axis=1)
    zero = odd[top == 0.0]
    if zero.size:
        raise DataError(f"cannot normalize all-zero row {zero[0]}")
    rows = mat[odd] / top[:, None]
    norms[odd] = 1.0
    out = mat / norms[:, None]
    out[odd] = rows / np.linalg.norm(rows, axis=1)[:, None]
    return out


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DataError as exc:
        return str(exc)


# the row-block boundaries of the whole-matrix passes lie at multiples of 8192
BLOCK_EDGE_ROWS = [0, 1, 8191, 8192, 8193, 20000]
SPECIAL_ROWS = {
    "huge": lambda row: row * 1e200,
    "tiny": lambda row: row * 1e-200,
    "zero": lambda row: row * 0.0,
    "nan": lambda row: np.where(np.arange(row.size) == row.size - 1, np.nan, row),
    "inf": lambda row: np.where(np.arange(row.size) == 0, -np.inf, row),
}


@st.composite
def block_matrices(draw):
    """Gaussian rows around the block edges, some made huge, tiny, zero or non-finite."""
    n = draw(st.sampled_from(BLOCK_EDGE_ROWS))
    d = draw(st.integers(1, 4))
    base = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d))
    m = base.copy()
    if n:
        specials = st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(SPECIAL_ROWS)))
        for i, kind in draw(st.lists(specials, max_size=4)):
            m[i] = SPECIAL_ROWS[kind](base[i])
    return m


def _assert_same(got, want):
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestL2NormalizeMatchesReference:
    """Row blocks and the in-place form give the whole-matrix results bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(block_matrices())
    def test_random_matrices(self, m):
        want = _outcome(l2_normalize_rows_reference, m)
        before = m.copy()
        _assert_same(_outcome(l2_normalize_rows, m), want)
        assert np.array_equal(m, before, equal_nan=True)  # copy=True leaves it alone
        _assert_same(_outcome(l2_normalize_rows, m, copy=False), want)

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ({9000: "zero", 17000: "zero"}, "cannot normalize all-zero row 9000"),
            ({8191: "zero", 15000: "nan"}, "non-finite entry at (15000, 2)"),
            ({100: "huge", 8192: "tiny", 19999: "zero"}, "all-zero row 19999"),
            ({8191: "huge", 8192: "tiny", 8193: "huge"}, None),
        ],
        ids=["zero-rows-in-two-blocks", "non-finite-after-zero", "odd-rows-then-zero",
             "odd-rows-across-an-edge"],
    )
    def test_named_blocks(self, kinds, message):
        m = np.random.default_rng(9).standard_normal((20000, 3))
        for i, kind in kinds.items():
            m[i] = SPECIAL_ROWS[kind](m[i])
        want = _outcome(l2_normalize_rows_reference, m)
        if message is not None:
            assert message in want
        _assert_same(_outcome(l2_normalize_rows, m), want)
        _assert_same(_outcome(l2_normalize_rows, m.copy(), copy=False), want)

    def test_in_place_returns_its_input(self):
        m = np.random.default_rng(2).standard_normal((10000, 5))
        want = l2_normalize_rows(m)
        out = l2_normalize_rows(m, copy=False)
        assert out is m
        assert np.array_equal(out, want)

    def test_in_place_converts_other_input_first(self):
        rows = [[3.0, 4.0], [0.0, 2.0]]
        out = l2_normalize_rows(rows, copy=False)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, [[0.6, 0.8], [0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("row", [0, 8191, 8192, 19999])
    def test_as_matrix_names_the_global_index(self, row):
        m = np.ones((20000, 2))
        m[row, 1] = np.inf
        with pytest.raises(DataError) as err:
            as_matrix(m, "images")
        assert str(err.value) == f"images has non-finite entry at ({row}, 1): inf"

