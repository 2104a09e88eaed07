import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import reference_plan

from proxyot.errors import DataError, NumericOverflowError, ProxyOTError, UsageError
from proxyot.numerics import _lse, _softmax_columns
from proxyot.solvers import (
    _ARMIJO,
    _DAMPING,
    _EPS,
    _HALVINGS,
    _MIN_DAMPING,
    _REFRESH_EVERY,
    _check_inputs,
    _finish,
    _violations,
    ALGORITHMS,
    ClassMarginal,
    PseudoLabels,
    SolverConfig,
    TransportPlan,
    entropic_objective,
    newton_semidual,
    pseudo_labels,
    sinkhorn_linear,
    sinkhorn_log,
    solve,
    stable_greenkhorn,
)

BASE_SEED = 20250808  # recorded seed for every random instance below


def random_instance(n, k, seed, low=-1.0, high=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(n, k))


def plan_matrix(plan):
    return np.exp(plan.log_p)


class TestClassMarginal:
    def test_uniform(self):
        q = ClassMarginal.uniform(4)
        np.testing.assert_allclose(q.q, 0.25, atol=1e-15)

    def test_from_weights_renormalizes_exactly(self):
        q = ClassMarginal.from_weights([2.0, 2.0])
        np.testing.assert_allclose(q.q, [0.5, 0.5], atol=0)

    def test_negative_entry_rejected(self):
        with pytest.raises(DataError, match="negative"):
            ClassMarginal.from_weights([1.0, -1.0])

    def test_zero_sum_rejected(self):
        with pytest.raises(DataError):
            ClassMarginal.from_weights([0.0, 0.0])

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(DataError):
            ClassMarginal(np.array([0.5, 0.4]))

    def test_sum_message_shows_a_plain_number(self):
        with pytest.raises(DataError, match=r"^class marginal sums to 0\.5, expected 1$"):
            ClassMarginal(np.array([0.25, 0.25]))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.algorithm == "newton_semidual"
        assert cfg.max_iterations == 100_000
        assert cfg.tolerance == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_ot": 0.0},
            {"tau_ot": -1.0},
            {"max_iterations": 0},
            {"tolerance": -1e-9},
            {"tau_ot": float("nan")},
            {"tolerance": float("nan")},
            {"algorithm": "newton"},
            {"tolerance": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(UsageError):
            SolverConfig(**kwargs)


class TestSinkhornLinear:
    def test_single_cell_plan_is_exactly_one(self):
        plan = sinkhorn_linear(
            [[0.37]], SolverConfig(tau_ot=1.0), ClassMarginal.uniform(1)
        )
        np.testing.assert_array_equal(plan_matrix(plan), [[1.0]])

    def test_all_zero_matrix_converges_in_one_sweep(self):
        plan = sinkhorn_linear(
            np.zeros((2, 2)), SolverConfig(tau_ot=1.0), ClassMarginal.uniform(2)
        )
        np.testing.assert_allclose(plan_matrix(plan), 0.25, atol=1e-15)
        assert plan.iterations_used == 1

    def test_matches_independent_fixed_point(self):
        """Cross-check against a plain-Python oracle run far past convergence."""
        m = [[1.0, 0.0], [0.0, 1.0]]
        cfg = SolverConfig(tau_ot=0.5, max_iterations=10_000, tolerance=1e-13)
        plan = sinkhorn_linear(m, cfg, ClassMarginal.uniform(2))
        oracle = reference_plan(m, 0.5, [0.5, 0.5], sweeps=10_000)
        assert plan.final_row_violation <= 1e-12 or plan.final_col_violation <= 1e-12
        np.testing.assert_allclose(plan_matrix(plan), oracle, atol=1e-12)

    def test_overflow_names_entry_and_recommends_log_solvers(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NumericOverflowError) as err:
            sinkhorn_linear(m, SolverConfig(tau_ot=1e-3), ClassMarginal.uniform(2))
        msg = str(err.value)
        assert "(0, 0)" in msg
        assert "sinkhorn_log" in msg and "stable_greenkhorn" in msg

    def test_vanishing_row_names_a_plain_number(self):
        # exp(-1/tau) underflows to 0, so row 0 has no mass left to rescale
        m = np.array([[-1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(
            NumericOverflowError, match=r"produced nan at entry \(0, 0\) during row normalization"
        ):
            sinkhorn_linear(m, SolverConfig(tau_ot=1e-3), ClassMarginal.uniform(2))

    def test_zero_mass_column_stays_empty(self):
        m = random_instance(5, 3, BASE_SEED + 20)
        q = ClassMarginal(np.array([0.6, 0.4, 0.0]))
        cfg = SolverConfig(tau_ot=0.3, max_iterations=5_000, tolerance=1e-10)
        plan = sinkhorn_linear(m, cfg, q)
        p = plan_matrix(plan)
        np.testing.assert_array_equal(p[:, 2], 0.0)
        assert plan.final_row_violation <= 1e-10
        assert plan.final_col_violation <= 1e-10


class TestSinkhornLog:
    def test_agrees_with_linear_solver(self):
        m = random_instance(8, 4, BASE_SEED)
        cfg = SolverConfig(tau_ot=0.1, max_iterations=500, tolerance=0.0)
        lin = sinkhorn_linear(m, cfg, ClassMarginal.uniform(4))
        log = sinkhorn_log(m, cfg, ClassMarginal.uniform(4))
        np.testing.assert_allclose(
            plan_matrix(lin), plan_matrix(log), atol=1e-10
        )

    def test_survives_exponents_that_overflow_linear(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        cfg = SolverConfig(tau_ot=1e-3, max_iterations=10_000, tolerance=1e-6)
        plan = sinkhorn_log(m, cfg, ClassMarginal.uniform(2))
        assert np.all(np.isfinite(plan.log_p) | np.isneginf(plan.log_p))
        assert plan.final_row_violation <= 1e-6
        assert plan.final_col_violation <= 1e-6

    def test_single_cell_log_plan_is_zero(self):
        plan = sinkhorn_log(
            [[-2.2]], SolverConfig(tau_ot=0.3), ClassMarginal.uniform(1)
        )
        np.testing.assert_allclose(plan.log_p, [[0.0]], atol=1e-15)

    def test_matches_reference_oracle(self):
        m = random_instance(5, 3, BASE_SEED + 1)
        cfg = SolverConfig(tau_ot=0.2, max_iterations=2_000, tolerance=0.0)
        plan = sinkhorn_log(m, cfg, ClassMarginal.uniform(3))
        oracle = reference_plan(m.tolist(), 0.2, [1 / 3] * 3, sweeps=2_000)
        np.testing.assert_allclose(plan_matrix(plan), oracle, atol=1e-12)


class TestStableGreenkhorn:
    def test_first_row_update_hits_target_exactly(self):
        # One row grossly overweight in exp(m/tau): the row-normalized start puts
        # it at 1/N, and the first update leaves it there.
        m = np.array([[5.0, 5.0], [0.0, 0.1], [0.1, 0.0]])
        cfg = SolverConfig(tau_ot=1.0, max_iterations=1, tolerance=0.0)
        plan = stable_greenkhorn(m, cfg, ClassMarginal.uniform(2))
        sums = plan_matrix(plan).sum(axis=1)
        assert abs(sums[0] - 1.0 / 3.0) <= 1e-12

    def test_single_cell_converges_within_two_iterations(self):
        plan = stable_greenkhorn(
            [[0.9]], SolverConfig(tau_ot=0.1), ClassMarginal.uniform(1)
        )
        assert plan.iterations_used <= 2
        np.testing.assert_allclose(plan_matrix(plan), [[1.0]], atol=1e-12)

    def test_matches_long_sinkhorn_log_run(self):
        """Uniqueness of the scaling makes cross-solver agreement meaningful."""
        m = random_instance(6, 4, BASE_SEED + 2)
        q = ClassMarginal.uniform(4)
        sg = stable_greenkhorn(
            m, SolverConfig(tau_ot=0.05, max_iterations=50_000, tolerance=1e-9), q
        )
        oracle = sinkhorn_log(
            m, SolverConfig(tau_ot=0.05, max_iterations=10_000, tolerance=0.0), q
        )
        assert np.max(np.abs(plan_matrix(sg) - plan_matrix(oracle))) <= 1e-6
        obj_sg = entropic_objective(sg, m, 0.05)
        obj_or = entropic_objective(oracle, m, 0.05)
        assert abs(obj_sg - obj_or) <= 1e-8

    def test_tie_updates_column_first(self):
        # exp(m) = [[2, 1], [1, 1]] row-normalized meets the rows and misses both
        # columns by 1/12, so the first update is column 0.
        m = np.log(np.array([[2.0, 1.0], [1.0, 1.0]]))
        cfg = SolverConfig(tau_ot=1.0, max_iterations=1, tolerance=0.0)
        plan = stable_greenkhorn(m, cfg, ClassMarginal.uniform(2))
        p = plan_matrix(plan)
        assert abs(p[:, 0].sum() - 0.5) <= 1e-12  # column 0 was rescaled
        assert abs(p[0, :].sum() - 0.5) > 1e-3  # rows were not

    def test_zero_mass_column_is_emptied_and_satisfied(self):
        m = random_instance(5, 3, BASE_SEED + 3)
        q = ClassMarginal(np.array([0.6, 0.4, 0.0]))
        plan = stable_greenkhorn(
            m, SolverConfig(tau_ot=0.2, max_iterations=20_000, tolerance=1e-9), q
        )
        p = plan_matrix(plan)
        np.testing.assert_array_equal(p[:, 2], 0.0)
        assert plan.final_col_violation <= 1e-9
        assert plan.final_row_violation <= 1e-9

    def test_survives_exponents_that_overflow_linear(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        cfg = SolverConfig(tau_ot=1e-3, max_iterations=10_000, tolerance=1e-6)
        plan = stable_greenkhorn(m, cfg, ClassMarginal.uniform(2))
        assert not np.any(np.isnan(plan.log_p))
        assert not np.any(plan.log_p == np.inf)
        assert plan.final_row_violation <= 1e-6
        assert plan.final_col_violation <= 1e-6

    def test_iteration_cap_respected(self):
        m = random_instance(30, 5, BASE_SEED + 4)
        cfg = SolverConfig(tau_ot=0.01, max_iterations=17, tolerance=0.0)
        plan = stable_greenkhorn(m, cfg, ClassMarginal.uniform(5))
        assert plan.iterations_used == 17

    def test_start_within_tolerance_makes_no_update(self):
        # The row-normalized start meets a tolerance of 1e300, so greedy makes no
        # update and returns the row half of a sinkhorn_log sweep.
        m = random_instance(30, 5, BASE_SEED + 13)
        cfg = SolverConfig(tau_ot=0.01, tolerance=1e300)
        plan = stable_greenkhorn(m, cfg, ClassMarginal.uniform(5))
        assert plan.iterations_used == 0
        np.testing.assert_allclose(plan_matrix(plan).sum(axis=1), 1 / 30, rtol=1e-14, atol=0)
        rows = m / 0.01 - _lse(m / 0.01, axis=1)[:, None] - math.log(30)
        np.testing.assert_allclose(plan.log_p, rows, rtol=1e-14, atol=0)

    def test_zero_mass_column_needs_no_rescale(self):
        m = random_instance(4, 3, BASE_SEED + 14)
        cfg = SolverConfig(tau_ot=0.1, tolerance=1e300)
        plan = stable_greenkhorn(m, cfg, ClassMarginal(np.array([0.5, 0.5, 0.0])))
        assert plan.iterations_used == 0
        np.testing.assert_array_equal(plan_matrix(plan)[:, 2], 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from([0.01, 0.1, 1.0]),
        exponent=st.integers(-3, 300),
        zero_mass=st.booleans(),
    )
    def test_no_entry_keeps_its_unscaled_start(self, n, k, seed, tau, exponent, zero_mass):
        """Every entry starts at most 1/N and a rescaled line holds at most its
        target, so no entry of the plan exceeds 1; an unscaled exp(m/tau) entry
        with m > 0 would."""
        rng = np.random.default_rng(seed)
        m = rng.uniform(-1.0, 1.0, size=(n, k))
        weights = rng.integers(0, 3, size=k) if zero_mass else np.ones(k)
        if not weights.any():
            weights[rng.integers(k)] = 1
        cfg = SolverConfig(tau_ot=tau, tolerance=10.0**exponent)
        plan = stable_greenkhorn(m, cfg, ClassMarginal.from_weights(weights))
        assert plan.iterations_used <= cfg.max_iterations
        assert np.all(plan_matrix(plan) <= 1.0)


def greedy_reference(m, cfg, q):
    """Reference greedy loop: every update rescans all row and column violations.

    Kept frozen for :func:`stable_greenkhorn`, which keeps the violations
    incrementally and must give the same plan bit for bit. Both start from the
    row-normalized kernel, so no line ever holds +inf mass.
    """
    mat, qv = _check_inputs(m, q)
    n, _ = mat.shape
    row_target = 1.0 / n
    ln_row_target = -math.log(n)
    positive = qv > 0
    with np.errstate(divide="ignore"):
        ln_q = np.log(qv)
    log_p = mat / cfg.tau_ot
    log_p[:, ~positive] = -np.inf
    log_p += (ln_row_target - _lse(log_p, axis=1))[:, None]
    p = np.exp(log_p)
    row_sums = p.sum(axis=1)
    col_sums = p.sum(axis=0)
    iterations = 0
    while iterations < cfg.max_iterations:
        rv = np.abs(row_sums - row_target)
        cv = np.abs(col_sums - qv)
        r = int(np.argmax(rv))
        c = int(np.argmax(cv))
        if rv[r] <= cfg.tolerance and cv[c] <= cfg.tolerance:
            row_sums = p.sum(axis=1)
            col_sums = p.sum(axis=0)
            if (
                np.max(np.abs(row_sums - row_target)) <= cfg.tolerance
                and np.max(np.abs(col_sums - qv)) <= cfg.tolerance
            ):
                break
            continue
        if rv[r] > cv[c]:
            log_p[r, :] += ln_row_target - _lse(log_p[r, :], axis=0)
            new_line = np.exp(log_p[r, :])
            col_sums += new_line - p[r, :]
            p[r, :] = new_line
            row_sums[r] = new_line.sum()
        else:
            log_p[:, c] += ln_q[c] - _lse(log_p[:, c], axis=0)
            new_line = np.exp(log_p[:, c])
            row_sums += new_line - p[:, c]
            p[:, c] = new_line
            col_sums[c] = new_line.sum()
        iterations += 1
        if iterations % _REFRESH_EVERY == 0:
            row_sums = p.sum(axis=1)
            col_sums = p.sum(axis=0)
    rv, cv = _violations(p, row_target, qv)
    return _finish(log_p, iterations, rv, cv, cfg.tolerance)


def assert_same_plan(m, cfg, q):
    """Equal plans, iteration counts and violations from both loops."""
    got = stable_greenkhorn(m, cfg, q)
    want = greedy_reference(m, cfg, q)
    assert np.array_equal(got.log_p, want.log_p)
    assert got.iterations_used == want.iterations_used
    assert got.final_row_violation == want.final_row_violation
    assert got.final_col_violation == want.final_col_violation
    return got


@st.composite
def greedy_instances(draw):
    """Small instances covering the greedy loop's special cases.

    ``overflow`` puts m/tau = 1000 > 709 in one cell, so exp(m/tau) overflows
    there and only the row-normalized start keeps the plan finite;
    ``wide`` spans exp(-700)..exp(700), so incremental sums lose the small
    terms and the periodic refresh changes later choices; ``ties`` uses
    integer entries, so rows, columns and violations tie exactly; weights of
    zero give zero-mass columns.
    """
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "ties", "overflow", "wide"]))
    if kind == "ties":
        m = np.log(rng.integers(1, 3, size=(n, k)).astype(float))
        tau = 1.0
    elif kind == "wide":
        m = rng.uniform(-0.7, 0.7, size=(n, k))
        tau = 1e-3
    else:
        m = rng.uniform(-1.0, 1.0, size=(n, k))
        tau = draw(st.sampled_from([1.0, 0.1, 0.02]))
        if kind == "overflow":
            m[rng.integers(n), rng.integers(k)] = 1.0
            tau = 1e-3
    weights = rng.integers(0, 3, size=k) if draw(st.booleans()) else np.ones(k)
    if not weights.any():
        weights[rng.integers(k)] = 1
    cfg = SolverConfig(
        tau_ot=tau,
        max_iterations=draw(
            st.sampled_from([1, 2, 999, 1000, 1001, 2000, 2001]) | st.integers(1, 2_500)
        ),
        tolerance=draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])),
    )
    return m, cfg, ClassMarginal.from_weights(weights)


class TestGreedyMatchesReference:
    """The incremental loop repeats the rescanning one exactly: same line at
    every update, so the same plan, iteration count and violations."""

    # bounded so the class stays a few seconds of the tier-1 run
    @settings(max_examples=40, deadline=None)
    @given(greedy_instances())
    def test_random_instances(self, instance):
        assert_same_plan(*instance)

    def test_runs_past_two_refreshes(self):
        m = random_instance(30, 5, BASE_SEED + 10, low=-0.7, high=0.7)
        cfg = SolverConfig(tau_ot=1e-3, max_iterations=2 * _REFRESH_EVERY + 500, tolerance=0.0)
        plan = assert_same_plan(m, cfg, ClassMarginal.from_weights([3, 1, 0, 2, 1]))
        assert plan.iterations_used == 2 * _REFRESH_EVERY + 500

    def test_overflowing_start(self):
        m = random_instance(12, 4, BASE_SEED + 11)
        cfg = SolverConfig(tau_ot=1e-3, max_iterations=3_000, tolerance=1e-9)
        assert np.max(m) / cfg.tau_ot > 709.8  # exp(m/tau) overflows; the start does not
        assert_same_plan(m, cfg, ClassMarginal.uniform(4))

    @pytest.mark.parametrize("cap", [50, 500, 3_000])
    def test_repairs_lines_longer_than_numpys_unrolled_block(self, cap):
        # Each fresh row sum adds up a row of K = 20 entries: longer than numpy's
        # 8-wide unrolled block, unlike any K <= 8 instance.
        rng = np.random.default_rng(BASE_SEED + 12)
        m = rng.uniform(-1.0, 1.0, size=(40, 20))
        m[rng.choice(40, 6, replace=False), rng.choice(20, 6, replace=False)] = 1.0
        cfg = SolverConfig(tau_ot=1e-3, max_iterations=cap, tolerance=1e-9)
        assert_same_plan(m, cfg, ClassMarginal.uniform(20))


class TestGreedyStaysBounded:
    """No transport plan greedy returns holds NaN or +inf, capped or not."""

    @settings(max_examples=40, deadline=None)
    @given(greedy_instances())
    def test_plan_is_finite_and_at_most_one(self, instance):
        plan = stable_greenkhorn(*instance)
        assert not np.any(np.isnan(plan.log_p))
        assert not np.any(plan.log_p == np.inf)
        assert math.isfinite(plan.final_row_violation)
        assert math.isfinite(plan.final_col_violation)
        assert np.all(plan_matrix(plan) <= 1.0)


def sinkhorn_log_reference(m, cfg, q):
    """Reference log-domain loop: the column update skips zero-mass columns
    (a separate branch when every class has mass), and each sweep's violations
    come from a fresh exp(log_p).

    Kept frozen for :func:`sinkhorn_log`, whose single masked column update
    must give the same plan bit for bit when every class has mass.
    """
    mat, qv = _check_inputs(m, q)
    n, _ = mat.shape
    row_target = 1.0 / n
    ln_row_target = -math.log(n)
    positive = qv > 0
    with np.errstate(divide="ignore"):
        ln_q = np.log(qv)
    log_p = mat / cfg.tau_ot
    log_p[:, ~positive] = -np.inf
    iterations = 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        log_p += (ln_row_target - _lse(log_p, axis=1))[:, None]
        if positive.all():
            log_p += (ln_q - _lse(log_p, axis=0))[None, :]
        else:
            col_adjust = ln_q[positive] - _lse(log_p[:, positive], axis=0)
            log_p[:, positive] += col_adjust[None, :]
        p = np.exp(log_p)
        rv = float(np.max(np.abs(p.sum(axis=1) - row_target)))
        cv = float(np.max(np.abs(p.sum(axis=0) - qv)))
        if rv <= cfg.tolerance and cv <= cfg.tolerance:
            break
    return TransportPlan(log_p, iterations, rv, cv, rv <= cfg.tolerance and cv <= cfg.tolerance)


def newton_reference(m, cfg, q):
    """Reference Newton loop over the classes with mass only: s, g, the
    K' x K' system and the line search take the compressed class index, and
    each step scatters the plan's rows for those classes into a -inf buffer.

    Kept frozen for :func:`newton_semidual`, which keeps all K classes and
    must give the same plan bit for bit when every class has mass.
    """
    mat, qv = _check_inputs(m, q)
    n, k = mat.shape
    positive = qv > 0
    qp = qv[positive]
    s = np.ascontiguousarray((mat / cfg.tau_ot).T[positive])
    a = np.empty_like(s)
    log_pt = np.full((k, n), -np.inf)
    ln_n = math.log(n)
    g = np.zeros(qp.size)
    iterations = 0
    while True:
        np.add(s, g[:, None], out=a)
        lse = _softmax_columns(a, a.max(axis=0))
        log_pt[positive] = s + g[:, None] - lse - ln_n
        rv, cv = _violations(np.exp(log_pt.T), 1.0 / n, qv)
        if (rv <= cfg.tolerance and cv <= cfg.tolerance) or iterations == cfg.max_iterations:
            break
        mass = a.sum(axis=1) / n
        grad = mass - qp
        h = (a @ a.T) / -n + 1.0 / qp.size
        h.flat[:: qp.size + 1] += mass + _DAMPING * np.abs(grad).max() + _MIN_DAMPING
        d = np.linalg.solve(h, -grad)
        d -= d.mean()
        slope = float(grad @ d)
        noise = _EPS * (1.0 + np.abs(lse).max()) * np.abs(d).sum()
        step, t = None, 1.0
        for _ in range(_HALVINGS if slope < -noise else 0):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                change = np.log1p(np.expm1(t * d) @ a).mean() - t * (qp @ d)
            if -math.inf < change < _ARMIJO * t * slope:
                step = t
                break
            t *= 0.5
        if step is None:
            iterations = cfg.max_iterations
            break
        g += step * d
        iterations += 1
    return TransportPlan(log_pt.T, iterations, rv, cv, rv <= cfg.tolerance and cv <= cfg.tolerance)


@st.composite
def well_scaled_instances(draw, zero_mass):
    """Small well-scaled instances; ``zero_mass`` gives at least one empty class."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2 if zero_mass else 1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(-1.0, 1.0, size=(n, k))
    weights = rng.integers(1, 4, size=k).astype(float)
    if zero_mass:
        weights[rng.permutation(k)[: rng.integers(1, k)]] = 0.0
    cfg = SolverConfig(
        tau_ot=draw(st.sampled_from([1.0, 0.1, 0.02])),
        max_iterations=draw(st.integers(1, 400)),
        tolerance=0.0 if zero_mass else draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])),
    )
    return m, cfg, ClassMarginal.from_weights(weights)


class TestSinkhornLogMatchesReference:
    """One masked column update repeats the two-branch loop."""

    @settings(max_examples=40, deadline=None)
    @given(well_scaled_instances(zero_mass=False))
    def test_every_class_with_mass_is_bit_identical(self, instance):
        got, want = sinkhorn_log(*instance), sinkhorn_log_reference(*instance)
        assert np.array_equal(got.log_p, want.log_p)
        assert got.iterations_used == want.iterations_used
        assert got.final_row_violation == want.final_row_violation
        assert got.final_col_violation == want.final_col_violation

    @settings(max_examples=40, deadline=None)
    @given(well_scaled_instances(zero_mass=True))
    def test_zero_mass_classes_agree_to_rounding(self, instance):
        got, want = sinkhorn_log(*instance), sinkhorn_log_reference(*instance)
        assert got.iterations_used == want.iterations_used
        assert np.array_equal(np.isneginf(got.log_p), np.isneginf(want.log_p))
        np.testing.assert_allclose(got.log_p, want.log_p, rtol=0, atol=1e-12)


class TestStopMatchesVerdict:
    """A plan records the stop test that ended its solve: ``converged`` is that
    test's verdict on the violations it reports. So a solve that stops before
    its cap stopped on its own test and must call itself converged."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(ALGORITHMS),
        well_scaled_instances(zero_mass=False) | well_scaled_instances(zero_mass=True),
        st.sampled_from(["mid-run", 0.0]),
        st.sampled_from(["double", 1]),
    )
    def test_early_stop_reports_converged(self, algorithm, instance, tolerance, cap):
        m, cfg, q = instance
        # a tolerance equal to a violation the solver reported mid-run puts the
        # stop exactly on the boundary of the test
        mid = solve(m, replace(cfg, algorithm=algorithm, tolerance=0.0), q)
        on_boundary = tolerance == "mid-run"
        if on_boundary:
            tolerance = max(mid.final_row_violation, mid.final_col_violation)
        cap = 2 * cfg.max_iterations if cap == "double" else cap
        cfg = replace(cfg, algorithm=algorithm, tolerance=tolerance, max_iterations=cap)
        plan = solve(m, cfg, q)
        rv, cv = plan.final_row_violation, plan.final_col_violation
        assert plan.converged == (rv <= cfg.tolerance and cv <= cfg.tolerance)
        if algorithm != "sinkhorn_linear":  # which reports on the p that log_p is log of
            assert (rv, cv) == _violations(np.exp(plan.log_p), 1 / m.shape[0], q.q)
        if on_boundary and algorithm != "stable_greenkhorn":
            assert plan.iterations_used <= mid.iterations_used
        if plan.iterations_used < cfg.max_iterations:
            assert plan.converged

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cap_on_the_converging_update_reports_converged(self, algorithm):
        """A cap equal to the uncapped solve's count ends on the update that
        converges; that solve must match the uncapped one and say converged.
        Greedy only passes the stop test after that update, so it holds because
        greedy tests the plan once more at its cap."""
        m = random_instance(12, 4, 3)
        q = ClassMarginal.uniform(4)
        cfg = SolverConfig(tau_ot=0.1, tolerance=1e-9, algorithm=algorithm)
        free = solve(m, cfg, q)
        assert free.converged and free.iterations_used > 1
        capped = solve(m, replace(cfg, max_iterations=free.iterations_used), q)
        assert np.array_equal(capped.log_p, free.log_p)
        assert capped.iterations_used == free.iterations_used
        assert capped.final_row_violation == free.final_row_violation
        assert capped.final_col_violation == free.final_col_violation
        assert capped.converged


class TestCrossRatioInvariant:
    """Every update adds a constant to one line, so for all index quadruples
    log P[i,j] + log P[i',j'] - log P[i,j'] - log P[i',j] must equal the same
    combination of m/tau."""

    @pytest.mark.parametrize("algorithm", ["sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual"])
    def test_cross_ratio_preserved(self, algorithm):
        tau = 0.25
        m = random_instance(7, 5, BASE_SEED + 5)
        cfg = SolverConfig(tau_ot=tau, max_iterations=3_000, tolerance=1e-10, algorithm=algorithm)
        plan = solve(m, cfg, ClassMarginal.uniform(5))
        rng = np.random.default_rng(BASE_SEED)
        for _ in range(200):
            i, ip = rng.choice(7, size=2, replace=False)
            j, jp = rng.choice(5, size=2, replace=False)
            lhs = plan.log_p[i, j] + plan.log_p[ip, jp] - plan.log_p[i, jp] - plan.log_p[ip, j]
            rhs = (m[i, j] + m[ip, jp] - m[i, jp] - m[ip, j]) / tau
            assert abs(lhs - rhs) <= 1e-8

    def test_holds_mid_run_not_just_at_convergence(self):
        tau = 0.1
        m = random_instance(6, 3, BASE_SEED + 6)
        for iterations in (1, 2, 5, 11):
            cfg = SolverConfig(tau_ot=tau, max_iterations=iterations, tolerance=0.0)
            plan = stable_greenkhorn(m, cfg, ClassMarginal.uniform(3))
            lhs = plan.log_p[0, 0] + plan.log_p[3, 2] - plan.log_p[0, 2] - plan.log_p[3, 0]
            rhs = (m[0, 0] + m[3, 2] - m[0, 2] - m[3, 0]) / tau
            assert abs(lhs - rhs) <= 1e-8


class TestSolverAgreement:
    def test_all_three_agree_on_well_conditioned_input(self):
        m = random_instance(9, 4, BASE_SEED + 7)
        q = ClassMarginal.uniform(4)
        plans = {}
        for algorithm in ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual"):
            cfg = SolverConfig(
                tau_ot=0.1, max_iterations=200_000, tolerance=1e-11, algorithm=algorithm
            )
            plans[algorithm] = plan_matrix(solve(m, cfg, q))
        ref = plans["sinkhorn_log"]
        for name, p in plans.items():
            np.testing.assert_allclose(p, ref, atol=1e-6, err_msg=name)



def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@st.composite
def newton_instances(draw):
    """Small instances at every tau the solvers meet, down to 1e-3 (m/tau up to
    1000); class weights of zero give zero-mass columns."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, 3, size=k).astype(float)
    if not weights.any():
        weights[rng.integers(k)] = 1.0
    tau = draw(st.sampled_from([1.0, 0.1, 0.02, 1e-3]))
    return rng.uniform(-1.0, 1.0, size=(n, k)), tau, ClassMarginal.from_weights(weights)


class TestNewtonSemidual:
    def test_default_solve_converges_where_sweeps_run_out(self):
        """Three unit rows each for images and proxies in d = 3: at tau 0.01 the
        other three solvers run out a 100000-iteration cap on this instance."""
        rng = np.random.default_rng(0)
        images, proxies = unit_rows(rng, 3, 3), unit_rows(rng, 3, 3)
        plan = solve(images @ proxies.T, SolverConfig(), ClassMarginal.uniform(3))
        assert plan.converged
        assert plan.iterations_used <= 20

    @settings(max_examples=40, deadline=None)
    @given(newton_instances())
    def test_pseudo_labels_match_a_long_sinkhorn_log_run(self, instance):
        m, tau, q = instance
        oracle = sinkhorn_log(m, SolverConfig(tau_ot=tau, max_iterations=5_000, tolerance=1e-11), q)
        assume(oracle.converged)
        plan = newton_semidual(m, SolverConfig(tau_ot=tau, tolerance=1e-11), q)
        assert plan.converged
        assert np.array_equal(np.isneginf(plan.log_p), np.isneginf(oracle.log_p))
        np.testing.assert_allclose(
            pseudo_labels(plan).p, pseudo_labels(oracle).p, rtol=0, atol=1e-8
        )

    @settings(max_examples=40, deadline=None)
    @given(newton_instances())
    def test_tolerance_zero_ends_at_its_cap_no_worse_than_tolerance_one_in_a_million(
        self, instance
    ):
        """With the default cap of 100000 steps: the solve ends once a step has
        no decrease left to measure, instead of running the cap out."""
        m, tau, q = instance
        cfg = SolverConfig(tau_ot=tau, algorithm="newton_semidual")
        loose = solve(m, cfg, q)
        exact = solve(m, replace(cfg, tolerance=0.0), q)
        worst = max(exact.final_row_violation, exact.final_col_violation)
        assert exact.converged == (worst == 0.0)
        if not exact.converged:
            assert exact.iterations_used == cfg.max_iterations
        assert worst <= max(loose.final_row_violation, loose.final_col_violation)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.sampled_from([1e-2, 1e-3, 1e-6, 1e-300]),
        st.sampled_from([0.0, 1e-6]),
        st.integers(0, 2**32 - 1),
    )
    # at |m/tau| = 1e300 log(total) is lost below the rounding of lse, so two tied
    # entries of a row each keep mass 1/3: the stop test must see that plan's rows
    @example(n=3, k=4, tau=1e-300, tolerance=1e-6, seed=2117517741)
    def test_saturated_instances_return_a_plan(self, n, k, tau, tolerance, seed):
        """Tied and saturated similarities, down to softmax mass that underflows
        in every row, and class weights across 300 decades never leak a numpy
        error: H alone is singular there. The violations are those of the
        returned plan, even where rounding leaves its rows off 1/N."""
        rng = np.random.default_rng(seed)
        m = rng.choice([-1.0, 0.0, 1.0], size=(n, k))
        weights = rng.integers(0, 3, size=k) * 10.0 ** rng.integers(-300, 1, size=k)
        if not weights.any():
            weights[rng.integers(k)] = 1.0
        q = ClassMarginal.from_weights(weights)
        cfg = SolverConfig(tau_ot=tau, max_iterations=50, tolerance=tolerance)
        try:
            plan = newton_semidual(m, cfg, q)
        except ProxyOTError:
            return
        rv, cv = plan.final_row_violation, plan.final_col_violation
        assert not np.any(np.isnan(plan.log_p)) and not np.any(plan.log_p == np.inf)
        assert plan.converged == (rv <= tolerance and cv <= tolerance)
        assert (rv, cv) == _violations(np.exp(plan.log_p), 1 / n, q.q)


class TestNewtonMatchesReference:
    """All K classes, with the 11^T/K' term over the classes with mass only,
    repeat the loop over the compressed class index."""

    @settings(max_examples=200, deadline=None)
    @given(newton_instances(), st.sampled_from([1e-6, 1e-11, 0.0]))
    def test_matches_the_compressed_loop(self, instance, tolerance):
        m, tau, q = instance
        cfg = SolverConfig(tau_ot=tau, tolerance=tolerance)
        got, want = newton_semidual(m, cfg, q), newton_reference(m, cfg, q)
        if np.all(q.q > 0):
            assert np.array_equal(got.log_p, want.log_p)
            assert got.iterations_used == want.iterations_used
            assert got.final_row_violation == want.final_row_violation
            assert got.final_col_violation == want.final_col_violation
            assert got.converged == want.converged
            return
        # the centered step and the system's size move the last bits here
        assert np.array_equal(np.isneginf(got.log_p), np.isneginf(want.log_p))
        np.testing.assert_allclose(
            pseudo_labels(got).p, pseudo_labels(want).p, rtol=0, atol=1e-12
        )
        # at tolerance 0 a last-ulp violation can decide the verdict either way
        if tolerance > 0:
            assert got.iterations_used == want.iterations_used
            assert got.converged == want.converged


def oracle_violations(plan, row_target, q):
    """Plain-numpy L-infinity distance of the plan's line sums from their targets:
    ``row_target`` (1/N) for every row and the marginal ``q`` for the columns."""
    p = np.exp(plan.log_p)
    return (
        float(np.max(np.abs(p.sum(axis=1) - row_target))),
        float(np.max(np.abs(p.sum(axis=0) - q.q))),
    )


class TestMarginalViolations:
    """Every solver reports the violations of the plan it returns."""

    def test_feasible_single_cell(self):
        for algorithm in ALGORITHMS:
            cfg = SolverConfig(tau_ot=1.0, algorithm=algorithm)
            q = ClassMarginal.uniform(1)
            plan = solve([[2.0]], cfg, q)
            assert oracle_violations(plan, 1.0, q) == (0.0, 0.0), algorithm
            assert (plan.final_row_violation, plan.final_col_violation) == (0.0, 0.0), algorithm

    def test_single_row_uniform(self):
        for algorithm in ALGORITHMS:
            cfg = SolverConfig(tau_ot=1.0, algorithm=algorithm)
            q = ClassMarginal.uniform(2)
            plan = solve([[0.4, 0.4]], cfg, q)
            rv, cv = oracle_violations(plan, 1.0, q)
            assert rv <= 1e-15 and cv <= 1e-15, algorithm
            assert plan.final_row_violation <= 1e-15, algorithm
            assert plan.final_col_violation <= 1e-15, algorithm

    def test_reported_violations_match_fresh_call(self):
        m = random_instance(12, 6, BASE_SEED + 8)
        for algorithm in ALGORITHMS:
            cfg = SolverConfig(tau_ot=0.2, max_iterations=300, tolerance=1e-8, algorithm=algorithm)
            q = ClassMarginal.uniform(6)
            plan = solve(m, cfg, q)
            rv, cv = oracle_violations(plan, 1.0 / 12, q)
            assert abs(rv - plan.final_row_violation) <= 1e-12, algorithm
            assert abs(cv - plan.final_col_violation) <= 1e-12, algorithm


class TestEntropicObjective:
    def test_point_mass_has_zero_entropy(self):
        plan = sinkhorn_linear([[0.5]], SolverConfig(tau_ot=1.0), ClassMarginal.uniform(1))
        assert entropic_objective(plan, [[0.5]], tau=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_plan_entropy_is_ln4(self):
        plan = sinkhorn_linear(
            np.zeros((2, 2)), SolverConfig(tau_ot=1.0), ClassMarginal.uniform(2)
        )
        obj = entropic_objective(plan, np.zeros((2, 2)), tau=1.0)
        assert obj == pytest.approx(np.log(4.0), abs=1e-12)

    def test_row_normalized_start_bounds_constrained_optimum(self):
        """The row-only problem relaxes the column constraint, so its optimum
        (the row-normalized start) upper-bounds the fully constrained one."""
        m = random_instance(6, 4, BASE_SEED + 9)
        tau = 0.05
        q = ClassMarginal.uniform(4)
        converged = stable_greenkhorn(
            m, SolverConfig(tau_ot=tau, max_iterations=100_000, tolerance=1e-10), q
        )
        start = sinkhorn_log(
            m, SolverConfig(tau_ot=tau, max_iterations=1, tolerance=0.0), q
        )
        # One sweep = row normalization then column normalization; redo just the
        # row step for the pure row-normalized plan.
        log_row = m / tau
        shift = np.log(1.0 / 6.0) - np.log(np.exp(log_row).sum(axis=1))
        row_plan = converged.__class__(
            log_p=log_row + shift[:, None],
            iterations_used=0,
            final_row_violation=0.0,
            final_col_violation=0.0,
            converged=True,
        )
        assert entropic_objective(row_plan, m, tau) >= entropic_objective(converged, m, tau)


class TestPseudoLabels:
    def test_feasible_rows_scale_by_n(self):
        m = random_instance(4, 3, BASE_SEED + 10)
        plan = sinkhorn_log(
            m, SolverConfig(tau_ot=0.2, max_iterations=5_000, tolerance=1e-12),
            ClassMarginal.uniform(3),
        )
        labels = pseudo_labels(plan)
        np.testing.assert_allclose(labels.p, plan_matrix(plan) * 4, atol=1e-9)

    def test_uniform_plan(self):
        plan = sinkhorn_linear(
            np.zeros((2, 2)), SolverConfig(tau_ot=1.0), ClassMarginal.uniform(2)
        )
        np.testing.assert_allclose(pseudo_labels(plan).p, 0.5, atol=1e-14)

    def test_rows_sum_to_one_even_without_convergence(self):
        m = random_instance(8, 5, BASE_SEED + 11)
        cfg = SolverConfig(tau_ot=0.02, max_iterations=3, tolerance=0.0)
        labels = pseudo_labels(stable_greenkhorn(m, cfg, ClassMarginal.uniform(5)))
        np.testing.assert_allclose(labels.p.sum(axis=1), 1.0, atol=1e-9)

    def test_dominant_entry_ratio_preserved(self):
        plan = sinkhorn_linear(
            [[0.0, 0.0]], SolverConfig(tau_ot=1.0, max_iterations=1, tolerance=1.0),
            ClassMarginal(np.array([0.996, 0.004])),
        )
        labels = pseudo_labels(plan)
        np.testing.assert_allclose(labels.p, [[0.996, 0.004]], atol=1e-12)

    def test_zero_mass_row_rejected(self):
        plan = sinkhorn_log(
            [[0.1, 0.2]], SolverConfig(tau_ot=1.0), ClassMarginal.uniform(2)
        )
        plan.log_p = np.array([[-np.inf, -np.inf]])
        with pytest.raises(DataError, match="row 0"):
            pseudo_labels(plan)

    def test_non_finite_entry_named(self):
        # NaN passes both the sign and the row-sum checks, so only the finite scan stops it
        with pytest.raises(DataError, match=r"pseudo-labels has non-finite entry at \(0, 0\): nan"):
            PseudoLabels(np.array([[np.nan, 1.0], [0.5, 0.5]]))
