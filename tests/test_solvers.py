import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_plan

from proxyot.errors import DataError, NumericOverflowError, UsageError
from proxyot.numerics import _lse
from proxyot.solvers import (
    _REFRESH_EVERY,
    _check_inputs,
    _finish,
    ALGORITHMS,
    ClassMarginal,
    SolverConfig,
    TransportPlan,
    entropic_objective,
    marginal_violations,
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


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.algorithm == "stable_greenkhorn"
        assert cfg.max_iterations == 100_000
        assert cfg.tolerance == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_ot": 0.0},
            {"tau_ot": -1.0},
            {"max_iterations": 0},
            {"tolerance": -1e-9},
            {"algorithm": "newton"},
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
        # One row grossly overweight: the first update must rescale it to 1/N.
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
        # exp(m) = [[2, 1], [1, 1]] has equal max row/col violations by symmetry.
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


def greedy_reference(m, cfg, q):
    """Reference greedy loop: every update rescans all row and column violations.

    Kept frozen for :func:`stable_greenkhorn`, which keeps the violations
    incrementally and must give the same plan bit for bit.
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
    with np.errstate(over="ignore"):
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
            with np.errstate(invalid="ignore"):
                col_sums += new_line - p[r, :]
            p[r, :] = new_line
            row_sums[r] = new_line.sum()
            bad = np.isnan(col_sums)
            if bad.any():
                col_sums[bad] = p[:, bad].sum(axis=0)
        else:
            log_p[:, c] += ln_q[c] - _lse(log_p[:, c], axis=0)
            new_line = np.exp(log_p[:, c])
            with np.errstate(invalid="ignore"):
                row_sums += new_line - p[:, c]
            p[:, c] = new_line
            col_sums[c] = new_line.sum()
            bad = np.isnan(row_sums)
            if bad.any():
                row_sums[bad] = p[bad, :].sum(axis=1)
        iterations += 1
        if iterations % _REFRESH_EVERY == 0:
            row_sums = p.sum(axis=1)
            col_sums = p.sum(axis=0)
    return _finish(log_p, p, row_target, q, iterations)


def _outcome(solver, m, cfg, q):
    try:
        return solver(m, cfg, q)
    except NumericOverflowError as exc:
        return f"NumericOverflowError: {exc}"


def assert_same_plan(m, cfg, q):
    """Equal plans, or the same overflow error from both loops (a plan capped
    before its +inf lines were rescaled has no finite violation)."""
    got = _outcome(stable_greenkhorn, m, cfg, q)
    want = _outcome(greedy_reference, m, cfg, q)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return got
    assert np.array_equal(got.log_p, want.log_p)
    assert got.iterations_used == want.iterations_used
    assert got.final_row_violation == want.final_row_violation
    assert got.final_col_violation == want.final_col_violation
    return got


@st.composite
def greedy_instances(draw):
    """Small instances covering the greedy loop's special cases.

    ``overflow`` puts m/tau = 1000 > 709 in one cell, so p starts with +inf;
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
        assert np.max(m) / cfg.tau_ot > 709.8  # exp overflows: p starts with +inf
        assert_same_plan(m, cfg, ClassMarginal.uniform(4))


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
    return TransportPlan(log_p, row_target, q, iterations, rv, cv)


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
    """A solve that stops before its cap stopped on its own test, so the plan
    it reports must call itself converged."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ALGORITHMS),
        well_scaled_instances(zero_mass=False) | well_scaled_instances(zero_mass=True),
    )
    def test_early_stop_reports_converged(self, algorithm, instance):
        m, cfg, q = instance
        # a tolerance equal to a violation the solver reported mid-run puts the
        # stop exactly on the boundary of the test
        mid = solve(m, replace(cfg, algorithm=algorithm, tolerance=0.0), q)
        tolerance = max(mid.final_row_violation, mid.final_col_violation)
        cfg = replace(
            cfg, algorithm=algorithm, tolerance=tolerance, max_iterations=2 * cfg.max_iterations
        )
        plan = solve(m, cfg, q)
        if algorithm != "stable_greenkhorn":
            assert plan.iterations_used <= mid.iterations_used
        if plan.iterations_used < cfg.max_iterations:
            assert plan.converged(cfg.tolerance)


class TestCrossRatioInvariant:
    """Every update adds a constant to one line, so for all index quadruples
    log P[i,j] + log P[i',j'] - log P[i,j'] - log P[i',j] must equal the same
    combination of m/tau."""

    @pytest.mark.parametrize("algorithm", ["sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn"])
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
        for algorithm in ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn"):
            cfg = SolverConfig(
                tau_ot=0.1, max_iterations=200_000, tolerance=1e-11, algorithm=algorithm
            )
            plans[algorithm] = plan_matrix(solve(m, cfg, q))
        ref = plans["sinkhorn_log"]
        for name, p in plans.items():
            np.testing.assert_allclose(p, ref, atol=1e-6, err_msg=name)


class TestMarginalViolations:
    def test_feasible_single_cell(self):
        plan = sinkhorn_linear([[2.0]], SolverConfig(tau_ot=1.0), ClassMarginal.uniform(1))
        assert marginal_violations(plan) == (0.0, 0.0)

    def test_single_row_uniform(self):
        plan = sinkhorn_log(
            [[0.4, 0.4]], SolverConfig(tau_ot=1.0), ClassMarginal.uniform(2)
        )
        rv, cv = marginal_violations(plan)
        assert rv <= 1e-15 and cv <= 1e-15

    def test_reported_violations_match_fresh_call(self):
        m = random_instance(12, 6, BASE_SEED + 8)
        for algorithm in ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn"):
            cfg = SolverConfig(tau_ot=0.2, max_iterations=300, tolerance=1e-8, algorithm=algorithm)
            plan = solve(m, cfg, ClassMarginal.uniform(6))
            rv, cv = marginal_violations(plan)
            assert abs(rv - plan.final_row_violation) <= 1e-12
            assert abs(cv - plan.final_col_violation) <= 1e-12


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
            row_target=converged.row_target,
            col_target=q,
            iterations_used=0,
            final_row_violation=0.0,
            final_col_violation=0.0,
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
