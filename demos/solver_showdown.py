#!/usr/bin/env python3
"""Race the four transport solvers on one instance, then break the fragile one.

All four compute the same coupling (the diagonal scaling of exp(M/tau) that
meets both marginals), so on a benign instance they agree to many digits.
At tau = 0.001 the linear-domain solver overflows immediately while the
three log-domain solvers keep working.
"""

import time

import numpy as np

from proxyot import (
    ClassMarginal,
    NumericOverflowError,
    SolverConfig,
    entropic_objective,
    sinkhorn_linear,
    solve,
)

rng = np.random.default_rng(20250808)
m = rng.uniform(-1.0, 1.0, size=(64, 8))
q = ClassMarginal.uniform(8)

print("=== benign instance: 64 x 8, entries U[-1,1], tau = 0.05 ===")
for algorithm in ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn", "newton_semidual"):
    cfg = SolverConfig(
        tau_ot=0.05, max_iterations=100_000, tolerance=1e-9, algorithm=algorithm
    )
    start = time.perf_counter()
    plan = solve(m, cfg, q)
    elapsed = time.perf_counter() - start
    print(
        f"{algorithm:18s} iters={plan.iterations_used:>7d} "
        f"violations=({plan.final_row_violation:.1e}, {plan.final_col_violation:.1e}) "
        f"objective={entropic_objective(plan, m, 0.05):.9f} "
        f"time={elapsed * 1e3:7.1f} ms"
    )

# Note the iteration counts: one Sinkhorn iteration is a full double sweep
# (N + K line rescalings), one greedy iteration touches a single line, and
# one Newton iteration is a pass over the matrix plus a K x K solve.

print()
print("=== stress instance: entries +/-1, tau = 0.001 (exponents +/-1000) ===")
stress = np.array([[1.0, -1.0], [-1.0, 1.0]])
q2 = ClassMarginal.uniform(2)
try:
    sinkhorn_linear(stress, SolverConfig(tau_ot=1e-3), q2)
except NumericOverflowError as exc:
    print(f"sinkhorn_linear    raises: {exc}")
for algorithm in ("sinkhorn_log", "stable_greenkhorn", "newton_semidual"):
    cfg = SolverConfig(
        tau_ot=1e-3, max_iterations=50_000, tolerance=1e-6, algorithm=algorithm
    )
    plan = solve(stress, cfg, q2)
    print(
        f"{algorithm:18s} finishes: iters={plan.iterations_used} "
        f"violations=({plan.final_row_violation:.1e}, {plan.final_col_violation:.1e})"
    )
