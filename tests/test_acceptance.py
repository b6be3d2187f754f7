"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from adfs_lab.adfs import run_adfs, run_adfs_efficient, run_ns_adfs
from adfs_lab.augmented import build_augmented, build_augmented_ns, expected_time, rate_branches
from adfs_lab.baselines import flat_value, point_saga, pool_objectives, reference_optimum
from adfs_lab.data import synth_dataset
from adfs_lab.objective import LocalObjective, LossKind
from adfs_lab.rng import BlockStream, generator
from adfs_lab.topology import build_topology, symmetric_eigensolve
from dense import dense_A, observed_run, state_rows
from instances import random_objectives, random_problem
from oracles import (dense_c0_constant, lift_primal_point, lyapunov_value, run_apcg,
                     sigma_dagger_rows)
from test_adfs import (
    comp_rows_touched,
    dual_coeffs_to_rows,
    dual_composite_for,
    single_node_problem,
)
from test_apcg import prox_grad_oracle, quad_l1_problem
from test_checks import (condition_inequality, operator_shortcuts, projector_identity,
                         solver_equivalence, spectral_lower_bound)


def _report(criterion, detail):
    print(f"\nACCEPTANCE PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def instance_set():
    problems = []
    for k in range(20):
        rng = generator("acceptance-inst", k)
        problems.append(
            random_problem(
                rng,
                n=int(rng.integers(2, 7)),
                m=int(rng.integers(1, 5)),
                d=int(rng.integers(1, 4)),
                tau=float(rng.uniform(1.0, 6.0)),
            )
        )
    return problems


def test_criterion_01_spectral_lower_bound(instance_set):
    start = time.time()
    rngs = [generator("sbound", seed) for seed in range(8)]
    problems = instance_set + [
        random_problem(r, n=int(r.integers(2, 5)), m=int(r.integers(1, 4)),
                       d=int(r.integers(1, 4))) for r in rngs]
    detail = spectral_lower_bound(problems)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("1 spectral-lower-bound", f"{detail}, {elapsed:.1f}s")


def test_criterion_02_projector_identity(instance_set):
    problems = instance_set + [random_problem(generator("proj", seed), n=3, m=2, d=3)
                               for seed in range(5)]
    detail = projector_identity(problems, generator("acceptance-proj", 0))
    _report("2 virtual-edge-projector", detail)


def test_criterion_03_operator_shortcuts(instance_set):
    problems = instance_set[:6] + [random_problem(generator("tests", 0), n=n, m=2, d=2)
                                   for n in (4, 3)]
    detail = operator_shortcuts(problems, generator("acceptance-state", 0), 10)
    _report("3 operator-shortcuts", detail)


def test_criterion_04_apcg():
    start = time.time()
    # (a) composite minimizer against the long-run proximal-gradient oracle
    problem, q, b, l1, _ = quad_l1_problem(seed=0)
    traj = run_apcg(problem, "strongly_convex", 4000, 1)
    ref = prox_grad_oracle(q, b, l1)
    dev_a = float(np.max(np.abs(traj[-1].x - ref)))
    assert dev_a <= 1e-8

    # (b) Lyapunov bound: pointwise under deterministic full-block sampling
    problem_b, qb, bb, l1b, _ = quad_l1_problem(seed=2, dim=4)
    theta = prox_grad_oracle(qb, bb, l1b)
    f_star = problem_b.smooth_value(theta) + sum(
        problem_b.psi_value(i, theta[i]) for i in range(4)
    )
    det = quad_l1_problem(seed=2, dim=4)[0]
    det.marginals = np.ones(4)
    det.sample_block = lambda rg: (0, 1, 2, 3)
    vals = [lyapunov_value(det, st, theta, f_star)
            for st in run_apcg(det, "strongly_convex", 120, 0)]
    assert all(y <= x * (1 + 1e-12) + 1e-12 for x, y in zip(vals, vals[1:]))
    # ... and within 10% Monte-Carlo slack under random sampling (200 seeds)
    c0 = vals[0]
    mc = [
        lyapunov_value(problem_b, run_apcg(problem_b, "strongly_convex", 40, s)[-1],
                       theta, f_star)
        for s in range(200)
    ]
    assert np.mean(mc) <= c0 * 1.1

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(
        "4 apcg-correctness",
        f"oracle dev {dev_a:.2e}, MC mean/C0 {np.mean(mc) / c0:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_single_node_reduction():
    problem = single_node_problem()
    iters = 300
    comp, mu, units = dual_composite_for(problem, None)
    stream = BlockStream(problem.sampling, "adfs", 11)
    traj = run_apcg(comp, "strongly_convex", iters, stream)
    _, views = observed_run(run_adfs, problem, iters, seed=11, log_every=1)
    worst = 0.0
    for t in range(1, iters + 1):
        mapped = dual_coeffs_to_rows(problem, traj[t].v, mu, units)
        v_rows = state_rows(problem, views[t]["v"])
        worst = max(worst, float(np.max(np.abs(v_rows - mapped))))
    assert worst <= 1e-8
    inv = 1.0 / problem.rho
    smax = problem.s_max_bound
    assert smax <= inv <= np.sqrt(2) * smax * (1 + 1e-9)
    _report(
        "5 single-node-reduction",
        f"300-iteration max dev {worst:.2e}, rho^-1 = {inv:.2f} in "
        f"[{smax:.2f}, {np.sqrt(2) * smax:.2f}]",
    )


def test_criterion_06_linear_rate():
    start = time.time()
    g = build_topology("grid2d", rows=2, cols=2)
    per_node = synth_dataset(4, 10, 5, seed=11, correlation=0.2, loss="logistic",
                             feature_scale=1.4)
    objs = [LocalObjective(fm, lb, 1.0, LossKind.LOGISTIC) for fm, lb in per_node]
    prob = build_augmented(g, objs, tau=5.0)
    flat = pool_objectives(objs)
    theta_star, _ = reference_optimum(flat, tol=1e-8)
    c0 = dense_c0_constant(prob, theta_star)
    eps = 1e-6
    k_total = int(np.ceil(np.log(c0 / eps) / prob.rho))
    k_total += (-k_total) % 4
    checkpoints = (k_total // 4, k_total // 2, k_total)
    target = sigma_dagger_rows(prob, lift_primal_point(prob, theta_star))
    sq = {t: [] for t in checkpoints}
    for seed in range(20):
        _, views = observed_run(run_adfs, prob, k_total, seed=seed, log_every=k_total // 4)
        for t in checkpoints:
            cur = sigma_dagger_rows(prob, views[t]["v"])
            sq[t].append(float(np.sum((cur - target) ** 2)))
    margins = {}
    for t in checkpoints:
        bound = c0 * (1 - prob.rho) ** t
        assert np.median(sq[t]) <= bound
        margins[t] = np.median(sq[t]) / bound
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(
        "6 adfs-linear-rate",
        f"C0 {c0:.3e}, K {k_total}, median/bound "
        + ", ".join(f"t={t}: {margins[t]:.2e}" for t in checkpoints)
        + f", {elapsed:.1f}s",
    )


def test_criterion_07_efficient_equivalence():
    prob = random_problem(generator("acceptance-eff", 0), n=4, m=3, d=3)
    detail = solver_equivalence([prob], 500)
    # every iteration logged and observed, to see the write set of each round
    res, views = observed_run(run_adfs_efficient, prob, 500, seed=3, log_every=1)
    touched = comp_rows_touched(prob, res, views, 500)
    assert touched <= 2 * prob.n
    _report(
        "7 efficient-adfs",
        f"{detail}, {touched} rows touched per computation block (2n = {2 * prob.n})",
    )


def test_criterion_08_time_model():
    rng = generator("acceptance-time", 0)
    prob = random_problem(rng, n=4, m=3, d=2, tau=5.0)
    iters = 10_000
    res = run_adfs(prob, iters, seed=1, log_every=iters)
    total = res.record.rows[-1].time
    expected = expected_time(prob, iters)
    p = prob.sampling.p_comm
    se = (prob.tau - 1.0) * np.sqrt(iters * p * (1 - p))
    assert abs(total - expected) <= 3 * se
    rho_comm, rho_comp = rate_branches(prob, prob.sampling.p_comm)
    rel = abs(rho_comm - rho_comp) / max(rho_comm, rho_comp)
    assert rel <= 1e-10
    _report(
        "8 time-model",
        f"T = {total:.0f} vs E[T] = {expected:.0f} (3 SE = {3 * se:.0f}); "
        f"branch mismatch {rel:.1e}",
    )


def test_criterion_09_ns_adfs():
    rng = generator("accept-ns", 0)
    g = build_topology("grid2d", rows=2, cols=2)
    objs = random_objectives(rng, 4, 5, 2, loss=LossKind.ABSOLUTE,
                             sigma_range=(1.0, 1.0))
    prob = build_augmented_ns(g, objs, tau=1.0)
    _, f_opt = reference_optimum(pool_objectives(objs))
    gaps = {}
    for t in (100, 200, 400):
        vals = []
        for seed in range(10):
            res = run_ns_adfs(prob, t, seed=seed, log_every=t)
            vals.append(res.record.rows[-1].objective - f_opt)
        gaps[t] = np.array(vals)
    r1 = float(np.median(gaps[200] / gaps[100]))
    r2 = float(np.median(gaps[400] / gaps[200]))
    assert r1 <= 0.35 and r2 <= 0.35

    # value bound with the 6 / p_min^2 constant on a tiny instance
    rng2 = generator("accept-ns-tiny", 1)
    g2 = build_topology("line", n=2)
    objs2 = random_objectives(rng2, 2, 2, 2, loss=LossKind.ABSOLUTE,
                              sigma_range=(1.0, 1.0))
    prob2 = build_augmented_ns(g2, objs2, tau=1.0)
    a = dense_A(prob2)
    lam_min_pos = symmetric_eigensolve(a.T @ a).lambda_min_pos
    long2, views = observed_run(run_ns_adfs, prob2, 100_000, seed=5, log_every=5000)
    v_star = state_rows(prob2, views[100_000]["v"])
    f_opt2 = min(r.objective for r in long2.record.rows)
    p_min = float(prob2.sampling.p_marginal.min())
    slack = []
    for t in (50, 100, 200):
        lhs, rhs = [], []
        for seed in range(10):
            res, views = observed_run(run_ns_adfs, prob2, t, seed=seed, log_every=t)
            lhs.append(res.record.rows[-1].objective - f_opt2)
            r_t2 = float(np.sum(v_star**2)) - float(
                np.sum((state_rows(prob2, views[t]["v"]) - v_star) ** 2)
            )
            rhs.append(
                2.0 / t**2 * (prob2.s_squared / lam_min_pos * r_t2
                              + 6.0 / p_min**2 * (0.0 - f_opt2))
            )
        assert np.mean(lhs) <= np.mean(rhs)
        slack.append(np.mean(lhs) / np.mean(rhs))
    _report(
        "9 ns-adfs",
        f"halving ratios {r1:.3f}, {r2:.3f} (<= 0.35); "
        f"value-bound usage {max(slack):.2f} of budget",
    )


def test_criterion_10_figure_analogue():
    start = time.time()
    g = build_topology("grid2d", rows=4, cols=4)
    per_node = synth_dataset(16, 200, 20, seed=2026, correlation=0.3,
                             loss="logistic")
    objs = [LocalObjective(fm, lb, 1.0, LossKind.LOGISTIC) for fm, lb in per_node]
    prob = build_augmented(g, objs, tau=5.0)
    flat = pool_objectives(objs)
    theta_star, f_star = reference_optimum(flat, tol=3e-6)
    gap0 = flat_value(flat, np.zeros(20)) - f_star
    target = 1e-5

    budget_adfs = int(3 * np.log(gap0 / target) / prob.rho)
    budget_adfs -= budget_adfs % 200
    adfs_times = [
        run_adfs(prob, budget_adfs, seed=s, log_every=200, f_star=f_star,
                 stop_at_subopt=target).record.time_to(target)
        for s in range(5)
    ]
    n_samp = flat.m
    kappa = 1 + sum(0.25 * float(x @ x) for x in flat.feature_matrix)
    budget_saga = int(3 * (n_samp + np.sqrt(n_samp * kappa)) * np.log(gap0 / target))
    budget_saga -= budget_saga % 200
    saga_times = [
        point_saga(flat, budget_saga, seed=s, f_star=f_star, log_every=200,
                   stop_at_subopt=target)[0].time_to(target)
        for s in range(5)
    ]
    med_adfs = float(np.median(adfs_times))
    med_saga = float(np.median(saga_times))
    elapsed = time.time() - start
    assert np.isfinite(med_adfs) and np.isfinite(med_saga)
    assert med_adfs < med_saga
    assert elapsed < 600.0
    _report(
        "10 figure-analogue",
        f"median time-to-1e-5: adfs {med_adfs:.0f} < point_saga {med_saga:.0f} "
        f"({med_saga / med_adfs:.1f}x), {elapsed:.0f}s",
    )


def test_criterion_11_suite_hygiene(instance_set):
    # condition-number sandwich on every dataset generated for this suite
    objective_sets = [prob.objectives for prob in instance_set if prob.loss.is_smooth]
    for seed in range(10):
        rng = generator("accept-cond", seed)
        objective_sets.append(random_objectives(rng, 3, int(rng.integers(1, 6)), 3,
                                                ragged=True))
    detail = condition_inequality(objective_sets)
    _report("11 suite-hygiene", detail)
