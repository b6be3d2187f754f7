import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adfs_lab.adfs as solver_module
import adfs_lab.augmented as aug
import adfs_lab.objective as objective
from adfs_lab import harness
from adfs_lab.adfs import (
    _Rounds,
    primal_estimate,
    run_adfs,
    run_adfs_efficient,
    run_ns_adfs,
)
from adfs_lab.augmented import build_augmented, split_state, zero_state
from adfs_lab.baselines import flat_value, point_saga, pool_objectives, reference_optimum
from adfs_lab.objective import LOSSES, LocalObjective, LossKind
from adfs_lab.rng import BlockStream, generator
from adfs_lab.topology import build_topology
from dense import dense_A, dense_sigma_dagger, observed_run, state_rows
from instances import random_connected_graph, random_objectives, random_problem
from oracles import (CompositeProblem, conjugate_prox_oracle, dense_c0_constant,
                     lift_primal_point, loss_prox_1d, momentum_map, prox_tilde_fstar,
                     reference_adfs, run_apcg, sigma_dagger_rows)
from test_checks import solver_equivalence


def single_node_problem(seed=3, m=3, d=2):
    rng = generator("n1", seed)
    g = build_topology("complete", n=1)
    feats, labels = zip(*[(rng.normal(size=d) * 2.5, 1.0 if rng.random() < 0.5 else -1.0)
                          for _ in range(m)])
    obj = LocalObjective(np.array(feats), np.array(labels), 1.0, LossKind.LOGISTIC)
    return build_augmented(g, [obj], tau=1.0)


def clamped_problem(wide=0, n=2):
    """`n` fully connected nodes of 12 flat logistic samples (norm 0.2), which
    force the rate clamp and put every virtual node at the margin
    eta~ = (1 - PROX_MARGIN) L below the conjugate prox's limit.  The first
    `wide` samples of each node get norm 0.4, so a larger p_ij keeps them
    further below it."""
    rng = generator("clamp-run", 0)
    g = build_topology("complete", n=n)
    objs = []
    for _ in range(n):
        feats = np.empty((12, 2))
        for j in range(12):
            v = rng.normal(size=2)
            feats[j] = 0.2 * v / np.linalg.norm(v)
        feats[:wide] *= 2.0
        objs.append(LocalObjective(feats, np.ones(12), 1.0, LossKind.LOGISTIC))
    return build_augmented(g, objs, tau=1.0)


def solver_run(name, rng):
    """run(iters, **kw) -> RunResult of solver `name` (seed 0) on a small
    instance of its kind, logged against that instance's reference optimum."""
    if name == "ns_adfs":
        objs = random_objectives(rng, 3, 4, 2, loss=LossKind.ABSOLUTE)
        prob = aug.build_augmented_ns(build_topology("line", n=3), objs, tau=1.0)
    else:
        prob = random_problem(rng, n=3, m=2, d=2)
    flat = pool_objectives(prob.objectives)
    f_star = reference_optimum(flat)[1]
    if name == "point_saga":
        return lambda iters, **kw: point_saga(flat, iters, 0, f_star=f_star, **kw)
    solver = {"adfs": run_adfs, "ns_adfs": run_ns_adfs}
    return lambda iters, **kw: solver[name](prob, iters, 0, f_star=f_star, **kw)


def z_coef_writes(problem, res, views, iters):
    """(block kind, written virtual indices) of each round t = 1..iters of a
    `run_adfs_efficient` result and its views, logged at every iteration: the
    z coefficients that round changed."""
    kinds = {row.iteration: row.block_kind for row in res.record.rows}
    prev = split_state(problem, zero_state(problem))[1]
    out = []
    for t in range(1, iters + 1):
        coef = split_state(problem, views[t]["z"])[1]
        out.append((kinds[t], np.flatnonzero(coef != prev)))
        prev = coef
    return out


def comp_rows_touched(problem, res, views, iters):
    """Largest number of node rows (n centers plus the written coefficients)
    a computation round of the efficient form wrote, after checking that no
    round wrote two coefficients of one node and gossip wrote none."""
    touched = 0
    for kind, written in z_coef_writes(problem, res, views, iters):
        if kind == "communication":
            assert written.size == 0
            continue
        nodes = np.searchsorted(problem.vstart, written, side="right") - 1
        assert np.unique(nodes).size == written.size, f"two coefficients of one node: {written}"
        touched = max(touched, problem.n + written.size)
    return touched


def dual_composite_for(problem, stream):
    """The local dual problem of a single-node instance, in span coefficients."""
    m = problem.n_virtual
    a = dense_A(problem)
    sd = dense_sigma_dagger(problem)
    mu = np.sqrt(problem.mu2_virtual)
    units = problem.features / np.sqrt(problem.xnorm2)[:, None]
    basis = np.zeros((a.shape[1], m))
    d = problem.d
    for j in range(m):
        basis[j * d : (j + 1) * d, j] = units[j]
    quad = basis.T @ a.T @ sd @ a @ basis
    obj = problem.objectives[0]

    def prox_coord(j, xval, step):
        out = prox_tilde_fstar(
            obj.feature_matrix[j], obj.labels[j], problem.loss, -mu[j] * xval * units[j],
            step * problem.mu2_virtual[j],
        )
        return -(units[j] @ out) / mu[j]

    def sample_block(st):
        return (int(aug.draw_block(problem, st).idx[0]),)

    comp = CompositeProblem(
        dim=m,
        smooth_grad=lambda y: quad @ y,
        projector_apply=lambda x: x.copy(),
        sigma_a=problem.sigma_a_bound,
        ess_bound=np.sqrt(problem.sigma_a_bound) / problem.rho,
        marginals=problem.sampling.p_marginal,
        sample_block=sample_block,
        prox_coord=prox_coord,
        has_psi=np.ones(m, dtype=bool),
    )
    return comp, mu, units


def dual_coeffs_to_rows(problem, lam, mu, units):
    rows = np.zeros((problem.n_rows, problem.d))
    rows[0] = (mu * lam) @ units
    for j in range(problem.n_virtual):
        rows[1 + j] = -mu[j] * lam[j] * units[j]
    return rows


class TestSingleNodeReduction:
    def test_iterates_match_apcg_on_dual(self):
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
            mapped_x = dual_coeffs_to_rows(problem, traj[t].x, mu, units)
            x_rows = state_rows(problem, views[t]["x"])
            worst = max(worst, float(np.max(np.abs(x_rows - mapped_x))))
        assert worst <= 1e-8

    def test_rate_reduces_to_computation_branch(self):
        problem = single_node_problem()
        smax = problem.s_max_bound
        inv = 1.0 / problem.rho
        assert smax <= inv <= np.sqrt(2) * smax * (1 + 1e-9)

    def test_p_comm_is_zero(self):
        problem = single_node_problem()
        assert problem.sampling.p_comm == 0.0


class TestReferenceSolver:
    def test_zero_data_is_fixed_point(self):
        rng = generator("zero", 0)
        g = build_topology("complete", n=2)
        objs = [
            LocalObjective(
                np.array([rng.normal(size=2) for _ in range(3)]), np.zeros(3),
                1.0, LossKind.SQUARED,
            )
            for _ in range(2)
        ]
        prob = build_augmented(g, objs, tau=1.0)
        res, views = observed_run(run_adfs, prob, 50, seed=1, log_every=5)
        assert np.max(np.abs(res.theta)) == 0.0
        for cap in (views[t] for t in (10, 25, 50)):
            assert np.max(np.abs(cap["v"])) == 0.0
            assert np.max(np.abs(cap["x"])) == 0.0

    @pytest.mark.parametrize("topo,seed", [
        ("random", 0),
        ("line", 1),
        ("complete", 2),
    ])
    def test_linear_rate_envelope(self, topo, seed):
        # three distinct (topology, dataset) instances under the same envelope
        rng = generator("rate-env", seed)
        if topo == "random":
            prob = random_problem(rng, n=2, m=4, d=2, tau=3.0)
        else:
            g = build_topology(topo, n=3)
            floor = float(np.sqrt(2.0 / LossKind.LOGISTIC.scalar_smoothness))
            objs = random_objectives(rng, 3, 3, 2, min_feature_norm=floor)
            prob = build_augmented(g, objs, tau=3.0)
        flat = pool_objectives(prob.objectives)
        theta_star, f_star = reference_optimum(flat, tol=1e-8)
        c0 = dense_c0_constant(prob, theta_star)
        target = sigma_dagger_rows(prob, lift_primal_point(prob, theta_star))
        k_total = int(np.ceil(np.log(c0 / 1e-4) / prob.rho))
        k_total += (-k_total) % 2
        checkpoints = (k_total // 2, k_total)
        sq = {t: [] for t in checkpoints}
        for seed in range(8):
            _, views = observed_run(run_adfs, prob, k_total, seed=seed,
                                    log_every=k_total // 2)
            for t in checkpoints:
                cur = sigma_dagger_rows(prob, views[t]["v"])
                sq[t].append(float(np.sum((cur - target) ** 2)))
        for t in checkpoints:
            assert np.median(sq[t]) <= c0 * (1 - prob.rho) ** t

    @pytest.mark.parametrize("solver", ["adfs", "ns_adfs", "point_saga"])
    def test_time_increments_follow_block_kinds(self, rng, solver):
        if solver == "ns_adfs":
            objs = random_objectives(rng, 3, 2, 2, loss=LossKind.ABSOLUTE)
            prob = aug.build_augmented_ns(build_topology("line", n=3), objs, tau=4.0)
        else:
            prob = random_problem(rng, n=3, m=2, d=2, tau=4.0)
        if solver == "point_saga":
            # no gossip: one time unit per prox, so time == iteration
            res = point_saga(pool_objectives(prob.objectives), 400, 9, log_every=1)
            kinds = {"computation"}
        else:
            run = {"adfs": run_adfs, "ns_adfs": run_ns_adfs}
            res = run[solver](prob, 400, seed=9, log_every=1)
            kinds = {"computation", "communication"}
        rows = res.record.rows
        assert {r.block_kind for r in rows[1:]} == kinds
        for prev, cur in zip(rows, rows[1:]):
            inc = cur.time - prev.time
            if cur.block_kind == "communication":
                assert inc == pytest.approx(4.0)
            else:
                assert inc == pytest.approx(1.0)

    def test_expected_time_within_three_standard_errors(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2, tau=6.0)
        iters = 4000
        res = run_adfs(prob, iters, seed=2, log_every=iters)
        total = res.record.rows[-1].time
        p = prob.sampling.p_comm
        expected = aug.expected_time(prob, iters)
        se = (prob.tau - 1.0) * np.sqrt(iters * p * (1 - p))
        assert abs(total - expected) <= 3 * se

    def test_virtual_rows_stay_in_feature_span(self, rng):
        prob = random_problem(rng, n=3, m=3, d=3)
        _, views = observed_run(run_adfs, prob, 150, seed=4, log_every=5)
        for cap in (views[t] for t in (10, 75, 150)):
            virt = state_rows(prob, cap["v"])[prob.n :]
            coef = np.einsum("ij,ij->i", prob.features, virt) / prob.xnorm2
            resid = virt - coef[:, None] * prob.features
            norms = np.linalg.norm(virt, axis=1)
            mask = norms > 1e-12
            assert np.all(
                np.linalg.norm(resid, axis=1)[mask] <= 1e-8 * (1 + norms[mask])
            )

    def test_clamped_instance_still_converges(self):
        # flat samples force the rate clamp; every virtual node sits at the margin
        prob = clamped_problem()
        assert prob.rho < prob.rho_unclamped
        flat = pool_objectives(prob.objectives)
        _, f_star = reference_optimum(flat)
        res = run_adfs(prob, 3000, seed=0, log_every=1000, f_star=f_star)
        assert res.record.rows[-1].subopt <= 1e-6

    @pytest.mark.parametrize("solver", ["adfs", "ns_adfs", "point_saga"])
    def test_stop_at_subopt_truncates_rows(self, rng, solver):
        run = solver_run(solver, rng)
        target = 1e-3 if solver == "ns_adfs" else 1e-9  # O(1/t^2) vs linear rate
        with pytest.raises(ValueError, match="iters must be >= 1"):
            run(0)
        rows = run(100_000, log_every=10, stop_at_subopt=target).record.rows
        assert [r.iteration for r in rows] == list(range(0, rows[-1].iteration + 1, 10))
        assert rows[-1].iteration < 100_000
        assert rows[-1].subopt <= target < rows[-2].subopt

    @pytest.mark.parametrize("solver", ["adfs", "ns_adfs"])
    def test_non_finite_state_names_its_iteration(self, rng, monkeypatch, solver):
        # a NaN from gossip (not inf: inf - inf would warn) stops the run at
        # the first communication block
        run = solver_run(solver, rng)
        kinds = [r.block_kind for r in run(100, log_every=1).record.rows[1:]]
        first = kinds.index("communication")
        monkeypatch.setattr(aug, "apply_comm_step",
                            lambda problem, centers: np.full_like(centers, np.nan))
        with pytest.raises(FloatingPointError,
                           match=f"^non-finite state at iteration {first}$"):
            run(100)

    @pytest.mark.parametrize("solver", ["adfs", "ns_adfs"])
    def test_observing_changes_nothing(self, rng, solver):
        # an observer on a finer log grid sees every log point and only those,
        # and leaves theta and the shared rows bit for bit as they were
        run = solver_run(solver, rng)
        plain = run(600, log_every=100)
        seen, views = observed_run(run, 600, log_every=20)
        assert seen.theta.tobytes() == plain.theta.tobytes()
        rows = {r.iteration: r for r in seen.record.rows}
        assert [rows[r.iteration] for r in plain.record.rows] == plain.record.rows
        assert list(views) == [r.iteration for r in seen.record.rows]
        target = 1e-3 if solver == "ns_adfs" else 1e-9
        stopped, views = observed_run(run, 100_000, log_every=10, stop_at_subopt=target)
        assert stopped.record.rows[-1].iteration < 100_000
        assert list(views) == [r.iteration for r in stopped.record.rows]

    def test_rejects_nonsmooth_problem(self, rng):
        objs = random_objectives(rng, 2, 2, 2, loss=LossKind.ABSOLUTE)
        prob = aug.build_augmented_ns(build_topology("complete", n=2), objs)
        with pytest.raises(ValueError, match="smooth"):
            run_adfs(prob, 10, seed=0)


class TestEfficientSolver:
    def test_public_names_call_one_body(self, monkeypatch):
        # run_adfs and run_adfs_efficient are two functions, each passing its
        # arguments to the rescaled body; neither reaches the other's name
        assert run_adfs is not run_adfs_efficient
        calls = []
        monkeypatch.setattr(solver_module, "_run_rescaled", lambda *args: calls.append(args))

        def refuse(*args, **kwargs):
            raise AssertionError("a public solver name called another")

        monkeypatch.setattr(solver_module, "run_adfs", refuse)
        monkeypatch.setattr(solver_module, "run_adfs_efficient", refuse)
        prob, observe = object(), object()
        for run in (run_adfs, run_adfs_efficient):
            run(prob, 7, 3, log_every=5, f_star=1.5, observe=observe, stop_at_subopt=1e-3)
        assert calls == [(prob, 7, 3, 5, 1.5, observe, 1e-3)] * 2

    def test_trajectories_match_reference(self, rng):
        prob = random_problem(rng, n=4, m=3, d=2)
        marks = (1, 2, 3, 50, 250, 500)
        r1, views1 = observed_run(reference_adfs, prob, 500, seed=3, log_every=1)
        r2, views2 = observed_run(run_adfs_efficient, prob, 500, seed=3, log_every=1)
        for t in marks:
            for key in ("x", "v", "y"):
                a = state_rows(prob, views1[t][key])
                b = state_rows(prob, views2[t][key])
                assert np.max(np.abs(a - b)) <= 1e-6 * (1 + np.max(np.abs(a)))
        s1 = [r.objective for r in r1.record.rows]
        s2 = [r.objective for r in r2.record.rows]
        np.testing.assert_allclose(s1, s2, rtol=1e-9, atol=1e-12)

    def test_computation_blocks_touch_two_n_rows(self, rng):
        prob = random_problem(rng, n=4, m=3, d=2)
        iters = 300
        res, views = observed_run(run_adfs_efficient, prob, iters, seed=1, log_every=1)
        assert comp_rows_touched(prob, res, views, iters) == 2 * prob.n

    def test_equivalence_across_renormalization(self, rng):
        # run long enough for the lazily rescaled momentum scalar to underflow
        # past the fold threshold; trajectories must still match the reference
        from adfs_lab.adfs import RENORM_FLOOR

        prob = random_problem(rng, n=3, m=2, d=2)
        phi = (1 - prob.rho) / (1 + prob.rho)
        t_fold = int(np.ceil(np.log(RENORM_FLOOR) / np.log(phi)))
        assert t_fold < 9000, "instance converges too slowly for this test"
        marks = (t_fold - 50, t_fold + 50, t_fold + 200)
        iters = marks[-1]
        log_every = math.gcd(*marks, iters)
        _, views1 = observed_run(reference_adfs, prob, iters, seed=8, log_every=log_every)
        _, views2 = observed_run(run_adfs_efficient, prob, iters, seed=8, log_every=log_every)
        for t in marks:
            for key in ("x", "v", "y"):
                a = state_rows(prob, views1[t][key])
                b = state_rows(prob, views2[t][key])
                assert np.max(np.abs(a - b)) <= 1e-6 * (1 + np.max(np.abs(a)))

    def test_return_convention_agrees_at_convergence(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2)
        iters = 3000
        _, views1 = observed_run(reference_adfs, prob, iters, seed=6, log_every=iters)
        _, views2 = observed_run(run_adfs_efficient, prob, iters, seed=6, log_every=iters)
        # exact structural equality of the reconstructed v-iterate
        v1, v2 = (state_rows(prob, views[iters]["v"]) for views in (views1, views2))
        assert np.max(np.abs(v1 - v2)) <= 1e-8
        # the y-based return of the rescaled form equals Sigma^+ v_K once converged
        ref_rows = sigma_dagger_rows(prob, views1[iters]["v"])
        scale = 1.0 + np.max(np.abs(ref_rows))
        got = sigma_dagger_rows(prob, views2[iters]["y"])
        assert np.max(np.abs(got - ref_rows)) <= 1e-6 * scale

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), d=st.integers(1, 4),
           loss=st.sampled_from([LossKind.LOGISTIC, LossKind.SQUARED]),
           log_scale=st.floats(-2.0, 0.5),
           tau=st.floats(0.5, 6.0, exclude_min=True, exclude_max=True))
    def test_matches_reference_on_random_weighted_instances(self, seed, n, d, loss,
                                                            log_scale, tau):
        # small feature scales put L_ij below sigma_i, so some instances are
        # rate-clamped and run the conjugate prox at its margin in both forms
        rng = generator("equivalence-property", seed)
        graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)),
                                       weighted=True)
        objs = [LocalObjective(o.feature_matrix * 10.0**log_scale, o.labels, o.sigma, o.loss)
                for o in random_objectives(rng, n, 12, d, loss=loss, ragged=True)]
        solver_equivalence([build_augmented(graph, objs, tau)], 200)


class TestBatchProxRounds:
    """Networks of at least objective.BATCH_MIN nodes: their computation rounds
    take the vectorized logistic prox."""

    @staticmethod
    def _checked_batch_sizes(monkeypatch, prob):
        """Sizes of the batch-kernel calls of solver_equivalence and
        one efficient run on `prob`, after checking that equivalence and that
        run's logged objectives against a run kept on the loop kernel."""
        def objectives():
            run = run_adfs_efficient(prob, 400, seed=0, log_every=100)
            return [r.objective for r in run.record.rows]

        with monkeypatch.context() as patch:
            patch.setattr(objective, "BATCH_MIN", prob.n + 1)
            scalar_path = objectives()
        sizes = []
        kernel = objective._logistic_prox_r_batch

        def spy(b, c4):
            sizes.append(b.size)
            return kernel(b, c4)

        monkeypatch.setattr(objective, "_logistic_prox_r_batch", spy)
        solver_equivalence([prob], 200)
        np.testing.assert_allclose(objectives(), scalar_path, rtol=1e-12)
        return sizes

    def test_forms_agree_and_match_the_scalar_path(self, monkeypatch, rng):
        n = objective.BATCH_MIN + 2
        prob = build_augmented(build_topology("line", n=n),
                               random_objectives(rng, n, 3, 2, min_feature_norm=2.0), tau=2.0)
        assert prob.rho == prob.rho_unclamped
        sizes = self._checked_batch_sizes(monkeypatch, prob)
        assert sizes and set(sizes) == {n}

    def test_clamped_rounds_reach_the_kernel_whole(self, monkeypatch):
        n = objective.BATCH_MIN + 4
        prob = clamped_problem(wide=10, n=n)
        assert prob.rho < prob.rho_unclamped
        sizes = self._checked_batch_sizes(monkeypatch, prob)
        # every round reaches the kernel whole, the nodes at the margin included
        assert sizes and set(sizes) == {n}

    def test_batch_steps_leave_few_misses(self, monkeypatch):
        # the rounds of the grid6x6 instance (6x6 grid, m 200, d 40, data seed
        # 2026, tau 5; solver seed 1, 1 000 iterations): from the bracket
        # start, BATCH_STEPS Newton steps hand at most 0.1% of the elements
        # to the loop kernel (after 4 steps a third of them are unconverged)
        cfg = harness.load_config({
            "topology": {"kind": "grid2d", "rows": 6, "cols": 6}, "loss": "logistic",
            "m": 200, "dataset": {"kind": "synthetic", "d": 40, "correlation": 0.3,
                                  "seed": 2026},
            "sigma": 1.0, "tau": 5.0, "algorithms": ["adfs_efficient"], "seeds": [1],
            "iters": 1000})
        prob = harness.build_instance(cfg)[2]
        sizes, redone = [], []
        batch, loop = objective._logistic_prox_r_batch, objective._logistic_prox_r

        def batch_spy(b, c4):
            sizes.append(b.size)
            return batch(b, c4)

        def loop_spy(b, c4):  # at n = 36 >= BATCH_MIN only the batch kernel calls it
            redone.append(len(b))
            return loop(b, c4)

        monkeypatch.setattr(objective, "_logistic_prox_r_batch", batch_spy)
        monkeypatch.setattr(objective, "_logistic_prox_r", loop_spy)
        run_adfs_efficient(prob, 1000, 1, log_every=1000)
        assert set(sizes) == {36}
        assert sum(redone) <= 1e-3 * sum(sizes)


def expected_columns(prob):
    """{column: values} of the round table, each from its definition, one
    virtual node at a time; eta~ = eta (mu^2 / p) is grouped as the solver
    groups it, since L - eta~ cancels on nodes near the prox limit."""
    rows = []
    for i in range(prob.n):
        for g in range(prob.vstart[i], prob.vstart[i + 1]):
            p, mu2, x2, label = (float(a[g]) for a in (
                prob.sampling.p_marginal, prob.mu2_virtual, prob.xnorm2, prob.labels))
            row = {aug.G_CENTER: mu2 / (p * float(prob.sigma[i]) * x2), aug.INV_P: 1.0 / p}
            if not prob.loss.is_smooth:
                row[aug.T_LABEL] = mu2 / (p * x2) * label
                rows.append(row)
                continue
            big_l = float(prob.smooth_virtual[g])
            eta_t = prob.eta * (mu2 / p)
            scale = 1.0 - eta_t / big_l
            z_in, step = x2 / eta_t, (big_l - eta_t) / (eta_t * big_l) * x2
            p_out = eta_t / (x2 * scale)
            if prob.loss is LossKind.LOGISTIC:  # the factors of the prox in r = label p / 2
                z_in = 2.0 * label * z_in / step
                step, p_out = 4.0 / step, 2.0 * label * p_out
            row.update({
                aug.G_COEF: mu2 / (p * big_l), aug.LABEL: label, aug.PROX_IN: z_in,
                aug.PROX_STEP: step, aug.INV_SCALE: 1.0 / scale,
                aug.PROX_OUT: p_out,
                aug.PAIR_U: (1.0 - prob.rho / p) / 2.0,
                aug.PAIR_Z: (1.0 + prob.rho / p) / 2.0,
            })
            rows.append(row)
    return {col: np.array([row[col] for row in rows]) for col in rows[0]}


class TestRoundTable:
    @pytest.mark.parametrize("case", ["logistic", "squared", "absolute"])
    def test_columns_match_definitions(self, case):
        rng = generator("round-table", 0)
        if case == "absolute":
            objs = random_objectives(rng, 4, 3, 2, loss=LossKind.ABSOLUTE, ragged=True)
            prob = build_augmented(random_connected_graph(rng, 4, extra_edges=1), objs, tau=2.0)
        else:
            prob = random_problem(rng, n=4, m=3, d=2, loss=LOSSES[case], weighted=True,
                                  ragged=True)
        table = aug.round_table(prob)
        expected = expected_columns(prob)
        assert table.shape == (prob.n_virtual, len(expected))
        for col, values in expected.items():
            np.testing.assert_allclose(table[:, col], values, rtol=1e-15, atol=0,
                                       err_msg=f"column {col}")

    def test_clamped_rows_carry_the_identity_factors(self):
        prob = clamped_problem(wide=6)
        table = aug.round_table(prob)
        assert np.isfinite(table).all()
        for col, values in expected_columns(prob).items():
            np.testing.assert_allclose(table[:, col], values, rtol=1e-15, atol=0,
                                       err_msg=f"column {col}")
        # the narrow rows sit at the margin, the wide ones below it
        inv_scale = table[:, aug.INV_SCALE]
        assert inv_scale.max() == pytest.approx(1.0 / objective.PROX_MARGIN, rel=1e-12)
        assert inv_scale.min() < 0.5 / objective.PROX_MARGIN

    def test_forms_agree_on_mixed_clamped_instance(self):
        prob = clamped_problem(wide=6)
        r1 = reference_adfs(prob, 2000, seed=0, log_every=100)
        r2 = run_adfs_efficient(prob, 2000, seed=0, log_every=100)
        assert ([(r.iteration, r.time) for r in r1.record.rows]
                == [(r.iteration, r.time) for r in r2.record.rows])
        np.testing.assert_allclose([r.objective for r in r1.record.rows],
                                   [r.objective for r in r2.record.rows], rtol=1e-9)

    def test_rate_above_clamp_cap_rejected_before_first_iteration(self, monkeypatch):
        prob = clamped_problem()
        p_min = float(prob.sampling.p_marginal.min())

        def no_draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(aug, "draw_block", no_draw)
        # 2 rho = p_min puts eta~ on the prox limit, inside the margin
        for rho in (0.5 * p_min, p_min):
            for run in (reference_adfs, run_adfs):
                with pytest.raises(ValueError, match="identity breaks inside its margin"):
                    run(replace(prob, rho=rho), 10, seed=0)


def committed_problem(name, **over):
    """The problem `build_instance` makes of the committed config
    configs/`name` with the keys of `over` replaced."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
        data = json.load(fh)
    data.update(over)
    return harness.build_instance(harness.load_config(data))[2]


class TestNearLimitPrecision:
    def test_rounds_match_a_40_digit_prox(self):
        # the figure analogue at sigma = 100 clamps the rate: one virtual node
        # sits at the margin below the prox limit, the next ones within 1e-3
        # of it, where the identity's cancellation is largest
        prob = committed_problem("fig_analogue.json", sigma=100)
        assert prob.rho < prob.rho_unclamped
        inv_scale = aug.round_table(prob)[:, aug.INV_SCALE]
        assert inv_scale.max() <= (1.0 + 1e-12) / objective.PROX_MARGIN
        eta_t = prob.eta * (prob.mu2_virtual / prob.sampling.p_marginal)
        ratio = eta_t / prob.smooth_virtual
        # rounds over the virtual node of each node nearest the limit
        idx = np.array([lo + int(np.argmax(ratio[lo:hi]))
                        for lo, hi in zip(prob.vstart[:-1], prob.vstart[1:])])
        assert ratio[idx].max() == pytest.approx(1.0 - objective.PROX_MARGIN, rel=1e-12)
        rounds = _Rounds(prob)
        draw = aug.BlockDraw("computation", idx)
        rng = generator("near-limit", 0)
        for y_scale in (0.0, 1e-3, 1e-3):  # at the zero state, then twice off it
            y_center, y_coef = split_state(prob, rng.normal(size=zero_state(prob).size) * y_scale)
            w_coef = -prob.labels[idx] * rng.uniform(0.05, 0.95, size=idx.size)
            _, consts, rows = rounds.sample(prob, draw)
            h = rounds.step(prob, consts, rows, y_center, y_coef[idx], w_coef, prob.eta)
            c_in = w_coef + prob.eta * aug.virtual_gradient(prob, consts, rows, y_center,
                                                            y_coef[idx])
            for k, g in enumerate(idx):
                expected = conjugate_prox_oracle(prob.loss, c_in[k], prob.labels[g],
                                                 prob.xnorm2[g], prob.smooth_virtual[g],
                                                 eta_t[g])
                assert abs(w_coef[k] + h[k] - expected) <= 1e-13 * abs(expected), (g, ratio[g])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), d=st.integers(1, 3),
           loss=st.sampled_from([LossKind.LOGISTIC, LossKind.SQUARED]),
           log_scale=st.floats(-3.0, -0.5))
    def test_clamped_instances_keep_the_margin(self, seed, n, d, loss, log_scale):
        rng = generator("margin-property", seed)
        graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)),
                                       weighted=True)
        objs = [LocalObjective(o.feature_matrix * 10.0**log_scale, o.labels, o.sigma, o.loss)
                for o in random_objectives(rng, n, 12, d, loss=loss, ragged=True)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prob = build_augmented(graph, objs, tau=1.0)
            assume(prob.rho < prob.rho_unclamped)
            table = aug.round_table(prob)
            run_adfs_efficient(prob, 50, seed=0, log_every=50)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert np.isfinite(table).all()
        # 1 / PROX_MARGIN up to the rounding of eta~ / L, which the scale
        # 1 - eta~ / L = PROX_MARGIN amplifies to about 1e-14 relative
        assert table[:, aug.INV_SCALE].max() <= (1.0 + 1e-12) / objective.PROX_MARGIN


class TestMomentumMap:
    @pytest.mark.parametrize("rho", [None, 0.3, 1e-4])
    def test_matches_written_recursion(self, rho):
        rng = generator("momentum-map", 0)
        prob = random_problem(rng, n=4, m=3, d=2)
        rho = prob.rho if rho is None else rho
        size = zero_state(prob).size
        state = rng.normal(size=(2, size)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2, size))
        out = np.empty_like(state)
        np.matmul(momentum_map(rho), state, out=out)
        x, v = state
        y = (x + rho * v) / (1.0 + rho)
        w = (1.0 - rho) * v + rho * y
        for got, want in zip(out, (y, w)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_every_block_gets_eta_and_rho(self, monkeypatch):
        # the reference recursion's schedule is constant: each block is given
        # the problem's (eta, rho), as test_schedule_monotone checks run_ns_adfs's
        prob = random_problem(generator("adfs-schedule", 0), n=3, m=2, d=2)
        schedule = []
        block_step = solver_module._block_step

        def recording_step(problem, rounds, draw, y, w, eta, beta):
            schedule.append((eta, beta))
            return block_step(problem, rounds, draw, y, w, eta, beta)

        monkeypatch.setattr(solver_module, "_block_step", recording_step)
        reference_adfs(prob, 300, seed=0, log_every=300)
        assert schedule == [(prob.eta, prob.rho)] * 300


class TestRaggedDatasets:
    def test_solver_and_efficient_agree_on_unbalanced_nodes(self):
        rng = generator("ragged", 0)
        prob = random_problem(rng, n=4, m=5, d=2, ragged=True)
        assert len(set(prob.m_per_node)) > 1  # genuinely unbalanced
        flat = pool_objectives(prob.objectives)
        _, f_star = reference_optimum(flat)
        r1 = reference_adfs(prob, 2000, seed=2, log_every=500, f_star=f_star)
        r2 = run_adfs_efficient(prob, 2000, seed=2, log_every=500, f_star=f_star)
        a = [r.objective for r in r1.record.rows]
        b = [r.objective for r in r2.record.rows]
        np.testing.assert_allclose(a, b, rtol=1e-9)
        assert r1.record.rows[-1].subopt <= 1e-6


class TestPredictedTime:
    def test_prediction_upper_bounds_observed_median(self):
        # on a tiny instance with the dense Lyapunov constant, the predicted
        # time to eps upper-bounds the observed median time to the same
        # error level
        rng = generator("predicted-time", 0)
        prob = random_problem(rng, n=2, m=3, d=2, tau=4.0)
        flat = pool_objectives(prob.objectives)
        theta_star, _ = reference_optimum(flat, tol=1e-8)
        c0 = dense_c0_constant(prob, theta_star)
        eps = 1e-4
        k_eps = int(np.ceil(np.log(c0 / eps) / prob.rho))
        p = prob.sampling.p_comm
        predicted = (1 - p + prob.tau * p) * k_eps
        target = sigma_dagger_rows(prob, lift_primal_point(prob, theta_star))
        observed = []
        for seed in range(5):
            res, views = observed_run(run_adfs, prob, k_eps, seed=seed, log_every=1)
            hit = np.inf
            for t in range(50, k_eps + 1, 50):
                cur = sigma_dagger_rows(prob, views[t]["v"])
                if float(np.sum((cur - target) ** 2)) <= eps:
                    hit = res.record.rows[t].time
                    break
            observed.append(hit)
        assert np.median(observed) <= predicted


class TestPrimalEstimate:
    def test_zero_state(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2)
        theta = primal_estimate(prob, split_state(prob, zero_state(prob))[0])
        assert theta.shape == (prob.d,) and np.max(np.abs(theta)) == 0.0

    def test_converges_to_reference_optimum(self, rng):
        prob = random_problem(rng, n=3, m=3, d=2)
        flat = pool_objectives(prob.objectives)
        theta_star, _ = reference_optimum(flat, tol=1e-9)
        res, _ = observed_run(run_adfs, prob, 4000, seed=0, log_every=4000)
        assert np.linalg.norm(res.theta - theta_star) <= 1e-4

    def test_center_rows_reach_consensus(self, rng):
        prob = random_problem(rng, n=4, m=2, d=2)
        flat = pool_objectives(prob.objectives)
        theta_star, _ = reference_optimum(flat)
        _, views = observed_run(run_adfs, prob, 4000, seed=1, log_every=4000)
        y = views[4000]["y"]
        centers = split_state(prob, y)[0] / prob.sigma[:, None]
        worst = max(
            np.linalg.norm(centers[i] - centers[j])
            for i in range(prob.n)
            for j in range(i + 1, prob.n)
        )
        assert worst <= 1e-3 * (1 + np.linalg.norm(theta_star))

    def test_logged_value_is_pooled_value(self):
        # per-node sigma on configs/pcomm_sweep.json: the F that ADFS logs is
        # the pooled F at each state's primal estimate, bit for bit (with a
        # numpy sum of the sigmas it read 1.4e-14 above it from t = 1200)
        prob = committed_problem("pcomm_sweep.json",
                                 sigma=[0.84, 3.43, 1.95, 0.47, 3.06, 1.58, 0.1, 2.69, 1.21])
        flat = pool_objectives(prob.objectives)
        _, views = observed_run(run_adfs, prob, 4000, seed=0, log_every=400)
        for view in views.values():
            theta = primal_estimate(prob, split_state(prob, view["y"])[0])
            assert solver_module._primal_value(prob, view) == flat_value(flat, theta)


class TestNonSmoothSolver:
    def _problem(self, seed=0):
        rng = generator("ns-solver", seed)
        g = build_topology("line", n=3)
        objs = random_objectives(rng, 3, 4, 2, loss=LossKind.ABSOLUTE,
                                 sigma_range=(1.0, 1.0))
        return aug.build_augmented_ns(g, objs, tau=1.0)

    def test_schedule_monotone(self, monkeypatch):
        # the (eta, alpha) each block of the run is given
        prob = self._problem()
        schedule = []
        block_step = solver_module._block_step

        def recording_step(problem, rounds, draw, y, w, eta, beta):
            schedule.append((eta, beta))
            return block_step(problem, rounds, draw, y, w, eta, beta)

        monkeypatch.setattr(solver_module, "_block_step", recording_step)
        run_ns_adfs(prob, 300, seed=0, log_every=300)
        etas, alphas = zip(*schedule)
        assert len(alphas) == 300
        assert alphas[0] == prob.sampling.p_marginal.min()
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        assert etas == tuple(1.0 / (a * prob.s_squared) for a in alphas)
        assert all(b > a for a, b in zip(etas, etas[1:]))

    def test_dual_objective_decreases_like_t_squared(self):
        prob = self._problem()
        _, f_opt = reference_optimum(pool_objectives(prob.objectives))
        gaps = {}
        for t in (200, 400, 800):
            vals = []
            for seed in range(6):
                res = run_ns_adfs(prob, t, seed=seed, log_every=t)
                vals.append(res.record.rows[-1].objective - f_opt)
            gaps[t] = float(np.median(vals))
        assert gaps[400] / gaps[200] <= 0.45
        assert gaps[800] / gaps[400] <= 0.45

    def test_round_matches_moreau_oracle(self):
        # the clip of a computation round equals the Moreau route through
        # the primal absolute-loss prox, node by node
        prob = self._problem()
        rounds = _Rounds(prob)
        stream = BlockStream(prob.sampling, "ns-adfs", 0)
        draw = aug.draw_block(prob, stream)
        while draw.kind != "computation":
            draw = aug.draw_block(prob, stream)
        rng = generator("ns-round", 0)
        y, w = (rng.normal(size=zero_state(prob).size) for _ in range(2))
        eta = 1.0 / (prob.sampling.p_marginal.min() * prob.s_squared)
        idx, consts, rows = rounds.sample(prob, draw)
        y_center, y_coef = split_state(prob, y)
        w_coef = split_state(prob, w)[1][idx]
        h = rounds.step(prob, consts, rows, y_center, y_coef[idx], w_coef, eta)
        grad = aug.virtual_gradient(prob, consts, rows, y_center, y_coef[idx])
        c_in = w_coef + eta * grad
        clipped = 0
        for k, g in enumerate(idx):
            xnorm2 = prob.xnorm2[g]
            eta_t = eta * prob.mu2_virtual[g] / prob.sampling.p_marginal[g]
            p_star = loss_prox_1d(LossKind.ABSOLUTE, c_in[k] * xnorm2 / eta_t, prob.labels[g],
                                  xnorm2 / eta_t)
            expected = c_in[k] - eta_t * p_star / xnorm2
            assert abs(w_coef[k] + h[k] - expected) <= 1e-12 * (1.0 + abs(w_coef[k]))
            clipped += abs(expected) >= 1.0 - 1e-12
        assert 0 < clipped < prob.n  # both branches of the clip are taken

    def test_coefficients_stay_in_the_dual_domain(self):
        prob = self._problem()
        _, views = observed_run(run_ns_adfs, prob, 2000, seed=0, log_every=2000)
        for key in ("x", "v"):
            coef = split_state(prob, views[2000][key])[1]
            assert np.all((coef >= -1.0) & (coef <= 1.0)), key

    def test_rejects_smooth_problem(self, rng):
        prob = random_problem(rng, n=2, m=2, d=2)
        with pytest.raises(ValueError, match="non-smooth"):
            run_ns_adfs(prob, 10, seed=0)

    def test_theta_comes_from_the_logged_iterate(self):
        # theta and the last logged dual value come from the same state x, so
        # the pair obeys weak duality: P(theta) + D(x) >= 0
        prob = self._problem()
        res, views = observed_run(run_ns_adfs, prob, 400, seed=2, log_every=400)
        x = views[400]["x"]
        dual = res.record.rows[-1].objective
        assert dual == aug.dual_objective(prob, x)
        np.testing.assert_array_equal(res.theta, primal_estimate(prob, split_state(prob, x)[0]))
        assert flat_value(pool_objectives(prob.objectives), res.theta) + dual >= 0.0

    def test_dual_value_logged(self):
        prob = self._problem()
        res, views = observed_run(run_ns_adfs, prob, 100, seed=1, log_every=50)
        states = {0: zero_state(prob), **{t: views[t]["x"] for t in (50, 100)}}
        assert [row.iteration for row in res.record.rows] == [0, 50, 100]
        for row in res.record.rows:
            assert row.objective == aug.dual_objective(prob, states[row.iteration])
