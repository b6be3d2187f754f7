import logging

import numpy as np
import pytest

from adfs_lab.augmented import (
    INV_P,
    PROX_STEP,
    BlockDraw,
    ScaleError,
    apply_comm_step,
    apply_wtilde,
    build_augmented,
    build_augmented_ns,
    draw_block,
    dual_objective,
    expected_time,
    rate_branches,
    round_table,
    split_state,
    zero_state,
)
from adfs_lab.objective import LocalObjective, LossKind, loss_conjugate, loss_grad
from adfs_lab.rng import CHUNK, BlockStream, generator
from adfs_lab.topology import build_topology, laplacian
from dense import dense_A, dense_pb_dagger_diag, dense_sigma_dagger, exact_sigma_a, state_rows
from instances import random_connected_graph, random_objectives, random_problem
from oracles import lift_primal_point
from test_checks import sampling_frequencies


def state_of_rows(problem, rows):
    """State of node-space rows whose virtual rows lie on their feature lines."""
    state = zero_state(problem)
    center, coef = split_state(problem, state)
    center[:] = rows[: problem.n]
    coef[:] = np.einsum("ij,ij->i", problem.features, rows[problem.n :]) / problem.xnorm2
    return state


def _lam_min_pos(mat, tol=1e-9):
    vals = np.linalg.eigvalsh(mat)
    scale = np.max(np.abs(vals))
    pos = vals[vals > tol * scale]
    return float(pos[0])


class TestBuildAugmented:
    def test_kappa_comm_homogeneous_exact(self, rng):
        # identical data and sigma at every node makes D~ scalar, so
        # kappa_comm = max_i (D~)_ii / sigma holds with equality
        feats = np.array([rng.normal(size=3) * 2 for _ in range(3)])
        objs = [LocalObjective(feats, np.ones(3), 1.5, LossKind.LOGISTIC) for _ in range(4)]
        prob = build_augmented(build_topology("grid2d", rows=2, cols=2), objs, tau=1.0)
        assert prob.kappa_comm == pytest.approx(float(prob.dm_tilde.max()) / 1.5, rel=1e-9)

    def test_kappa_comm_heterogeneous_bracket(self, rng):
        objs = random_objectives(rng, 4, 3, 2, sigma_range=(1.0, 1.0))
        prob = build_augmented(build_topology("complete", n=4), objs, tau=1.0)
        lo = float(prob.dm_tilde.min()) / 1.0
        hi = float(prob.dm_tilde.max()) / 1.0
        assert lo - 1e-9 <= prob.kappa_comm <= hi + 1e-9

    def test_single_sample_gets_full_mass(self, rng):
        objs = random_objectives(rng, 3, 1, 2)
        prob = build_augmented(build_topology("complete", n=3), objs, tau=1.0)
        p_comp = prob.sampling.p_comp
        np.testing.assert_allclose(prob.sampling.p_marginal, p_comp, rtol=1e-12)

    def test_default_p_comm_matches_independent_formula(self, rng):
        # 3x3 grid, synthetic data; recompute every ingredient with
        # numpy.linalg from scratch
        n, m, d = 9, 3, 2
        g = build_topology("grid2d", rows=3, cols=3)
        objs = random_objectives(rng, n, m, d)
        prob = build_augmented(g, objs, tau=5.0)

        lap = laplacian(g)
        sig = np.array([o.sigma for o in objs])
        lam = np.array([
            np.linalg.eigvalsh(0.25 * o.feature_matrix.T @ o.feature_matrix).max()
            for o in objs
        ])
        dmt = sig + 2 * lam
        ev = np.sort(np.linalg.eigvalsh(lap))
        gamma = ev[1] / ev[-1]
        evt = np.sort(np.linalg.eigvalsh(lap / np.sqrt(np.outer(dmt, dmt))))
        evs = np.sort(np.linalg.eigvalsh(lap / np.sqrt(np.outer(sig, sig))))
        kappa_comm = (evs[-1] / ev[-1]) / (evt[1] / ev[1])
        kappa_s = max(1 + o.smoothness.sum() / o.sigma for o in objs)
        smax = m + np.sqrt(m * kappa_s)
        p_star = 1.0 / (1.0 + np.sqrt(2 * gamma / kappa_comm) * smax)
        assert prob.sampling.p_comm == pytest.approx(p_star, rel=1e-9)
        assert prob.alpha == pytest.approx(2 * evt[1], rel=1e-9)
        assert prob.gamma == pytest.approx(gamma, rel=1e-9)

    def test_virtual_weights_follow_smoothness(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2)
        np.testing.assert_allclose(prob.mu2_virtual, prob.alpha * prob.smooth_virtual,
                                   rtol=1e-12)

    def test_nonsmooth_loss_routed_to_nonsmooth_build(self, rng):
        g = random_connected_graph(rng, 4, extra_edges=2)
        objs = random_objectives(rng, 4, 3, 2, loss=LossKind.ABSOLUTE, ragged=True)
        routed = build_augmented(g, objs, tau=2.0)
        direct = build_augmented_ns(g, objs, tau=2.0)
        assert not routed.smooth
        np.testing.assert_array_equal(routed.sampling.p_marginal, direct.sampling.p_marginal)
        np.testing.assert_array_equal(routed.mu2_virtual, direct.mu2_virtual)
        assert routed.s_squared == direct.s_squared
        assert routed.alpha == direct.alpha
        assert routed.sampling.p_comm == direct.sampling.p_comm

    @pytest.mark.parametrize("build, loss", [(build_augmented, LossKind.LOGISTIC),
                                             (build_augmented_ns, LossKind.ABSOLUTE)])
    @pytest.mark.parametrize("tau", [-2.0, np.nan, np.inf])
    def test_tau_must_be_finite_and_nonnegative(self, rng, build, loss, tau):
        objs = random_objectives(rng, 2, 2, 2, loss=loss)
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            build(build_topology("complete", n=2), objs, tau=tau)

    @pytest.mark.parametrize("loss,n,p_comm,culprit", [
        (LossKind.LOGISTIC, 3, 0.0, "p_comm"),  # a graph with edges needs p_comm in (0, 1)
        (LossKind.SQUARED, 1, 0.5, "p_comm"),  # one without needs p_comm = 0
        (LossKind.ABSOLUTE, 1, None, "topology"),  # the non-smooth build needs an edge
    ])
    def test_input_that_does_not_fit_names_its_culprit(self, rng, loss, n, p_comm, culprit):
        objs = random_objectives(rng, n, 3, 2, loss=loss)
        with pytest.raises(ScaleError) as exc:
            build_augmented(build_topology("line", n=n), objs, tau=1.0, p_comm_override=p_comm)
        assert exc.value.culprit == culprit

    def test_zero_logistic_prox_step_rejected(self, rng):
        # eta~_ij L_ij underflows, so gamma ||X_ij||^2 is inf and the
        # logistic PROX_STEP 4 / step is 0, which its prox would divide by
        feats = 1e-150 * rng.normal(size=(4, 3))
        obj = LocalObjective(feats, np.array([1.0, -1.0, 1.0, -1.0]), 1e50, LossKind.LOGISTIC)
        prob = build_augmented(build_topology("complete", n=1), [obj], tau=1.0)
        with pytest.raises(ScaleError, match=f"column {PROX_STEP} is 0.0") as exc:
            round_table(prob)
        assert exc.value.culprit == "features"

    def test_marginals_sum_to_p_comp(self, rng):
        prob = random_problem(rng, n=4, m=4, d=2, ragged=True)
        for i, pv in enumerate(prob.sampling.p_virtual):
            assert pv.sum() == pytest.approx(1.0, abs=1e-12)
        sums = np.add.reduceat(prob.sampling.p_marginal, prob.vstart[:-1])
        np.testing.assert_allclose(sums, prob.sampling.p_comp, rtol=1e-12)


class TestRate:
    def test_branches_equal_at_balanced_p(self, rng):
        prob = random_problem(rng, n=4, m=3, d=2)
        rc, rp = rate_branches(prob, prob.sampling.p_comm)
        assert abs(rc - rp) <= 1e-10 * max(rc, rp)

    def test_rate_vanishes_at_extremes(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2)
        for p_comm in (1e-12, 1.0 - 1e-12):
            built = build_augmented(prob.graph, prob.objectives, prob.tau, p_comm_override=p_comm)
            assert built.rho <= 1e-11

    def test_clamp_activates_on_flat_samples(self, caplog):
        # many nearly useless samples (L << sigma) force 2 rho <= min p_ij
        rng = generator("clamp", 0)
        g = build_topology("complete", n=2)
        objs = []
        for _ in range(2):
            feats = np.empty((12, 2))
            for j in range(12):
                v = rng.normal(size=2)
                feats[j] = 0.2 * v / np.linalg.norm(v)
            objs.append(LocalObjective(feats, np.ones(12), 1.0, LossKind.LOGISTIC))
        with caplog.at_level(logging.WARNING, logger="adfs_lab"):
            prob = build_augmented(g, objs, tau=1.0)
        assert prob.rho < prob.rho_unclamped
        assert prob.rho == pytest.approx(float(prob.sampling.p_marginal.min()) / 2)
        assert any("clamped" in r.message for r in caplog.records)

    def test_time_formula(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2, tau=0.0)
        p = prob.sampling.p_comm
        assert expected_time(prob, 1000) == pytest.approx(1000 * (1 - p))
        prob5 = random_problem(rng, n=3, m=2, d=2, tau=5.0)
        p5 = prob5.sampling.p_comm
        assert expected_time(prob5, 7) == pytest.approx(7 * (1 - p5 + 5 * p5))
        from dataclasses import replace
        all_comm = replace(prob5, sampling=replace(prob5.sampling, p_comm=1.0))
        assert expected_time(all_comm, 9) == pytest.approx(9 * 5.0)

    def test_balanced_time_bound(self):
        # at the balanced p_comm, rho^-1 (p_comp + tau p_comm) equals the
        # closed-form bound sqrt(2) S_max + tau sqrt(kappa_comm / gamma)
        for seed in range(20):
            rng = generator("timebound", seed)
            prob = random_problem(rng, n=int(rng.integers(2, 5)),
                                  m=int(rng.integers(1, 4)), d=int(rng.integers(1, 4)),
                                  tau=float(rng.uniform(0.5, 8.0)))
            p = prob.sampling.p_comm
            lhs = (1 - p + prob.tau * p) / prob.rho
            bound = np.sqrt(2) * prob.s_max_bound + prob.tau * np.sqrt(
                prob.kappa_comm / prob.gamma
            )
            assert lhs <= bound * (1 + 1e-9)


class TestDenseOperator:
    def test_hand_computed_augmented_laplacian(self):
        # n=2, m=1, d=1: A A^T must equal the weighted Laplacian of the
        # 4-node augmented graph (one gossip edge, two virtual edges)
        g = build_topology("complete", n=2)
        objs = [
            LocalObjective(np.array([[2.0]]), [1.0], 1.0, LossKind.SQUARED),
            LocalObjective(np.array([[3.0]]), [-1.0], 1.0, LossKind.SQUARED),
        ]
        prob = build_augmented(g, objs, tau=1.0)
        a = dense_A(prob)
        assert a.shape == (4, 3)
        m0, m1 = prob.mu2_virtual
        expected = np.array([
            [1 + m0, -1.0, -m0, 0.0],
            [-1.0, 1 + m1, 0.0, -m1],
            [-m0, 0.0, m0, 0.0],
            [0.0, -m1, 0.0, m1],
        ])
        np.testing.assert_allclose(a @ a.T, expected, atol=1e-12)

    def test_guard_on_large_instances(self, rng):
        prob = random_problem(rng, n=4, m=3, d=2)
        object.__setattr__(prob, "features", np.zeros((prob.n_virtual, 2000)))
        with pytest.raises(ValueError, match="rows"):
            dense_A(prob)


class TestOperatorShortcuts:
    def _dense_wtilde(self, prob, draw):
        a = dense_A(prob)
        pb = np.diag(dense_pb_dagger_diag(prob, draw))
        return a @ pb @ np.linalg.pinv(a)

    def test_consensus_state_is_killed(self, rng):
        prob = random_problem(rng, n=4, m=2, d=3)
        center = prob.sigma[:, None] * rng.normal(size=prob.d)[None, :]
        out = apply_comm_step(prob, center)
        assert np.max(np.abs(out)) <= 1e-12

    def test_comm_step_columns_sum_to_zero(self, rng):
        prob = random_problem(rng, n=5, m=2, d=3)
        out = apply_comm_step(prob, rng.normal(size=(prob.n, prob.d)))
        assert out.shape == (prob.n, prob.d)
        assert np.max(np.abs(out.sum(axis=0))) <= 1e-10

    def test_wtilde_computation_matches_dense(self, rng):
        prob = random_problem(rng, n=3, m=3, d=2)
        stream = BlockStream(prob.sampling, "wt-comp")
        shape = (prob.n_rows, prob.d)
        checked = 0
        while checked < 10:
            draw = draw_block(prob, stream)
            if draw.kind != "computation":
                continue
            checked += 1
            # delta in range(A U_b): image of a random dual vector on the block
            a = dense_A(prob)
            dual = np.zeros(a.shape[1])
            idx = draw.idx
            for g in idx:
                c = (prob.graph.n_edges + g) * prob.d
                dual[c : c + prob.d] = generator("wt-dual", checked, int(g)).normal(
                    size=prob.d
                )
            delta = (a @ dual).reshape(shape)
            state = state_of_rows(prob, delta)
            ref = (self._dense_wtilde(prob, draw) @ delta.ravel()).reshape(shape)
            # the sparse form the solvers take, with a momentum weight: the
            # round table's 1 / p_ij column on the centers and the coefficients
            center, coef = split_state(prob, state)
            scale = 0.5 * round_table(prob)[0][idx, INV_P]
            wt_center, wt_coef = center * scale[:, None], scale * coef[idx]
            assert np.max(np.abs(wt_center - 0.5 * ref[: prob.n])) <= 1e-8
            wt_virtual = wt_coef[:, None] * prob.features[idx]
            assert np.max(np.abs(wt_virtual - 0.5 * ref[prob.n + idx])) <= 1e-8

    def test_wtilde_zero_maps_to_zero(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2)
        z = np.zeros((prob.n, prob.d))
        assert np.max(np.abs(apply_wtilde(prob, z))) == 0.0

    def test_exact_sigma_a_dominates_bound(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2)
        assert exact_sigma_a(prob) >= prob.sigma_a_bound - 1e-10


class TestDenseRateBound:
    def test_formula_lower_bounds_dense_rate(self):
        import itertools

        for seed in range(3):
            rng = generator("rate-dense", seed)
            prob = random_problem(rng, n=2, m=2, d=2)
            a = dense_A(prob)
            quad = a.T @ dense_sigma_dagger(prob) @ a
            proj = np.linalg.pinv(a) @ a
            lam_min = _lam_min_pos(quad)

            def block_lambda(draw):
                pb = np.diag(dense_pb_dagger_diag(prob, draw))
                mat = proj @ pb @ quad @ pb @ proj
                return np.linalg.eigvalsh(mat).max()

            worst = block_lambda(BlockDraw(kind="communication"))
            for combo in itertools.product(*[range(m) for m in prob.m_per_node]):
                worst = max(worst, block_lambda(
                    BlockDraw(kind="computation", idx=prob.vstart[:-1] + combo)
                ))
            rho_dense = np.sqrt(lam_min / worst)
            assert prob.rho_unclamped <= rho_dense + 1e-8


class TestNonSmoothBuild:
    def _problem(self, seed=0, n=3, m=3, d=2):
        rng = generator("nsbuild", seed)
        g = random_connected_graph(rng, n, extra_edges=1)
        objs = random_objectives(rng, n, m, d, loss=LossKind.ABSOLUTE)
        return build_augmented_ns(g, objs, tau=1.0)

    def test_uniform_probabilities(self):
        prob = self._problem()
        np.testing.assert_allclose(
            prob.sampling.p_marginal, prob.sampling.p_comp / 3, rtol=1e-12
        )

    def test_virtual_weights(self):
        prob = self._problem()
        lam_min = _lam_min_pos(prob.laplacian_comm)
        np.testing.assert_allclose(prob.mu2_virtual, lam_min / (1 + 3), rtol=1e-9)

    def test_gram_lower_bound(self):
        # lambda_min_pos(A^T A) >= lambda_min_pos(L) / (2 (m + 1))
        for seed in range(4):
            prob = self._problem(seed)
            a = dense_A(prob)
            lam = _lam_min_pos(a.T @ a)
            lam_l = _lam_min_pos(prob.laplacian_comm)
            assert lam >= lam_l / (2 * (prob.m_max + 1)) - 1e-10

    def test_smooth_loss_rejected(self, rng):
        objs = random_objectives(rng, 2, 2, 2, loss=LossKind.LOGISTIC)
        with pytest.raises(ValueError, match="build_augmented"):
            build_augmented_ns(build_topology("complete", n=2), objs, tau=1.0)

    def test_mixed_loss_kinds_rejected(self, rng):
        objs = (random_objectives(rng, 1, 2, 2, loss=LossKind.ABSOLUTE)
                + random_objectives(rng, 1, 2, 2, loss=LossKind.LOGISTIC))
        with pytest.raises(ValueError, match="share the loss kind"):
            build_augmented_ns(build_topology("complete", n=2), objs, tau=1.0)

    def test_default_p_comm(self):
        prob = self._problem()
        expected = 1.0 / (1.0 + np.sqrt(prob.gamma * prob.m_max))
        assert prob.sampling.p_comm == pytest.approx(expected, rel=1e-12)


class TestSampling:
    def test_frequencies_within_three_standard_errors(self, rng):
        sampling_frequencies([random_problem(rng, n=3, m=3, d=2)], 100_000)

    @pytest.mark.parametrize("loss", [LossKind.LOGISTIC, LossKind.ABSOLUTE,
                                      pytest.param(None, id="single-node")])
    def test_draws_match_per_node_searchsorted(self, loss):
        # the chunked draws are the global indices of the per-call, per-node
        # cumsum/searchsorted draw, read from a second stream with the same
        # tokens, across several chunk refills of both substreams
        rng = generator("draw-table", 0)
        if loss is None:  # no edges: p_comm = 0 and no kind uniform is drawn
            prob = random_problem(rng, n=1, m=6, d=2, ragged=True)
            assert prob.sampling.p_comm == 0.0
        else:
            prob = random_problem(rng, n=5, m=6, d=2, loss=loss, weighted=True, ragged=True)
            assert len(set(prob.m_per_node)) > 1
        stream, replay = (BlockStream(prob.sampling, "draw-table") for _ in range(2))
        comp = kinds = 0
        while comp < max(2000, 3 * CHUNK + 1):
            draw = draw_block(prob, stream)
            p_comm = prob.sampling.p_comm
            if p_comm > 0.0:
                kinds += 1
                if replay.kind_rng.random() < p_comm:
                    assert draw.kind == "communication"
                    continue
            u = replay.pick_rng.random(prob.n)
            expected = [min(int(np.searchsorted(np.cumsum(pv), u[i])), len(pv) - 1)
                        for i, pv in enumerate(prob.sampling.p_virtual)]
            assert draw.kind == "computation"
            np.testing.assert_array_equal(draw.idx, prob.vstart[:-1] + expected)
            comp += 1
        if loss is None:
            assert kinds == 0
            # the kind substream is untouched: its next uniform is its first
            assert stream.kind_rng.random() == replay.kind_rng.random()
        else:
            assert kinds > 3 * CHUNK

    def test_stream_serves_one_scheme(self):
        rng = generator("one-scheme", 0)
        a, b = (random_problem(rng, n=3, m=3, d=2) for _ in range(2))
        stream = BlockStream(a.sampling, "one-scheme")
        while draw_block(a, stream).kind != "computation":
            pass
        with pytest.raises(ValueError, match="one sampling scheme"):
            while True:
                draw_block(b, stream)


class TestDualObjective:
    def test_lifted_optimum_minimizes_dual(self, rng):
        # the lift of theta* is feasible and achieves -F(theta*)
        from adfs_lab.baselines import pool_objectives, reference_optimum

        prob = random_problem(rng, n=3, m=2, d=2)
        flat = pool_objectives(prob.objectives)
        theta_star, f_star = reference_optimum(flat, tol=1e-8)
        v_star = lift_primal_point(prob, theta_star)
        val = dual_objective(prob, v_star)
        assert val == pytest.approx(-f_star, rel=1e-6)
        # any other lifted point does worse
        other = lift_primal_point(prob, theta_star + 0.5 * rng.normal(size=prob.d))
        assert dual_objective(prob, other) >= val - 1e-9


class TestStateLayout:
    def test_split_views_write_through(self, rng):
        prob = random_problem(rng, n=3, m=2, d=2, ragged=True)
        state = zero_state(prob)
        assert state.shape == (prob.n * prob.d + prob.n_virtual,)
        center, coef = split_state(prob, state)
        center[1] = [2.0, -3.0]
        coef[prob.vstart[2]] = 5.0
        expected = np.zeros_like(state)
        expected[prob.d : 2 * prob.d] = [2.0, -3.0]
        expected[prob.n * prob.d + prob.vstart[2]] = 5.0
        np.testing.assert_array_equal(state, expected)
        rows = state_rows(prob, state)
        assert rows.shape == (prob.n_rows, prob.d)
        np.testing.assert_array_equal(rows[1], [2.0, -3.0])
        np.testing.assert_array_equal(rows[prob.n + prob.vstart[2]],
                                      5.0 * prob.features[prob.vstart[2]])

    @pytest.mark.parametrize("loss", [LossKind.LOGISTIC, LossKind.SQUARED])
    def test_lift_expands_to_dense_rows(self, loss):
        rng = generator("lift-rows", 0)
        prob = random_problem(rng, n=3, m=3, d=2, loss=loss, ragged=True)
        theta = rng.normal(size=prob.d)
        dense = [prob.sigma[i] * theta for i in range(prob.n)]
        for obj in prob.objectives:
            for x, label in zip(obj.feature_matrix, obj.labels):
                dense.append(float(loss_grad(loss, x @ theta, label)) * x)
        np.testing.assert_allclose(state_rows(prob, lift_primal_point(prob, theta)),
                                   np.array(dense), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("loss", [LossKind.LOGISTIC, LossKind.SQUARED])
    def test_dual_objective_matches_node_space_formula(self, loss):
        rng = generator("dual-rows", 0)
        prob = random_problem(rng, n=4, m=3, d=3, loss=loss, weighted=True)
        state = rng.normal(size=zero_state(prob).shape)
        coef = split_state(prob, state)[1]
        if loss is LossKind.LOGISTIC:  # inside the conjugate domain
            coef[:] = -prob.labels * rng.uniform(0.05, 0.95, size=prob.n_virtual)
        rows = state_rows(prob, state)
        value = sum(rows[i] @ rows[i] / (2.0 * prob.sigma[i]) for i in range(prob.n))
        for k in range(prob.n_virtual):
            x = prob.features[k]
            s = float(x @ rows[prob.n + k]) / float(x @ x)
            value += loss_conjugate(loss, s, prob.labels[k])
        assert dual_objective(prob, state) == pytest.approx(value, rel=1e-12)
