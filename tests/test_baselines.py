import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adfs_lab import baselines
from adfs_lab.adfs import run_ns_adfs
from adfs_lab.augmented import build_augmented_ns
from adfs_lab.baselines import (
    FlatProblem,
    flat_grad,
    flat_value,
    point_saga,
    pool_objectives,
    reference_optimum,
)
from adfs_lab.harness import synth_pool
from adfs_lab.instances import random_objectives
from adfs_lab.objective import LossKind, primal_value
from adfs_lab.rng import CHUNK, chunked, generator
from adfs_lab.topology import build_topology
from oracles import point_saga_unscaled


class TestFlatProblem:
    def test_pooled_objective_matches_distributed(self, rng):
        objs = random_objectives(rng, 3, 4, 3)
        flat = pool_objectives(objs)
        for _ in range(5):
            theta = rng.normal(size=3)
            a = flat_value(flat, theta)
            b = primal_value(objs, theta)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_sample_count(self, rng):
        objs = random_objectives(rng, 2, 5, 2)
        flat = pool_objectives(objs)
        assert flat.n_samples == 10


class TestPointSaga:
    def test_quadratic_single_sample(self):
        flat = FlatProblem(np.array([[1.0, 0.0]]), [2.0], 1.0, LossKind.SQUARED)
        theta_star, f_star = reference_optimum(flat)
        record, theta = point_saga(flat, 200, seed=0, f_star=f_star, log_every=200)
        assert np.max(np.abs(theta - theta_star)) <= 1e-10

    def test_reaches_target_within_budget(self):
        # nm = 100, kappa_s ~ 50: time to 1e-6 within 8 (nm + sqrt(nm kappa_s)) log(1/eps)
        rng = generator("saga-budget", 0)
        n_samp, d = 100, 5
        target_kappa = 50.0
        scale = np.sqrt((target_kappa - 1.0) * 4.0 / (n_samp * d))
        feats, labels = zip(*[
            (scale * rng.normal(size=d), 1.0 if rng.random() < 0.5 else -1.0)
            for _ in range(n_samp)
        ])
        flat = FlatProblem(np.array(feats), np.array(labels), 1.0, LossKind.LOGISTIC)
        kappa_s = 1.0 + sum(0.25 * float(x @ x) for x in flat.feature_matrix)
        assert 25 <= kappa_s <= 100  # sanity: the regime the bound targets
        theta_star, f_star = reference_optimum(flat, tol=1e-7)
        gap0 = flat_value(flat, np.zeros(d)) - f_star
        budget = int(8 * (n_samp + np.sqrt(n_samp * kappa_s)) * np.log(gap0 / 1e-6))
        record, _ = point_saga(flat, budget, seed=1, f_star=f_star, log_every=50,
                               stop_at_subopt=1e-6)
        assert record.time_to(1e-6) <= budget

    def test_agrees_with_reference_on_smooth_problems(self, rng):
        objs = random_objectives(rng, 2, 4, 2)
        flat = pool_objectives(objs)
        theta_star, f_star = reference_optimum(flat, tol=1e-9)
        _, theta = point_saga(flat, 40_000, seed=3, log_every=40_000)
        assert np.linalg.norm(theta - theta_star) <= 1e-6

    def test_nonsmooth_rejected(self, rng):
        objs = random_objectives(rng, 2, 2, 2, loss=LossKind.ABSOLUTE)
        flat = pool_objectives(objs)
        with pytest.raises(ValueError, match="smooth"):
            point_saga(flat, 10, seed=0)

    def test_unit_time_per_iteration(self, rng):
        objs = random_objectives(rng, 2, 3, 2)
        flat = pool_objectives(objs)
        record, _ = point_saga(flat, 300, seed=0, log_every=100)
        times = [r.time for r in record.rows]
        assert times == [0.0, 100.0, 200.0, 300.0]

    def test_indices_match_per_call_draws(self, rng, monkeypatch):
        # the chunked sample indices are those of one integers(N) call per
        # iteration, across more than two chunk refills
        seen = []

        def recording(draw):
            for j in chunked(draw):
                seen.append(j)
                yield j

        monkeypatch.setattr(baselines, "chunked", recording)
        flat = pool_objectives(random_objectives(rng, 2, 7, 2))
        iters = 2 * CHUNK + 50
        point_saga(flat, iters, seed=4, log_every=iters)
        per_call = generator("point-saga", 4)
        assert seen == [int(per_call.integers(flat.n_samples)) for _ in range(iters)]


    @pytest.mark.parametrize("loss", [LossKind.LOGISTIC, LossKind.SQUARED])
    def test_scaled_table_matches_unscaled_step(self, rng, loss):
        # the gamma-scaled table and the warm start p reproduce the unscaled
        # step up to rounding, over more than two chunks of picks
        flat = pool_objectives(random_objectives(rng, 2, 7, 3, loss=loss))
        iters = 2 * CHUNK + 50
        record, theta = point_saga(flat, iters, seed=5, log_every=1)
        expect = point_saga_unscaled(flat, iters, seed=5)
        size = max(float(np.max(np.abs(x))) for x in expect)
        assert np.max(np.abs(theta - expect[-1])) <= 1e-12 * size
        np.testing.assert_allclose([row.objective for row in record.rows[1:]],
                                   [flat_value(flat, x) for x in expect], rtol=1e-12, atol=0)


class TestReferenceOptimum:
    def test_squared_matches_normal_equations(self, rng):
        objs = random_objectives(rng, 2, 5, 3, loss=LossKind.SQUARED)
        flat = pool_objectives(objs)
        theta, f_star = reference_optimum(flat)
        feats = flat.feature_matrix
        expect = np.linalg.solve(
            feats.T @ feats + flat.sigma_total * np.eye(3), feats.T @ flat.labels
        )
        assert np.max(np.abs(theta - expect)) <= 1e-10

    def test_gradient_norm_below_threshold(self, rng):
        objs = random_objectives(rng, 2, 4, 3)
        flat = pool_objectives(objs)
        tol = 3e-6
        theta, _ = reference_optimum(flat, tol=tol)
        assert np.linalg.norm(flat_grad(flat, theta)) <= tol * flat.sigma_total

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.sampled_from([LossKind.LOGISTIC, LossKind.SQUARED]),
           st.sampled_from([1e-7, 1e-9, 1e-11]), st.booleans())
    # an F-decrease line search stops short of tol 1e-9 here: Newton's
    # decrease falls below the rounding error of F before ||grad|| is small
    @example(101, LossKind.LOGISTIC, 1e-9, False)
    def test_smooth_gradient_certified(self, seed, loss, tol, ragged):
        objs = random_objectives(generator("newton-probe", seed), 3, 5, 3, loss=loss,
                                 ragged=ragged)
        flat = pool_objectives(objs)
        theta, f_ref = reference_optimum(flat, tol=tol)
        assert np.linalg.norm(flat_grad(flat, theta)) <= tol * flat.sigma_total
        assert f_ref == flat_value(flat, theta)

    def test_smooth_budget_exhausted_names_grad(self, rng):
        objs = random_objectives(rng, 4, 6, 3)
        with pytest.raises(RuntimeError, match=r"\|\|grad\|\|"):
            reference_optimum(pool_objectives(objs), tol=1e-12, max_iters=1)

    def test_unreachable_tol_raises_without_running_on(self, rng, monkeypatch):
        # ||grad|| cannot reach 1e-16 sigma_total in floating point; the stalled
        # line search must raise, not spend the default max_iters
        flat = pool_objectives(random_objectives(rng, 4, 50, 5))
        calls = []
        grad = baselines._stacked_grad

        def counted(*args):
            calls.append(1)
            assert len(calls) <= 200, "the reference ran on past the stall"
            return grad(*args)

        monkeypatch.setattr(baselines, "_stacked_grad", counted)
        with pytest.raises(RuntimeError, match=r"\|\|grad\|\|"):
            reference_optimum(flat, tol=1e-16)

    def test_absolute_dual_gap_certified(self, rng):
        objs = random_objectives(rng, 4, 6, 3, loss=LossKind.ABSOLUTE)
        flat = pool_objectives(objs)
        for tol in (3e-6, 1e-4):
            theta, f_ref = reference_optimum(flat, tol=tol)
            gap = f_ref + flat_value(flat, theta)
            assert 0.0 <= gap <= tol**2 * flat.sigma_total / 2.0
        # the non-smooth problem some callers pass is ignored
        prob = build_augmented_ns(build_topology("line", n=4), objs)
        theta2, f_ref2 = reference_optimum(flat, tol=tol, ns_problem=prob)
        assert f_ref2 == f_ref and np.array_equal(theta2, theta)

    def test_absolute_exact_reference_gap_is_rounding(self):
        # the FISTA iterate is exact here, so the recorded gap is pure rounding
        # and reads a few ulps below zero; it is not clamped
        objs = random_objectives(generator("abs-reference", 4), 3, 4, 2, loss=LossKind.ABSOLUTE)
        flat = pool_objectives(objs)
        tol = 3e-6
        theta, f_ref = reference_optimum(flat, tol=tol)
        primal = flat_value(flat, theta)
        allowance = 64 * np.finfo(float).eps * (abs(f_ref) + abs(primal))
        assert -allowance <= f_ref + primal <= tol**2 * flat.sigma_total / 2.0

    def test_absolute_stall_raises_without_running_on(self, monkeypatch):
        # the rounded FISTA step stops moving with a duality gap near 1.4e-16,
        # above the 5e-17 of tol 1e-8; the solver must raise there, not spend
        # the default max_iters
        feats, labels = synth_pool(2, 2, 0, 0.0, loss="absolute")
        flat = FlatProblem(feats, labels, 1.0, LossKind.ABSOLUTE)
        calls = []
        value = baselines._stacked_value

        def counted(*args):  # one call per gap check, every 20 steps
            calls.append(1)
            assert len(calls) <= 1000, "the reference ran on past the stall"
            return value(*args)

        monkeypatch.setattr(baselines, "_stacked_value", counted)
        with pytest.raises(RuntimeError, match="stalled: duality gap"):
            reference_optimum(flat, tol=1e-8)

    def test_absolute_budget_exhausted_names_gap(self, rng):
        objs = random_objectives(rng, 4, 6, 3, loss=LossKind.ABSOLUTE)
        with pytest.raises(RuntimeError, match="duality gap"):
            reference_optimum(pool_objectives(objs), tol=1e-12, max_iters=50)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_absolute_reference_bounds_solver_logs(self, seed):
        rng = generator("abs-reference", seed)
        objs = random_objectives(rng, 3, 4, 2, loss=LossKind.ABSOLUTE)
        flat = pool_objectives(objs)
        tol = 3e-6
        theta, f_ref = reference_optimum(flat, tol=tol)
        gap = f_ref + flat_value(flat, theta)
        assert gap <= tol**2 * flat.sigma_total / 2.0
        prob = build_augmented_ns(build_topology("line", n=3), objs)
        res = run_ns_adfs(prob, 3000, seed=seed, log_every=100)
        lowest = min(r.objective for r in res.record.rows)
        assert lowest >= f_ref - gap - 1e-9 * (1.0 + abs(f_ref))

    def test_lower_envelope_for_solver_logs(self, rng):
        from adfs_lab.adfs import run_adfs
        from adfs_lab.instances import random_problem

        prob = random_problem(rng, n=3, m=3, d=2)
        flat = pool_objectives(prob.objectives)
        _, f_star = reference_optimum(flat)
        res = run_adfs(prob, 2000, seed=0, log_every=100, f_star=f_star)
        for row in res.record.rows:
            assert row.objective >= f_star - 1e-9
