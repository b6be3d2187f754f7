import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adfs_lab import baselines, objective
from adfs_lab.adfs import run_ns_adfs
from adfs_lab.augmented import build_augmented_ns
from adfs_lab.baselines import (
    FlatProblem,
    certified_optimum,
    flat_grad,
    flat_value,
    point_saga,
    pool_objectives,
    reference_optimum,
)
from adfs_lab.data import synth_pool
from adfs_lab.harness import ConfigError, build_instance, load_config
from adfs_lab.objective import LossKind, primal_value
from adfs_lab.rng import CHUNK, chunked, generator
from adfs_lab.topology import build_topology
from instances import random_objectives
from oracles import absolute_dual_fista, exact_absolute_gap, point_saga_unscaled

# the most linear solves the absolute-loss reference makes: one per Newton
# step and one for the finish of each Huber stage
SOLVE_BOUND = baselines.HUBER_STAGES * (baselines.NEWTON_STEPS + 1)


# absolute-loss configs on which the former FISTA reference ran 6-99 s:
# (topology, feature scale, sigma, correlation)
FOUND_ABSOLUTE = [
    ({"kind": "grid2d", "rows": 3, "cols": 2}, 1e8, 1.0, 0.99),
    ({"kind": "grid2d", "rows": 2, "cols": 1}, 1e8, 1e8, 0.0),
    ({"kind": "line", "n": 2}, 1e3, 1e-3, 0.0),
    ({"kind": "line", "n": 2}, 1e4, 1e-3, 0.0),
    ({"kind": "line", "n": 4}, 1e3, 1.0, 0.99),
    ({"kind": "line", "n": 4}, 1.0, 1e-3, 0.99),
]


def found_absolute_pool(topology, scale, sigma, correlation, seed):
    cfg = load_config({
        "topology": topology, "loss": "absolute", "m": 3, "sigma": sigma,
        "dataset": {"kind": "synthetic", "d": 2, "seed": seed, "correlation": correlation,
                    "feature_scale": scale},
        "algorithms": ["ns_adfs"], "seeds": [0], "iters": 1, "log_every": 1})
    return build_instance(cfg)[3]


def assert_certificate_exact(flat, theta, f_ref, tol=3e-6):
    """P(theta) + f_ref, in exact arithmetic, lies in [0, tol^2 sigma_total / 2]
    up to the last bit of f_ref."""
    ulp = np.finfo(float).eps * abs(f_ref)
    gap = exact_absolute_gap(flat, theta, f_ref)
    assert -ulp <= gap <= tol**2 * flat.sigma_total / 2.0 + ulp, gap


def count_solves(monkeypatch):
    """Record each np.linalg.eigh call, the reference's one linear solver."""
    calls = []
    eigh = np.linalg.eigh

    def counted(mat):
        calls.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


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
        assert flat.m == 10


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

    def test_non_finite_prox_input_names_its_iteration(self, rng, monkeypatch):
        # a NaN prox output at iteration 0 reaches the next prox input
        monkeypatch.setattr(objective, "_logistic_prox_r", lambda *args: [float("nan")])
        flat = pool_objectives(random_objectives(rng, 2, 3, 2))
        with pytest.raises(ValueError, match="^non-finite prox input at iteration 1$"):
            point_saga(flat, 10, seed=0)

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
        assert seen == [int(per_call.integers(flat.m)) for _ in range(iters)]


    @pytest.mark.parametrize("loss", [LossKind.LOGISTIC, LossKind.SQUARED])
    def test_scaled_table_matches_unscaled_step(self, rng, loss):
        # the gamma-scaled table reproduces the unscaled step up to rounding,
        # over more than two chunks of picks
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
        theta, f_ref, gap = certified_optimum(flat, tol=tol)
        norm = float(np.linalg.norm(flat_grad(flat, theta)))
        assert norm <= tol * flat.sigma_total
        assert f_ref == flat_value(flat, theta)
        # the certificate is ||grad F||^2 / (2 sigma_total) at the returned theta
        assert gap == norm**2 / (2.0 * flat.sigma_total)

    def test_smooth_budget_exhausted_names_grad(self, rng, monkeypatch):
        objs = random_objectives(rng, 4, 6, 3)
        monkeypatch.setattr(baselines, "NEWTON_MAX", 1)
        with pytest.raises(RuntimeError, match=r"did not converge: \|\|grad\|\|"):
            reference_optimum(pool_objectives(objs), tol=1e-12)

    def test_unreachable_tol_raises_without_running_on(self, rng, monkeypatch):
        # ||grad|| cannot reach 1e-16 sigma_total in floating point; the stalled
        # line search must raise, not spend NEWTON_MAX steps
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

    def test_overflowing_grad_norm_raises_at_once(self):
        # ||grad F|| at theta = 0 squared a 7e299 entry past the float range,
        # and the line search could not compare inf with (1 - t/4) inf; sigma
        # and the feature scale lie outside the range, and the config names each
        data = {
            "topology": {"kind": "line", "n": 2}, "loss": "squared", "m": 3, "tau": 5.0,
            "sigma": 1e300, "dataset": {"kind": "synthetic", "d": 1, "correlation": 0.99,
                                        "seed": 0, "feature_scale": 1e150},
            "algorithms": ["adfs"], "seeds": [0], "iters": 40, "log_every": 20}
        for field in ("sigma", "dataset.feature_scale"):
            with pytest.raises(ConfigError) as exc:
                load_config(data)
            assert exc.value.path == field
            data["sigma"] = 1.0

    def test_absolute_dual_gap_certified(self, rng):
        objs = random_objectives(rng, 4, 6, 3, loss=LossKind.ABSOLUTE)
        flat = pool_objectives(objs)
        for tol in (3e-6, 1e-4):
            theta, f_ref, gap = certified_optimum(flat, tol=tol)
            primal = flat_value(flat, theta)
            # an exact solution's gap is rounding and may read a few ulps below 0
            allowance = 64 * np.finfo(float).eps * (abs(f_ref) + abs(primal))
            assert -allowance <= f_ref + primal <= tol**2 * flat.sigma_total / 2.0
            # the certified gap bounds the exact one
            assert 0.0 <= gap <= tol**2 * flat.sigma_total / 2.0
            assert exact_absolute_gap(flat, theta, f_ref) <= gap + np.finfo(float).eps * abs(f_ref)
            assert reference_optimum(flat, tol=tol)[1] == f_ref
        # the non-smooth problem some callers pass is ignored
        prob = build_augmented_ns(build_topology("line", n=4), objs)
        theta2, f_ref2 = reference_optimum(flat, tol=tol, ns_problem=prob)
        assert f_ref2 == f_ref and np.array_equal(theta2, theta)

    def test_absolute_exact_reference_gap_is_rounding(self):
        # the reference is exact here, so P + D in double precision is pure
        # rounding and may read a few ulps below zero; the certified gap,
        # which bounds that rounding, does not
        objs = random_objectives(generator("abs-reference", 4), 3, 4, 2, loss=LossKind.ABSOLUTE)
        flat = pool_objectives(objs)
        tol = 3e-6
        theta, f_ref, gap = certified_optimum(flat, tol=tol)
        primal = flat_value(flat, theta)
        allowance = 64 * np.finfo(float).eps * (abs(f_ref) + abs(primal))
        assert -allowance <= f_ref + primal <= tol**2 * flat.sigma_total / 2.0
        assert 0.0 <= gap <= tol**2 * flat.sigma_total / 2.0

    def test_absolute_stall_raises_without_running_on(self, monkeypatch):
        # the gap's target, 1.7e-24 at tol 1e-12, lies below the rounding of
        # the residuals; the solver must raise after its last stage, within
        # its fixed budget of linear solves, not run on
        feats, labels = synth_pool(12, 3, 0, 0.0, unit_labels=False)
        solves = count_solves(monkeypatch)
        with pytest.raises(RuntimeError, match="stalled: duality gap"):
            reference_optimum(FlatProblem(feats, labels, 3.4, LossKind.ABSOLUTE), tol=1e-12)
        assert 0 < len(solves) <= SOLVE_BOUND

    @pytest.mark.parametrize("topology,scale,sigma,correlation", FOUND_ABSOLUTE)
    def test_absolute_found_configs_end_within_bound(self, monkeypatch, topology, scale, sigma,
                                                      correlation):
        # configs on which projected FISTA ran 6-99 s: the Newton reference
        # certifies, or names a gap at the rounding of the labels, within its
        # fixed budget of linear solves
        for seed in range(3):
            flat = found_absolute_pool(topology, scale, sigma, correlation, seed)
            solves = count_solves(monkeypatch)
            try:
                theta, f_ref = reference_optimum(flat)
            except RuntimeError as exc:
                gap = float(re.search(r"duality gap = (\S+) >", str(exc)).group(1))
                assert gap <= 2 * np.finfo(float).eps * np.abs(flat.labels).sum()
            else:
                assert_certificate_exact(flat, theta, f_ref)
            assert 0 < len(solves) <= SOLVE_BOUND

    def test_absolute_certificate_sound_without_extended_precision(self, monkeypatch):
        # where np.longdouble is no wider than float64, the rounding bound of
        # the certificate must keep the cancelling residuals honest
        monkeypatch.setattr(np, "longdouble", np.float64)
        certified = 0
        for topology, scale, sigma, correlation in FOUND_ABSOLUTE[:4]:
            for seed in range(3):
                flat = found_absolute_pool(topology, scale, sigma, correlation, seed)
                try:
                    theta, f_ref = reference_optimum(flat)
                except RuntimeError:
                    continue
                assert_certificate_exact(flat, theta, f_ref)
                certified += 1
        assert certified >= 3

    def test_absolute_matches_fista_oracle(self):
        # ragged pools, some with repeated rows and some with N <= d: both
        # dual values lie above the optimum by at most their certified gaps
        kinds = {"repeated": 0, "n_le_d": 0}
        for seed in range(60):
            rng = generator("abs-oracle", seed)
            d = int(rng.integers(1, 6))
            flat = pool_objectives(random_objectives(rng, int(rng.integers(1, 4)),
                                                     int(rng.integers(1, 5)), d,
                                                     loss=LossKind.ABSOLUTE, ragged=True))
            extra = rng.integers(flat.m, size=int(rng.integers(0, 3)))
            flat = FlatProblem(np.vstack([flat.feature_matrix, flat.feature_matrix[extra]]),
                               np.concatenate([flat.labels, flat.labels[extra]]),
                               flat.sigma_total, LossKind.ABSOLUTE)
            kinds["repeated"] += extra.size > 0
            kinds["n_le_d"] += flat.m <= d
            theta, f_ref = reference_optimum(flat)
            theta_o, f_oracle = absolute_dual_fista(flat)
            gaps = f_ref + flat_value(flat, theta) + f_oracle + flat_value(flat, theta_o)
            allowance = 64 * np.finfo(float).eps * (abs(f_ref) + abs(f_oracle))
            assert abs(f_ref - f_oracle) <= gaps + allowance, seed
            assert_certificate_exact(flat, theta, f_ref)
        assert min(kinds.values()) >= 10, kinds

    def test_absolute_finish_is_exact_on_the_optimum_pattern(self):
        # from any point with the optimum's pattern, the KKT finish lands on
        # the optimum: theta moves off the row space of X_E as well as on it
        flat = pool_objectives(random_objectives(generator("abs-finish", 0), 3, 4, 3,
                                                 loss=LossKind.ABSOLUTE))
        feats, labels, sigma = flat.feature_matrix, flat.labels, flat.sigma_total
        theta, _ = reference_optimum(flat)
        residual = np.abs(feats @ theta - labels)
        smooth = residual < 1e-9
        assert 0 < smooth.sum() < feats.shape[1]  # X_E has a null space
        mu = 0.5 * residual[~smooth].min()
        start = theta + 1e-6 * mu * generator("abs-finish", 1).normal(size=theta.size)
        theta_k, _ = baselines._kkt_finish(feats, labels, sigma, start, mu)
        np.testing.assert_allclose(theta_k, theta, rtol=0, atol=1e-13 * np.abs(theta).max())

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
        from instances import random_problem

        prob = random_problem(rng, n=3, m=3, d=2)
        flat = pool_objectives(prob.objectives)
        _, f_star = reference_optimum(flat)
        res = run_adfs(prob, 2000, seed=0, log_every=100, f_star=f_star)
        for row in res.record.rows:
            assert row.objective >= f_star - 1e-9
