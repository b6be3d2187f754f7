import numpy as np
import pytest

from adfs_lab.adfs import _alpha_next
from adfs_lab.rng import generator
from adfs_lab.topology import symmetric_eigensolve
from oracles import CompositeProblem, lyapunov_value, run_apcg


def quad_l1_problem(seed=0, dim=5, l1=0.3, sigma_shift=0.5, marginals=None):
    """q(x) = x'Qx/2 - b'x with an l1 term on every coordinate."""
    rng = generator("apcg-problem", seed)
    m = rng.normal(size=(dim, dim))
    q = m @ m.T + sigma_shift * np.eye(dim)
    b = rng.normal(size=dim)
    p = np.full(dim, 1.0 / dim) if marginals is None else np.asarray(marginals)

    def sample(rg):
        u = rg.random()
        return (int(np.searchsorted(np.cumsum(p), u)),)

    spec = symmetric_eigensolve(q)
    s_const = max(np.sqrt(q[i, i]) / p[i] for i in range(dim))
    problem = CompositeProblem(
        dim=dim,
        smooth_grad=lambda y: q @ y - b,
        projector_apply=lambda x: x.copy(),
        sigma_a=spec.eigenvalues[0],
        ess_bound=s_const,
        marginals=p,
        sample_block=sample,
        prox_coord=lambda i, x, step: np.sign(x) * max(abs(x) - step * l1, 0.0),
        has_psi=np.ones(dim, dtype=bool),
        smooth_value=lambda x: 0.5 * x @ q @ x - b @ x,
        psi_value=lambda i, xi: l1 * abs(xi),
    )
    return problem, q, b, l1, spec


def prox_grad_oracle(q, b, l1, iters=300_000, tol=1e-15):
    lip = symmetric_eigensolve(q).lambda_max
    x = np.zeros(b.size)
    for _ in range(iters):
        g = q @ x - b
        step = x - g / lip
        xn = np.sign(step) * np.maximum(np.abs(step) - l1 / lip, 0.0)
        if np.max(np.abs(xn - x)) < tol:
            return xn
        x = xn
    return x


class TestStronglyConvex:
    def test_one_step_convergence_at_rho_one(self):
        # q = ||x - c||^2 / 2, full block, p = 1: sigma_A = S = 1 so rho = 1
        c = np.array([1.0, -2.0, 0.5])
        problem = CompositeProblem(
            dim=3,
            smooth_grad=lambda y: y - c,
            projector_apply=lambda x: x.copy(),
            sigma_a=1.0,
            ess_bound=1.0,
            marginals=np.ones(3),
            sample_block=lambda rg: (0, 1, 2),
        )
        traj = run_apcg(problem, "strongly_convex", 3, 0)
        np.testing.assert_allclose(traj[1].x, c, atol=1e-14)
        np.testing.assert_allclose(traj[1].v, c, atol=1e-14)

    def test_matches_prox_grad_oracle(self):
        problem, q, b, l1, _ = quad_l1_problem()
        traj = run_apcg(problem, "strongly_convex", 4000, 1)
        ref = prox_grad_oracle(q, b, l1)
        assert np.max(np.abs(traj[-1].x - ref)) <= 1e-8

    def test_reduces_to_accelerated_gradient_descent(self):
        rng = generator("agd", 0)
        dim = 4
        m = rng.normal(size=(dim, dim))
        q = m @ m.T + 0.3 * np.eye(dim)
        b = rng.normal(size=dim)
        spec = symmetric_eigensolve(q)
        mu, lip = spec.eigenvalues[0], spec.lambda_max
        problem = CompositeProblem(
            dim=dim,
            smooth_grad=lambda y: q @ y - b,
            projector_apply=lambda x: x.copy(),
            sigma_a=mu,
            ess_bound=np.sqrt(lip),
            marginals=np.ones(dim),
            sample_block=lambda rg: tuple(range(dim)),
        )
        traj = run_apcg(problem, "strongly_convex", 100, 0)
        # constant-momentum accelerated descent
        rho = np.sqrt(mu / lip)
        beta = (1 - rho) / (1 + rho)
        x = np.zeros(dim)
        y = np.zeros(dim)
        for t in range(100):
            x_new = y - (q @ y - b) / lip
            y = x_new + beta * (x_new - x)
            x = x_new
            assert np.max(np.abs(traj[t + 1].x - x)) <= 1e-10

    def test_untouched_coordinates_equal_w(self):
        problem, *_ = quad_l1_problem(seed=3)
        drawn = []
        inner = problem.sample_block

        def recording(rg):
            block = inner(rg)
            drawn.append(block)
            return block

        problem.sample_block = recording
        traj = run_apcg(problem, "strongly_convex", 60, 5)
        rho = traj[0].alpha
        for t, block in enumerate(drawn):
            y = (traj[t].x + rho * traj[t].v) / (1 + rho)
            w = (1 - rho) * traj[t].v + rho * y
            for i in range(problem.dim):
                if i not in block:
                    assert traj[t + 1].v[i] == w[i]

    def test_schedule_violation_names_coordinate(self):
        problem, *_ = quad_l1_problem()
        problem.ess_bound = 1.0  # forces rho > p_min
        problem.sigma_a = 1.0
        with pytest.raises(ValueError, match="coordinate 0"):
            run_apcg(problem, "strongly_convex", 5, 0)


class TestLyapunov:
    def _setup(self, seed=0):
        problem, q, b, l1, _ = quad_l1_problem(seed=seed, dim=4)
        theta = prox_grad_oracle(q, b, l1)
        f_star = problem.smooth_value(theta) + sum(
            problem.psi_value(i, theta[i]) for i in range(4)
        )
        return problem, theta, f_star

    def test_initial_value_equals_c0(self):
        problem, theta, f_star = self._setup()
        traj = run_apcg(problem, "strongly_convex", 1, 0)
        c0 = problem.sigma_a * float(theta @ theta) + 2 * (
            problem.smooth_value(np.zeros(4))
            + sum(problem.psi_value(i, 0.0) for i in range(4))
            - f_star
        )
        assert lyapunov_value(problem, traj[0], theta, f_star) == pytest.approx(c0)

    def test_deterministic_full_block_monotone(self):
        problem, theta, f_star = self._setup()
        # deterministic sampling: the full block with p = 1; the generic
        # ess_bound stays a valid (larger) S for this sampling
        problem.marginals = np.ones(4)
        problem.sample_block = lambda rg: (0, 1, 2, 3)
        traj = run_apcg(problem, "strongly_convex", 120, 0)
        vals = [lyapunov_value(problem, st, theta, f_star) for st in traj]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-12) + 1e-12

    def test_monte_carlo_expectation_bound(self):
        problem, theta, f_star = self._setup(seed=2)
        c0 = lyapunov_value(problem, run_apcg(problem, "strongly_convex", 1, 0)[0],
                            theta, f_star)
        t_check = 40
        vals = []
        for seed in range(200):
            traj = run_apcg(problem, "strongly_convex", t_check, seed)
            vals.append(lyapunov_value(problem, traj[-1], theta, f_star))
        assert np.mean(vals) <= c0 * 1.1


class TestConvexMode:
    def test_alpha_recursion_matches_closed_form(self):
        problem, *_ = quad_l1_problem()
        traj = run_apcg(problem, "convex", 30, 0)
        for t in range(1, 30):
            prev = traj[t - 1].alpha
            assert traj[t].alpha == pytest.approx(2 / (1 + np.sqrt(1 + 4 / prev**2)),
                                                  rel=1e-12)

    def test_alpha_times_t_approaches_two(self):
        problem, *_ = quad_l1_problem()
        alpha = problem.p_min
        for t in range(1, 10_000):
            alpha = (np.sqrt(alpha**4 + 4 * alpha**2) - alpha**2) / 2
        assert abs(alpha * 10_000 - 2) <= 0.2

    def test_alpha_strictly_decreasing(self):
        problem, *_ = quad_l1_problem()
        traj = run_apcg(problem, "convex", 50, 0)
        alphas = [st.alpha for st in traj]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_sublinear_value_bound(self):
        # E F(x_t) - F* <= (2/t^2) [S^2 r_t^2 + (2/p_min^2)(F(0) - F*)]
        problem, q, b, l1, _ = quad_l1_problem(seed=4, dim=4)
        theta = prox_grad_oracle(q, b, l1)

        def full_value(x):
            return problem.smooth_value(x) + sum(
                problem.psi_value(i, x[i]) for i in range(4)
            )

        f_star = full_value(theta)
        f0 = full_value(np.zeros(4))
        s2 = problem.ess_bound**2
        pmin2 = problem.p_min**2
        for t_check in (50, 200):
            lhs, rhs = [], []
            for seed in range(30):
                traj = run_apcg(problem, "convex", t_check, seed)
                r2 = float(theta @ theta) - float(
                    (traj[-1].v - theta) @ (traj[-1].v - theta)
                )
                lhs.append(full_value(traj[-1].x) - f_star)
                rhs.append((2.0 / t_check**2) * (s2 * r2 + (2.0 / pmin2) * (f0 - f_star)))
            assert np.mean(lhs) <= np.mean(rhs) * 1.02

    @pytest.mark.parametrize("alpha0", [1.0 / 18.0, 0.3, 1e-3])
    def test_alpha_next_is_float_and_matches_numpy_sqrt(self, alpha0):
        # the recursion as it was written with np.sqrt, whose result is a
        # numpy scalar from the first step on
        def numpy_next(a):
            return (np.sqrt(a**4 + 4.0 * a**2) - a**2) / 2.0

        a, ref = alpha0, alpha0
        for _ in range(20_000):
            a, ref = _alpha_next(a), numpy_next(ref)
            assert type(a) is float
            assert a == float(ref)
