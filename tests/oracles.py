"""Independent numerical oracles used by the test-suite.

These deliberately avoid the library's own code paths: eigenvalues come from
Sturm-sequence bisection on a Householder tridiagonalization, minimizers from
golden-section / cyclic coordinate search (the logistic prox's from
bisection on its optimality condition in 40-digit arithmetic), conjugates
from direct 1D maximization.
`run_apcg` is the generalized block APCG recursion (arbitrary sampling, both
convexity regimes) that single-node ADFS must reproduce on its dual; it reads
no solver path, only the oracles of a `CompositeProblem`.
The exceptions are `loss_prox_1d`, the scalar primal prox: the library's
scalar logistic kernel (in r = label p / 2) and squared-loss closed form
behind one checked front door, plus the absolute loss's soft-threshold;
`prox_tilde_fstar`, which reuses it and the library's gradient, one sample
at a time, to check the solvers' batched conjugate prox;
`lift_primal_point` and `dense_c0_constant`,
the dual point of a primal one and the Lyapunov constant of the linear rate,
built from the dense operators of `dense`; `point_saga_unscaled`, the
Point-SAGA step on an unscaled gradient table, one pick at a time, against
which the solver's gamma-scaled table is checked; and two measuring helpers that read solver
states and APCG iterates: `sigma_dagger_rows` and `lyapunov_value`.
`absolute_dual_fista` is the absolute loss's former reference solver, the
projected FISTA on the pooled dual, against which the Newton reference is
checked; `exact_absolute_gap` evaluates its certificate in exact arithmetic.
`parse_libsvm_pairs` is the former LibSVM parser, one token at a time into
(label, pairs) rows, against which the block reader `data.parse_libsvm` is
checked; `libsvm_record` and `libsvm_rows` convert between such rows and the
reader's CSR record.  `synth_pool_dense` is the former synthetic pool
generator, the whole pool at once, against which the generator that makes
a chunk of rows at a time (`data.synth_pool`, `data.synth_dataset`) is
checked.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from adfs_lab.augmented import dual_objective, split_state, zero_state
from adfs_lab.data import LibsvmData, LibsvmParseError
from adfs_lab.objective import LossKind, _logistic_prox_r, _prox_1d_array, loss_grad
from adfs_lab.rng import generator
from adfs_lab.topology import symmetric_eigensolve
from dense import dense_A, dense_sigma_dagger, exact_sigma_a, state_rows

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _logistic_prox_mp(z, label, step):
    """argmin (p-z)^2/(2 step) + log(1+exp(-label p)) for mpf inputs, label
    +-1 and step > 0, at the working precision.

    Bisection on its optimality condition (p - z) / step = label / (1 +
    exp(label p)), whose left side rises and right side falls in label p;
    0 < 1 / (1 + exp) < 1 brackets the root between z and z + label step.
    It stops once the bracket is 10^(5 - dps) (|z| + step) wide, so it
    resolves any step, not only steps near 1.
    """
    lo, hi = sorted((z, z + label * step))
    tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps) * (abs(z) + step)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if (mid - z) / step < label / (1 + mpmath.exp(label * mid)):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def logistic_prox_oracle(z, label, step, dps=40):
    """argmin (p-z)^2/(2 step) + log(1+exp(-label p)) in `dps`-digit
    arithmetic from the given floats (`_logistic_prox_mp`), as a float."""
    with mpmath.workdps(dps):
        return float(_logistic_prox_mp(*(mpmath.mpf(float(v)) for v in (z, label, step))))


def golden_section(f, lo, hi, tol=1e-12, max_iter=200):
    """Minimizer of a unimodal f on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def coordinate_search(f, x0, radius=4.0, passes=80, shrink=0.5, min_step=1e-9):
    """Cyclic coordinate descent with shrinking steps; brute-force minimizer."""
    x = np.array(x0, dtype=float)
    step = radius
    for _ in range(passes):
        improved = False
        for i in range(x.size):
            base = f(x)
            for sgn in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sgn * step
                if f(trial) < base:
                    x = trial
                    improved = True
                    break
        if not improved:
            step *= shrink
            if step < min_step:
                break
    return x


def conjugate_by_maximization(loss_fn, s, lo=-60.0, hi=60.0):
    """g*(s) = sup_z s z - g(z) by golden-section on the concave objective."""
    z = golden_section(lambda t: -(s * t - loss_fn(t)), lo, hi, tol=1e-13)
    return s * z - loss_fn(z)


def _householder_tridiagonal(mat):
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        alpha = -np.sign(x[0]) * np.linalg.norm(x) if x[0] != 0 else -np.linalg.norm(x)
        if np.linalg.norm(x) == 0:
            continue
        v = x.copy()
        v[0] -= alpha
        nv = np.linalg.norm(v)
        if nv == 0:
            continue
        v /= nv
        sub = a[k + 1 :, k + 1 :]
        w = sub @ v
        sub -= 2.0 * np.outer(v, w)
        sub -= 2.0 * np.outer(sub @ v, v)
        a[k + 1 :, k + 1 :] = 0.5 * (sub + sub.T)
        a[k + 1 :, k] = 0.0
        a[k, k + 1 :] = 0.0
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
    return np.diag(a).copy(), np.diag(a, 1).copy()


def _sturm_count(diag, off, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    count = 0
    q = 1.0
    n = diag.size
    for i in range(n):
        bb = off[i - 1] ** 2 if i > 0 else 0.0
        if q == 0.0:
            q = -1e-300
        q = diag[i] - x - bb / q
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(mat, tol=1e-12):
    """All eigenvalues (ascending) by bisection on Sturm-sequence counts."""
    diag, off = _householder_tridiagonal(mat)
    n = diag.size
    bound = float(np.max(np.abs(diag)) + 2.0 * (np.max(np.abs(off)) if off.size else 0.0)) + 1.0
    eigs = []
    for k in range(1, n + 1):
        lo, hi = -bound, bound
        while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if _sturm_count(diag, off, mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)


def loss_prox_1d(kind, z, label, step):
    """argmin_p (1/(2 step))(p - z)^2 + loss(p, label)."""
    z, label, step = float(z), float(label), float(step)
    if step <= 0:
        raise ValueError("prox step must be > 0")
    if not (math.isfinite(z) and math.isfinite(label) and math.isfinite(step)):
        raise ValueError("non-finite prox input")
    if kind is LossKind.LOGISTIC:  # in r = label p / 2 (`_logistic_prox_r`)
        c4 = 4.0 / step
        return 2.0 * label * _logistic_prox_r((0.5 * label * c4 * z + 1.0,), (c4,))[0]
    if kind is LossKind.ABSOLUTE:  # soft-threshold of z - label
        shifted = z - label
        return float(label + np.sign(shifted) * np.maximum(np.abs(shifted) - step, 0.0))
    return float(_prox_1d_array(kind, z, label, step))


def prox_tilde_fstar(feature, label, kind, x, eta_tilde):
    """prox of ftilde* = f* - (1/(2L)) ||.||^2 at x, x in the span of `feature`.

    One sample through the conjugate-side identity: with c = <X, x> / ||X||^2,
    the coefficient of the prox is (c - eta~ p / ||X||^2) / (1 - eta~ / L),
    p the 1D primal prox at c ||X||^2 / eta~ with step gamma ||X||^2,
    gamma = (L - eta~) / (eta~ L).  At the limit eta~ -> L (within 1e-9
    relative) it is the primal gradient at x / L.  Requires eta~ <= L and x
    to have no feature-orthogonal component beyond 1e-8 relative.
    """
    if not kind.is_smooth:
        raise ValueError("conjugate-side prox needs a smooth loss")
    if eta_tilde <= 0:
        raise ValueError("eta_tilde must be > 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite prox input")
    xnorm2 = float(feature @ feature)
    smooth = kind.scalar_smoothness * xnorm2
    if eta_tilde > smooth * (1.0 + 1e-9):
        raise ValueError(
            f"eta_tilde={eta_tilde:.3e} >= smoothness {smooth:.3e}: prox identity breaks"
        )
    c_x = float(feature @ x) / xnorm2
    resid = x - c_x * feature
    if float(np.linalg.norm(resid)) > 1e-8 * max(float(np.linalg.norm(x)), 1e-300):
        raise ValueError("input has a component outside the span of the sample feature")
    if eta_tilde / smooth >= 1.0 - 1e-9:
        c_out = loss_grad(kind, c_x * xnorm2 / smooth, label)
    else:
        gamma = (smooth - eta_tilde) / (eta_tilde * smooth)
        p_star = loss_prox_1d(kind, c_x * xnorm2 / eta_tilde, label, gamma * xnorm2)
        c_out = (c_x - eta_tilde * p_star / xnorm2) / (1.0 - eta_tilde / smooth)
    return c_out * feature


def conjugate_prox_oracle(kind, c, label, xnorm2, smooth, eta_tilde, dps=40):
    """The coefficient of prox_{eta~ ftilde*} at c X through the identity of
    `prox_tilde_fstar`, evaluated in `dps`-digit arithmetic from the given
    floats (eta~ < L), as a float.  The logistic primal prox is
    `_logistic_prox_mp`; the squared loss's is in closed form."""
    with mpmath.workdps(dps):
        c, label, xnorm2, smooth, eta_tilde = (
            mpmath.mpf(float(v)) for v in (c, label, xnorm2, smooth, eta_tilde))
        z = c * xnorm2 / eta_tilde
        step = (smooth - eta_tilde) / (eta_tilde * smooth) * xnorm2
        if kind is LossKind.LOGISTIC:
            p_star = _logistic_prox_mp(z, label, step)
        else:
            p_star = (z + step * label) / (1 + step)
        return float((c - eta_tilde * p_star / xnorm2) / (1 - eta_tilde / smooth))


def point_saga_unscaled(problem, iters, seed):
    """Point-SAGA iterates x_1 .. x_iters on the unscaled gradient table g_k,
    with one integers(N) pick per iteration from the solver's stream, the
    step size and shrinkage of `baselines.point_saga`, and the sample prox
    of `loss_prox_1d`."""
    feats, labels = problem.feature_matrix, problem.labels
    n_samp, d = feats.shape
    big_l = float((n_samp * problem.loss.scalar_smoothness * problem.xnorm2).max()) + problem.sigma
    mu = problem.sigma
    gamma = (np.sqrt((n_samp - 1.0) ** 2 + 4.0 * n_samp * big_l / mu) - (n_samp - 1.0)) / (
        2.0 * big_l * n_samp)
    shrink = 1.0 + gamma * problem.sigma
    rng = generator("point-saga", seed)
    x, table, gbar = np.zeros(d), np.zeros((n_samp, d)), np.zeros(d)
    out = []
    for _ in range(iters):
        j = int(rng.integers(n_samp))
        w = x + gamma * (table[j] - gbar)
        v = w / shrink
        zz = float(feats[j] @ v)
        p = loss_prox_1d(problem.loss, zz, labels[j], gamma * n_samp / shrink * problem.xnorm2[j])
        x = v + ((p - zz) / problem.xnorm2[j]) * feats[j]
        g_new = (w - x) / gamma
        gbar = gbar + (g_new - table[j]) / n_samp
        table[j] = g_new
        out.append(x)
    return out


def absolute_dual_fista(problem, tol=3e-6, max_iters=2_000_000):
    """The pooled dual D(a) = a . y + ||X^T a||^2 / (2 sigma_total) over |a| <= 1
    by projected FISTA (Beck & Teboulle 2009) with the gradient restart of
    O'Donoghue & Candes (2015).

    Every 20 steps the duality gap P(theta) + D(a) at theta = -X^T a /
    sigma_total is checked against tol^2 sigma_total / 2; returns (theta,
    D(a)) once it is met.  An iterate that has not moved since the last check
    has stopped at rounding level, and the solver raises, as it does after
    `max_iters` steps.
    """
    feats, labels, sigma = problem.feature_matrix, problem.labels, problem.sigma_total
    lip = symmetric_eigensolve(feats.T @ feats).lambda_max / sigma
    target = tol**2 * sigma / 2.0
    a = y = a_checked = np.zeros(problem.m)
    t, gap = 1.0, np.inf
    for it in range(max_iters):
        a_new = np.clip(y - (labels + feats @ (feats.T @ y) / sigma) / lip, -1.0, 1.0)
        if (y - a_new) @ (a_new - a) > 0.0:  # momentum points uphill: restart
            t_new, y = 1.0, a_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = a_new + ((t - 1.0) / t_new) * (a_new - a)
        a, t = a_new, t_new
        if it % 20 == 0:
            theta = -(feats.T @ a) / sigma
            dual = float(a @ labels) + 0.5 * sigma * float(theta @ theta)
            residual = feats @ theta - labels
            gap = float(np.sum(np.abs(residual))) + 0.5 * sigma * float(theta @ theta) + dual
            if gap <= target:
                return theta, dual
            if np.array_equal(a, a_checked):
                raise RuntimeError(f"FISTA stalled: duality gap = {gap:.3e} > {target:.3e}")
            a_checked = a
    raise RuntimeError(f"FISTA did not converge: duality gap = {gap:.3e} > {target:.3e}")


def exact_absolute_gap(problem, theta, dual):
    """P(theta) + dual for the pooled absolute loss, in exact rational
    arithmetic on the stored floats: the error a certificate leaves out."""
    theta = [Fraction(t) for t in theta.tolist()]
    primal = sum(abs(sum(Fraction(x) * t for x, t in zip(row, theta)) - Fraction(y))
                 for row, y in zip(problem.feature_matrix.tolist(), problem.labels.tolist()))
    primal += Fraction(problem.sigma_total) / 2 * sum(t * t for t in theta)
    return float(primal + Fraction(dual))


def lift_primal_point(problem, theta):
    """State of a primal point: sigma_i theta on centers, grad f_ij(theta)
    (the coefficient l'(X_ij . theta)) on virtual nodes.  At theta* this is
    the dual optimum mapped through the constraint operator."""
    if not problem.loss.is_smooth:
        raise ValueError("lift needs sample gradients; non-smooth losses have none")
    theta = np.asarray(theta, dtype=float)
    out = zero_state(problem)
    center, coef = split_state(problem, out)
    center[:] = problem.sigma[:, None] * theta[None, :]
    coef[:] = loss_grad(problem.loss, problem.features @ theta, problem.labels)
    return out


def dense_c0_constant(problem, theta_star):
    """Dense Lyapunov constant of the linear-rate guarantee.

    C0 = lambda_max(A^T Sigma^-2 A) [ ||A^dagger v*||^2
         + 2 sigma_A^-1 (F*(0) - F*(v*)) ]
    with v* the lifted primal optimum and sigma_A the exact dual strong
    convexity.
    """
    a = dense_A(problem)
    lam = symmetric_eigensolve(a.T @ dense_sigma_dagger(problem, power=2) @ a).lambda_max
    v_star = lift_primal_point(problem, theta_star)
    proj_dual = np.linalg.pinv(a) @ state_rows(problem, v_star).ravel()
    gap = dual_objective(problem, zero_state(problem)) - dual_objective(problem, v_star)
    return float(lam * (proj_dual @ proj_dual + 2.0 / exact_sigma_a(problem) * gap))


def sigma_dagger_rows(problem, state):
    """Node-space rows of Sigma^+ state; the conjugate curvature of the
    non-smooth build is zero, so its virtual rows vanish."""
    out = state.copy()
    center, coef = split_state(problem, out)
    center /= problem.sigma[:, None]
    if problem.loss.is_smooth:
        coef /= problem.smooth_virtual
    else:
        coef[:] = 0.0
    return state_rows(problem, out)


def lyapunov_value(problem, state, theta_star, f_star):
    """B_t ||v_t - theta*||^2 in the projector seminorm + 2 A_t (F(x_t) - F*)
    of an APCG iterate, from the value oracles of a CompositeProblem."""
    if problem.smooth_value is None:
        raise ValueError("problem lacks value oracles (smooth_value / psi_value)")
    diff = state.v - theta_star
    sq = float(diff @ problem.projector_apply(diff))
    fx = problem.smooth_value(state.x)
    if problem.psi_value is not None:
        for i in np.nonzero(problem.has_psi)[0]:
            fx += problem.psi_value(i, state.x[i])
    return state.b_big * sq + 2.0 * state.a_big * (fx - f_star)


@dataclass
class CompositeProblem:
    """Oracle bundle for min q_A(x) + sum_i psi_i(x_i).

    `projector_apply` applies the projector onto Ker(A)^perp; coordinates with
    a proximal term must be fixed points of it.  `ess_bound` is any S with
    S^2 >= lambda_max(proj P_b^+ M P_b^+ proj) over all blocks; `marginals`
    are the per-coordinate inclusion probabilities and `sample_block(rng)`
    returns the coordinate indices of one drawn block.
    """

    dim: int
    smooth_grad: callable
    projector_apply: callable
    sigma_a: float
    ess_bound: float
    marginals: np.ndarray
    sample_block: callable
    prox_coord: callable = None  # (i, x, step) -> argmin (v-x)^2/(2 step) + psi_i(v)
    has_psi: np.ndarray = None  # bool mask; default: no proximal terms
    # optional value oracles, read by lyapunov_value
    smooth_value: callable = None
    psi_value: callable = None  # (i, x_i) -> psi_i(x_i)

    def __post_init__(self):
        if self.has_psi is None:
            self.has_psi = np.zeros(self.dim, dtype=bool)
        self.marginals = np.asarray(self.marginals, dtype=float)
        if self.marginals.shape != (self.dim,):
            raise ValueError("marginals must have one entry per coordinate")
        if np.any(self.has_psi) and self.prox_coord is None:
            raise ValueError("prox_coord required when some psi_i != 0")

    @property
    def p_min(self):
        """Smallest inclusion probability over proximal coordinates."""
        if np.any(self.has_psi):
            return float(self.marginals[self.has_psi].min())
        return float(self.marginals.min())


@dataclass
class ApcgState:
    x: np.ndarray
    v: np.ndarray
    t: int
    alpha: float
    beta: float
    eta: float
    a_big: float  # A_t
    b_big: float  # B_t


def _check_schedule(problem, mode, alpha0, beta0):
    for i in np.nonzero(problem.has_psi)[0]:
        p = problem.marginals[i]
        slack = 1.0 - alpha0 / p if mode == "strongly_convex" else 1.0 - beta0 - alpha0 / p
        if not slack >= -1e-12:
            raise ValueError(
                f"schedule condition violated at coordinate {i}: "
                f"alpha={alpha0:.3e} exceeds probability {p:.3e}"
            )


def run_apcg(problem, mode, iters, rng_seed, alpha0=None):
    """Didactic recursion; returns the trajectory of states (t = 0 .. iters).

    strongly_convex mode keeps alpha_t = beta_t = sqrt(sigma_A)/S constant;
    convex mode runs beta_t = 0 with the decreasing alpha_t recursion started
    at the smallest proximal-coordinate probability.  `rng_seed` is an int
    seed or a stream object handed to `sample_block`.
    """
    if mode not in ("strongly_convex", "convex"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(rng_seed, (int, np.integer)):
        rng_seed = generator("apcg", int(rng_seed))
    dim = problem.dim
    x = np.zeros(dim)
    v = np.zeros(dim)
    s_const = problem.ess_bound

    if mode == "strongly_convex":
        if problem.sigma_a <= 0:
            raise ValueError("strongly_convex mode needs sigma_a > 0")
        rho = np.sqrt(problem.sigma_a) / s_const
        alpha = beta = rho
        eta = rho / problem.sigma_a
        a_big, b_big = 1.0, problem.sigma_a
    else:
        alpha = problem.p_min if alpha0 is None else float(alpha0)
        beta = 0.0
        b_big = 1.0
        a_big = ((2.0 / alpha - 1.0) ** 2 - 1.0) * b_big / (4.0 * s_const**2)
        eta = 1.0 / (alpha * s_const**2)
    _check_schedule(problem, mode, alpha, beta)

    out = [ApcgState(x.copy(), v.copy(), 0, alpha, beta, eta, a_big, b_big)]
    for t in range(iters):
        if mode == "strongly_convex":
            y = (x + alpha * v) / (1.0 + alpha)
        else:
            y = (1.0 - alpha) * x + alpha * v
        block = tuple(problem.sample_block(rng_seed))
        grad = problem.smooth_grad(y)
        w = (1.0 - beta) * v + beta * y
        v_next = w.copy()
        for i in block:
            step = eta / problem.marginals[i]
            gi = w[i] - step * grad[i]
            v_next[i] = problem.prox_coord(i, gi, step) if problem.has_psi[i] else gi
        if not np.all(np.isfinite(v_next)):
            raise FloatingPointError(f"non-finite iterate at iteration {t}")
        scaled = np.zeros(dim)
        for i in block:
            scaled[i] = (v_next[i] - w[i]) / problem.marginals[i]
        x = y + alpha * problem.projector_apply(scaled)
        v = v_next
        if mode == "strongly_convex":
            a_big = a_big / (1.0 - alpha) if alpha < 1.0 else np.inf
            b_big = problem.sigma_a * a_big
        else:
            a_big += b_big / (alpha * s_const**2)
            alpha = (np.sqrt(alpha**4 + 4.0 * alpha**2) - alpha**2) / 2.0
            eta = 1.0 / (alpha * s_const**2)
        out.append(ApcgState(x.copy(), v.copy(), t + 1, alpha, beta, eta, a_big, b_big))
    return out


def parse_libsvm_pairs(path):
    """Parse `label idx:val ...` lines token by token into (samples, dim),
    where samples is a list of (label, pairs) with 0-based pairs.  Blank
    lines and `#` comments are skipped; the first malformed token, or
    non-finite label or value, raises LibsvmParseError with its line and
    column."""
    samples = []
    dim = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0]
            tokens = line.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise _token_error(line, lineno, 0, f"bad label {tokens[0]!r}") from None
            if not math.isfinite(label):
                raise _token_error(line, lineno, 0, f"non-finite label {tokens[0]!r}")
            pairs = []
            prev_idx = 0
            for tok in tokens[1:]:  # a bad token is token len(pairs) + 1
                idx_s, colon, val_s = tok.partition(":")
                if not colon:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"expected idx:value, got {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"bad feature token {tok!r}") from None
                if not math.isfinite(val):
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"non-finite value {tok!r}")
                if idx < 1:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"index {idx} must be >= 1")
                if idx <= prev_idx:
                    raise _token_error(line, lineno, len(pairs) + 1,
                                       f"index {idx} not increasing")
                pairs.append((idx - 1, val))
                prev_idx = idx
            dim = max(dim, prev_idx)
            samples.append((label, pairs))
    return samples, dim


def _token_error(line, lineno, pos, message):
    col = [m.start() + 1 for m in re.finditer(r"\S+", line)][pos]
    return LibsvmParseError(f"line {lineno}, column {col}: {message}")


def libsvm_record(rows):
    """The LibsvmData record of (label, 0-based pairs) rows."""
    pairs = [p for _, row in rows for p in row]
    indices = np.array([i for i, _ in pairs], dtype=np.int64)
    return LibsvmData(np.array([label for label, _ in rows], dtype=float),
                      np.cumsum([0] + [len(row) for _, row in rows]), indices,
                      np.array([v for _, v in pairs], dtype=float),
                      int(indices.max()) + 1 if len(indices) else 0)


def libsvm_rows(data):
    """(samples, dim) of a LibsvmData record, as parse_libsvm_pairs returns them."""
    labels, indptr, indices, values, dim = data
    samples = []
    for r, label in enumerate(labels.tolist()):
        span = slice(indptr[r], indptr[r + 1])
        samples.append((label, list(zip(indices[span].tolist(), values[span].tolist()))))
    return samples, dim


def synth_pool_dense(n_samples, d, seed, correlation, loss="logistic", noise=0.1,
                     feature_scale=1.0):
    """The synthetic pool of `data.synth_pool`, every row made at once."""
    rng = generator("synth", seed)
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    feats = rng.normal(size=(n_samples, d))
    spike = rng.normal(size=(n_samples, 1))
    feats *= np.sqrt(1.0 - correlation)
    spike *= np.sqrt(correlation * d)
    feats += spike * w
    feats *= feature_scale
    theta = rng.normal(size=d) / np.sqrt(d)
    margins = feats @ theta + noise * rng.normal(size=n_samples)
    return feats, (np.where(margins >= 0.0, 1.0, -1.0) if loss == "logistic" else margins)
