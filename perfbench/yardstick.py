"""The benchmark's own optimum and primal values, from the pooled arrays.

Suboptimality in the benchmark is measured against the value computed here,
not against the program's `reference_optimum`, so a change to the program's
yardstick cannot move the benchmark's idealized times or final gaps.  The
program's reference is instead checked against this one.
"""

import numpy as np

EPS = np.finfo(float).eps
NEWTON_ITERS = 60


def _expit(u):
    """1 / (1 + exp(-u)) without overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * u))


class Pooled:
    """All samples of all nodes, regularized by sigma_total = sum_i sigma_i."""

    def __init__(self, features, labels, sigma_total):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self.sigma = float(sigma_total)

    @classmethod
    def from_flat(cls, flat):
        return cls(flat.feature_matrix, flat.labels, flat.sigma_total)

    def _terms(self, loss, theta):
        z = self.features @ theta
        if loss == "logistic":
            return np.logaddexp(0.0, -self.labels * z)
        if loss == "absolute":
            return np.abs(z - self.labels)
        raise ValueError(f"no primal value for the {loss} loss")

    def value(self, loss, theta):
        """F(theta) = sum_k loss(x_k . theta, y_k) + (sigma/2) ||theta||^2."""
        theta = np.asarray(theta, dtype=float)
        return float(self._terms(loss, theta).sum()) + 0.5 * self.sigma * float(theta @ theta)

    def allowance(self, loss, theta):
        """Rounding allowance for comparing two evaluations of F at theta.

        The program and the benchmark sum the same terms in other orders and
        through other elementary functions; 64 eps times the sum of the term
        magnitudes bounds that difference generously.
        """
        theta = np.asarray(theta, dtype=float)
        scale = float(np.abs(self._terms(loss, theta)).sum())
        scale += 0.5 * self.sigma * float(theta @ theta)
        return 64.0 * EPS * max(scale, 1.0)

    def logistic_optimum(self):
        """Damped Newton on the pooled logistic objective.

        Returns (f_star, theta, grad_norm).  Strong convexity certifies
        F(theta) - F* <= grad_norm^2 / (2 sigma).
        """
        x, y, sigma = self.features, self.labels, self.sigma
        d = x.shape[1]
        theta = np.zeros(d)
        value = self.value("logistic", theta)
        target = 1e-10 * sigma
        for _ in range(NEWTON_ITERS):
            s = _expit(-y * (x @ theta))
            grad = x.T @ (-y * s) + sigma * theta
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm <= target:
                return value, theta, grad_norm
            hess = (x.T * (s * (1.0 - s))) @ x + sigma * np.eye(d)
            step = np.linalg.solve(hess, grad)
            decrement = float(grad @ step)
            t = 1.0
            while True:
                trial = theta - t * step
                trial_value = self.value("logistic", trial)
                if trial_value <= value - 0.25 * t * decrement or t < 1e-12:
                    break
                t *= 0.5
            theta, value = trial, trial_value
        raise RuntimeError(
            f"damped Newton did not reach ||grad|| <= {target:.1e}: {grad_norm:.3e}")
