"""Per-sample losses, proximal oracles, and condition numbers.

Losses are generalized linear models loss(X^T theta, label); every proximal
step therefore reduces to a one-dimensional problem along the sample's feature
direction.  The conjugate-side prox (used by the smooth dual solvers) is
evaluated through the primal prox via the Moreau-identity reduction, with a
closed-form boundary case when the step hits the smoothness limit.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .topology import symmetric_eigensolve

__all__ = [
    "LossKind",
    "LocalObjective",
    "ConditionReport",
    "loss_value",
    "loss_grad",
    "loss_curvature",
    "loss_conjugate",
    "prox_sample",
    "condition_numbers",
    "primal_value",
    "primal_grad",
]

NEWTON_ITERS = 10
NEWTON_TOL = 1e-12
BISECTION_STEPS = 30
# the rounds' logistic proxes of at least BATCH_MIN elements take the
# vectorized kernel, BATCH_STEPS Newton steps each; smaller ones the loop
# kernel (scripts/prox_crossover.py places BATCH_MIN)
BATCH_MIN = 32
BATCH_STEPS = 6


class LossKind(enum.Enum):
    LOGISTIC = "logistic"
    SQUARED = "squared"
    ABSOLUTE = "absolute"

    @property
    def scalar_smoothness(self):
        """Smoothness constant of the scalar loss; None if non-smooth."""
        return {LossKind.LOGISTIC: 0.25, LossKind.SQUARED: 1.0, LossKind.ABSOLUTE: None}[self]

    @property
    def is_smooth(self):
        return self.scalar_smoothness is not None


def _inv_one_plus_exp(u):
    """1 / (1 + exp(u)) without overflow for large |u|."""
    e = np.exp(-np.abs(u))
    return np.where(u > 0, e, 1.0) / (1.0 + e)


def loss_value(kind, z, label):
    """Scalar loss value; `z` and `label` may be arrays (broadcast)."""
    z = np.asarray(z, dtype=float)
    label = np.asarray(label, dtype=float)
    if kind is LossKind.LOGISTIC:
        u = -label * z
        out = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    elif kind is LossKind.SQUARED:
        out = 0.5 * (z - label) ** 2
    elif kind is LossKind.ABSOLUTE:
        out = np.abs(z - label)
    else:  # pragma: no cover
        raise ValueError(kind)
    return out if out.ndim else float(out)


def loss_grad(kind, z, label):
    z = np.asarray(z, dtype=float)
    label = np.asarray(label, dtype=float)
    if kind is LossKind.LOGISTIC:
        out = -label * _inv_one_plus_exp(label * z)
    elif kind is LossKind.SQUARED:
        out = z - label
    else:
        raise ValueError(f"{kind} loss has no gradient (non-smooth)")
    return out if out.ndim else float(out)


def loss_curvature(kind, z, label):
    """Second derivative of the scalar loss in z, for arrays (smooth losses only)."""
    if kind is LossKind.LOGISTIC:
        sig = _inv_one_plus_exp(label * z)
        return label * label * sig * (1.0 - sig)
    if kind is LossKind.SQUARED:
        return np.ones_like(z)
    raise ValueError(f"{kind} loss has no curvature (non-smooth)")


def loss_conjugate(kind, s, label):
    """Fenchel conjugate of the scalar loss, +inf outside its domain."""
    s = np.asarray(s, dtype=float)
    label = np.asarray(label, dtype=float)
    if kind is LossKind.LOGISTIC:
        u = -label * s
        inside = (u >= 0.0) & (u <= 1.0)
        uc = np.clip(u, 0.0, 1.0)
        ent = np.where(uc > 0.0, uc * np.log(np.where(uc > 0.0, uc, 1.0)), 0.0)
        ent = ent + np.where(uc < 1.0, (1 - uc) * np.log(np.where(uc < 1.0, 1 - uc, 1.0)), 0.0)
        out = np.where(inside, ent, np.inf)
    elif kind is LossKind.SQUARED:
        out = 0.5 * s * s + s * label
    elif kind is LossKind.ABSOLUTE:
        out = np.where(np.abs(s) <= 1.0, s * label, np.inf)
    else:  # pragma: no cover
        raise ValueError(kind)
    return out if out.ndim else float(out)


def _logistic_newton_delta(p, z, label, step):
    """Newton step at p for argmin_p (p - z)^2 / (2 step) + log(1 + exp(-label p))."""
    u = label * p  # sig = 1 / (1 + exp(u)); math.exp would overflow on u >> 0
    e = math.exp(-abs(u))
    sig = e / (1.0 + e) if u > 0.0 else 1.0 / (1.0 + e)
    return -((p - z) / step - label * sig) / (1.0 / step + sig * (1.0 - sig))


def _logistic_prox(z, label, step, warm):
    """argmin_p (p - z)^2 / (2 step) + log(1 + exp(-label p)) for floats.

    Newton from `warm`, guarded to [min(z, warm) - 10 step,
    max(z, warm) + 10 step].  A step leaving the guard, or no convergence
    within NEWTON_ITERS, falls back to bisection on z +- step (|loss'| <= 1
    puts the root there) and 4 Newton polish steps inside that bracket.
    Point-SAGA's kernel, and the redo path of the rounds' r-form kernels.
    The Newton loop is `_logistic_newton_delta` written out, which saves a
    call per step; the fallback calls it.
    """
    inv_step = 1.0 / step
    lo_guard = (warm if warm < z else z) - 10.0 * step
    hi_guard = (warm if warm > z else z) + 10.0 * step
    p = warm
    for _ in range(NEWTON_ITERS):
        u = label * p
        if u > 0.0:
            e = math.exp(-u)
            sig = e / (1.0 + e)
        else:
            sig = 1.0 / (1.0 + math.exp(u))
        delta = -((p - z) / step - label * sig) / (inv_step + sig * (1.0 - sig))
        p = p + delta
        if p < lo_guard or p > hi_guard:
            break
        if -NEWTON_TOL <= delta <= NEWTON_TOL:
            return p

    lo, hi = z - step, z + step
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * lo + 0.5 * hi  # = 0.5 * (lo + hi), which overflows near the float max
        if _logistic_newton_delta(mid, z, label, step) > 0:  # slope < 0: the minimizer lies above
            lo = mid
        else:
            hi = mid
    p = 0.5 * lo + 0.5 * hi
    for _ in range(4):
        p = p + _logistic_newton_delta(p, z, label, step)
    return p


def _logistic_prox_r_redo(b, c4, r0):
    """`_logistic_prox` on the r-form inputs of the two kernels below: with
    q = label p = 2 r its problem reads argmin_q (q - label z)^2 / (2 step)
    + log(1 + exp(-q)), where step = 4 / c4 and label z = 2 (b - 1) / c4."""
    return 0.5 * _logistic_prox(2.0 * (b - 1.0) / c4, 1.0, 4.0 / c4, 2.0 * r0)


def _logistic_prox_r(b, c4, r0):
    """The rounds' logistic prox in r = label p / 2, for small batches.

    `_logistic_prox`'s problem in r is argmin_r (c4 / 2) r^2 - (b - 1) r
    + log(1 + exp(-2 r)), with c4 = 4 / step and b = 2 label z / step + 1
    (label^2 = 1).  With t = tanh(r) its gradient is c4 r - b + t and its
    curvature c4 + 1 - t^2.  Newton's method is affine-invariant, so its
    iterates from r0 = label warm / 2 are those of `_logistic_prox` in p,
    and |delta r| <= NEWTON_TOL / 2 is its |delta p| <= NEWTON_TOL.  One
    Python loop over the float arrays b, c4 and r0, with no call per element
    and no guard interval: an element that misses the test within
    NEWTON_ITERS steps (NaN and +-inf do) is redone by `_logistic_prox` from
    the same warm start.
    """
    tol = 0.5 * NEWTON_TOL
    tanh = math.tanh
    steps = range(NEWTON_ITERS)
    out = []
    for bk, ck, start in zip(b.tolist(), c4.tolist(), r0.tolist()):
        r = start
        ck1 = ck + 1.0
        for _ in steps:
            t = tanh(r)
            delta = (ck * r - bk + t) / (ck1 - t * t)
            r -= delta
            if -tol <= delta <= tol:
                break
        else:
            r = _logistic_prox_r_redo(bk, ck, start)
        out.append(r)
    return np.array(out)


def _logistic_prox_r_batch(b, c4, r0):
    """`_logistic_prox_r` vectorized, for large batches.

    BATCH_STEPS Newton steps on the whole batch, 8 ufunc calls each, with
    no convergence test inside the loop.  An element whose last |delta r|
    exceeds NEWTON_TOL / 2 (or is NaN) is redone by `_logistic_prox` from the
    same warm start.
    """
    r = r0.copy()
    c41 = c4 + 1.0
    t = np.empty_like(r)
    delta = np.empty_like(r)
    curv = np.empty_like(r)
    for _ in range(BATCH_STEPS):
        np.tanh(r, out=t)
        np.multiply(c4, r, out=delta)
        delta -= b
        delta += t  # gradient c4 r - b + t
        np.multiply(t, t, out=curv)
        np.subtract(c41, curv, out=curv)  # curvature c4 + 1 - t^2
        delta /= curv
        r -= delta
    # no guard test: NaN and +-inf fail this one, and an element that passes it
    # has converged to the minimizer
    ok = np.abs(delta) <= 0.5 * NEWTON_TOL
    if not ok.all():
        for k in np.flatnonzero(~ok).tolist():
            r[k] = _logistic_prox_r_redo(float(b[k]), float(c4[k]), float(r0[k]))
    return r


def _prox_1d_array(kind, z, label, step):
    """Elementwise argmin_p (p-z)^2/(2 step) + loss(p, label) for the squared
    loss, in closed form, over validated (finite, step > 0) equal-length
    float arrays or floats.  The logistic loss has its own kernels."""
    if kind is not LossKind.SQUARED:
        raise ValueError(f"closed-form prox needs the squared loss, got {kind.value}")
    return (z + step * label) / (1.0 + step)


@dataclass(frozen=True)
class LocalObjective:
    """f_i(theta) = sum_j loss(X_ij^T theta, label_ij) + (sigma/2) ||theta||^2.

    The data are stored read-only: an (m, d) feature matrix whose rows X_ij
    must be finite and nonzero (a zero row has no projector), the m labels
    (+1 or -1 for the logistic loss), and the row norms ||X_ij||^2.  For a
    smooth loss their sum must be finite: it bounds every entry of the Gram
    matrix X^T X, and with it lambda_max and kappa_i.  A read-only
    C-contiguous float64 input (a node's view of its instance's buffer) is
    kept as it is; any other input is copied.
    """

    feature_matrix: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)
    sigma: float
    loss: LossKind
    xnorm2: np.ndarray = field(init=False, repr=False, compare=False)  # (m,)

    def __post_init__(self):
        if self.sigma <= 0 or not np.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        x, y = (a if isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.flags.c_contiguous and not a.flags.writeable else np.array(a, dtype=float)
                for a in (self.feature_matrix, self.labels))
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"features must be an (m, d) matrix with m >= 1, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"need one label per feature row: {x.shape[0]} rows, "
                             f"labels of shape {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite sample")
        if self.loss is LossKind.LOGISTIC:
            # L_g = 1/4 and both prox kernels' curvature assume label^2 = 1
            bad = np.flatnonzero(np.abs(y) != 1.0)
            if bad.size:
                raise ValueError(f"logistic label in row {bad[0]} is {float(y[bad[0]])}, "
                                 "expected +1 or -1")
        with np.errstate(over="ignore"):  # reported below
            xnorm2 = np.vecdot(x, x)  # bit-identical to the per-row x @ x
            total = xnorm2.sum()
        zero = np.flatnonzero(xnorm2 <= 0.0)
        if zero.size:
            raise ValueError(f"zero feature vector in row {zero[0]}: its projector is undefined")
        overflow = np.flatnonzero(~np.isfinite(xnorm2))
        if overflow.size:
            raise ValueError(f"squared norm of feature row {overflow[0]} overflows")
        if self.loss.is_smooth and not np.isfinite(total):
            raise ValueError("squared feature norms sum past the float range: the Gram "
                             "matrix and sum_j L_ij overflow")
        for name, arr in (("feature_matrix", x), ("labels", y), ("xnorm2", xnorm2)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def m(self):
        return self.feature_matrix.shape[0]

    @property
    def smoothness(self):
        """Per-sample smoothness L_ij = L_g * ||X_ij||^2 (smooth losses only)."""
        lg = self.loss.scalar_smoothness
        if lg is None:
            raise ValueError("smoothness undefined for non-smooth loss")
        return lg * self.xnorm2


def prox_sample(feature, label, kind, v, eta):
    """Exact d-dimensional prox of eta * loss(X^T ., label) at v, X = `feature`
    (a nonzero row, as LocalObjective validates), for a smooth loss.

    The minimizer moves only along the feature direction, so it reduces to
    the 1D prox with step eta * ||X||^2, cold-started at 0.
    """
    if not kind.is_smooth:
        raise ValueError(f"the sample prox needs a smooth loss, got {kind.value}")
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be finite and > 0")
    v = np.asarray(v, dtype=float)
    xnorm2 = float(feature @ feature)
    zz = float(feature @ v)
    if not math.isfinite(zz):  # a nan or inf anywhere in v reaches zz
        raise ValueError("non-finite prox input")
    step = eta * xnorm2
    if kind is LossKind.LOGISTIC:
        p_star = _logistic_prox(zz, float(label), step, 0.0)
    else:
        p_star = float(_prox_1d_array(kind, zz, label, step))
    return v + ((p_star - zz) / xnorm2) * feature


def _tilde_coeff_batch(kind, c_x, labels, prox_in, prox_step, inv_scale, prox_out, warm,
                       boundary=None):
    """Coefficient form of prox_{eta_tilde * ftilde*} along each feature,
    ftilde* = f* - ||.||^2 / (2L), for validated equal-length float arrays.

    Inputs/outputs are coefficients c such that the vector is c * X.  The
    conjugate-side identity reduces it to the 1D primal prox p* at
    z = c ||X||^2 / eta_tilde with step gamma ||X||^2, gamma =
    (L - eta_tilde) / (eta_tilde L), and the output is
    (c - eta_tilde p* / ||X||^2) / (1 - eta_tilde / L).  The caller
    precomputes, with eta_tilde <= L, `inv_scale` = 1 / (1 - eta_tilde / L)
    and the factors of the loss's 1D prox in its inner variable v:
    `prox_in`, `prox_step` and `prox_out`, so that the output is
    c inv_scale - v prox_out.  The squared loss solves for v = p* from
    z = c prox_in with step `prox_step`, both as above, and
    prox_out = eta_tilde / (||X||^2 (1 - eta_tilde / L)).  The logistic loss
    solves for v = label p* / 2 (`_logistic_prox_r`) from b = c prox_in + 1
    and c4 = `prox_step`, which are 2 label z / step + 1 and 4 / step, with
    prox_out twice label times the squared loss's.  On the samples that
    `boundary` marks, at the limit eta_tilde -> L, the factors must be
    finite and inert (say a unit step and zero `inv_scale` and `prox_out`):
    the output is then overwritten with the primal gradient at x / L, whose
    z is c / L_g.  None means there are none.  Returns (c_out, inner) with
    `inner` the solution v, the warm start of the next prox of these samples
    (the warm start itself on the boundary samples).
    """
    if kind is LossKind.LOGISTIC:
        b = c_x * prox_in
        b += 1.0
        kernel = _logistic_prox_r_batch if b.size >= BATCH_MIN else _logistic_prox_r
        inner = kernel(b, prox_step, warm)
    else:
        inner = _prox_1d_array(kind, c_x * prox_in, labels, prox_step)
    c_out = c_x * inv_scale
    c_out -= inner * prox_out
    if boundary is not None and boundary.any():
        c_out[boundary] = loss_grad(kind, c_x[boundary] / kind.scalar_smoothness,
                                    labels[boundary])
        inner[boundary] = warm[boundary]
    return c_out, inner


@dataclass(frozen=True)
class ConditionReport:
    """Batch vs finite-sum condition numbers, per node and aggregated."""

    kappa_i: np.ndarray  # 1 + sigma_i^-1 sum_j L_ij
    kappa_b: np.ndarray  # (sigma_i + lambda_max(sum_j L_ij P_ij)) / sigma_i
    kappa_s: float  # max_i kappa_i
    lam_sum_max: np.ndarray  # lambda_max(sum_j L_ij P_ij) per node


@np.errstate(over="ignore")  # kappa_i reads inf for sigma far below sum_j L_ij
def condition_numbers(objectives) -> ConditionReport:
    if not objectives[0].loss.is_smooth:
        raise ValueError("condition numbers undefined for non-smooth losses")
    lg = objectives[0].loss.scalar_smoothness
    kappa_i, kappa_b, lam = [], [], []
    for obj in objectives:
        feats = obj.feature_matrix
        gram = lg * (feats.T @ feats)  # sum_j L_ij P_ij for rank-1 projectors
        lmax = symmetric_eigensolve(gram).lambda_max
        kappa_i.append(1.0 + obj.smoothness.sum() / obj.sigma)
        kappa_b.append((obj.sigma + lmax) / obj.sigma)
        lam.append(lmax)
    return ConditionReport(
        kappa_i=np.array(kappa_i),
        kappa_b=np.array(kappa_b),
        kappa_s=float(max(kappa_i)),
        lam_sum_max=np.array(lam),
    )


def _stacked_value(kind, features, labels, sigma_total, theta) -> float:
    """sum_k loss(features[k] @ theta, labels[k]) + (sigma_total / 2) ||theta||^2."""
    losses = loss_value(kind, features @ theta, labels)
    return float(np.sum(losses)) + 0.5 * sigma_total * float(theta @ theta)


def _stacked_grad(kind, features, labels, sigma_total, theta) -> np.ndarray:
    """Gradient of `_stacked_value` in theta."""
    slopes = np.asarray(loss_grad(kind, features @ theta, labels))
    return features.T @ slopes + sigma_total * theta


def primal_value(objectives, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    return sum(_stacked_value(o.loss, o.feature_matrix, o.labels, o.sigma, theta)
               for o in objectives)


def primal_grad(objectives, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return sum(_stacked_grad(o.loss, o.feature_matrix, o.labels, o.sigma, theta)
               for o in objectives)
