"""Per-sample losses, proximal oracles, and condition numbers.

Losses are generalized linear models loss(X^T theta, label); every proximal
step therefore reduces to a one-dimensional problem along the sample's feature
direction.  The conjugate-side prox (used by the smooth dual solvers) is
evaluated through the primal prox via the Moreau-identity reduction, whose
steps keep the margin PROX_MARGIN below the smoothness limit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import RANGE_HI, RANGE_LO, in_range
from .topology import symmetric_eigensolve

__all__ = [
    "LossKind",
    "LOSSES",
    "LocalObjective",
    "ConditionReport",
    "loss_value",
    "loss_grad",
    "loss_curvature",
    "loss_conjugate",
    "prox_sample",
    "tilde_prox_factors",
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
BATCH_STEPS = 5
# the rate clamp (augmented.build_augmented) keeps eta~ <= (1 - PROX_MARGIN) L
# on every virtual node: the rounding error of the conjugate-side identity
# (`tilde_prox_factors`) grows as about 4 eps / (1 - eta~ / L), eps = 2^-53,
# and stays below 1e-13 there (README, Numerical conventions, has the curve)
PROX_MARGIN = 2.0**-7
NEWTON_R, CLOSED_FORM, CLIP = "newton_r", "closed_form", "clip"  # the kinds of 1D prox
DOMAIN_TOL = 1e-6  # loss_conjugate's slack on the conjugate domain


@dataclass(frozen=True)
class LossKind:
    """One loss as data (LossKind.LOGISTIC, SQUARED, ABSOLUTE; LOSSES maps their names)."""

    name: str  # the config's name
    scalar_smoothness: float  # L_g; None for a non-smooth loss, which is_smooth reads
    # the 1D prox of its rounds and Point-SAGA: NEWTON_R in r = label p / 2
    # (`_logistic_prox_r`), CLOSED_FORM (`_prox_1d_array`) or a CLIP (a
    # conjugate linear on [-1, 1])
    prox: str
    unit_labels: bool  # the labels must be +1 or -1
    # (lo, hi, along_label): the conjugate at s is finite where s, or label s
    # if along_label, lies in [lo, hi]
    conjugate_domain: tuple
    is_smooth: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "is_smooth", self.scalar_smoothness is not None)


LossKind.LOGISTIC = LossKind("logistic", 0.25, NEWTON_R, True, (-1.0, 0.0, True))
LossKind.SQUARED = LossKind("squared", 1.0, CLOSED_FORM, False, (-math.inf, math.inf, False))
LossKind.ABSOLUTE = LossKind("absolute", None, CLIP, False, (-1.0, 1.0, False))
LOSSES = {k.name: k for k in (LossKind.LOGISTIC, LossKind.SQUARED, LossKind.ABSOLUTE)}


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
        raise ValueError(f"{kind.name} loss has no gradient (non-smooth)")
    return out if out.ndim else float(out)


def loss_curvature(kind, z, label):
    """Second derivative of the scalar loss in z, for arrays (smooth losses only)."""
    if kind is LossKind.LOGISTIC:
        sig = _inv_one_plus_exp(label * z)
        return label * label * sig * (1.0 - sig)
    if kind is LossKind.SQUARED:
        return np.ones_like(z)
    raise ValueError(f"{kind.name} loss has no curvature (non-smooth)")


def loss_conjugate(kind, s, label):
    """Fenchel conjugate of the scalar loss at s clipped into its domain, or
    +inf where s lies farther than DOMAIN_TOL outside it (kind.conjugate_domain)."""
    s = np.asarray(s, dtype=float)
    label = np.asarray(label, dtype=float)
    lo, hi, along_label = kind.conjugate_domain
    scale = label if along_label else 1.0  # label^2 = 1 along the label
    t = scale * s
    s = scale * np.clip(t, lo, hi)
    if kind is LossKind.LOGISTIC:
        uc = -label * s
        ent = np.where(uc > 0.0, uc * np.log(np.where(uc > 0.0, uc, 1.0)), 0.0)
        out = ent + np.where(uc < 1.0, (1 - uc) * np.log(np.where(uc < 1.0, 1 - uc, 1.0)), 0.0)
    elif kind is LossKind.SQUARED:
        out = 0.5 * s * s + s * label
    elif kind is LossKind.ABSOLUTE:
        out = s * label
    else:  # pragma: no cover
        raise ValueError(kind)
    out = np.where((t >= lo - DOMAIN_TOL) & (t <= hi + DOMAIN_TOL), out, np.inf)
    return out if out.ndim else float(out)


def _logistic_prox_r_fallback(b, c4):
    """The root of c4 r + tanh r = b (floats, c4 > 0) without a start point.

    |tanh r| < 1 puts the root inside ((b - 1) / c4, (b + 1) / c4), the
    p-form bracket z +- step cut to the half that holds it.  Bisection
    halves it until it is at most 2^-BISECTION_STEPS (1 + |lo| + |hi|) wide:
    BISECTION_STEPS steps on a bracket of unit scale, one more for each
    doubling of a wider one, so a large step (a small c4) still ends next
    to the root.  The midpoint is 0.5 lo + 0.5 hi (0.5 (lo + hi) overflows
    near the float maximum).  4 Newton polish steps follow.
    """
    lo, hi = (b - 1.0) / c4, (b + 1.0) / c4
    width = 2.0**-BISECTION_STEPS
    while hi - lo > width * (1.0 + abs(lo) + abs(hi)):
        mid = 0.5 * lo + 0.5 * hi
        if c4 * mid - b + math.tanh(mid) < 0.0:  # gradient < 0: the root lies above
            lo = mid
        else:
            hi = mid
    r = 0.5 * lo + 0.5 * hi
    for _ in range(4):
        t = math.tanh(r)
        r -= (c4 * r - b + t) / (c4 + (1.0 - t * t))
    return r


def _logistic_prox_r(b, c4):
    """The logistic prox in r over equal-length float sequences: the roots
    of c4 r + tanh r = b, as a list.  Every logistic prox runs here, or in
    `_logistic_prox_r_batch` for the rounds' large batches.

    In p, argmin_p (p - z)^2 / (2 step) + log(1 + exp(-label p)) with
    label^2 = 1; in r = label p / 2 it is argmin_r (c4 / 2) r^2 - (b - 1) r
    + log(1 + exp(-2 r)) up to a constant, with c4 = 4 / step and
    b = 2 label z / step + 1.  With t = tanh(r) its gradient is c4 r - b + t,
    as 1 / (1 + exp(2 r)) = (1 - t) / 2, and its curvature c4 + 1 - t^2,
    summed as c4 + (1 - t^2), which stays > 0 where tanh rounds to +-1.
    Newton starts at b / (c4 + 1), the root if tanh r were r, cut into the
    root's bracket ((b - 1) / c4, (b + 1) / c4): from there the absolute
    stop |delta r| <= NEWTON_TOL / 2 (|delta p| <= NEWTON_TOL) bounds the
    relative error also where c4 > 1 / NEWTON_TOL.  A miss of its
    NEWTON_ITERS steps (NaN and +-inf miss) ends in the fallback.
    """
    tol = 0.5 * NEWTON_TOL
    tanh = math.tanh
    steps = range(NEWTON_ITERS)
    out = []
    for bk, ck in zip(b, c4):
        c1 = ck + 1.0  # b / (c4 + 1) lies inside the bracket where |b| <= c4 + 1
        r = bk / c1 if -c1 <= bk <= c1 else (bk - 1.0 if bk > 0.0 else bk + 1.0) / ck
        for _ in steps:
            t = tanh(r)
            delta = (ck * r - bk + t) / (ck + (1.0 - t * t))
            r -= delta
            if -tol <= delta <= tol:
                break
        else:
            r = _logistic_prox_r_fallback(bk, ck)
        out.append(r)
    return out


def _logistic_prox_r_batch(b, c4):
    """`_logistic_prox_r` vectorized over float arrays, for large batches.

    BATCH_STEPS Newton steps on the whole batch from `_logistic_prox_r`'s
    start, 8 ufunc calls each, with no convergence test inside the loop;
    one `_logistic_prox_r` call redoes, from that start, the elements whose
    last |delta r| exceeds NEWTON_TOL / 2 (or is NaN).
    """
    r = b / (c4 + 1.0)
    np.maximum(r, (b - 1.0) / c4, out=r)
    np.minimum(r, (b + 1.0) / c4, out=r)
    # the curvature gains 2^-52, which keeps it > 0 where tanh rounds to +-1
    # and c4 + 1 to 1 (c4 < 2^-53); the root is the same
    c41 = c4 + (1.0 + 2.0**-52)
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
        miss = np.flatnonzero(~ok)
        r[miss] = _logistic_prox_r(b[miss].tolist(), c4[miss].tolist())
    return r


def _prox_1d_array(kind, z, label, step):
    """Elementwise argmin_p (p-z)^2/(2 step) + loss(p, label) for the squared
    loss, in closed form, over validated (finite, step > 0) equal-length
    float arrays or floats.  The logistic loss has its own kernels."""
    if kind.prox != CLOSED_FORM:
        raise ValueError(f"closed-form prox needs the squared loss, got {kind.name}")
    return (z + step * label) / (1.0 + step)


@dataclass(frozen=True)
class LocalObjective:
    """f_i(theta) = sum_j loss(X_ij^T theta, label_ij) + (sigma/2) ||theta||^2.

    The data are stored read-only: an (m, d) feature matrix whose rows X_ij
    must be finite and nonzero (a zero row has no projector), the m labels
    (+1 or -1 for the logistic loss), and the row norms ||X_ij||^2.  sigma,
    each row norm ||X_ij|| and each nonzero |label| must lie in the inputs'
    range [data.RANGE_LO, data.RANGE_HI] (sigma in [RANGE_LO, SIGMA_MAX]).
    A read-only C-contiguous float64 input (a node's view of its instance's
    buffer) is kept as it is; any other input is copied.
    """

    feature_matrix: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)
    sigma: float
    loss: LossKind
    xnorm2: np.ndarray = field(init=False, repr=False, compare=False)  # (m,)
    SIGMA_MAX = RANGE_HI

    def __post_init__(self):
        if not in_range(self.sigma, self.SIGMA_MAX):
            raise ValueError(f"sigma must lie in [{RANGE_LO:g}, {self.SIGMA_MAX:g}], "
                             f"got {self.sigma}")
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
        if self.loss.unit_labels:
            # L_g = 1/4 and both prox kernels' curvature assume label^2 = 1
            bad = np.flatnonzero(np.abs(y) != 1.0)
            if bad.size:
                raise ValueError(f"{self.loss.name} label in row {bad[0]} is {float(y[bad[0]])}, "
                                 "expected +1 or -1")
        with np.errstate(over="ignore"):  # a row past the range may overflow: rejected below
            xnorm2 = np.vecdot(x, x)  # bit-identical to the per-row x @ x
        norm = np.sqrt(xnorm2)
        # a squared norm that underflows (0 or subnormal) or overflows hides the
        # row's norm: measure it again scaled by the row's largest |x|
        for k in np.flatnonzero((xnorm2 < np.finfo(float).tiny) | (xnorm2 == np.inf)).tolist():
            top = float(np.max(np.abs(x[k])))
            if top == 0.0:
                raise ValueError(f"zero feature vector in row {k}: its projector is undefined")
            norm[k] = top * np.linalg.norm(x[k] / top)
        for name, mag in (("norm of feature row", norm), ("|label| of row", abs(y))):
            bad = np.flatnonzero(~in_range(mag) & (mag != 0.0))
            if bad.size:
                raise ValueError(f"{name} {bad[0]} is {float(mag[bad[0]]):.6g}, outside "
                                 f"[{RANGE_LO:g}, {RANGE_HI:g}]")
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
    the 1D prox at z = X . v with step eta * ||X||^2; the logistic loss's in
    r, from b = 2 label z / step + 1 and c4 = 4 / step.
    """
    if not kind.is_smooth:
        raise ValueError(f"the sample prox needs a smooth loss, got {kind.name}")
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be finite and > 0")
    v = np.asarray(v, dtype=float)
    xnorm2 = float(feature @ feature)
    zz = float(feature @ v)
    step = eta * xnorm2
    newton = kind.prox == NEWTON_R
    c4 = 4.0 / step
    prox_in = 0.5 * float(label) * c4 * zz + 1.0 if newton else zz  # b for the logistic loss
    if not math.isfinite(prox_in):  # a nan or inf anywhere in v reaches it
        raise ValueError("non-finite prox input")
    if newton:
        p_star = 2.0 * float(label) * _logistic_prox_r((prox_in,), (c4,))[0]
    else:
        p_star = float(_prox_1d_array(kind, zz, label, step))
    return v + ((p_star - zz) / xnorm2) * feature


def tilde_prox_factors(kind, labels, xnorm2, smooth, eta_tilde):
    """Per-sample factors of `_tilde_coeff_batch` for a smooth loss at the
    run's fixed conjugate-prox steps eta_tilde, from the labels, the squared
    norms ||X||^2 and the smoothness L of the samples.

    The conjugate-side identity reduces prox_{eta_tilde ftilde*} at c X to
    the 1D primal prox p* at z = c ||X||^2 / eta_tilde with step
    gamma ||X||^2, gamma = (L - eta_tilde) / (eta_tilde L); the output is
    (c - eta_tilde p* / ||X||^2) / scale, scale = 1 - eta_tilde / L, which
    is c inv_scale - v prox_out in the prox's inner variable v.  The squared
    loss solves for v = p* from z = c prox_in with step prox_step:
    prox_in = ||X||^2 / eta_tilde, prox_step = gamma ||X||^2 and prox_out =
    eta_tilde / (||X||^2 scale).  The logistic loss solves for v = label p* / 2
    (`_logistic_prox_r`) from b = c prox_in + 1 and c4 = prox_step, which
    are 2 label z / step + 1 and 4 / step, step = gamma ||X||^2, with
    prox_out 2 label times the squared loss's.  An eta_tilde above
    (1 - PROX_MARGIN / 2) L leaves too little of the margin for the identity
    (ValueError); below it, inv_scale <= 2 / PROX_MARGIN.  Returns (prox_in,
    prox_step, inv_scale, prox_out).
    """
    ratio = eta_tilde / smooth
    if np.any(ratio > 1.0 - 0.5 * PROX_MARGIN):
        raise ValueError(f"eta_tilde exceeds (1 - {PROX_MARGIN:g} / 2) times the sample "
                         "smoothness: the prox identity breaks inside its margin")
    scale = 1.0 - ratio
    prox_in = xnorm2 / eta_tilde
    step = (smooth - eta_tilde) / (eta_tilde * smooth) * xnorm2  # gamma ||X||^2
    prox_out = eta_tilde / (xnorm2 * scale)
    if kind.prox == NEWTON_R:
        prox_in = 2.0 * labels * prox_in / step
        step, prox_out = 4.0 / step, 2.0 * labels * prox_out
    return prox_in, step, 1.0 / scale, prox_out


def _tilde_coeff_batch(kind, c_x, labels, prox_in, prox_step, inv_scale, prox_out):
    """Coefficient form of prox_{eta_tilde * ftilde*} along each feature,
    ftilde* = f* - ||.||^2 / (2L), for validated equal-length float arrays.

    Inputs/outputs are coefficients c such that the vector is c * X.  The
    factors are those of `tilde_prox_factors`, which derives them: the loss's
    1D prox solves for its inner variable v and the output is
    c inv_scale - v prox_out.
    """
    if kind.prox == NEWTON_R:
        b = c_x * prox_in
        b += 1.0
        if b.size >= BATCH_MIN:
            inner = _logistic_prox_r_batch(b, prox_step)
        else:
            inner = np.array(_logistic_prox_r(b.tolist(), prox_step.tolist()))
    else:
        inner = _prox_1d_array(kind, c_x * prox_in, labels, prox_step)
    c_out = c_x * inv_scale
    c_out -= inner * prox_out
    return c_out


@dataclass(frozen=True)
class ConditionReport:
    """Batch vs finite-sum condition numbers, per node and aggregated."""

    kappa_i: np.ndarray  # 1 + sigma_i^-1 sum_j L_ij
    kappa_b: np.ndarray  # (sigma_i + lambda_max(sum_j L_ij P_ij)) / sigma_i
    kappa_s: float  # max_i kappa_i
    lam_sum_max: np.ndarray  # lambda_max(sum_j L_ij P_ij) per node


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
