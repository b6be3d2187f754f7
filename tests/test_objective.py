import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adfs_lab.objective as objective
from adfs_lab.augmented import build_augmented
from adfs_lab.objective import (
    LocalObjective,
    LOSSES,
    LossKind,
    condition_numbers,
    loss_conjugate,
    loss_curvature,
    loss_grad,
    loss_value,
    primal_grad,
    primal_value,
    prox_sample,
)
from adfs_lab.rng import generator
from adfs_lab.topology import build_topology
from oracles import (
    conjugate_by_maximization,
    coordinate_search,
    golden_section,
    logistic_prox_oracle,
    loss_prox_1d,
    prox_tilde_fstar,
)

ALL_KINDS = [LossKind.LOGISTIC, LossKind.SQUARED, LossKind.ABSOLUTE]
SMOOTH_KINDS = [LossKind.LOGISTIC, LossKind.SQUARED]


def _label_for(kind, rng):
    return 1.0 if kind is not LossKind.SQUARED and rng.random() < 0.5 else (
        -1.0 if kind is LossKind.LOGISTIC else float(rng.normal())
    )


class TestProx1d:
    def test_squared_closed_form(self):
        assert loss_prox_1d(LossKind.SQUARED, 0.0, 1.0, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tiny_step_is_identity(self, kind):
        z = 0.7
        out = loss_prox_1d(kind, z, 1.0, 1e-12)
        assert abs(out - z) <= 1e-6

    def test_logistic_vs_oracle(self):
        rng = generator("prox-golden", 0)
        for _ in range(25):
            z = float(rng.normal() * 3)
            label = 1.0 if rng.random() < 0.5 else -1.0
            step = float(np.exp(rng.uniform(-2, 3)))
            got = loss_prox_1d(LossKind.LOGISTIC, z, label, step)
            ref = logistic_prox_oracle(z, label, step)
            assert abs(got - ref) <= 1e-8

    def test_spec_point_logistic(self):
        got = loss_prox_1d(LossKind.LOGISTIC, 1.0, 1.0, 2.0)
        ref = logistic_prox_oracle(1.0, 1.0, 2.0)
        assert abs(got - ref) <= 1e-8

    def test_absolute_soft_threshold(self):
        assert loss_prox_1d(LossKind.ABSOLUTE, 3.0, 1.0, 0.5) == pytest.approx(2.5)
        assert loss_prox_1d(LossKind.ABSOLUTE, 1.2, 1.0, 0.5) == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            loss_prox_1d(LossKind.SQUARED, np.nan, 0.0, 1.0)

    @pytest.mark.parametrize("z, label, step", [
        (0.0, 1.0, 1e3),
        (3.0, -1.0, 200.0),
        (0.5, 1.0, 1e4),
    ])
    def test_logistic_bisection_fallback(self, monkeypatch, z, label, step):
        # Newton, cut to 3 steps, exhausts its budget on these large steps, so
        # the fallback's bisection sets the result: with its steps removed
        # (midpoint and polish only) the kernel misses the minimizer
        monkeypatch.setattr(objective, "NEWTON_ITERS", 3)
        ref = logistic_prox_oracle(z, label, step)
        assert abs(loss_prox_1d(LossKind.LOGISTIC, z, label, step) - ref) <= 1e-8
        monkeypatch.setattr(objective, "BISECTION_STEPS", 0)
        assert abs(loss_prox_1d(LossKind.LOGISTIC, z, label, step) - ref) > 1e-3

    @pytest.mark.parametrize("b", [1.6e308, -1.6e308])
    def test_logistic_bisection_midpoint_does_not_overflow(self, monkeypatch, b):
        # with no Newton step every element ends in the fallback, whose
        # bracket (b -+ 1) / c4 lies next to the float max, where lo + hi
        # overflows; Newton from the bracket start returns the same
        assert objective._logistic_prox_r((b,), (0.95,)) == [b / 0.95]
        monkeypatch.setattr(objective, "NEWTON_ITERS", 0)
        assert objective._logistic_prox_r((b,), (0.95,)) == [b / 0.95]

    @pytest.mark.parametrize("z", [800.0, -800.0])
    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_logistic_extreme_input_does_not_overflow(self, z, label):
        got = loss_prox_1d(LossKind.LOGISTIC, z, label, 1.0)
        assert abs(got - logistic_prox_oracle(z, label, 1.0)) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_firm_nonexpansiveness(self, seed):
        rng = generator("nonexpansive", seed)
        kind = ALL_KINDS[int(rng.integers(3))]
        label = _label_for(kind, rng)
        step = float(np.exp(rng.uniform(-2, 2)))
        a, b = rng.normal(size=2) * 3
        pa = loss_prox_1d(kind, a, label, step)
        pb = loss_prox_1d(kind, b, label, step)
        assert abs(pa - pb) <= abs(a - b) + 1e-9


# Point-SAGA's prox steps lie in [2e-119, 6e94] (README, numeric domain);
# the rounds' c4 = eta~ / (L - eta~) lies in [4e-89, 127], so their steps
# 4 / c4 in [4 / 127, 1e89]
STEP_RANGES = ((2e-119, 6e94), (4.0 / 127.0, 4.0 / 4e-89))
# the two logistic prox kernels, the loop kernel on float lists, which every
# other logistic prox calls, and the rounds' batch kernel on arrays, each
# with the entry that takes the elements its Newton steps miss
R_KERNELS = ("_logistic_prox_r", "_logistic_prox_r_batch")
REDO = {"_logistic_prox_r": "_logistic_prox_r_fallback",
        "_logistic_prox_r_batch": "_logistic_prox_r"}


def _r_kernel(kernel, b, c4):
    """Kernel `kernel` on equal-length float arrays, as an array."""
    if kernel == "_logistic_prox_r":
        return np.array(objective._logistic_prox_r(b.tolist(), c4.tolist()))
    return getattr(objective, kernel)(b, c4)


def _r_form(kernel, z, label, step):
    """A r-form kernel on p-form inputs, as p: b = 2 label z / step + 1,
    c4 = 4 / step and p = 2 label r."""
    return 2.0 * label * _r_kernel(kernel, 2.0 * label * z / step + 1.0, 4.0 / step)


class TestLogisticProxOracle:
    """Both kernels through Newton and through the fallback alone
    (NEWTON_ITERS = 0), against the 40-digit oracle over both solvers' step
    ranges, within 1e-13 (|p*| + step): b = 2 label z / step + 1 carries the
    rounding of z, |z| <= |p*| + step.  An absolute Newton stop meets this
    relative bound at every step because Newton starts inside the root's
    bracket, which is narrower than the stop's reach at the smallest steps."""

    @staticmethod
    def _check(z, label, step):
        ref = logistic_prox_oracle(z, label, step)
        c4 = 4.0 / step
        b = 0.5 * label * c4 * z + 1.0
        lo, hi = (b - 1.0) / c4, (b + 1.0) / c4
        slack = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))  # the ends' rounding
        for kernel in R_KERNELS:
            for newton_iters in (objective.NEWTON_ITERS, 0):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(objective, "NEWTON_ITERS", newton_iters)
                    r = float(_r_kernel(kernel, np.array([b]), np.array([c4]))[0])
                case = (kernel, newton_iters)
                assert abs(2.0 * label * r - ref) <= 1e-13 * (abs(ref) + step), case
                assert lo - slack <= r <= hi + slack, case

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(STEP_RANGES).flatmap(
               lambda ends: st.floats(*np.log10(ends).tolist())),
           st.just(0.0) | st.floats(-10.0, 10.0), st.sampled_from([1.0, -1.0]))
    # the ends of both step ranges at the largest |z|, where the start's
    # bracket ends (b -+ 1) / c4 are largest
    @example(float(np.log10(STEP_RANGES[0][0])), -10.0, 1.0)
    @example(float(np.log10(STEP_RANGES[0][1])), 10.0, -1.0)
    @example(float(np.log10(STEP_RANGES[1][0])), 10.0, 1.0)
    @example(float(np.log10(STEP_RANGES[1][1])), -10.0, -1.0)
    def test_matches_the_oracle_inside_the_bracket(self, log_step, u, label):
        step = 10.0**log_step
        self._check(u * (1.0 + step), label, step)

    @pytest.mark.parametrize("batch_steps", [objective.BATCH_STEPS, 1])
    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_tiny_step_keeps_its_whole_move(self, monkeypatch, label, batch_steps):
        # p* = 5e-75 label lies far inside the absolute stop NEWTON_TOL, and
        # the root's bracket is 5e-75 wide: a start outside it lands next to
        # 0 and stops there, while the start inside keeps the whole move,
        # through the loop kernel's test or the batch kernel's after one step
        monkeypatch.setattr(objective, "BATCH_STEPS", batch_steps)
        self._check(0.0, label, 1e-74)


def _scalar_prox(z, label, step):
    """The loop kernel one element per call (`loss_prox_1d`), on p-form
    inputs, as p."""
    return np.array([loss_prox_1d(LossKind.LOGISTIC, *args) for args in
                     zip(z.tolist(), label.tolist(), step.tolist())])


def _prox_inputs(rng, size, oracle=True):
    """(z, label, step, ref): random inputs and the minimizers, from the
    oracle or else from the loop kernel one element per call."""
    z = rng.normal(size=size) * 5.0
    label = np.where(rng.random(size) < 0.5, 1.0, -1.0)
    step = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), size))
    ref = (np.array([logistic_prox_oracle(*args)
                     for args in zip(z.tolist(), label.tolist(), step.tolist())])
           if oracle else _scalar_prox(z, label, step))
    return z, label, step, ref


class TestLogisticProxBatch:
    """The rounds' logistic prox, loop and batch kernel, against the loop
    kernel one element per call and the high-precision oracle, within
    1e-12 (1 + |p|)."""

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        fn = getattr(objective, name)

        def spy(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(objective, name, spy)
        return calls

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_scalar_and_oracle(self, seed):
        rng = generator("prox-batch", seed)
        z, label, step, ref = _prox_inputs(rng, objective.BATCH_MIN)
        tol = 1e-12 * (1.0 + np.abs(ref))
        scalar = _scalar_prox(z, label, step)
        for kernel in R_KERNELS:
            got = _r_form(kernel, z, label, step)
            assert np.all(np.abs(got - ref) <= tol), kernel
            assert np.all(np.abs(got - scalar) <= tol), kernel

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2 * objective.BATCH_MIN))
    def test_loop_and_batch_kernels_agree(self, seed, size):
        z, label, step, ref = _prox_inputs(generator("prox-kernels", seed), size, oracle=False)
        loop, batch = (_r_form(kernel, z, label, step) for kernel in R_KERNELS)
        assert np.all(np.abs(loop - batch) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_unconverged_elements_are_redone(self, monkeypatch):
        # the kernels' Newton steps (BATCH_STEPS, or NEWTON_ITERS for the
        # loop), cut to 4, leave the larger steps' elements short of
        # NEWTON_TOL: from the bracket start these take up to 10 steps
        size = objective.BATCH_MIN
        z = np.linspace(-2.0, 2.0, size)
        label = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
        step = np.geomspace(1e-3, 1e4, size)
        ref = np.array([logistic_prox_oracle(*args)
                        for args in zip(z.tolist(), label.tolist(), step.tolist())])
        monkeypatch.setattr(objective, "BATCH_STEPS", 4)
        monkeypatch.setattr(objective, "NEWTON_ITERS", 4)
        for kernel in R_KERNELS:
            with monkeypatch.context() as patch:
                redo = self._spy(patch, REDO[kernel])
                got = _r_form(kernel, z, label, step)
            redone = sum(np.size(args[0]) for args in redo)  # the batch kernel's in one call
            assert 0 < redone < size, kernel
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), kernel

    def test_extreme_input_does_not_overflow(self, monkeypatch):
        # z = 1e307: the start, cut into the root's bracket, is the root
        # r = 5e306, and no Newton iterate overflows c4 r (a RuntimeWarning
        # fails the test); Newton's step of 1/4 lies below the ulp of r and
        # never meets the absolute stop, so the element ends in the fallback,
        # handed there by the loop kernel or by the batch kernel's redo
        size = objective.BATCH_MIN
        z, label, step = np.full(size, 0.5), np.ones(size), np.ones(size)
        z[3] = 1e307
        ref = logistic_prox_oracle(0.5, 1.0, 1.0)
        fallback = self._spy(monkeypatch, "_logistic_prox_r_fallback")
        for kernel in R_KERNELS:
            fallback.clear()
            got = _r_form(kernel, z, label, step)
            assert fallback == [(2e307, 4.0)], kernel  # b = 2 z / step + 1, c4 = 4 / step
            assert got[3] == 1e307, kernel  # z + step sig with sig = 0 in float
            assert np.all(np.abs(np.delete(got, 3) - ref) <= 1e-12 * (1.0 + abs(ref))), kernel

    def test_small_batches_keep_the_loop_kernel(self, monkeypatch):
        batch = self._spy(monkeypatch, "_logistic_prox_r_batch")
        loop = self._spy(monkeypatch, "_logistic_prox_r")
        for size in (objective.BATCH_MIN - 1, objective.BATCH_MIN):
            c_x, ones = np.linspace(-1.0, 1.0, size), np.ones(size)
            objective._tilde_coeff_batch(LossKind.LOGISTIC, c_x, ones, ones, ones, ones, ones)
        assert [args[0].size for args in batch] == [objective.BATCH_MIN]
        assert [len(args[0]) for args in loop] == [objective.BATCH_MIN - 1]


class TestMoreauIdentity:
    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_prox_pair_reconstructs_input(self, kind):
        # prox_(eta f)(x) + eta prox_(f*/eta)(x/eta) = x, with the conjugate
        # prox evaluated by direct numerical minimization of its objective
        rng = generator("moreau", 1)
        for _ in range(6):
            x = float(rng.normal() * 2)
            label = 1.0 if kind is LossKind.LOGISTIC else float(rng.normal())
            eta = float(np.exp(rng.uniform(-1, 1)))
            p_primal = loss_prox_1d(kind, x, label, eta)

            def conj(v):
                return conjugate_by_maximization(
                    lambda z: float(loss_value(kind, z, label)), v
                )

            def dual_obj(v):
                return (v - x / eta) ** 2 * eta / 2 + conj(v)

            lo, hi = (-1.0, 1.0) if kind is LossKind.LOGISTIC else (-30.0, 30.0)
            p_dual = golden_section(dual_obj, lo, hi, tol=1e-11)
            assert abs(p_primal + eta * p_dual - x) <= 1e-8 * max(1.0, abs(x))


class TestProxSample:
    def test_hand_example(self):
        out = prox_sample(np.array([1.0, 0.0]), 0.0, LossKind.SQUARED, np.array([2.0, 3.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 3.0], atol=1e-12)

    def test_tiny_eta_identity(self, rng):
        x = rng.normal(size=3)
        v = rng.normal(size=3)
        out = prox_sample(x, 1.0, LossKind.LOGISTIC, v, 1e-12)
        assert np.max(np.abs(out - v)) <= 1e-6

    @pytest.mark.parametrize("eta", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_matches_coordinate_search(self, kind, eta):
        rng = generator("prox-brute", kind.name, eta)
        x, label = rng.normal(size=2), 1.0 if kind is LossKind.LOGISTIC else 0.3
        v = rng.normal(size=2)

        def objective(u):
            return float(np.sum((u - v) ** 2)) / (2 * eta) + float(
                loss_value(kind, float(x @ u), label)
            )

        ref = coordinate_search(objective, v, radius=3.0, passes=2000, min_step=1e-10)
        got = prox_sample(x, label, kind, v, eta)
        assert np.max(np.abs(got - ref)) <= 1e-6

    def test_non_smooth_loss_rejected(self):
        with pytest.raises(ValueError, match="smooth loss"):
            prox_sample(np.array([1.0, 0.0]), 0.0, LossKind.ABSOLUTE, np.array([2.0, 3.0]), 1.0)

    def test_move_parallel_to_feature(self, rng):
        for _ in range(20):
            x = rng.normal(size=4)
            v = rng.normal(size=4)
            move = prox_sample(x, 1.0, LossKind.LOGISTIC, v, 1.0) - v
            if np.linalg.norm(move) < 1e-14:
                continue
            cos = abs(move @ x) / (np.linalg.norm(move) * np.linalg.norm(x))
            assert 1.0 - cos <= 1e-10

    @pytest.mark.parametrize("labels, row", [([1.0, 2.0, -1.0], 1), ([0.0, 1.0, 1.0], 0),
                                             ([1.0, -1.0, -0.5], 2)])
    def test_logistic_label_other_than_unit_rejected(self, labels, row):
        with pytest.raises(ValueError, match=rf"logistic label in row {row} is "):
            LocalObjective(np.ones((3, 2)), labels, 1.0, LossKind.LOGISTIC)

    def test_non_unit_labels_accepted_for_other_losses(self):
        for kind in (LossKind.SQUARED, LossKind.ABSOLUTE):
            obj = LocalObjective(np.ones((2, 2)), [2.0, -0.5], 1.0, kind)
            assert obj.labels.tolist() == [2.0, -0.5]

    def test_zero_feature_rejected(self):
        def local(feats, labels):
            return LocalObjective(feats, labels, 1.0, LossKind.LOGISTIC)

        with pytest.raises(ValueError, match="zero feature"):
            local(np.zeros((1, 3)), [1.0])
        with pytest.raises(ValueError, match="zero feature vector in row 2"):
            local(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]), [1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="one label per feature row"):
            local(np.ones((3, 2)), [1.0, -1.0])
        with pytest.raises(ValueError, match=r"\(m, d\) matrix"):
            local(np.ones(3), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"\(m, d\) matrix"):
            local(np.ones((0, 3)), [])
        with pytest.raises(ValueError, match="non-finite"):
            local(np.array([[1.0, np.nan]]), [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            local(np.ones((1, 2)), [np.inf])
        with pytest.raises(ValueError, match="share the feature dimension"):
            build_augmented(build_topology("complete", n=2),
                            [local(np.ones((2, 2)), [1.0, -1.0]),
                             local(np.ones((2, 3)), [1.0, -1.0])], tau=1.0)

    def test_overflowing_norm_sum_rejected_for_smooth_losses(self):
        # each row's squared norm is 1e308, and two of them summed past the
        # float range, which bounds the Gram matrix, lambda_max and kappa_i;
        # the rows' norms lie outside the range, so every loss rejects them,
        # without a warning, as it does a row whose squared norm overflows or
        # underflows, naming the row's norm
        feats = np.full((2, 1), 1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in LOSSES.values():
                with pytest.raises(ValueError, match=r"^norm of feature row 0 is 1e\+154, outside"):
                    LocalObjective(feats, [1.0, -1.0], 1.0, kind)
                with pytest.raises(ValueError, match=r"^norm of feature row 1 is 1e\+300, outside"):
                    LocalObjective(np.array([[1.0], [1e300]]), [1.0, -1.0], 1.0, kind)
                with pytest.raises(ValueError, match=r"^norm of feature row 0 is 1e-170, outside"):
                    LocalObjective(np.array([[1e-170, 0.0], [1.0, 1.0]]), [1.0, -1.0], 1.0, kind)


class TestProxTildeFstar:
    def test_tiny_step_identity(self, rng):
        # x must lie inside the conjugate domain (slope coefficients -label*c
        # in [0,1] for the logistic loss), else the prox projects instead
        feat, label = rng.normal(size=3), 1.0
        x = -0.3 * label * feat
        out = prox_tilde_fstar(feat, label, LossKind.LOGISTIC, x, 1e-12)
        assert np.max(np.abs(out - x)) <= 1e-6

    def test_squared_loss_analytic(self, rng):
        # for squared loss ftilde*(s X) = label * s, so the prox shifts the
        # coefficient by eta~ * label / ||X||^2
        for _ in range(10):
            feat, label = rng.normal(size=3), float(rng.normal())
            smooth = float(feat @ feat)  # L_g = 1
            c = float(rng.normal())
            x = c * feat
            eta_t = float(rng.uniform(0.05, 0.95)) * smooth
            got = prox_tilde_fstar(feat, label, LossKind.SQUARED, x, eta_t)
            expected = (c - eta_t * label / smooth) * feat
            assert np.max(np.abs(got - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))

    def test_logistic_vs_nested_oracle(self):
        # minimize (1/2 eta~)||cX - x||^2 + f*(cX) - ||cX||^2/(2L) over the
        # span coefficient c, with f*(cX) = sup_z (c z - g(z)) found numerically
        rng = generator("tilde-oracle", 7)
        for _ in range(5):
            feat, label = rng.normal(size=2) * 2, 1.0 if rng.random() < 0.5 else -1.0
            xnorm2 = float(feat @ feat)
            smooth = 0.25 * xnorm2
            c = float(rng.normal() * 0.1)
            x = c * feat
            eta_t = smooth / 4.0
            got = prox_tilde_fstar(feat, label, LossKind.LOGISTIC, x, eta_t)

            def g(z):
                return float(loss_value(LossKind.LOGISTIC, z, label))

            def objective(coef):
                fstar = conjugate_by_maximization(g, coef, lo=-200.0, hi=200.0)
                return (
                    (coef - c) ** 2 * xnorm2 / (2 * eta_t)
                    + fstar
                    - coef**2 * xnorm2 / (2 * smooth)
                )

            # conjugate domain: -label * coef in [0, 1]
            lo, hi = sorted((0.0, -label))
            width = hi - lo
            best = golden_section(
                objective, lo + 1e-6 * width, hi - 1e-6 * width, tol=1e-11
            )
            assert abs(float(feat @ got) / xnorm2 - best) <= 1e-6

    def test_step_above_smoothness_rejected(self, rng):
        feat = rng.normal(size=2)
        smooth = 0.25 * float(feat @ feat)
        with pytest.raises(ValueError, match="identity breaks"):
            prox_tilde_fstar(feat, 1.0, LossKind.LOGISTIC, 0.1 * feat, 1.5 * smooth)

    def test_off_span_rejected(self, rng):
        with pytest.raises(ValueError, match="outside the span"):
            prox_tilde_fstar(np.array([1.0, 0.0]), 1.0, LossKind.LOGISTIC,
                             np.array([0.5, 0.3]), 0.1)

    def test_boundary_step_uses_gradient_form(self, rng):
        # at eta~ = L the prox limit equals grad f at x / L
        feat, label = rng.normal(size=3), 1.0
        smooth = 0.25 * float(feat @ feat)
        x = 0.2 * feat
        got = prox_tilde_fstar(feat, label, LossKind.LOGISTIC, x, smooth)
        z = float(feat @ x) / smooth
        expected = float(loss_grad(LossKind.LOGISTIC, z, label)) * feat
        assert np.max(np.abs(got - expected)) <= 1e-10


class TestConjugates:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_closed_forms_match_numeric_sup(self, kind):
        # on a grid inside each record's conjugate domain
        rng = generator("conj", 3)
        for _ in range(4):
            label = _label_for(kind, rng)
            lo, hi, along_label = kind.conjugate_domain
            lo, hi = max(lo, -3.0), min(hi, 3.0)
            grid = (lo + (hi - lo) * np.linspace(0.05, 0.95, 7)) * (label if along_label else 1.0)
            for s in grid.tolist():
                got = loss_conjugate(kind, s, label)
                ref = conjugate_by_maximization(
                    lambda z: float(loss_value(kind, z, label)), s, lo=-200.0, hi=200.0
                )
                assert abs(got - ref) <= 1e-6 * max(1.0, abs(got))

    def test_domain_boundaries(self):
        assert np.isinf(loss_conjugate(LossKind.ABSOLUTE, 1.5, 0.0))
        assert loss_conjugate(LossKind.ABSOLUTE, 0.5, 2.0) == pytest.approx(1.0)
        assert np.isinf(loss_conjugate(LossKind.LOGISTIC, 0.5, 1.0))
        assert loss_conjugate(LossKind.LOGISTIC, -1.0, 1.0) == pytest.approx(0.0)
        assert loss_conjugate(LossKind.LOGISTIC, 0.0, 1.0) == pytest.approx(0.0)
        # within DOMAIN_TOL of the domain, the value at the nearest point of it
        assert loss_conjugate(LossKind.ABSOLUTE, -1.0 - 5e-7, 2.0) == -2.0
        assert np.isinf(loss_conjugate(LossKind.ABSOLUTE, 1.0 + 2e-6, 2.0))
        assert loss_conjugate(LossKind.LOGISTIC, 5e-7, 1.0) == 0.0
        assert loss_conjugate(LossKind.LOGISTIC, 1.0 + 5e-7, -1.0) == 0.0
        assert np.isinf(loss_conjugate(LossKind.LOGISTIC, -2e-6, -1.0))


class TestConditionNumbers:
    def test_single_sample_equality(self, rng):
        feat = rng.normal(size=3)
        obj = LocalObjective(feat[None, :], [1.0], 2.0, LossKind.LOGISTIC)
        rep = condition_numbers([obj])
        smooth = 0.25 * float(feat @ feat)
        assert rep.kappa_i[0] == pytest.approx(1 + smooth / 2.0)
        assert rep.kappa_b[0] == pytest.approx(rep.kappa_i[0])

    def test_orthogonal_samples(self):
        # orthonormal features with equal smoothness: kappa_i = 1 + m L / sigma
        # while kappa_b = 1 + L / sigma (sum of projectors has lambda_max = L)
        m, sigma = 4, 0.5
        obj = LocalObjective(2.0 * np.eye(m), np.ones(m), sigma, LossKind.SQUARED)
        rep = condition_numbers([obj])
        smooth = 4.0
        assert rep.kappa_i[0] == pytest.approx(1 + m * smooth / sigma)
        assert rep.kappa_b[0] == pytest.approx(1 + smooth / sigma)

    def test_sandwich_inequality(self):
        for seed in range(20):
            rng = generator("cond", seed)
            m = int(rng.integers(1, 6))
            feats = np.array([rng.normal(size=3) for _ in range(m)])
            obj = LocalObjective(feats, np.ones(m), float(rng.uniform(0.2, 3.0)),
                                 LossKind.LOGISTIC)
            # the stored row norms equal the per-row dot product bit for bit
            assert obj.xnorm2.tolist() == [float(x @ x) for x in feats]
            rep = condition_numbers([obj])
            assert (m + 1) * rep.kappa_b[0] >= rep.kappa_i[0] - 1e-9
            assert rep.kappa_i[0] >= rep.kappa_b[0] - 1e-9

    def test_nonsmooth_rejected(self, rng):
        obj = LocalObjective(rng.normal(size=2)[None, :], [0.0], 1.0, LossKind.ABSOLUTE)
        with pytest.raises(ValueError, match="undefined"):
            condition_numbers([obj])


class TestPrimalOracles:
    def _objectives(self, rng, n=2, m=3, d=3, kind=LossKind.LOGISTIC):
        out = []
        for _ in range(n):
            feats, labels = zip(*[(rng.normal(size=d), _label_for(kind, rng))
                                  for _ in range(m)])
            out.append(LocalObjective(np.array(feats), np.array(labels), 1.0, kind))
        return out

    def test_logistic_value_at_zero(self, rng):
        objs = self._objectives(rng, n=3, m=4)
        assert primal_value(objs, np.zeros(3)) == pytest.approx(3 * 4 * np.log(2))

    def test_grad_matches_finite_differences(self, rng):
        objs = self._objectives(rng)
        theta = rng.normal(size=3)
        g = primal_grad(objs, theta)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (primal_value(objs, theta + e) - primal_value(objs, theta - e)) / (2 * h)
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(g[i]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradient_matches_finite_differences(self, kind, rng):
        z = 3.0 * rng.normal(size=20)
        labels = np.array([_label_for(kind, rng) for _ in range(20)])
        if not kind.is_smooth:
            with pytest.raises(ValueError, match="no gradient"):
                loss_grad(kind, z, labels)
            return
        h = 1e-6
        fd = (loss_value(kind, z + h, labels) - loss_value(kind, z - h, labels)) / (2 * h)
        assert np.max(np.abs(loss_grad(kind, z, labels) - fd)) <= 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_curvature_matches_finite_differences(self, kind, rng):
        z = 3.0 * rng.normal(size=20)
        labels = np.array([_label_for(kind, rng) for _ in range(20)])
        if not kind.is_smooth:
            with pytest.raises(ValueError, match="no curvature"):
                loss_curvature(kind, z, labels)
            return
        h = 1e-6
        fd = (loss_grad(kind, z + h, labels) - loss_grad(kind, z - h, labels)) / (2 * h)
        assert np.max(np.abs(loss_curvature(kind, z, labels) - fd)) <= 1e-8

    def test_squared_minimizer_matches_normal_equations(self, rng):
        objs = self._objectives(rng, n=1, m=5, kind=LossKind.SQUARED)
        feats = objs[0].feature_matrix
        labels = objs[0].labels
        theta = np.linalg.solve(feats.T @ feats + np.eye(3), feats.T @ labels)
        g = primal_grad(objs, theta)
        assert np.max(np.abs(g)) <= 1e-8
