"""The benchmark's workloads and the checks on the program's outputs.

A workload is a config for `harness.load_config`, a list of solver runs and
the number of set-ups a run repeats.  Everything is derived from the workload
seed: the solver seeds of every workload and, for `ns-libsvm`, the LibSVM
file itself.  The instances of `fig4x4` and `grid6x6` keep the data seed of
the figure-analogue experiment (2026), so their conditioning is the paper's.
"""

from dataclasses import dataclass

import numpy as np

TARGET = 1e-5  # suboptimality at which fig4x4 stops, as in the paper's experiment
REF_TOL = 3e-6  # gradient tolerance of the program's logistic reference (harness default)
LOG_EVERY = 200
REPLAY_RTOL = 1e-9
ADFS_FORMS = ("adfs", "adfs_efficient", "ns_adfs")


@dataclass(frozen=True)
class Solve:
    algo: str
    iters: int
    seed: int
    stop_at_subopt: float = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup_repeats: int
    iter_form: str  # ADFS form whose per-iteration distribution is traced
    solves: tuple
    config: dict
    libsvm_rows: int = 0  # > 0: the benchmark writes the dataset as a LibSVM file
    libsvm_dim: int = 0

    @property
    def loss(self):
        return self.config["loss"]


def _synthetic(rows, cols, m, d):
    return {
        "topology": {"kind": "grid2d", "rows": rows, "cols": cols},
        "loss": "logistic",
        "m": m,
        "dataset": {"kind": "synthetic", "d": d, "correlation": 0.3, "seed": 2026},
        "sigma": 1.0,
        "tau": 5.0,
    }


def make_workload(name, seed):
    """The named workload for workload seed `seed` (>= 0)."""
    if name == "fig4x4":
        return Workload(
            name, setup_repeats=3, iter_form="adfs_efficient",
            solves=(Solve("adfs", 60_000, seed, TARGET),
                    Solve("adfs_efficient", 60_000, seed, TARGET),
                    Solve("point_saga", 600_000, seed, TARGET)),
            config=_synthetic(4, 4, 200, 20),
        )
    if name == "grid6x6":
        return Workload(
            name, setup_repeats=2, iter_form="adfs_efficient",
            solves=(Solve("adfs_efficient", 1_000, seed), Solve("adfs", 1_000, seed)),
            config=_synthetic(6, 6, 200, 40),
        )
    if name == "ns-libsvm":
        return Workload(
            # solver seeds 0-2 belong to the program's absolute-loss reference
            name, setup_repeats=2, iter_form="ns_adfs",
            solves=(Solve("ns_adfs", 20_000, seed + 3),),
            config={
                "topology": {"kind": "grid2d", "rows": 3, "cols": 3},
                "loss": "absolute",
                "m": 50,
                "dataset": {"kind": "libsvm", "path": None, "seed": seed},
                "sigma": 1.0,
                "tau": 1.0,
            },
            libsvm_rows=4_000, libsvm_dim=10,
        )
    raise KeyError(name)


WORKLOADS = ("fig4x4", "grid6x6", "ns-libsvm")


def write_libsvm_pool(path, rows, dim, seed):
    """Sparse regression pool in LibSVM text: about half the features of a
    row are non-zero (never none), labels are a planted linear model plus
    noise.  Written here rather than by `harness.write_libsvm`, so that the
    input does not change with the program under test."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0x11B5])))
    theta = rng.normal(size=dim) / np.sqrt(dim)
    feats = rng.normal(size=(rows, dim)) * (rng.random((rows, dim)) < 0.5)
    empty = ~feats.any(axis=1)
    feats[empty, rng.integers(dim, size=int(empty.sum()))] = 1.0
    labels = feats @ theta + 0.1 * rng.normal(size=rows)
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(feats.tolist(), labels.tolist()):
            pairs = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(x) if v != 0.0)
            fh.write(f"{y!r} {pairs}\n")


# ---------------------------------------------------------------------------
# checks; each returns a list of failure messages


def assess_reference(loss, f_ref, theta_ref, pooled, f_star):
    """The program's reference against the benchmark's yardstick.

    Returns (gap, problems).  Logistic loss: the gap is the reference value
    above F*, at most tol^2 sigma_total / 2.  Absolute loss: the reference is
    a dual value, and the gap is its distance to the primal value at the
    returned point, which weak duality keeps >= 0.
    """
    if loss == "logistic":
        gap = f_ref - f_star
    else:
        gap = f_ref + pooled.value(loss, theta_ref)
    slack = pooled.allowance(loss, theta_ref)
    if not np.isfinite(gap):
        return gap, [f"reference value is {f_ref}"]
    if gap < -slack:
        return gap, [f"reference value below the optimum by {-gap:.3e}"]
    if loss == "logistic" and gap > REF_TOL**2 * pooled.sigma / 2.0 + slack:
        return gap, [f"reference value above the optimum by {gap:.3e}, beyond its "
                     f"certified {REF_TOL**2 * pooled.sigma / 2.0:.3e}"]
    return gap, []


def assess_run(solve, record, theta, pooled, f_star, loss):
    """Checks on one solver run; f_star is the benchmark's own optimum.

    Returns (summary, problems): the final gap to F*, or for the non-smooth
    solver the final dual value and its gap to the primal value at theta.
    """
    rows = record.rows
    values = np.array([r.objective for r in rows])
    slack = pooled.allowance(loss, theta)
    if solve.algo == "ns_adfs":
        summary = {"final_dual": values[-1],
                   "duality_gap": values[-1] + pooled.value(loss, theta)}
    else:
        summary = {"final_gap": values[-1] - f_star}
    if not np.all(np.isfinite(values)):
        return summary, [f"{solve.algo}: non-finite objective logged"]
    if not values[-1] < values[0]:
        return summary, [f"{solve.algo}: no progress from the initial point"]
    if solve.algo == "ns_adfs":
        if summary["duality_gap"] < -slack:
            return summary, [f"ns_adfs: final dual breaks weak duality by "
                             f"{-summary['duality_gap']:.3e}"]
        return summary, []
    if values.min() - f_star < -slack:
        return summary, [f"{solve.algo}: objective {values.min() - f_star:.3e} below the optimum"]
    if solve.stop_at_subopt is not None and not summary["final_gap"] <= solve.stop_at_subopt:
        return summary, [f"{solve.algo}: target {solve.stop_at_subopt:g} not reached "
                         f"in {solve.iters} iterations"]
    return summary, []


def check_pass(results):
    """Checks across the runs of one pass: `results` maps algo -> record.

    Replay: the reference and efficient forms from one seed replay the same
    block sequence, so they must log the same idealized times and objectives.
    Paper claim: ADFS reaches the target before Point-SAGA in idealized time.
    """
    problems = []
    ref, eff = results.get("adfs"), results.get("adfs_efficient")
    if ref is not None and eff is not None:
        a = [(r.iteration, r.time, r.objective) for r in ref.rows]
        b = [(r.iteration, r.time, r.objective) for r in eff.rows]
        same = len(a) == len(b) and all(
            ia == ib and ta == tb and abs(oa - ob) <= REPLAY_RTOL * max(abs(oa), abs(ob))
            for (ia, ta, oa), (ib, tb, ob) in zip(a, b))
        if not same:
            problems.append("replay: adfs and adfs_efficient logs differ")
    saga = results.get("point_saga")
    if ref is not None and saga is not None:
        t_adfs, t_saga = ideal_time(ref), ideal_time(saga)
        if not t_adfs < t_saga:
            problems.append(f"adfs idealized time {t_adfs} is not below point_saga's {t_saga}")
    return problems


def ideal_time(record):
    """Idealized clock at the end of the run (the first log point at target
    for runs that stop there)."""
    return record.rows[-1].time
