#!/usr/bin/env python3
"""adfs-lab benchmark: set-up and solver wall time, and a traced per-module split.

Run from the repository root:

    python3 perfbench/run.py --workload fig4x4 --seed 0 --seconds 5 --trace 0

The program is imported from `src/` next to this directory and driven only
through its public entry points (`harness.load_config`/`build_instance`,
`baselines.reference_optimum`/`point_saga`, `adfs.run_*`).  With `--trace 0`
the run repeats the set-up, then repeats the workload's solver runs until
`--seconds` have passed, and reports medians.  With `--trace 1` it makes one
untraced and one traced pass (set-up plus solver runs) and reports the
per-module split of the traced one.  The last line of standard output is the
result as JSON; the line before it records the environment, every solver
run and every failed check.  Exit status 0 means every operation passed its
checks.
"""

import os
import sys

# one BLAS/OpenMP thread: a plain single-threaded baseline, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no caches in the checkout

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ADFS_FORMS, LOG_EVERY, REF_TOL, WORKLOADS, assess_reference, assess_run, check_pass,
    ideal_time, make_workload, write_libsvm_pool,
)
from yardstick import Pooled  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_program():
    src = ROOT / "src"
    if not (src / "adfs_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no adfs_lab package under {src}")
    sys.path.insert(0, str(src))
    import adfs_lab
    from adfs_lab import adfs, baselines, harness  # noqa: F401  (bound on the package)
    return adfs_lab


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Ledger:
    """Operations attempted and failed; an operation is one set-up or one
    solver run, and it fails if it raises or fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []

    def run(self, label, fn):
        """Time fn(); returns (op, result, seconds), result None if it raised."""
        op = self.attempted
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            self.check(op, [f"{label}: {type(exc).__name__}: {exc}"])
            return op, None, None
        return op, result, time.perf_counter() - start

    def check(self, op, problems):
        for msg in problems:
            self.failed_ops.add(op)
            self.messages.append(msg)
            print(f"perfbench: {msg}", file=sys.stderr)


@dataclass
class Instance:
    problem: object
    flat: object
    theta_ref: np.ndarray
    f_ref: float


class Bench:
    def __init__(self, lib, workload, data_path):
        self.lib = lib
        self.workload = workload
        self.ledger = Ledger()
        solves = workload.solves
        raw = dict(workload.config)
        if data_path is not None:
            raw["dataset"] = dict(raw["dataset"], path=str(data_path))
        raw.update(
            algorithms=[s.algo for s in solves],
            seeds=sorted({s.seed for s in solves}),
            iters={s.algo: s.iters for s in solves},
            log_every=LOG_EVERY,
        )
        self.raw_config = raw
        self.pooled = None
        self.f_star = None  # the benchmark's own optimum (smooth losses)
        self.yardstick = {}  # F* and the gradient norm certifying it
        self.setups = []  # per set-up: seconds and the reference's certified gap
        self.runs = []  # per solver run: the human-readable record
        self.traced = False  # whether the runs now made are traced

    def _set_up(self):
        harness, baselines = self.lib.harness, self.lib.baselines
        cfg = harness.load_config(self.raw_config)
        _, _, problem, flat, _ = harness.build_instance(cfg)
        if cfg.loss_kind.is_smooth:
            theta, f_ref = baselines.reference_optimum(flat, tol=REF_TOL)
        else:
            theta, f_ref = baselines.reference_optimum(flat, ns_problem=problem)
        return Instance(problem, flat, theta, f_ref)

    def set_up(self):
        """One timed set-up: build_instance plus reference_optimum."""
        op, inst, seconds = self.ledger.run("set-up", self._set_up)
        if inst is None:
            return None, None
        if self.pooled is None:  # the yardstick is computed once, untimed
            self.pooled = Pooled.from_flat(inst.flat)
            if self.workload.loss == "logistic":
                self.f_star, _, grad_norm = self.pooled.logistic_optimum()
                self.yardstick = {"f_star": self.f_star, "grad_norm": grad_norm}
        gap, problems = assess_reference(self.workload.loss, inst.f_ref, inst.theta_ref,
                                         self.pooled, self.f_star)
        self.ledger.check(op, problems)
        self.setups.append({"seconds": seconds, "traced": self.traced, "reference_gap": gap})
        return inst, seconds

    def _solve(self, inst, s):
        common = dict(log_every=LOG_EVERY, f_star=self.f_star, stop_at_subopt=s.stop_at_subopt)
        if s.algo == "point_saga":
            return self.lib.baselines.point_saga(inst.flat, s.iters, s.seed, **common)
        res = getattr(self.lib.adfs, "run_" + s.algo)(inst.problem, s.iters, s.seed, **common)
        return res.record, res.theta

    def solve_pass(self, inst):
        """Each solver run of the workload once; returns algo -> (seconds, iterations)."""
        out, records, last_op = {}, {}, None
        for s in self.workload.solves:
            op, result, seconds = self.ledger.run(f"{s.algo} seed {s.seed}",
                                                  lambda: self._solve(inst, s))
            if result is None:
                continue
            record, theta = result
            summary, problems = assess_run(s, record, theta, self.pooled, self.f_star,
                                           self.workload.loss)
            self.ledger.check(op, problems)
            self.runs.append({"algo": s.algo, "seed": s.seed, "traced": self.traced,
                              "wall_s": seconds, "iters": record.rows[-1].iteration,
                              "ideal_time": ideal_time(record), **summary})
            out[s.algo] = (seconds, record.rows[-1].iteration)
            records[s.algo], last_op = record, op
        if last_op is not None:
            self.ledger.check(last_op, check_pass(records))
        return out


def measure(bench, seconds):
    """End-to-end metrics: medians over repeated set-ups and solver passes."""
    setups, inst = [], None
    for _ in range(bench.workload.setup_repeats):
        built, elapsed = bench.set_up()
        if built is not None:
            inst = built
            setups.append(elapsed)
    if inst is None:
        return {}
    walls, iters = {}, {}
    deadline = time.perf_counter() + seconds
    while True:
        for algo, (wall, n) in bench.solve_pass(inst).items():
            walls.setdefault(algo, []).append(wall)
            iters[algo] = n
        if time.perf_counter() >= deadline:
            break
    if len(walls) != len(bench.workload.solves):
        return {}
    median = {algo: statistics.median(v) for algo, v in walls.items()}
    adfs_algos = [a for a in median if a in ADFS_FORMS]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (sum(median.values()), "s"),
        "adfs_iter_us": (1e6 * sum(median[a] for a in adfs_algos)
                         / sum(iters[a] for a in adfs_algos), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(bench):
    """Per-layer metrics of one traced pass, its overhead over an untraced
    pass of the same work, and the table of every span."""
    inst, setup_plain = bench.set_up()
    if inst is None:
        return {}, {}
    plain = bench.solve_pass(inst)
    tracer = Tracer()
    bench.traced = True
    with tracer.installed(bench.lib):
        inst, setup_traced = bench.set_up()
        if inst is None:
            return {}, {}
        tracer.phase = "solve"
        traced = bench.solve_pass(inst)
    if len(plain) != len(bench.workload.solves) or len(traced) != len(plain):
        return {}, {}
    solve_plain = sum(w for w, _ in plain.values())
    solve_traced = sum(w for w, _ in traced.values())
    total_plain = setup_plain + solve_plain
    metrics = tracer.metrics("solve", "adfs." + bench.workload.iter_form)
    metrics.update({
        # computed bytes of the two (n + V) x d float64 state matrices of a solver
        "adfs.state_mb": (2 * inst.problem.n_rows * inst.problem.d * 8 / 1e6, "MB"),
        "trace.overhead_frac": ((setup_traced + solve_traced - total_plain) / total_plain, "frac"),
        "trace.solve_overhead_frac": ((solve_traced - solve_plain) / solve_plain, "frac"),
    })
    return metrics, tracer.span_table()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    lib = load_program()
    workload = make_workload(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        data_path = None
        if workload.libsvm_rows:
            data_path = Path(workdir) / "pool.svm"
            write_libsvm_pool(data_path, workload.libsvm_rows, workload.libsvm_dim, args.seed)
        bench = Bench(lib, workload, data_path)
        if args.trace:
            metrics, spans = measure_traced(bench)
        else:
            metrics, spans = measure(bench, args.seconds), None

    ledger = bench.ledger
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": environment(), "yardstick": bench.yardstick, "setups": bench.setups,
              "runs": bench.runs, "failures": ledger.messages}
    if spans:
        record["spans"] = spans
    print(json.dumps(record))
    correct = bool(metrics) and not ledger.failed_ops
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
