#!/usr/bin/env python3
"""A/B timing of two adfs_lab source trees in one process.

    python scripts/ab_time.py OLD_SRC NEW_SRC CONFIG.json [--reps N]

OLD_SRC and NEW_SRC are directories that each hold an `adfs_lab` package
(a checkout's `src`).  Both are imported into this process under distinct
package names, and each builds the instance of the `adfs-lab run` config
CONFIG.json and its reference optimum (`harness.certify`) --reps times, the
two sides alternating (old first on even repetitions, new first on odd
ones); a `setup` row prints the median process CPU time of each side's
`load_config`, `build_instance` and `certify` and the change.  Then every
(algorithm, seed) cell of the config runs --reps times on each side,
alternating in the same way, and the script prints the median process CPU
time of each side per cell, the change, the last logged iteration of each
side and whether they match.  A last row per seed sums the medians over
the algorithms.

Separate benchmark processes on a small shared host spread widely from run
to run; two trees timed in one process share its state and its neighbours,
so they spread less, but not to nothing.  On the one-cell absolute-loss
pcomm_sweep config at --reps 10, one tree on both sides read +6.8 %, and two
trees whose solver code was the same read -0.6 % to +8.2 %: only a
difference wider than that spread resolves.
"""

import os
import sys

# one BLAS thread on both sides, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402


def load_tree(src, name):
    """The `adfs_lab` package under `src`, imported as package `name`."""
    pkg = os.path.join(os.path.abspath(src), "adfs_lab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    if spec is None or not os.path.isfile(spec.origin):
        sys.exit(f"ab_time: no adfs_lab package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports resolve through it
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.harness")
    return module


class Side:
    """One source tree; `setup` builds its instance of a config."""

    def __init__(self, src, name):
        self.harness = load_tree(src, name).harness

    def setup(self, raw):
        """Process CPU seconds to load, build and certify the config `raw`."""
        gc.collect()
        start = time.process_time()
        self.cfg = self.harness.load_config(raw)
        _, _, self.problem, self.flat, _ = self.harness.build_instance(self.cfg)
        self.f_star = self.harness.certify(self.cfg, self.flat)[0]
        return time.process_time() - start

    def run(self, algo, seed):
        """(process CPU seconds, last logged iteration) of one cell."""
        gc.collect()
        start = time.process_time()
        record = self.harness._run_cell(algo, seed, self.cfg, self.problem, self.flat,
                                        self.f_star)
        return time.process_time() - start, record.rows[-1].iteration


def alternate(rep):
    """The order of the two sides in repetition `rep`: old first on even ones."""
    return (0, 1) if rep % 2 == 0 else (1, 0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("config")
    ap.add_argument("--reps", type=int, default=6)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    sides = (Side(args.old_src, "adfs_lab_old"), Side(args.new_src, "adfs_lab_new"))

    print(f"{'algo':<16}{'seed':>5}{'old ms':>10}{'new ms':>10}{'change':>9}"
          f"{'old stop':>10}{'new stop':>10}  match")
    setup = ([], [])
    for rep in range(args.reps):
        for k in alternate(rep):
            setup[k].append(sides[k].setup(raw))
    old, new = (statistics.median(t) for t in setup)
    print(f"{'setup':<16}{'':>5}{1e3 * old:>10.1f}{1e3 * new:>10.1f}{(new - old) / old:>+9.1%}")
    cfg = sides[0].cfg
    for seed in cfg.seeds:
        totals = [0.0, 0.0]
        for algo in cfg.algorithms:
            times, stops = ([], []), ([], [])
            for rep in range(args.reps):
                for k in alternate(rep):
                    seconds, stop = sides[k].run(algo, seed)
                    times[k].append(seconds)
                    stops[k].append(stop)
            old, new = (statistics.median(t) for t in times)
            totals[0] += old
            totals[1] += new
            match = len(set(stops[0] + stops[1])) == 1
            print(f"{algo:<16}{seed:>5}{1e3 * old:>10.1f}{1e3 * new:>10.1f}"
                  f"{(new - old) / old:>+9.1%}{stops[0][0]:>10}{stops[1][0]:>10}  {match}")
        print(f"{'sum':<16}{seed:>5}{1e3 * totals[0]:>10.1f}{1e3 * totals[1]:>10.1f}"
              f"{(totals[1] - totals[0]) / totals[0]:>+9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
