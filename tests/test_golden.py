"""The committed outputs: the session's run of `scripts/golden.py` against
`tests/golden.json`.  Exact: keys, ints, strings, None, each row's iteration
and time.  Within 1e-12 relative: the derived floats.  Within 1e-12 |f_star|
absolute, the rounding scale of F - F*: each logged subopt.  Within 1e-3
relative: the measured rate medians and the rate efficiencies.
"""

import glob
import json
import os

import numpy as np
import pytest

from adfs_lab.harness import build_instance, load_config
from oracles import reference_adfs
from perfbench.workloads import REPLAY_RTOL
from scripts.golden import CELLS, GOLDEN, ROOT

RELATIVE = {"derived": 1e-12, "measured_time_per_log_eps": 1e-3, "rate_efficiency": 1e-3}


def keyed(entries):
    """`entries` with each results row under the key `algo seed S iter T`."""
    return {name: {"metadata": entry["metadata"],
                   "rows": {f"{algo} seed {seed} iter {it}": {"time": time, "subopt": subopt}
                            for algo, seed, it, time, subopt in entry["rows"]}}
            for name, entry in entries.items()}


def allowance(golden, path, want):
    """The |got - want| allowed to the float `want` at `path`, 0 where exact."""
    name, part, key = path[:3]
    if part == "rows":
        f_star = golden[name]["metadata"]["derived"]["f_star"]
        return 1e-12 * abs(f_star) if path[-1] == "subopt" else 0.0
    return RELATIVE.get(key, 0.0) * abs(want)


def mismatches(golden, want, got, path=()):
    """(path, message) of each place where `got` departs from `want`."""
    if isinstance(want, dict) and isinstance(got, dict):
        missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
        if missing or extra:
            yield path, f"keys missing {missing[:3]}, keys not in the file {extra[:3]}"
        for key in [k for k in want if k in got]:
            yield from mismatches(golden, want[key], got[key], path + (key,))
    elif isinstance(want, float) and isinstance(got, float):
        if not (got == want or abs(got - want) <= allowance(golden, path, want)):
            yield path, f"{got!r}, golden {want!r}"
    elif not (got == want and type(got) is type(want)):
        yield path, f"{got!r}, golden {want!r}"


with open(GOLDEN, encoding="utf-8") as fh:
    GOLDEN_ENTRIES = json.load(fh)


# one test per cell of the runner or the file; a cell only one side has fails on its keys
@pytest.mark.parametrize("cell", sorted(set(CELLS) | {n.split("/")[0] for n in GOLDEN_ENTRIES}))
def test_golden_file_holds(golden_run, cell):
    # the cell's entries: `cell` itself, or `cell/key=value` for a sweep
    want, got = (keyed({name: entry for name, entry in entries.items()
                        if name.split("/")[0] == cell}) for entries in (GOLDEN_ENTRIES, golden_run))
    errors = [f"{'.'.join(map(str, path)) or 'entries'}: {message}"
              for path, message in mismatches(GOLDEN_ENTRIES, want, got)]
    assert not errors, "\n".join(errors[:20] + [f"{len(errors)} mismatches in all"])


def test_every_config_has_a_cell():
    # a cell that overrides nothing runs each committed config
    committed = {argv[1] for argv in CELLS.values() if "--override" not in argv}
    assert committed == set(glob.glob(os.path.join(ROOT, "configs", "*.json")))


def test_reference_replays_the_figure_analogue(golden_run):
    # the tests' reference recursion beside seed 0 of the figure analogue's
    # ADFS run, at the benchmark's size: the same log rows, and objectives
    # within the benchmark's replay tolerance
    meta = golden_run["fig_analogue"]["metadata"]
    cfg = load_config(meta["config"])
    f_star = meta["derived"]["f_star"]
    ref = reference_adfs(build_instance(cfg)[2], cfg.iters["adfs"], 0, log_every=cfg.log_every,
                         f_star=f_star, stop_at_subopt=cfg.stop_at_subopt).record.rows
    adfs = [row for row in golden_run["fig_analogue"]["rows"] if row[:2] == ["adfs", 0]]
    assert [(r.iteration, r.time) for r in ref] == [(it, time) for _, _, it, time, _ in adfs]
    np.testing.assert_allclose([r.objective for r in ref], [f_star + row[4] for row in adfs],
                               rtol=REPLAY_RTOL, atol=0)
