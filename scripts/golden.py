#!/usr/bin/env python3
"""Run the pinned cells of the committed configs and write tests/golden.json.

    PYTHONPATH=src python scripts/golden.py

Each cell (`CELLS`) is one `adfs-lab` command line, run in-process in a
temporary directory.  `run()` returns one entry per `metadata.json` written,
named by the cell and, for a sweep, its value directory: the metadata and
the `results.csv` rows as `[algo, seed, iter, time, subopt]`.
"""

import contextlib
import csv
import glob
import io
import json
import os
import re
import sys
import tempfile

from adfs_lab.harness import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIG, PCOMM, LINE = (os.path.join(ROOT, "configs", name) for name in
                    ("fig_analogue.json", "pcomm_sweep.json", "scaling_line.json"))
SMOOTH = ("--override", 'algorithms=["adfs","adfs_efficient","point_saga"]')
# the file the LibSVM cell reads, written first, relative to the temporary
# directory so that the recorded dataset.path is the same on every run
GEN_DATA = ["gen-data", "--samples", "400", "--d", "5", "--loss", "absolute", "--seed", "3",
            "--out", "abs.svm"]
CELLS = {
    "fig_analogue": ["run", FIG],
    "pcomm_sweep": ["run", PCOMM],
    "pcomm_sweep_vary": ["sweep", PCOMM, "--vary",
                         "p_comm=0.05,0.133,0.157,0.264,0.371,0.479,0.586,0.693,0.8"],
    "scaling_line": ["sweep", LINE, "--vary", "topology.n=1,16"],
    "squared": ["run", PCOMM, "--override", "loss=squared", *SMOOTH],
    "logistic_libsvm": ["run", PCOMM, *SMOOTH, "--override",
                        'dataset={"kind": "libsvm", "path": "abs.svm", "seed": 0}'],
    "rate_clamped": ["run", FIG, "--override", "sigma=100", "--override", "seeds=[0]",
                     "--override", 'algorithms=["adfs","adfs_efficient"]',
                     "--override", "iters=60000"],
    "ns_adfs": ["run", PCOMM, "--override", "loss=absolute", "--override",
                'algorithms=["ns_adfs"]', "--override", "tau=5", "--override", "iters=2000",
                "--override", "log_every=200", "--override", "stop_at_subopt=null"],
    "edgeless": ["run", PCOMM, "--override", 'topology={"kind": "line", "n": 1}'],
}
GOLDEN = os.path.join(ROOT, "tests", "golden.json")


def _entry(out_dir):
    with open(os.path.join(out_dir, "metadata.json"), encoding="utf-8") as fh:
        metadata = json.load(fh)
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
        rows = [[algo, int(seed), int(it), float(time), float(subopt)]
                for algo, seed, it, time, subopt in list(csv.reader(fh))[1:]]
    return {"metadata": metadata, "rows": rows}


def run():
    """{entry name: {"metadata": ..., "rows": [...]}} of every cell."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(io.StringIO()):
        for argv in [GEN_DATA] + [argv + ["--out", name] for name, argv in CELLS.items()]:
            if cli(argv) != 0:
                raise RuntimeError(f"adfs-lab {' '.join(argv)} failed")
        return {os.path.dirname(path): _entry(os.path.dirname(path))
                for path in sorted(glob.glob("**/metadata.json", recursive=True))}


def dumps(golden):
    """golden.json's text: sorted keys, and each list that holds no list or
    object, such as a results row, on one line."""
    text = json.dumps(golden, indent=1, sort_keys=True)
    return re.sub(r"\[[^][{}]*\]", lambda m: json.dumps(json.loads(m.group())), text) + "\n"


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (takes no arguments)")
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(run()))
    print(f"wrote {GOLDEN}")
