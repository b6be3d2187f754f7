"""The data layer: one read-only feature buffer per instance, and its values."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from adfs_lab import harness
from adfs_lab import data
from adfs_lab.data import (assign_node_datasets, parse_libsvm, stack_rows, synth_dataset,
                           synth_pool, unit_signs)
from adfs_lab.harness import build_instance, cli, load_config
from adfs_lab.objective import LOSSES, LocalObjective, LossKind
from adfs_lab.rng import CHUNK
from oracles import libsvm_record, synth_pool_dense

# sha256 of what `gen-data` writes for GEN_ARGS, and of the stacked features
# and labels of each config below, as the data layer produced them before it
# moved out of `harness`.  They pin the synthetic pool (normal draws and the
# arithmetic on them), the node assignment and the LibSVM parse and
# densification; a change that moves a value by one bit changes a digest.
GEN_ARGS = ["--samples", "40", "--d", "4", "--seed", "3", "--correlation", "0.2",
            "--loss", "squared"]
GEN_SHA = "dc366ac2cf47500e865367f375d11e0b4e36e4e5ba798963a984e6d35db47bc8"
STACKED_SHA = {
    "synthetic": ("a83511a7805ef7875fac36964c0d39298e3c9daedced0dee3c8d87a464ea2baf",
                  "a572bc2901d7f4a9c3af068d76009c982199f47eaac4b3c522bc624fe4fc2118"),
    "libsvm": ("ecafd4c18f595b41225199abdc58aeee2d1e525e198744f54510d5d6bacb17f1",
               "e8ada423ff3df25f7990dc64e132ea7a8daddc5e2281816e8f5efaa8f3b17bf8"),
    # pinned before the synthetic pool was made a chunk at a time
    "squared": ("df939bae845d03a88bee70398b2af5e61cc0e04d19cc8b13b7d95d11aa87eb7d",
                "aaee85d7150fe43c0af590c1e2fd22d88d9bb504e96381fa6a5925028632c59b"),
    "feature_scale": ("d82e99b3168b31d01412af9d7c7f7867d2ed844d1ac55f9e4e6f1a20eddf3464",
                      "94e2e61c938da5322779825d443b3ad6e54d234b681c17e31def5c2e73e2a977"),
    "pool_unset": ("366dab9a45e644709fa999bc0f4327005ef141415fa404a214376933f0710cc2",
                   "d933f5187915fb3ed349c2752beb3eff4d11d872d2d6f60dc4e3f5ca038c3fff"),
}
SYNTHETIC = {"kind": "synthetic", "d": 3, "correlation": 0.3, "seed": 5, "pool": 30}
# the other synthetic branches, each on a line of 3 nodes of 11 samples: 33
# rows, not a multiple of four, so that a row's matrix-vector product would
# round differently if a margin were not computed at its place in the pool
BRANCHES = {"squared": ("squared", dict(SYNTHETIC, d=20, pool=301)),
            "feature_scale": ("logistic", dict(SYNTHETIC, feature_scale=0.37)),
            "pool_unset": ("squared", {k: v for k, v in dict(SYNTHETIC, d=20).items()
                                       if k != "pool"})}


@pytest.fixture
def svm_path(tmp_path):
    """The LibSVM file that `gen-data` writes for GEN_ARGS."""
    path = str(tmp_path / "pool.svm")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli(["gen-data", *GEN_ARGS, "--out", path]) == 0
    return path


def config(kind, svm_path):
    """A 2x2 grid of 10 logistic samples per node; the synthetic pool of 30
    samples makes nodes overlap, and the LibSVM labels (real-valued) map to
    their signs.  The kinds of BRANCHES take their loss and dataset on a
    line of 3 nodes of 11 samples."""
    base = {"topology": {"kind": "grid2d", "rows": 2, "cols": 2}, "loss": "logistic", "m": 10,
            "algorithms": ["adfs"], "seeds": [0], "iters": 0, "log_every": 1}
    if kind in BRANCHES:
        loss, dataset = BRANCHES[kind]
        return load_config(dict(base, topology={"kind": "line", "n": 3}, loss=loss, m=11,
                                dataset=dataset))
    dataset = SYNTHETIC if kind == "synthetic" else {"kind": "libsvm", "path": svm_path, "seed": 1}
    return load_config(dict(base, dataset=dataset))


def _address(arr):
    return arr.__array_interface__["data"][0]


@pytest.mark.parametrize("kind", ["synthetic", "libsvm"])
def test_instance_shares_one_read_only_buffer(kind, svm_path):
    _, objectives, problem, flat, _ = build_instance(config(kind, svm_path))
    features, labels = problem.features, problem.labels
    for i, obj in enumerate(objectives):
        rows = slice(problem.vstart[i], problem.vstart[i + 1])
        for part, whole in ((obj.feature_matrix, features), (obj.labels, labels)):
            assert part.base is whole and _address(part) == _address(whole[rows])
            assert not part.flags.writeable
    for pooled, whole in ((flat.feature_matrix, features), (flat.labels, labels)):
        assert np.shares_memory(pooled, whole) and pooled.shape == whole.shape
        assert not pooled.flags.writeable and not whole.flags.writeable


def test_objective_copies_a_writeable_input(rng):
    feats, labels = rng.normal(size=(3, 2)), rng.normal(size=3)
    obj = LocalObjective(feats, labels, 1.0, LossKind.SQUARED)
    kept = obj.feature_matrix.copy(), obj.labels.copy()
    feats[0, 0] += 1.0
    labels[0] += 1.0
    assert not np.shares_memory(obj.feature_matrix, feats)
    assert not np.shares_memory(obj.labels, labels)
    assert np.array_equal(obj.feature_matrix, kept[0]) and np.array_equal(obj.labels, kept[1])
    assert not obj.feature_matrix.flags.writeable and not obj.labels.flags.writeable


def test_stack_rows_returns_the_buffer_only_when_tiled_in_order(rng):
    buf = rng.normal(size=(6, 2))
    buf.flags.writeable = False
    tiles = [buf[:1], buf[1:4], buf[4:]]
    assert stack_rows(tiles) is buf
    others = ([buf[4:], buf[1:4], buf[:1]],  # out of order
              [buf[:1], buf[1:4]],  # a prefix
              [buf[:1], buf[2:]],  # a gap
              [buf[:, :1], buf[:, 1:]],  # column views
              [buf[:1], buf[1:4].copy(), buf[4:]])  # a copy among the views
    writeable = rng.normal(size=(6, 2))
    others += ([writeable[:3], writeable[3:]],)
    for parts in others:
        out = stack_rows(parts)
        assert np.array_equal(out, np.concatenate(parts)) and not out.flags.writeable
        assert not any(np.shares_memory(out, p) for p in parts)


def test_gen_data_bytes_are_pinned(svm_path):
    with open(svm_path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GEN_SHA


@pytest.mark.parametrize("kind", list(STACKED_SHA))
def test_stacked_values_are_pinned(kind, svm_path):
    cfg = config(kind, svm_path)
    _, _, problem, _, _ = build_instance(cfg)
    assert problem.features.shape == ((33, cfg.dataset["d"]) if kind in BRANCHES
                                      else (40, 3 if kind == "synthetic" else 4))
    digests = tuple(hashlib.sha256(arr.tobytes()).hexdigest()
                    for arr in (problem.features, problem.labels))
    assert digests == STACKED_SHA[kind]


def test_sparse_pool_draws_the_dense_pool_rows(rng):
    # rows of 0-5 nonzeros (-0.0 among them) at scattered columns: the node
    # draw from the CSR record equals the draw from its densified pool
    rows = []
    for _ in range(40):
        cols = np.sort(rng.choice(12, size=int(rng.integers(0, 6)), replace=False))
        rows.append((float(rng.normal()), [(int(c), -0.0 if c % 5 == 0 else float(rng.normal()))
                                          for c in cols]))
    record = libsvm_record(rows)
    dense = np.zeros((len(rows), record.dim))
    for r, (_, pairs) in enumerate(rows):
        for c, v in pairs:
            dense[r, c] = v
    for sparse_node, dense_node in zip(assign_node_datasets(record, record.labels, 3, 15, 4),
                                       assign_node_datasets(dense, record.labels, 3, 15, 4)):
        for a, b in zip(sparse_node, dense_node):
            assert a.tobytes() == b.tobytes() and not a.flags.writeable


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("pool", [1, 7, 257, 513, 900])
def test_synthetic_rows_are_the_whole_pools_rows(pool, loss):
    # two nodes that each draw the whole pool, so that every row, the last
    # one of each chunk among them, is made twice; pools of one row, of less
    # than a chunk, of one and two chunks plus one row, and of three chunks
    # whose last holds the remainder.  The whole pool that gen-data writes and the drawn rows
    # alone equal the pool made at once, bit for bit (900 x 8 stays below
    # the size at which BLAS splits a product over threads, which rounds the
    # pool's own product by the thread count)
    args, unit = (pool, 8, 4, 0.3, 0.1, 1.5), LOSSES[loss].unit_labels
    whole = synth_pool_dense(*args, unit_labels=unit)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(synth_pool(*args, unit_labels=unit), whole))
    for made, drawn in zip(synth_dataset(2, pool, 8, 4, 0.3, 0.1, pool, 1.5, unit_labels=unit),
                           assign_node_datasets(*whole, 2, pool, 4)):
        for a, b in zip(made, drawn):
            assert a.tobytes() == b.tobytes() and not a.flags.writeable


def test_set_up_peaks_at_one_copy_of_the_data():
    # 4x4 grid, m = 500, d = 40: 8 000 samples, two Hessian blocks.
    # build_instance: the (V, d) buffer, two chunks of at most 2 CHUNK rows
    # (a chunk's normals and its drawn rows' copy), and at most sixteen
    # vectors of V entries (the instance keeps labels, row norms and the
    # augmented problem's per-virtual-node constants; the draw adds its
    # indices, spike and margins).  certify: one block's scaled transpose
    # (d, 4 096) and at most eight vectors of V entries (the margins,
    # the curvature's and the gradient's temporaries).  The whole pool, a
    # pool-sized temporary or a (d, V) Hessian term would each add V d.
    cfg = load_config({"topology": {"kind": "grid2d", "rows": 4, "cols": 4}, "loss": "logistic",
                       "m": 500, "dataset": {"kind": "synthetic", "d": 40, "correlation": 0.3,
                                             "seed": 2026},
                       "algorithms": ["adfs"], "seeds": [0], "iters": 1, "log_every": 1})
    rows, d, block, word = 8000, 40, 4096, 8
    tracemalloc.start()
    try:
        instance = build_instance(cfg)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        harness.certify(cfg, instance[3])
        certify_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert instance[2].features.shape == (rows, d)
    assert build_peak <= word * (rows * d + 2 * (2 * CHUNK) * d + 16 * rows)
    assert certify_peak <= word * (block * d + 8 * rows)


def test_pool_is_the_same_under_one_and_two_blas_threads():
    # the chunks' products must not round by the BLAS thread count.  Each
    # pool's last chunk holds 257-511 rows of d >= 36, a product that
    # OpenBLAS may split over threads; the real-valued labels show every
    # rounding of the margins.  Each thread count takes a fresh
    # interpreter, as OpenBLAS reads it when it loads
    script = ("import hashlib\n"
              "from adfs_lab.data import synth_pool\n"
              "for n, d in ((4097, 300), (7201, 64), (767, 40)):\n"
              "    for a in synth_pool(n, d, 3, 0.3, unit_labels=False):\n"
              "        print(hashlib.sha256(a.tobytes()).hexdigest())\n")
    src = os.path.dirname(os.path.dirname(data.__file__))
    digests = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src,
                                               "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert len(digests[0].split()) == 6 and digests[0] == digests[1]


def test_labels_map_to_signs_by_one_rule(tmp_path):
    # under the logistic loss a label > 0 maps to +1 and any other to -1, 0
    # and -0.0 among them: LibSVM labels, gen-data's and the helper itself
    path = tmp_path / "labels.svm"
    path.write_text("0 1:1\n1 1:2\n-2 1:3\n0.5 1:4\n")
    cfg = load_config({"topology": {"kind": "line", "n": 1}, "loss": "logistic", "m": 4,
                       "dataset": {"kind": "libsvm", "path": str(path), "seed": 0},
                       "algorithms": ["adfs"], "seeds": [0], "iters": 0, "log_every": 1})
    _, _, problem, _, _ = build_instance(cfg)
    assert dict(zip(problem.features[:, 0].tolist(), problem.labels.tolist())) == {
        1.0: -1.0, 2.0: 1.0, 3.0: -1.0, 4.0: 1.0}
    out = str(tmp_path / "logistic.svm")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli(["gen-data", "--samples", "300", "--d", "3", "--loss", "logistic",
                    "--out", out]) == 0
    assert set(parse_libsvm(out).labels.tolist()) == {-1.0, 1.0}
    assert unit_signs(np.array([0.0, -0.0, 5e-324, -1.0])).tolist() == [-1.0, -1.0, 1.0, -1.0]
