"""The data layer: one read-only feature buffer per instance, and its values."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from adfs_lab.data import assign_node_datasets, stack_rows
from adfs_lab.harness import build_instance, cli, load_config
from adfs_lab.objective import LocalObjective, LossKind
from oracles import libsvm_record

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
}


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
    their signs."""
    dataset = ({"kind": "synthetic", "d": 3, "correlation": 0.3, "seed": 5, "pool": 30}
               if kind == "synthetic" else {"kind": "libsvm", "path": svm_path, "seed": 1})
    return load_config({"topology": {"kind": "grid2d", "rows": 2, "cols": 2},
                        "loss": "logistic", "m": 10, "dataset": dataset,
                        "algorithms": ["adfs"], "seeds": [0], "iters": 0, "log_every": 1})


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


@pytest.mark.parametrize("kind", ["synthetic", "libsvm"])
def test_stacked_values_are_pinned(kind, svm_path):
    _, _, problem, _, _ = build_instance(config(kind, svm_path))
    assert problem.features.shape == (40, 3 if kind == "synthetic" else 4)
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
