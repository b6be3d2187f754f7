import contextlib
import csv
import importlib
import importlib.util
import json
import math
import os
import io
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adfs_lab
from adfs_lab import augmented, data, harness, objective
from adfs_lab.data import (
    RANGE_HI,
    RANGE_LO,
    LibsvmParseError,
    assign_node_datasets,
    parse_libsvm,
    synth_dataset,
    synth_pool,
    write_libsvm,
)
from adfs_lab.harness import (ConfigError, ExperimentConfig, build_instance, cli, load_config,
                              run_experiment)
from adfs_lab.objective import LOSSES, LocalObjective, LossKind, condition_numbers
from adfs_lab.records import FIT_MIN_POINTS
from adfs_lab.rng import generator
from oracles import libsvm_record, libsvm_rows, parse_libsvm_pairs
from test_checks import certified, experiment_determinism, libsvm_roundtrip

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)


def _increasing(steps):
    """(index step >= 1, value) pairs -> 0-based pairs with increasing indices."""
    pairs, idx = [], -1
    for step, value in steps:
        idx += step
        pairs.append((idx, value))
    return pairs


# LibSVM rows of 0-8 pairs; labels and values are finite doubles over the
# whole exponent range, subnormals and -0.0 included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
LIBSVM_ROWS = st.lists(
    st.tuples(FINITE,
              st.lists(st.tuples(st.integers(1, 1000), FINITE), max_size=8).map(_increasing)),
    min_size=1, max_size=10)


# well-formed and malformed tokens and the whitespace between them
LINE_TOKENS = st.sampled_from([
    "1", "-2.5", "1e3", "nan", "-0", "x", "1:0.5", "2:1", "3:-1e-3", "2:2", "12:inf", "0:1",
    "-1:1", "1:", ":1", "1:2:3", "a:1", "1:b", "1_0:1", "+3:2", "4:1_5", " 5:1"])
SEPARATORS = st.sampled_from([" ", "\t", "  \t", "\u00a0", "\x0b"])
ANY_LINE = st.lists(st.tuples(LINE_TOKENS, SEPARATORS), max_size=5).map(
    lambda pieces: "".join(tok + sep for tok, sep in pieces))
ROW_LINE = st.tuples(FINITE, st.lists(st.tuples(st.integers(1, 5), FINITE), max_size=6).map(
    _increasing)).map(lambda row: " ".join(
        [repr(row[0])] + [f"{i + 1}:{v!r}" for i, v in row[1]]))
# lines of a LibSVM file: any tokens (one line in four), else a well-formed
# row; then an optional comment and any line ending
LIBSVM_LINES = st.lists(st.tuples(
    st.integers(0, 3).flatmap(lambda kind: ROW_LINE if kind else ANY_LINE),
    st.sampled_from(["", "#", " # 1:2", "#x"]),
    st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=8)


def _hexed(samples, dim):
    """Parsed samples with every float as float.hex, which tells -0.0 from
    0.0 and nan from every number."""
    return [(label.hex(), [(i, v.hex()) for i, v in pairs]) for label, pairs in samples], dim


with open(os.path.join(ROOT, "configs", "pcomm_sweep.json"), encoding="utf-8") as _fh:
    PCOMM = json.load(_fh)  # the raw committed config


def base_config(**over):
    data = {
        "topology": {"kind": "complete", "n": 2},
        "loss": "logistic",
        "m": 3,
        "dataset": {"kind": "synthetic", "d": 2, "correlation": 0.1, "seed": 5},
        "algorithms": ["adfs"],
        "seeds": [0, 1],
        "iters": 60,
        "log_every": 20,
        "tau": 3.0,
    }
    data.update(over)
    return data


class TestParseLibsvm:
    def _parse_text(self, tmp_path, text):
        path = tmp_path / "data.svm"
        path.write_text(text)
        return libsvm_rows(parse_libsvm(str(path)))

    def test_basic_line(self, tmp_path):
        samples, dim = self._parse_text(tmp_path, "1 1:0.5 3:2.0\n")
        assert dim == 3
        assert samples == [(1.0, [(0, 0.5), (2, 2.0)])]

    def test_bare_label_line(self, tmp_path):
        samples, dim = self._parse_text(tmp_path, "-1\n")
        assert samples == [(-1.0, [])]
        # empty feature vectors are rejected when a node's data is built
        with pytest.raises(ValueError, match="zero feature"):
            LocalObjective(np.zeros((1, 2)), [-1.0], 1.0, LossKind.LOGISTIC)

    def test_comments_and_blanks_skipped(self, tmp_path):
        samples, _ = self._parse_text(
            tmp_path, "# header\n\n1 1:2.0  # trailing comment\n"
        )
        assert samples == [(1.0, [(0, 2.0)])]

    def test_malformed_token_reports_position(self, tmp_path):
        with pytest.raises(LibsvmParseError, match=r"line 2, column 3"):
            self._parse_text(tmp_path, "1 1:1.0\n1 nope\n")
        # any whitespace separates tokens; columns still count characters
        with pytest.raises(LibsvmParseError, match=r"line 2, column 5: .*'nope'"):
            self._parse_text(tmp_path, "1.0\t1:0.5\t2:1.0\n1\t \tnope\n")

    def test_non_increasing_index_rejected(self, tmp_path):
        with pytest.raises(LibsvmParseError, match="not increasing"):
            self._parse_text(tmp_path, "1 2:1.0 2:2.0\n")

    def test_zero_index_rejected(self, tmp_path):
        with pytest.raises(LibsvmParseError, match=">= 1"):
            self._parse_text(tmp_path, "1 0:1.0\n")

    def test_index_past_int64_rejected(self, tmp_path):
        # the CSR indices are int64
        with pytest.raises(LibsvmParseError, match=r"line 2, column 3: index 9223372036854775808 "):
            self._parse_text(tmp_path, "1 1:1\n1 9223372036854775808:1.0\n")

    def test_roundtrip_is_bit_exact(self):
        libsvm_roundtrip(generator("roundtrip", 0), 1000)

    @given(st.lists(st.tuples(LINE_TOKENS, SEPARATORS), min_size=1, max_size=6))
    @example([("1", " "), ("3:-1e-3", "\t"), ("2:1", " ")])
    @example([("-0", " "), ("1:0.5", "  \t"), ("0:1", " ")])
    @example([("1", "\u00a0"), ("1:0.5", " "), ("1:b", " ")])
    @example([("1", " "), ("2:1", "\x0b"), ("x", " ")])
    @example([("x", " "), ("1:0.5", " ")])
    def test_error_names_first_bad_token(self, pieces):
        # a line is read token by token, or rejected at the column of its first
        # bad token, with the line up to that token read without error
        line = "".join(tok + sep for tok, sep in pieces)
        starts = [m.start() for m in re.finditer(r"\S+", line)]
        tokens = line.split()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "line.svm")

            def parse(text):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(f"1 1:1\n{text}\n")
                return libsvm_rows(parse_libsvm(path))

            try:
                samples, _ = parse(line)
            except LibsvmParseError as exc:
                got = re.fullmatch(r"line 2, column (\d+): (.*)", str(exc))
                assert got, str(exc)
                pos = starts.index(int(got.group(1)) - 1)
                assert got.group(2).endswith(repr(tokens[pos])) or got.group(2).startswith(
                    f"index {int(tokens[pos].partition(':')[0])} ")
                if pos > 0:
                    parse(" ".join(tokens[:pos]))
            else:
                label, pairs = samples[1]
                assert repr(label) == repr(float(tokens[0]))
                # repr tells -0.0 and nan apart
                assert repr([(i + 1, v) for i, v in pairs]) == repr(
                    [(int(a), float(b)) for a, _, b in (t.partition(":") for t in tokens[1:])])

    @given(LIBSVM_ROWS)
    @example([(-0.0, [(0, 5e-324), (3, -0.0), (4, 1.7976931348623157e308)]),
              (2.2250738585072014e-308, []),
              (-2.225073858507201e-308, [(999, 0.0)])])
    def test_roundtrip_keeps_every_bit(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.svm")
            write_libsvm(path, libsvm_record(rows))
            parsed = libsvm_rows(parse_libsvm(path))
        dim = max((i + 1 for _, pairs in rows for i, _ in pairs), default=0)
        assert _hexed(*parsed) == _hexed(rows, dim)

    @settings(deadline=None)
    @given(LIBSVM_LINES, st.integers(1, 48))
    # the second row's bad index lies in the third block of a one-line read
    @example([("1 1:0.5", "", "\r\n"), ("", "# c", "\r"), ("-1 3:1 2:1", "", "\n")], 1)
    @example([("2 1:1e3 4:-0", " # 1:2", "\r"), ("nan 2:inf", "", "")], 5)
    # two lines a block: the error's line counts the lines of earlier blocks
    @example([("1 1:1", "", "\n"), ("1 2:1", "", "\n"), ("1 x", "", "\n")], 8)
    # a row may open below the last index of the row before it, never below 1
    # nor at its own last index
    @example([("1 4:1", "", "\n"), ("-1 2:1", "", "\n")], 48)
    @example([("1 2:1 2:2", "", "\n")], 48)
    @example([("1 4:1", "", "\n"), ("-1 0:1", "", "\n")], 48)
    # tokens of two colons, alone or beside one of none: their pieces
    # alternate index, value, index, value, as the right tokens' would
    @example([("1 1:2:3", "", "\n")], 48)
    @example([("1 1:2:3 5", "", "\n")], 48)
    def test_block_reader_matches_oracle(self, lines, block_chars):
        # blocks of block_chars characters split the file between any two
        # lines, so a row or an error may sit in any block
        text = "".join(body + comment + end for body, comment, end in lines)

        def read(parse):
            try:
                return parse(path)
            except LibsvmParseError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "lines.svm")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            want = read(parse_libsvm_pairs)
            with mock.patch.object(data, "BLOCK_CHARS", block_chars):
                got = read(lambda p: libsvm_rows(parse_libsvm(p)))
        if isinstance(want, str):
            assert got == want
        else:
            assert _hexed(*got) == _hexed(*want)


class TestSyntheticData:
    def test_same_seed_same_data(self):
        a = synth_dataset(3, 4, 2, seed=7, correlation=0.3)
        b = synth_dataset(3, 4, 2, seed=7, correlation=0.3)
        for (fa, la), (fb, lb) in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(la, lb)

    def test_nodes_draw_from_shared_pool(self):
        feats, labels = synth_pool(30, 2, seed=1, correlation=0.0)
        per_node = assign_node_datasets(feats, labels, n=4, m=10, seed=1)
        pool_rows = {tuple(row) for row in feats}
        for fa, _ in per_node:
            assert all(tuple(row) in pool_rows for row in fa)

    def _ratio(self, correlation):
        per_node = synth_dataset(1, 50, 5, seed=3, correlation=correlation,
                                 unit_labels=False)
        feats, labels = per_node[0]
        obj = LocalObjective(feats, labels, 1e-3, LossKind.SQUARED)
        rep = condition_numbers([obj])
        return float(rep.kappa_i[0] / rep.kappa_b[0])

    def test_isotropic_features_give_dimension_limited_ratio(self):
        # with m >> d the stochastic/batch ratio approaches min(m, d) = d
        ratio = self._ratio(0.0)
        assert 0.5 * 5 <= ratio <= 2.0 * 5

    def test_correlated_features_give_trace_dominance(self):
        c, d = 0.99, 5
        predicted = d / (1 - c + c * d)
        ratio = self._ratio(c)
        assert predicted / 3 <= ratio <= predicted * 3


class TestConfig:
    def test_valid_round_trip(self):
        cfg = load_config(base_config())
        assert cfg.loss_kind is LossKind.LOGISTIC
        assert cfg.iters == {"adfs": 60}

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(base_config(bogus=1))

    def test_bad_loss_path(self):
        with pytest.raises(ConfigError, match="^loss:"):
            load_config(base_config(loss="hinge"))

    def test_bad_algorithm_path(self):
        with pytest.raises(ConfigError, match=r"algorithms\[1\]"):
            load_config(base_config(algorithms=["adfs", "sgd"]))

    def test_ns_requires_absolute(self):
        with pytest.raises(ConfigError, match="absolute"):
            load_config(base_config(algorithms=["ns_adfs"]))

    def test_off_grid_budget_logs_its_last_iteration(self, tmp_path):
        # a budget off the log grid loads, runs, and ends its rows at iters
        cfg = load_config(base_config(algorithms=["adfs", "point_saga"], iters=55))
        code, csv_path, _ = run_experiment(cfg, *certified(cfg), str(tmp_path))
        assert code == 0
        logged = {}
        for line in open(csv_path).read().splitlines()[1:]:
            algo, seed, it = line.split(",")[:3]
            logged.setdefault((algo, seed), []).append(int(it))
        assert logged == {(a, s): [0, 20, 40, 55] for a in ("adfs", "point_saga")
                          for s in ("0", "1")}

    def test_per_algorithm_iters(self):
        cfg = load_config(base_config(algorithms=["adfs", "point_saga"],
                                      iters={"adfs": 40, "point_saga": 80}))
        assert cfg.iters == {"adfs": 40, "point_saga": 80}

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(base_config())), JSON_VALUES)
    def test_random_field_gives_config_or_config_error(self, field, value):
        try:
            cfg = load_config(base_config(**{field: value}))
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    def test_sigma_length_checked_at_build(self):
        cfg = load_config(base_config(sigma=[1.0, 2.0, 3.0]))
        with pytest.raises(ConfigError, match="sigma"):
            build_instance(cfg)


class TestRunExperiment:
    def test_zero_iters_writes_header_only(self, tmp_path):
        cfg = load_config(base_config(iters=0))
        code, csv_path, _ = run_experiment(cfg, *certified(cfg), str(tmp_path))
        assert code == 0
        lines = open(csv_path).read().splitlines()
        assert lines == ["algo,seed,iter,time,subopt"]
        meta = json.load(open(tmp_path / "metadata.json"))
        assert "alpha" in meta["derived"]
        assert meta["derived"]["f_star"] is None and meta["derived"]["reference_gap"] is None

    def test_row_accounting(self, tmp_path):
        cfg = load_config(base_config())
        code, csv_path, _ = run_experiment(cfg, *certified(cfg), str(tmp_path))
        assert code == 0
        rows = open(csv_path).read().splitlines()[1:]
        assert len(rows) == 2 * (60 // 20 + 1)

    def test_zero_feature_sample_rejected_downstream(self, tmp_path):
        # a bare-label LibSVM line parses fine but cannot become a sample
        data = tmp_path / "pool.svm"
        data.write_text("1.0 1:0.5 2:1.0\n-1.0\n")  # pool == m: both rows drawn
        cfg = load_config(base_config(
            m=2,
            dataset={"kind": "libsvm", "path": str(data), "seed": 0},
        ))
        with pytest.raises(ValueError, match="zero feature"):
            build_instance(cfg)

    def test_dataset_id_recorded_in_metadata(self, tmp_path):
        cfg = load_config(base_config())
        _, csv_path, returned = run_experiment(cfg, *certified(cfg), str(tmp_path))
        meta = json.load(open(tmp_path / "metadata.json"))
        assert meta["dataset_id"].startswith("synthetic(")
        assert returned == meta  # the dict it writes, which run and sweep print from

    def test_rows_sorted_and_formatted(self, tmp_path):
        cfg = load_config(base_config(algorithms=["adfs", "adfs_efficient",
                                                  "point_saga"],
                                      seeds=[1, 0]))
        _, csv_path, _ = run_experiment(cfg, *certified(cfg), str(tmp_path))
        rows = [line.split(",") for line in open(csv_path).read().splitlines()[1:]]
        keys = [(r[0], int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert "e" in r[3] and "e" in r[4]  # %.12e formatting

    def test_smooth_names_write_the_same_rows(self, tmp_path):
        # "adfs" and "adfs_efficient" name one solver: their rows differ only
        # in the algorithm column, and both reach stop_at_subopt at one time
        cfg = load_config(base_config(algorithms=["adfs", "adfs_efficient"], iters=5000,
                                      stop_at_subopt=1e-8))
        code, csv_path, meta = run_experiment(cfg, *certified(cfg), str(tmp_path))
        assert code == 0
        rows = {"adfs": [], "adfs_efficient": []}
        for line in open(csv_path).read().splitlines()[1:]:
            algo, rest = line.split(",", 1)
            rows[algo].append(rest)
        assert rows["adfs"] == rows["adfs_efficient"]
        times = meta["median_time_to_target"]
        assert times["adfs"] == times["adfs_efficient"] is not None

    def test_byte_identical_reruns(self):
        experiment_determinism(base_config())

    def test_failed_cell_reported_not_fatal(self, tmp_path, monkeypatch):
        original = harness._run_cell

        def flaky(algo, seed, *args, **kwargs):
            if seed == 1:
                raise RuntimeError("boom")
            return original(algo, seed, *args, **kwargs)

        monkeypatch.setattr(harness, "_run_cell", flaky)
        cfg = load_config(base_config())
        code, csv_path, _ = run_experiment(cfg, *certified(cfg), str(tmp_path))
        assert code == 1
        rows = open(csv_path).read().splitlines()[1:]
        assert len(rows) == 60 // 20 + 1  # surviving seed only
        meta = json.load(open(tmp_path / "metadata.json"))
        assert meta["failures"] == [{"algo": "adfs", "seed": 1, "error": "boom"}]

    def test_time_column_increments(self, tmp_path):
        cfg = load_config(base_config(iters=300, log_every=1, seeds=[0], tau=4.0))
        _, csv_path, _ = run_experiment(cfg, *certified(cfg), str(tmp_path))
        rows = [line.split(",") for line in open(csv_path).read().splitlines()[1:]]
        times = np.array([float(r[3]) for r in rows])
        incs = np.diff(times)
        assert set(np.round(incs, 9)) <= {1.0, 4.0}

    def test_ns_experiment_runs(self, tmp_path):
        cfg = load_config(base_config(
            loss="absolute", algorithms=["ns_adfs"], iters=200, log_every=50,
            seeds=[0],
        ))
        code, csv_path, _ = run_experiment(cfg, *certified(cfg), str(tmp_path))
        assert code == 0
        rows = open(csv_path).read().splitlines()[1:]
        assert len(rows) == 200 // 50 + 1

    @pytest.mark.parametrize("data", [
        pytest.param(base_config(loss=loss, algorithms=[algo], seeds=[0],
                                 reference={"tol": 1e-4}), id=f"{loss}-{algo}")
        for loss, algo in [("absolute", "ns_adfs"), ("logistic", "adfs"), ("squared", "adfs")]
    ] + [
        # a duality gap recomputed in double precision read -3.9e-13 here
        pytest.param(dict(PCOMM, loss="absolute", algorithms=["ns_adfs"], iters=50,
                          stop_at_subopt=None,
                          dataset=dict(PCOMM["dataset"], feature_scale=1000.0)),
                     id="pcomm-absolute-scale1000")])
    def test_reference_gap_recorded(self, tmp_path, data):
        cfg = load_config(data)
        tol = cfg.reference.get("tol", 3e-6)
        run_experiment(cfg, *certified(cfg), str(tmp_path))
        derived = json.load(open(tmp_path / "metadata.json"))["derived"]
        assert 0.0 <= derived["reference_gap"] <= tol**2 * derived["sigma_total"] / 2.0


# Edge weights span 16 orders of magnitude; feature scales and sigma span 8,
# or take an end of the inputs' range or the float just outside it.  The
# examples below pin configs with scales of 1e+-160 and beyond, and those on
# which the absolute loss's former reference (projected FISTA) ran 6-99 s.
WEIGHTS = st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])
SCALES = st.one_of(st.integers(-4, 4).map(lambda k: 10.0**k), st.sampled_from([
    RANGE_LO, RANGE_HI, math.nextafter(RANGE_LO, 0.0), math.nextafter(RANGE_HI, math.inf)]))


@st.composite
def cli_configs(draw):
    """A `run` config on a random small graph and synthetic data, with the
    edge weights, feature scales and sigma (one for all nodes, or one per
    node) above and p_comm at both ends of its range."""
    kind = draw(st.sampled_from(["line", "complete", "grid2d"]))
    if kind == "grid2d":
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        topology = {"kind": kind, "rows": rows, "cols": cols}
        n, n_edges = rows * cols, rows * (cols - 1) + cols * (rows - 1)
    else:
        n = draw(st.integers(1, 4))
        topology = {"kind": kind, "n": n}
        n_edges = n - 1 if kind == "line" else n * (n - 1) // 2
    if n_edges and draw(st.booleans()):
        topology["weights"] = draw(st.lists(WEIGHTS, min_size=n_edges, max_size=n_edges))
    loss = draw(st.sampled_from(["logistic", "squared", "absolute"]))
    algorithms = ["ns_adfs"] if loss == "absolute" else draw(st.lists(
        st.sampled_from(["adfs", "adfs_efficient", "point_saga"]), min_size=1, unique=True))
    data = {
        "topology": topology, "loss": loss, "m": draw(st.integers(1, 4)),
        "dataset": {"kind": "synthetic", "d": draw(st.integers(1, 3)),
                    "correlation": draw(st.sampled_from([0.0, 0.5, 0.99])),
                    "seed": draw(st.integers(0, 9)), "feature_scale": draw(SCALES)},
        "sigma": draw(st.one_of(SCALES, st.lists(SCALES, min_size=n, max_size=n))),
        "tau": draw(st.sampled_from([0.0, 1.0, 5.0])),
        "algorithms": algorithms, "seeds": [0], "iters": 40, "log_every": 20,
    }
    if draw(st.booleans()):
        data["p_comm"] = draw(st.sampled_from([0.0, 0.01, 0.5, 0.99]))
    return data


TINY_FEATURES = {"kind": "synthetic", "d": 2, "seed": 2, "feature_scale": 1e-150}
# a LibSVM file whose largest index makes a dense buffer past data.DENSE_MAX
HUGE_INDEX_SVM = "1 1000000000000000:1\n-1 1:1.0\n1 2:1.0\n"
# one whose largest index makes the build's d x d matrices past data.DENSE_MAX
WIDE_INDEX_SVM = "1 100000:1\n-1 1:1.0\n1 2:1.0\n"


def found_case(**over):
    """A line of 3 nodes with 3 logistic samples of dimension 2 each."""
    data = {"topology": {"kind": "line", "n": 3}, "loss": "logistic", "m": 3,
            "dataset": {"kind": "synthetic", "d": 2, "seed": 2}, "algorithms": ["adfs"],
            "seeds": [0], "iters": 40, "log_every": 20}
    data.update(over)
    return data


# The configs pinned as examples of the property below, each with the field
# that `run` names and the one that `spectrum` names (None: it exits 0).  Most
# hold an input outside the range [RANGE_LO, RANGE_HI], which `load_config`
# rejects (sigma before the dataset); their comments say which derived
# constant such an input broke before the range rule.
FOUND = [
    # the reference solver's target falls below what float64 gradients reach
    (found_case(sigma=1e-300), "sigma", "sigma"),
    (found_case(sigma=1e-300, dataset={"kind": "synthetic", "d": 2, "seed": 7}),
     "sigma", "sigma"),
    # squared feature norms overflow
    (found_case(dataset={"kind": "synthetic", "d": 2, "seed": 2, "feature_scale": 1e160}),
     "dataset.feature_scale", "dataset.feature_scale"),
    # squared edge weights overflow the Laplacian
    (found_case(topology={"kind": "line", "n": 2, "weights": [1e160]}),
     "topology.weights", "topology.weights"),
    (found_case(topology={"kind": "complete", "n": 4, "weights": [1e300, 1, 1, 1, 1, 1]},
                loss="absolute", algorithms=["ns_adfs"]),
     "topology.weights", "topology.weights"),
    # sigma ||X||^2 underflows, so round-table entries are not finite
    (found_case(topology={"kind": "line", "n": 1}, m=1, sigma=1e-300,
                dataset={"kind": "synthetic", "d": 1, "seed": 2, "feature_scale": 1e-160}),
     "sigma", "sigma"),
    # the summed squared feature norms of a node overflow, where each row's do
    # not: the balanced p_comm collapsed to 0, and the node Gram matrix to inf
    (found_case(topology={"kind": "line", "n": 2}, m=6,
                dataset={"kind": "synthetic", "d": 2, "seed": 1, "feature_scale": 5e153}),
     "dataset.feature_scale", "dataset.feature_scale"),
    (found_case(topology={"kind": "line", "n": 2}, m=200,
                dataset={"kind": "synthetic", "d": 2, "seed": 1, "feature_scale": 1e153}),
     "dataset.feature_scale", "dataset.feature_scale"),
    # each node's sum is finite, the pooled one overflows
    (found_case(topology={"kind": "line", "n": 2}, m=1,
                dataset={"kind": "synthetic", "d": 1, "seed": 0, "feature_scale": 1e154}),
     "dataset.feature_scale", "dataset.feature_scale"),
    # kappa_s overflows, so the balanced p_comm is NaN
    (found_case(sigma=1e-300,
                dataset={"kind": "synthetic", "d": 2, "seed": 2, "feature_scale": 1e4}),
     "sigma", "sigma"),
    # the scaled Laplacian overflows to inf before its eigensolve
    (found_case(topology={"kind": "line", "n": 2, "weights": [1e8]}, sigma=1e-300),
     "sigma", "sigma"),
    # a squared-loss lambda_max above half the float max overflows D~
    (found_case(topology={"kind": "line", "n": 1}, loss="squared", m=1,
                dataset={"kind": "synthetic", "d": 1, "seed": 0, "feature_scale": 1e154}),
     "dataset.feature_scale", "dataset.feature_scale"),
    # sigma far below L_ij: kappa_s and the sampling weights sqrt(1 + L_ij / sigma_i) overflow
    (found_case(topology={"kind": "line", "n": 1}, m=1, sigma=1e-300,
                dataset={"kind": "synthetic", "d": 1, "seed": 0, "feature_scale": 1e150}),
     "sigma", "sigma"),
    # the absolute-loss reference, in range: targets below the rounding of the
    # residuals (features 1e8), and ill-conditioned pools
    (found_case(topology={"kind": "grid2d", "rows": 3, "cols": 2}, loss="absolute",
                algorithms=["ns_adfs"],
                dataset={"kind": "synthetic", "d": 2, "seed": 1, "correlation": 0.99,
                         "feature_scale": 1e8}),
     "sigma", None),
    (found_case(topology={"kind": "grid2d", "rows": 2, "cols": 1}, loss="absolute",
                algorithms=["ns_adfs"], sigma=1e8,
                dataset={"kind": "synthetic", "d": 2, "seed": 1, "feature_scale": 1e8}),
     None, None),
    (found_case(topology={"kind": "line", "n": 2}, loss="absolute", algorithms=["ns_adfs"],
                m=2, sigma=1e-3,
                dataset={"kind": "synthetic", "d": 1, "seed": 0, "feature_scale": 1e4}),
     "sigma", None),
    (found_case(topology={"kind": "line", "n": 4}, loss="absolute", algorithms=["ns_adfs"],
                m=2, sigma=1.0, dataset={"kind": "synthetic", "d": 1, "seed": 3,
                                         "correlation": 0.99, "feature_scale": 1e3}),
     None, None),
    # 1 / sigma overflows, with features so small that kappa_s stays finite
    (found_case(sigma=1e-310, dataset=TINY_FEATURES), "sigma", "sigma"),
    (found_case(sigma=1e-310, loss="absolute", algorithms=["ns_adfs"], dataset=TINY_FEATURES),
     "sigma", "sigma"),
    # a dense feature buffer past data.DENSE_MAX, from a synthetic d and from
    # a LibSVM index
    (found_case(dataset={"kind": "synthetic", "d": 10**15, "seed": 2}), "dataset.d", "dataset.d"),
    (found_case(dataset={"kind": "libsvm", "path": "huge.svm"}), "dataset.path", "dataset.path"),
    # d x d matrices past data.DENSE_MAX, from a synthetic d and from a
    # LibSVM index
    (found_case(dataset={"kind": "synthetic", "d": 40000, "seed": 2}), "dataset.d", "dataset.d"),
    (found_case(topology={"kind": "complete", "n": 2},
                dataset={"kind": "libsvm", "path": "wide.svm"}),
     "dataset.path", "dataset.path"),
    # sigma_i + 2 lambda_i so far apart that the D~-scaled Laplacian's kernel
    # reads as more than one dimension
    (found_case(sigma=[1e150, 1, 1e150]), "sigma", "sigma"),
    (found_case(topology={"kind": "grid2d", "rows": 3, "cols": 2}, loss="squared",
                sigma=[1e150, 1e-50, 1e300, 1e-150, 1e8, 1e-300],
                dataset={"kind": "synthetic", "d": 2, "seed": 4, "feature_scale": 1e-8}),
     "sigma", "sigma"),
    # the reference's Newton system is singular to working precision
    (found_case(topology={"kind": "line", "n": 1}, loss="squared", m=1, tau=0.0, sigma=1e-8,
                dataset={"kind": "synthetic", "d": 2, "correlation": 0.5, "seed": 7,
                         "feature_scale": 1e50}),
     "dataset.feature_scale", "dataset.feature_scale"),
    # eta~_ij L_ij underflows, so the logistic prox's PROX_STEP is 0
    (found_case(topology={"kind": "complete", "n": 1}, m=4, sigma=1e50,
                dataset={"kind": "synthetic", "d": 3, "seed": 7, "feature_scale": 1e-150}),
     "sigma", "sigma"),
    # ||grad F|| of the reference overflows at its start
    (found_case(topology={"kind": "line", "n": 2}, loss="squared", tau=5.0, sigma=1e300,
                dataset={"kind": "synthetic", "d": 1, "correlation": 0.99, "seed": 0,
                         "feature_scale": 1e150}),
     "sigma", "sigma"),
    # Point-SAGA's prox step eta_inner ||x_j||^2 underflows to 0, and `run`
    # ended in a division by zero
    (found_case(m=4, algorithms=["point_saga"], sigma=[1e150, 1e150, 1e300],
                dataset={"kind": "synthetic", "d": 2, "correlation": 0.99, "seed": 8,
                         "feature_scale": 1e-50}),
     "sigma", "sigma"),
    # alpha is subnormal (about 4e-316), eta = rho / (alpha / 2) overflows, and
    # the broken prox identity blamed the features
    (found_case(topology={"kind": "line", "n": 2, "weights": [1e-8]}, sigma=1e300),
     "sigma", "sigma"),
    # a subnormal p_comm makes rho and the conjugate-prox steps underflow: the
    # round table held nan, which blamed the features
    (found_case(p_comm=1e-320), "p_comm", "p_comm"),
    # the noise term alone put a squared-loss label past RANGE_HI, which
    # blamed the features
    (found_case(loss="squared", dataset={"kind": "synthetic", "d": 2, "seed": 2, "noise": 1e30}),
     "dataset.noise", "dataset.noise"),
]


def found_examples(test):
    """The Hypothesis test `test` with each config of FOUND as an example."""
    for data, _, _ in FOUND:
        test = example(data)(test)
    return test


def cli_outcomes(data):
    """{command: (exit code, stderr, warning messages, whether `run`'s --out
    directory exists afterwards)} of `spectrum` and then `run` on config
    `data`, in a temporary directory that holds the LibSVM files of the
    examples."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        for name, text in (("huge.svm", HUGE_INDEX_SVM), ("wide.svm", WIDE_INDEX_SVM)):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out_dir = os.path.join(tmp, "out")
        for argv in (["spectrum", path], ["run", path, "--out", out_dir]):
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                code = cli(argv)
            out[argv[0]] = (code, err.getvalue(), [str(w.message) for w in caught],
                            os.path.exists(out_dir))
    return out


class TestCli:
    @settings(max_examples=60, deadline=None)
    @given(cli_configs())
    @found_examples
    def test_random_config_exits_zero_or_names_a_field(self, data):
        for command, (code, err, caught, wrote) in cli_outcomes(data).items():
            named = re.fullmatch(r"error: [\w.\[\]]+: .*\n", err)
            assert code == 0 or (code == 1 and named and not wrote), (command, code, err, wrote)
            assert not caught, (command, caught)

    @pytest.mark.parametrize("data,run_field,spectrum_field",
                             [case for case in FOUND if case[1] is not None],
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_found_configs_name_their_field(self, data, run_field, spectrum_field):
        outcomes = cli_outcomes(data)
        for command, field in (("run", run_field), ("spectrum", spectrum_field)):
            code, err, caught, wrote = outcomes[command]
            if field is None:
                assert (code, err) == (0, ""), command
            else:
                assert code == 1, command
                assert re.fullmatch(rf"error: {re.escape(field)}: .*\n", err), (command, err)
                assert not wrote, command  # a failing config writes nothing
            assert not caught, (command, caught)

    @pytest.mark.parametrize("tau", [RANGE_LO, RANGE_HI])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("sigma", [RANGE_LO, RANGE_HI])
    @pytest.mark.parametrize("loss", ["logistic", "squared", "absolute"])
    def test_range_corners_exit_zero_or_name_a_retained_field(self, loss, sigma, end, tau):
        # the feature scale puts the smallest (end "lo") or the largest ("hi")
        # row norm or nonzero |label| of the noise-free pool at that end of the
        # range; every derived constant is then a normal float, and only the
        # checks that outlive the range rule may fail: the reference's stall
        # and the D~-scaled kernel (sigma) and the eigensolves (topology.weights)
        feats, labels = synth_pool(12, 2, 3, 0.5, noise=0.0, unit_labels=LOSSES[loss].unit_labels)
        mags = np.concatenate([np.linalg.norm(feats, axis=1),
                               [] if loss == "logistic" else np.abs(labels)])
        scale = (RANGE_LO / mags.min() * (1 + 1e-9) if end == "lo" else
                 RANGE_HI / mags.max() * (1 - 1e-9))
        data = found_case(loss=loss, m=4, sigma=sigma, tau=tau,
                          algorithms=["ns_adfs"] if loss == "absolute" else
                          ["adfs", "adfs_efficient", "point_saga"],
                          dataset={"kind": "synthetic", "d": 2, "seed": 3, "correlation": 0.5,
                                   "noise": 0.0, "feature_scale": scale})
        for command, (code, err, caught, wrote) in cli_outcomes(data).items():
            named = re.fullmatch(r"error: (sigma|topology\.weights): .*\n", err)
            assert code == 0 or (code == 1 and named and not wrote), (command, code, err)
            assert not caught, (command, caught)

    def _write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_spectrum_complete_graph_gamma_one(self, tmp_path, capsys):
        path = self._write_config(tmp_path, base_config(
            topology={"kind": "complete", "n": 4}))
        assert cli(["spectrum", path]) == 0
        out = capsys.readouterr().out
        assert "gamma = 1\n" in out or "gamma = 0.999999999" in out

    def test_run_and_override(self, tmp_path, capsys):
        path = self._write_config(tmp_path, base_config())
        out_dir = str(tmp_path / "results")
        assert cli(["run", path, "--out", out_dir, "--override", "iters=40"]) == 0
        rows = open(os.path.join(out_dir, "results.csv")).read().splitlines()[1:]
        assert len(rows) == 2 * (40 // 20 + 1)

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli(["frobnicate"])
        assert exc.value.code == 2

    def test_config_error_exits_one(self, tmp_path, capsys):
        path = self._write_config(tmp_path, base_config(loss="hinge"))
        assert cli(["run", path]) == 1
        assert "loss" in capsys.readouterr().err

    def test_bad_topology_exits_one_naming_field(self, tmp_path, capsys):
        cases = [
            ({"kind": "grid2d", "rows": 3}, "topology.cols"),
            ({"kind": "line"}, "topology.n"),
            ({"kind": "complete", "n": "4"}, "topology.n"),
            ({"kind": "custom", "edges": [[0, 1, 2]]}, "topology.edges"),
            ({"kind": "ring", "n": 4}, "topology.kind"),
            ({"kind": "custom", "edges": [[0, 1]], "n": [2]}, "topology.n"),
            ({"kind": "line", "n": 3, "weights": {"a": 1}}, "topology.weights"),
            ({"kind": "line", "n": 3, "weights": "ab"}, "topology.weights"),
            ({"kind": "line", "n": 3, "weights": [1.0, -1.0]}, "topology.weights"),
            ({"kind": "line", "n": 3, "foo": 1}, "topology.foo"),
            ({"kind": "line", "n": 3, "weights": [1.0]}, "topology.weights"),
            ({"kind": "custom", "edges": [[0, 1]], "n": 1}, "topology.edges"),
            ({"kind": "custom", "edges": [[0, 1], [1, 0]]}, "topology.edges"),
            ({"kind": "custom", "edges": [[0, 0]]}, "topology.edges"),
            ({"kind": "custom", "edges": [[0, 1]], "n": 3}, "topology.edges"),
        ]
        for topology, field in cases:
            path = self._write_config(tmp_path, base_config(topology=topology))
            assert cli(["spectrum", path]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field}:") and err.count("\n") == 1

    def test_missing_config_exits_one(self, capsys):
        assert cli(["run", "/nonexistent/config.json"]) == 1

    @pytest.mark.parametrize("module", ["adfs_lab", "adfs_lab.harness"])
    def test_module_entry_point_exits_one_on_missing_config(self, tmp_path, module):
        config = str(tmp_path / "absent.json")
        src = os.path.dirname(os.path.dirname(adfs_lab.__file__))
        out = subprocess.run([sys.executable, "-m", module, "spectrum", config],
                             capture_output=True, text=True, cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == f"error: <config>: no such file: {config}\n"

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"m": "\xff"}')
        for path, message in ((tmp_path, f"cannot read {tmp_path}: Is a directory"),
                              (latin1, f"{latin1} is not UTF-8 text: invalid start byte")):
            assert cli(["spectrum", str(path)]) == 1
            assert capsys.readouterr().err == f"error: <config>: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--override", "seeds.x=1"], "--override: seeds.x: seeds is not an object"),
        (["spectrum", "--override", "topology.kind.x=1"],
         "--override: topology.kind.x: topology.kind is not an object"),
        (["spectrum", "--override", "m.=3"],
         "--override: expected a key of dot-separated names, got 'm.'"),
        (["spectrum", "--override", "=3"],
         "--override: expected a key of dot-separated names, got ''"),
        (["sweep", "--vary", "seeds.x=1,2"], "--vary: seeds.x: seeds is not an object"),
        (["sweep", "--vary", "topology..n=2,3"],
         "--vary: expected a key of dot-separated names, got 'topology..n'"),
    ], ids=["through-list", "through-string", "trailing-dot", "empty-key", "vary-through-list",
            "vary-empty-name"])
    def test_bad_override_key_exits_one_naming_flag(self, tmp_path, capsys, argv, message):
        command, *flags = argv
        outputs = ["--out", str(tmp_path)] if command == "sweep" else []
        config = os.path.join(ROOT, "configs", "pcomm_sweep.json")
        assert cli([command, config, *flags, *outputs]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.listdir(tmp_path)

    def test_override_of_a_non_object_config_names_root(self, tmp_path, capsys):
        path = self._write_config(tmp_path, [base_config()])
        assert cli(["spectrum", path, "--override", "m=3"]) == 1
        assert capsys.readouterr().err == "error: <root>: config must be an object\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("source", ["--out", "out"])
    @pytest.mark.parametrize("blocked", ["parent", "output"])
    def test_unwritable_output_names_its_source(self, tmp_path, capsys, command, source, blocked):
        # a directory under a regular file cannot be made; an output file
        # that is a directory cannot be opened
        if blocked == "parent":
            (tmp_path / "file").write_text("")
            out_dir = tmp_path / "file" / "sub"
        else:
            out_dir = tmp_path / "results"
            (out_dir / ("sweep.csv" if command == "sweep" else "results.csv")).mkdir(parents=True)
        over = {"out": str(out_dir), "stop_at_subopt": 1e-3} if source == "out" else {}
        path = self._write_config(tmp_path, base_config(**over))
        argv = [command, path] + (["--out", str(out_dir)] if source == "--out" else [])
        if command == "sweep":
            argv += ["--vary", "tau=2,3", "--override", "stop_at_subopt=1e-3"]
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {source}: cannot write {re.escape(str(out_dir))}: .+\n", err)

    @pytest.mark.parametrize("over,field", [
        ({"reference": {"tol": "x"}}, "reference.tol"),
        ({"reference": {"ns_iters": "x"}}, "reference.ns_iters"),
        ({"reference": {"ns_seeds": 3}}, "reference.ns_seeds"),
        ({"reference": {"toll": 1e-3}}, "reference.toll"),
        ({"dataset": {"kind": "synthetic", "d": 2, "pool": "x"}}, "dataset.pool"),
        ({"dataset": {"kind": "synthetic", "d": 2, "noise": "x"}}, "dataset.noise"),
        ({"dataset": {"kind": "synthetic", "d": 2, "corelation": 0.1}},
         "dataset.corelation"),
        ({"m": True}, "m"),
        ({"out": 5}, "out"),
        ({"tau": 1e400}, "tau"),
        ({"stop_at_subopt": 1e400}, "stop_at_subopt"),
        ({"sigma": 1e400}, "sigma"),
        ({"reference": {"tol": 1e400}}, "reference.tol"),
        ({"loss": ["logistic"]}, "loss"),
        ({"loss": {"kind": "logistic"}}, "loss"),
        ({"m": 5, "dataset": {"kind": "synthetic", "d": 2, "pool": 3}}, "m"),
        ({"m": 5, "dataset": {"kind": "libsvm", "path": "three.svm"}}, "m"),
        ({"topology": {"kind": "line", "n": 3}, "p_comm": 0}, "p_comm"),
        ({"topology": {"kind": "complete", "n": 1}, "p_comm": 0.5}, "p_comm"),
        ({"topology": {"kind": "complete", "n": 1}, "loss": "absolute",
          "algorithms": ["ns_adfs"]}, "topology"),
        ({"algorithms": ["adfs", "adfs"]}, "algorithms[1]"),
        ({"seeds": [0, 1, 0]}, "seeds[2]"),
        ({"topology": {"kind": "line", "n": 3, "weights": [1, 1e-5]}}, "topology.weights"),
        ({"topology": {"kind": "complete", "n": 2, "weights": [1e-200]}}, "topology.weights"),
        ({"dataset": {"kind": "synthetic", "d": 2, "feature_scale": 1e-300}},
         "dataset.feature_scale"),
        ({"m": 2, "dataset": {"kind": "libsvm", "path": "bare.svm"}}, "dataset.path"),
        # sigma outside the range, which load_config checks before the dataset
        ({"topology": {"kind": "line", "n": 2, "weights": [1e8]}, "sigma": 1e-300}, "sigma"),
        ({"topology": {"kind": "line", "n": 3}, "sigma": 1e-310,
          "dataset": {"kind": "synthetic", "d": 2, "seed": 2, "feature_scale": 1e4}}, "sigma"),
        ({"topology": {"kind": "line", "n": 1}, "loss": "squared", "m": 1,
          "dataset": {"kind": "synthetic", "d": 1, "seed": 0, "feature_scale": 1e154}},
         "dataset.feature_scale"),
        ({"topology": {"kind": "line", "n": 1}, "m": 1, "sigma": 1e-300,
          "dataset": {"kind": "synthetic", "d": 1, "seed": 0, "feature_scale": 1e150}}, "sigma"),
        ({"topology": {"kind": "line", "n": 3}, "sigma": 1e-310, "dataset": TINY_FEATURES},
         "sigma"),
        ({"topology": {"kind": "line", "n": 3}, "sigma": 1e-310, "dataset": TINY_FEATURES,
          "loss": "absolute", "algorithms": ["ns_adfs"]}, "sigma"),
        # LibSVM files: a bad token, a directory, bytes that are not UTF-8, nan labels
        ({"dataset": {"kind": "libsvm", "path": "nope.svm"}}, "dataset.path"),
        ({"dataset": {"kind": "libsvm", "path": "dir.svm"}}, "dataset.path"),
        ({"dataset": {"kind": "libsvm", "path": "latin1.svm"}}, "dataset.path"),
        ({"topology": {"kind": "line", "n": 2}, "dataset": {"kind": "libsvm", "path": "nan.svm"}},
         "dataset.path"),
        # dense feature buffers past data.DENSE_MAX
        ({"dataset": {"kind": "libsvm", "path": "huge.svm"}}, "dataset.path"),
        ({"dataset": {"kind": "synthetic", "d": 10**15}}, "dataset.d"),
        # d x d matrices past data.DENSE_MAX
        ({"dataset": {"kind": "libsvm", "path": "wide.svm"}}, "dataset.path"),
        ({"dataset": {"kind": "synthetic", "d": 40000}}, "dataset.d"),
        # a budget for no algorithm
        ({"iters": {"adfs": 100, "pointsaga": 7}}, "iters.pointsaga"),
    ])
    def test_bad_field_exits_one_naming_field(self, tmp_path, monkeypatch, capsys, over, field):
        monkeypatch.chdir(tmp_path)  # the LibSVM cases read their files from here
        (tmp_path / "three.svm").write_text("1 1:0.5\n-1 2:1.0\n1 1:2.0\n")
        (tmp_path / "bare.svm").write_text("1 1:0.5\n-1\n")  # a bare-label line
        (tmp_path / "nope.svm").write_text("1 1:0.5\n1 nope\n")
        (tmp_path / "dir.svm").mkdir()
        (tmp_path / "latin1.svm").write_bytes(b"1 1:0.5\n\xff 2:1.0\n")
        (tmp_path / "nan.svm").write_text("nan 1:0.5 2:1.0\n" * 40)
        (tmp_path / "huge.svm").write_text(HUGE_INDEX_SVM)
        (tmp_path / "wide.svm").write_text(WIDE_INDEX_SVM)
        path = self._write_config(tmp_path, base_config(**over))
        assert cli(["run", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}:") and err.count("\n") == 1

    def test_eigensolve_failure_names_weights(self, tmp_path, monkeypatch, capsys):
        def fail(mat):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(augmented, "symmetric_eigensolve", fail)
        path = self._write_config(tmp_path, base_config())
        assert cli(["spectrum", path]) == 1
        assert capsys.readouterr().err == (
            "error: topology.weights: Eigenvalues did not converge\n")

    def test_missing_libsvm_file_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.svm")
        path = self._write_config(tmp_path, base_config(
            dataset={"kind": "libsvm", "path": missing, "seed": 0}))
        for argv in (["spectrum", path], ["run", path, "--out", str(tmp_path / "out")]):
            assert cli(argv) == 1
            err = capsys.readouterr().err
            assert err == f"error: dataset.path: no such file: {missing}\n"

    @pytest.mark.parametrize("loss,label", [("logistic", "nan"), ("absolute", "-inf")])
    def test_non_finite_label_names_its_line(self, tmp_path, capsys, loss, label):
        # the whole file is checked, whichever rows the nodes draw, before the
        # sign map
        svm = tmp_path / "labels.svm"
        svm.write_text(f"1 1:0.5\n# note\n\n-1 2:1.0\n{label} 1:2.0\n" + "1 1:1 2:1\n" * 8)
        over = {"loss": loss, "m": 1, "dataset": {"kind": "libsvm", "path": str(svm)}}
        if loss == "absolute":
            over["algorithms"] = ["ns_adfs"]
        path = self._write_config(tmp_path, base_config(**over))
        assert cli(["spectrum", path]) == 1
        assert capsys.readouterr().err == (
            f"error: dataset.path: line 5, column 1: non-finite label {label!r}\n")

    @pytest.mark.parametrize("m", [2, 40])
    def test_non_finite_value_in_any_row_names_its_line(self, tmp_path, capsys, m):
        # a NaN value on the last line fails the read whether or not a node
        # draws its row
        svm = tmp_path / "values.svm"
        svm.write_text("-1 1:0.5 2:1.0\n" * 39 + "1 1:nan 2:1.0\n")
        path = self._write_config(tmp_path, base_config(
            topology={"kind": "line", "n": 2}, loss="squared", m=m,
            dataset={"kind": "libsvm", "path": str(svm)}))
        assert cli(["spectrum", path]) == 1
        assert capsys.readouterr().err == (
            "error: dataset.path: line 40, column 3: non-finite value '1:nan'\n")

    def test_gen_data_roundtrips(self, tmp_path):
        out = str(tmp_path / "gen.svm")
        assert cli(["gen-data", "--samples", "15", "--d", "3", "--seed", "2",
                    "--out", out]) == 0
        read = parse_libsvm(out)
        assert len(read.labels) == 15 and read.dim == 3

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "-5"), ("--d", "0"), ("--d", "1000000000000000"),
        ("--correlation", "1.0"), ("--correlation", "-0.1"), ("--out", "missing/gen.svm"),
    ])
    def test_gen_data_bad_flag_exits_one_naming_flag(self, tmp_path, capsys, flag, value):
        flags = {"--samples": "15", "--d": "3", "--out": "gen.svm", flag: value}
        flags["--out"] = str(tmp_path / flags["--out"])
        assert cli(["gen-data", *(tok for pair in flags.items() for tok in pair)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}:") and err.count("\n") == 1
        assert not os.listdir(tmp_path)


def grid_config(**over):
    """The figure analogue's config on a 2x2 grid with 10 samples of dimension 3."""
    with open(os.path.join(ROOT, "configs", "fig_analogue.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data.update(topology={"kind": "grid2d", "rows": 2, "cols": 2}, m=10, seeds=[0],
                dataset=dict(data["dataset"], d=3))
    data.update(over)
    return data


def test_rate_window_clears_the_rounding_of_subopt(tmp_path):
    # configs/pcomm_sweep.json run on past convergence, as CI's off-grid run
    # is: from iteration 1 500 on, F - F* reads 0 or one or two ulps of
    # f_star (89.77).  A window down to 100 reference_gap (1.5e-15) fitted
    # those rows too, 80 in all, and read a rate 11.5 times the predicted
    # one; the window now ends at 100 ulps, where 25 rows measure no rate
    with open(os.path.join(ROOT, "configs", "pcomm_sweep.json"), encoding="utf-8") as fh:
        cfg = load_config(dict(json.load(fh), iters=20030, stop_at_subopt=None))
    _, csv_path, meta = run_experiment(cfg, *certified(cfg), str(tmp_path))
    with open(csv_path, encoding="utf-8") as fh:
        subopts = [float(row["subopt"]) for row in csv.DictReader(fh)]
    ulp = math.ulp(meta["derived"]["f_star"])
    assert sum(s <= 2 * ulp for s in subopts) >= FIT_MIN_POINTS
    assert 100 * meta["derived"]["reference_gap"] < 2 * ulp
    efficiency = meta["rate_efficiency"]["adfs"]
    assert efficiency is None or 0.0 < efficiency <= 1.0
    assert meta["measured_time_per_log_eps"]["adfs"] == {"median": None, "fit_points": 25}


# one committed config per branch of build_augmented: smooth with edges,
# non-smooth, smooth without edges
BUILD_BRANCHES = {
    "smooth": ("fig_analogue.json", {}),
    "nonsmooth": ("pcomm_sweep.json", {"loss": "absolute", "algorithms": ["ns_adfs"]}),
    "edgeless": ("pcomm_sweep.json", {"topology": {"kind": "line", "n": 1}}),
}


def _branch_instance(branch):
    name, over = BUILD_BRANCHES[branch]
    with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
        return build_instance(load_config(dict(json.load(fh), **over)))


@pytest.mark.parametrize("branch, calls", [("smooth", 16 + 3), ("nonsmooth", 1),
                                           ("edgeless", 1)])
def test_build_eigensolve_count(branch, calls):
    # a smooth build solves each node's Gram and three n x n Laplacian
    # congruences, the non-smooth one the Laplacian alone, an edgeless one the
    # Grams alone
    solve = augmented.symmetric_eigensolve
    with mock.patch.object(augmented, "symmetric_eigensolve", wraps=solve) as in_aug, \
            mock.patch.object(objective, "symmetric_eigensolve", wraps=solve) as in_obj:
        _branch_instance(branch)
    assert in_aug.call_count + in_obj.call_count == calls


class TestSweep:
    def _cli(self, tmp_path, capsys, data, *argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        code = cli([argv[0], str(config), "--out", str(tmp_path / "out"), *argv[1:]])
        return code, capsys.readouterr()

    def test_run_prints_and_records_median_time_to_target(self, tmp_path, capsys):
        # at the config's log_every 200 no cell logs enough rows for a rate;
        # at 1 every cell does
        for log_every in (200, 1):
            code, out = self._cli(tmp_path, capsys, grid_config(seeds=[0, 1, 2],
                                                                log_every=log_every), "run")
            assert code == 0
            printed = {line.split(":")[0]: line for line in out.out.splitlines()[1:]}
            meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
            # the recorded median is that of the first logged time at the target
            first = {}
            for line in (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]:
                algo, seed, _, time, subopt = line.split(",")
                if float(subopt) <= 1e-5:
                    first.setdefault((algo, seed), float(time))
            assert sorted(printed) == ["adfs", "point_saga"]
            for algo, line in printed.items():
                median = float(np.median([first[(algo, s)] for s in "012"]))
                assert meta["median_time_to_target"][algo] == median > 0
                rate = meta["measured_time_per_log_eps"][algo]
                efficiency = meta["rate_efficiency"][algo]
                measured = (f"not measured, {rate['fit_points']} fit points"
                            if log_every == 200 else
                            f"{rate['median']:.0f} ({rate['fit_points']} fit points)")
                assert line == (f"{algo}: median time to 1e-05 = {median:.0f}, measured time "
                                f"per log-eps = {measured}, rate efficiency = "
                                + ("null" if efficiency is None else f"{efficiency:.3f}"))
                # the predicted rate is ADFS's alone
                assert (efficiency is None) == (algo == "point_saga" or log_every == 200)

    def test_sweep_measures_every_value(self, tmp_path, capsys):
        values = ["0.05", "0.1", "0.2", "0.4", "0.6", "0.8"]
        data = grid_config(m=5, dataset={"kind": "synthetic", "d": 2, "seed": 7},
                           iters={"adfs": 4000, "point_saga": 4000}, log_every=1,
                           stop_at_subopt=1e-3)
        code, out = self._cli(tmp_path, capsys, data, "sweep",
                              "--vary", "p_comm=" + ",".join(values))
        assert code == 0 and out.out == f"wrote {tmp_path / 'out' / 'sweep.csv'}\n"
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("value,p_comm,rho,predicted_time_per_log_eps,"
                            "median_time_adfs,median_time_point_saga,"
                            "measured_time_per_log_eps_adfs,measured_time_per_log_eps_point_saga,"
                            "rate_efficiency_adfs,rate_efficiency_point_saga,status")
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == values
        for value, p_comm, rho, pred, adfs, saga, *rates, status in rows:
            assert float(p_comm) == float(value) and float(rho) > 0
            assert float(pred) == pytest.approx(
                (1 - float(value) + 5 * float(value)) / float(rho), rel=1e-11)
            assert np.isfinite(float(adfs)) and np.isfinite(float(saga)) and status == "0"
            meta = json.loads((tmp_path / "out" / f"p_comm={value}" / "metadata.json").read_text())
            assert float(adfs) == meta["median_time_to_target"]["adfs"]
            # the rate columns hold the metadata's medians, empty where null
            algos = ("adfs", "point_saga")
            expect = [meta["measured_time_per_log_eps"][a]["median"] for a in algos]
            expect += [meta["rate_efficiency"][a] for a in algos]
            assert rates == ["" if x is None else f"{x:.12e}" for x in expect]
            assert rates[3] == ""  # Point-SAGA has no predicted rate
        # point_saga runs on the pooled samples, which p_comm does not change
        assert len({row[5] for row in rows}) == 1

    def test_sweep_rerun_is_byte_identical(self, tmp_path, capsys):
        data = grid_config(seeds=[0, 1], stop_at_subopt=1e-3)
        outputs = []
        for _ in range(2):
            code, _ = self._cli(tmp_path, capsys, data, "sweep", "--vary", "tau=1,5",
                                "--override", "algorithms=[\"adfs\"]")
            assert code == 0
            outputs.append((tmp_path / "out" / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3

    @pytest.mark.parametrize("vary,field", [
        ("p_comm=0.5,1.5", "p_comm"),  # the second value is out of range
        ("p_comm=0.5,0", "p_comm"),  # a graph with edges needs p_comm > 0
        ("topology.weights=[1,2,3,4]", "topology.weights"),  # a list splits at its commas
        ("p_com=0.5", "p_com"),
        ("p_comm=0.2,0.2", "--vary"),
        ("p_comm", "--vary"),
        ("stop_at_subopt=1e-3,null", "stop_at_subopt"),
    ])
    def test_bad_value_fails_before_any_run(self, tmp_path, capsys, vary, field):
        code, out = self._cli(tmp_path, capsys, grid_config(), "sweep", "--vary", vary)
        assert code == 1 and out.out == ""
        assert out.err.startswith(f"error: {field}:") and out.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_reference_error_writes_nothing(self, tmp_path, capsys):
        # every value's optimum is certified before the first value writes
        data = found_case(iters=200, log_every=100, stop_at_subopt=1e-3)
        code, out = self._cli(tmp_path, capsys, data, "sweep", "--vary", "sigma=1,1e-300")
        assert code == 1 and out.out == ""
        assert out.err.startswith("error: sigma:") and out.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_each_value_gets_its_own_directory(self, tmp_path, capsys, monkeypatch):
        # a value's path separators and "%" are escaped in its directory name
        monkeypatch.chdir(tmp_path)
        os.makedirs(os.path.join("d", "sub"))
        assert cli(["gen-data", "--samples", "60", "--d", "2", "--out", "d/a.svm"]) == 0
        for copy in ("d/sub/a.svm", "d%2Fa.svm"):
            with open("d/a.svm", "rb") as src, open(copy, "wb") as dst:
                dst.write(src.read())
        values = ["d/a.svm", "d/sub/../a.svm", "d%2Fa.svm"]
        data = found_case(m=5, dataset={"kind": "libsvm", "path": "d/a.svm"},
                          stop_at_subopt=1e-3)
        code, _ = self._cli(tmp_path, capsys, data, "sweep",
                            "--vary", "dataset.path=" + ",".join(values))
        assert code == 0
        names = ["dataset.path=d%2Fa.svm", "dataset.path=d%2Fsub%2F..%2Fa.svm",
                 "dataset.path=d%252Fa.svm"]
        assert sorted(os.listdir(tmp_path / "out")) == sorted(names + ["sweep.csv"])
        for name, value in zip(names, values):
            meta = json.loads((tmp_path / "out" / name / "metadata.json").read_text())
            assert meta["config"]["dataset"]["path"] == value
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == values

    def test_overlong_directory_name_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # the second value's directory name passes the 255-byte limit of a
        # file name, though each component of its path is short enough
        monkeypatch.chdir(tmp_path)
        deep = os.path.join("d", "x" * 120, "y" * 120)
        os.makedirs(deep)
        for path in ("a.svm", os.path.join(deep, "a.svm")):
            assert cli(["gen-data", "--samples", "60", "--d", "2", "--out", path]) == 0
        capsys.readouterr()
        data = found_case(m=5, dataset={"kind": "libsvm", "path": "a.svm"}, stop_at_subopt=1e-3)
        code, out = self._cli(tmp_path, capsys, data, "sweep", "--vary",
                              f"dataset.path=a.svm,{os.path.join(deep, 'a.svm')}")
        assert code == 1 and out.out == ""
        assert out.err.startswith("error: --vary:") and out.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_each_config_is_built_once(self, tmp_path):
        # a sweep runs the instances its up-front check built
        config = os.path.join(ROOT, "configs", "pcomm_sweep.json")
        sweep = ["sweep", config, "--out", str(tmp_path / "sweep"), "--vary", "p_comm=0.05,0.133"]
        run = ["run", config, "--out", str(tmp_path / "run")]
        for argv, builds in ((sweep, 2), (run, 1), (["spectrum", config], 1)):
            with mock.patch.object(harness, "build_instance", wraps=harness.build_instance) as spy:
                assert cli(argv) == 0, argv
            assert spy.call_count == builds, argv


def run_script(name, *args, cwd):
    """stdout of scripts/<name> run on the source tree; fails on a non-zero exit."""
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                         capture_output=True, text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestScripts:
    def test_prox_crossover_times_both_kernels(self, tmp_path):
        out = run_script("prox_crossover.py", "--grids", "2x2,5x5", "--m", "5", "--d", "2",
                         "--iters", "100", "--reps", "1", cwd=tmp_path)
        table = [line.split() for line in out.splitlines()[2:]]
        assert [int(row[0]) for row in table] == [4, 25]
        # n, rounds, loop us, batch us, batch/loop, loop us per element, max
        # difference, and redone/elements of the loop and of the batch kernel
        assert all(int(rounds) > 0 and float(s) > 0 and float(b) > 0 and float(diff) <= 1e-12
                   and all(int(r.split("/")[1]) >= int(rounds) for r in redone)
                   for _, rounds, s, b, _, _, diff, *redone in table)

    def test_ab_time_times_both_trees(self, tmp_path):
        src = os.path.join(ROOT, "src")
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(base_config(
            topology={"kind": "grid2d", "rows": 2, "cols": 2},
            algorithms=["adfs", "adfs_efficient", "point_saga"], seeds=[0, 1], iters=40,
            stop_at_subopt=1e-3)))
        out = run_script("ab_time.py", src, src, str(config), "--reps", "2", cwd=tmp_path)
        setup, *table = [line.split() for line in out.splitlines()[1:]]
        # first the set-up: "setup", old ms, new ms, change
        assert setup[0] == "setup" and len(setup) == 4
        assert float(setup[1]) > 0 and float(setup[2]) > 0
        # then per seed: one row per algorithm, then their sum
        assert [row[:2] for row in table] == [
            [algo, seed] for seed in ("0", "1")
            for algo in ("adfs", "adfs_efficient", "point_saga", "sum")]
        cells = [row for row in table if row[0] != "sum"]
        # algo, seed, old ms, new ms, change, old stop, new stop, match
        assert all(float(old) > 0 and float(new) > 0 and old_stop == new_stop and match == "True"
                   for _, _, old, new, _, old_stop, new_stop, match in cells)


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_exist():
    # perfbench/tracer.py names the functions it wraps; a renamed one would
    # leave its span silently empty
    tracer = load_tracer()
    missing = [f"{module}.{name}" for module, name, _ in tracer.SPANS
               if not callable(getattr(importlib.import_module(f"adfs_lab.{module}"), name, None))]
    assert missing == []


@pytest.mark.parametrize("name, span, loss", [
    ("run_adfs", "adfs.adfs", "logistic"),
    ("run_adfs_efficient", "adfs.adfs_efficient", "logistic"),
    ("run_ns_adfs", "adfs.ns_adfs", "absolute"),
])
def test_traced_solver_counts_its_own_draws(name, span, loss):
    # perfbench/tracer.py wraps each solver name by identity; a public name
    # that called (or was) another would nest their spans, and the inner span
    # would take every draw of the run
    tracer = load_tracer()
    algo = "adfs" if loss == "logistic" else "ns_adfs"
    _, _, problem, _, _ = build_instance(load_config(grid_config(loss=loss, algorithms=[algo],
                                                                  iters=60)))
    solvers = importlib.import_module("adfs_lab.adfs")
    with tracer.Tracer().installed(adfs_lab) as traced:
        getattr(solvers, name)(problem, 60, 0, log_every=20)
    assert {s: traced.counts[s + ".iters"] for s in tracer.SOLVER_SPANS} == {
        s: 60 if s == span else 0 for s in tracer.SOLVER_SPANS}


def test_benchmark_reads_resolve():
    # the attributes perfbench/run.py and perfbench/yardstick.py read on the
    # program's objects, beside the functions the tracer wraps
    smooth = {"logistic": True, "squared": True, "absolute": False}
    assert set(smooth) == set(LOSSES)
    for name, is_smooth in smooth.items():
        cfg = load_config(grid_config(loss=name, iters=0,
                                      algorithms=["adfs" if is_smooth else "ns_adfs"]))
        assert cfg.loss_kind.is_smooth is is_smooth
    _, _, problem, flat, _ = build_instance(load_config(grid_config()))
    assert (problem.n_rows, problem.d) == (4 + 4 * 10, 3)
    assert flat.feature_matrix.shape == (40, 3) and flat.labels.shape == (40,)
    assert flat.sigma_total == 4.0


def test_export_lists_resolve():
    # a deletion that leaves a stale name in a module's __all__ breaks
    # `import *`; the package itself imports its names, so it fails on import
    stale = []
    for info in pkgutil.iter_modules(adfs_lab.__path__):
        module = importlib.import_module(f"adfs_lab.{info.name}")
        stale += [f"{info.name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert stale == []
