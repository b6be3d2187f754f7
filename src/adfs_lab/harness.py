"""Experiment orchestration, CSV emission, and the CLI.

A single JSON config file describes topology, data source, loss, algorithms,
seeds and budgets; `build_instance` builds its instance once, `certify`
certifies its reference optimum, and `run_experiment` executes every
(algorithm, seed) cell on that instance, writes one CSV of
`algo,seed,iter,time,subopt` rows plus a metadata sidecar with every derived
constant, and is byte-deterministic for a fixed config.
The samples come from the data layer in `data`.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .adfs import run_adfs, run_adfs_efficient, run_ns_adfs
from .augmented import ScaleError, balanced_p_comm, build_augmented, expected_time, rate_branches
from .baselines import certified_optimum, point_saga, pool_objectives
from .data import (DENSE_MAX, RANGE_HI, RANGE_LO, LibsvmData, LibsvmParseError,
                   assign_node_datasets, in_range, parse_libsvm, synth_dataset, synth_pool,
                   write_libsvm)
from .objective import LOSSES, LocalObjective
from .records import fit_rate
from .topology import EigensolveError, GraphConstructionError, build_topology

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "certify", "run_experiment", "cli",
           "main"]

# the solver of each algorithm; point_saga runs on the pooled samples
SOLVERS = {"adfs": run_adfs, "adfs_efficient": run_adfs_efficient, "ns_adfs": run_ns_adfs,
           "point_saga": point_saga}
ALGORITHMS = tuple(SOLVERS)
# the algorithms whose rate the build predicts (derived predicted_time_per_log_eps)
PREDICTED = ("adfs", "adfs_efficient")
FIT_HI = 0.1  # the rate fit's window in subopt is (100 reference_gap, FIT_HI)
# required integer parameters of each topology kind ("custom" needs "edges"
# and takes an optional "n"); every kind takes optional "weights"
TOPOLOGY_PARAMS = {"line": ("n",), "complete": ("n",), "grid2d": ("rows", "cols"),
                   "custom": ()}
DATASET_FIELDS = {"synthetic": ("kind", "d", "correlation", "seed", "noise", "pool",
                                "feature_scale"),
                  "libsvm": ("kind", "path", "seed")}
# `%` and the path separators, percent-encoded: the directory `key=value` of
# each sweep value is one path component, distinct for distinct values
DIR_ESCAPES = str.maketrans({c: f"%{ord(c):02X}" for c in ("%", os.sep, os.altsep) if c})
NAME_MAX = 255  # bytes in one path component on Linux and macOS file systems


class ConfigError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    topology: dict
    loss: str
    m: int
    dataset: dict
    algorithms: list
    seeds: list
    iters: dict  # per-algorithm budgets (normalized from int or dict)
    log_every: int
    sigma: object = 1.0
    tau: float = 1.0
    p_comm: float = None
    stop_at_subopt: float = None
    out: str = "results"
    reference: dict = field(default_factory=dict)

    @property
    def loss_kind(self):
        return LOSSES[self.loss]


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _is_int(value):  # JSON true/false load as bools, which are ints in Python
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):  # finite: JSON 1e400 and Infinity load as inf
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_scale(value, zero=False):  # in the inputs' range (data.in_range), or 0 if `zero`
    return _is_number(value) and (in_range(value) or zero and value == 0)


IN_RANGE = f"in [{RANGE_LO:g}, {RANGE_HI:g}]"
# the largest synthetic label noise.  A standard normal draw of numpy's
# Generator has |z| < 14, so a label's noise term stays below 1.4e-5 RANGE_HI,
# and only its feature term can put it past RANGE_HI (dataset.feature_scale)
NOISE_MAX = 1e24


def _expect_dense(rows, d, path):
    """Check a dense (rows, d) feature buffer against DENSE_MAX before it is
    allocated; `path` names the input that sets d."""
    _expect(rows * d <= DENSE_MAX, path, f"expected at most {DENSE_MAX // rows} features for "
                                         f"a dense buffer of {rows} rows, got {d}")


def _expect_instance_dense(rows, d, path):
    """`_expect_dense` for an instance's feature buffer, and the same bound on
    the d x d matrices its build forms: the Gram matrix of the condition
    numbers and the reference optimum's Newton systems."""
    _expect_dense(rows, d, path)
    _expect(d * d <= DENSE_MAX, path, f"expected at most {math.isqrt(DENSE_MAX)} features for "
                                      f"the d x d matrices of the build, got {d}")


def _expect_fields(obj, prefix, known, checks=()):
    """Reject keys of `obj` outside `known`; check each (key, predicate,
    message) of `checks` whose key is present."""
    for key in obj:
        _expect(key in known, prefix + key, "unknown config field")
    for key, ok, message in checks:
        if key in obj:
            _expect(ok(obj[key]), prefix + key, message)


def load_config(data) -> ExperimentConfig:
    """Validate a raw dict (parsed JSON) into an ExperimentConfig.

    Every error names the offending field path.
    """
    _expect(isinstance(data, dict), "<root>", "config must be an object")
    _expect_fields(data, "", ("topology", "loss", "m", "dataset", "algorithms", "seeds",
                              "iters", "log_every", "sigma", "tau", "p_comm",
                              "stop_at_subopt", "out", "reference"))

    topo = data.get("topology")
    _expect(isinstance(topo, dict) and "kind" in topo, "topology",
            'expected an object with a "kind" field')
    kind = topo["kind"]
    _expect(isinstance(kind, str) and kind in TOPOLOGY_PARAMS, "topology.kind",
            f"expected one of {sorted(TOPOLOGY_PARAMS)}, got {kind!r}")
    params = TOPOLOGY_PARAMS[kind] + (("edges", "n") if kind == "custom" else ())
    _expect_fields(topo, "topology.", ("kind", "weights", *params), (
        ("n", lambda v: _is_int(v) and v >= 1, "expected an integer >= 1"),
        ("weights", lambda v: isinstance(v, list) and all(map(_is_scale, v)),
         f"expected a list of numbers {IN_RANGE}"),
    ))
    for name in TOPOLOGY_PARAMS[kind]:
        _expect(_is_int(topo.get(name)) and topo[name] >= 1, f"topology.{name}",
                "expected an integer >= 1")
    if kind == "custom":
        edges = topo.get("edges")
        pairs_ok = isinstance(edges, list) and all(
            isinstance(e, (list, tuple)) and len(e) == 2 and all(_is_int(k) for k in e)
            for e in edges)
        _expect(pairs_ok, "topology.edges", "expected a list of [k, l] integer pairs")
    loss = data.get("loss")
    _expect(isinstance(loss, str) and loss in LOSSES, "loss",
            f"expected one of {sorted(LOSSES)}, got {loss!r}")
    m = data.get("m")
    _expect(_is_int(m) and m >= 1, "m", "expected an integer >= 1")
    sigma = data.get("sigma", 1.0)
    _expect(all(map(_is_scale, sigma)) if isinstance(sigma, list) else _is_scale(sigma), "sigma",
            f"expected a number {IN_RANGE}, or a list of them")

    ds = data.get("dataset")
    _expect(isinstance(ds, dict) and ds.get("kind") in ("synthetic", "libsvm"),
            "dataset.kind", 'expected "synthetic" or "libsvm"')
    _expect_fields(ds, "dataset.", DATASET_FIELDS[ds["kind"]], (
        ("noise", lambda v: _is_scale(v, zero=True) and v <= NOISE_MAX,
         f"expected 0 or a number in [{RANGE_LO:g}, {NOISE_MAX:g}]"),
        ("pool", lambda v: v is None or _is_int(v) and v >= 1, "expected an integer >= 1"),
        ("feature_scale", _is_scale, f"expected a number {IN_RANGE}"),
    ))
    if ds["kind"] == "synthetic":
        _expect(_is_int(ds.get("d")) and ds["d"] >= 1, "dataset.d",
                "expected an integer >= 1")
        _expect(ds.get("pool") is None or m <= ds["pool"], "m",
                f"expected at most the pool size {ds.get('pool')}, got {m}")
        corr = ds.get("correlation", 0.0)
        _expect(_is_number(corr) and 0.0 <= corr < 1.0,
                "dataset.correlation", "expected a number in [0, 1)")
    else:
        _expect(isinstance(ds.get("path"), str), "dataset.path", "expected a file path")
    _expect(_is_int(ds.get("seed", 0)), "dataset.seed", "expected an integer")

    algos = data.get("algorithms")
    _expect(isinstance(algos, list) and algos, "algorithms", "expected a non-empty list")
    for i, a in enumerate(algos):
        _expect(a in ALGORITHMS, f"algorithms[{i}]",
                f"expected one of {list(ALGORITHMS)}, got {a!r}")
        smooth = a != "ns_adfs"  # the algorithm's regime, which the loss's must match
        _expect(smooth == LOSSES[loss].is_smooth, f"algorithms[{i}]",
                f"{a} needs a smooth loss, config says {loss}" if smooth
                else "ns_adfs needs the absolute loss")
        _expect(a not in algos[:i], f"algorithms[{i}]", f"repeats {a!r}")

    seeds = data.get("seeds")
    _expect(isinstance(seeds, list) and seeds and all(_is_int(s) for s in seeds),
            "seeds", "expected a non-empty list of integers")
    for i, s in enumerate(seeds):
        _expect(s not in seeds[:i], f"seeds[{i}]", f"repeats {s}")

    log_every = data.get("log_every", 100)
    _expect(_is_int(log_every) and log_every >= 1, "log_every",
            "expected an integer >= 1")

    raw_iters = data.get("iters")
    iters = {}
    if _is_int(raw_iters):
        _expect(raw_iters >= 0, "iters", "expected >= 0")
        iters = {a: raw_iters for a in algos}
    elif isinstance(raw_iters, dict):
        _expect_fields(raw_iters, "iters.", ALGORITHMS)
        for a in algos:
            _expect(a in raw_iters, f"iters.{a}", "missing per-algorithm budget")
            _expect(_is_int(raw_iters[a]) and raw_iters[a] >= 0,
                    f"iters.{a}", "expected an integer >= 0")
            iters[a] = raw_iters[a]
    else:
        raise ConfigError("iters", "expected an integer or per-algorithm object")

    tau = data.get("tau", 1.0)
    _expect(_is_scale(tau, zero=True), "tau", f"expected 0 or a number {IN_RANGE}")
    p_comm = data.get("p_comm")
    if p_comm is not None:
        _expect(_is_scale(p_comm, zero=True) and p_comm < 1, "p_comm",
                f"expected 0 or a number in [{RANGE_LO:g}, 1)")
    stop = data.get("stop_at_subopt")
    if stop is not None:
        _expect(_is_number(stop) and stop > 0, "stop_at_subopt",
                "expected a positive number")
    _expect(isinstance(data.get("out", ""), str), "out", "expected a directory path")
    ref = data.get("reference", {})
    _expect(isinstance(ref, dict), "reference", "expected an object")
    _expect_fields(ref, "reference.", ("tol",), (
        ("tol", lambda v: _is_number(v) and v > 0, "expected a positive number"),
    ))

    return ExperimentConfig(
        topology=topo, loss=loss, m=m, dataset=ds, algorithms=list(algos),
        seeds=list(seeds), iters=iters, log_every=log_every, sigma=sigma,
        tau=float(tau), p_comm=p_comm, stop_at_subopt=stop,
        out=data.get("out", "results"), reference=dict(ref),
    )


def build_instance(cfg: ExperimentConfig):
    """Materialize (graph, objectives, problem, flat, dataset_id) from a config.

    A library error that blames an input (its `culprit`) names that input's
    config field through `blame`; an eigensolve failure names the edge weights."""
    ds = cfg.dataset
    seed = ds.get("seed", 0)
    data_field = "dataset.feature_scale" if ds["kind"] == "synthetic" else "dataset.path"
    blame = {"edges": "topology.edges", "weights": "topology.weights", "topology": "topology",
             "p_comm": "p_comm", "sigma": "sigma"}
    try:
        graph = build_topology(**cfg.topology)
        if ds["kind"] == "synthetic":
            rows = max(ds.get("pool") or 0, graph.n * cfg.m)
            _expect_instance_dense(rows, ds["d"], "dataset.d")
            per_node = synth_dataset(
                graph.n, cfg.m, ds["d"], seed, ds.get("correlation", 0.0),
                loss=cfg.loss, noise=ds.get("noise", 0.1), pool=ds.get("pool"),
                feature_scale=ds.get("feature_scale", 1.0),
            )
            dataset_id = f"synthetic(d={ds['d']},corr={ds.get('correlation', 0.0)},seed={seed})"
        else:
            with _reading("dataset.path", ds["path"]):
                data = parse_libsvm(ds["path"])
            labels = data.labels
            _expect(cfg.m <= len(labels), "m",
                    f"expected at most the {len(labels)} samples of {ds['path']}, got {cfg.m}")
            _expect_instance_dense(graph.n * cfg.m, data.dim, "dataset.path")
            if cfg.loss_kind.unit_labels:
                labels = np.where(labels > 0, 1.0, -1.0)
            per_node = assign_node_datasets(data, labels, graph.n, cfg.m, seed)
            dataset_id = f"libsvm({os.path.basename(ds['path'])},seed={seed})"

        sigmas = cfg.sigma if isinstance(cfg.sigma, list) else [cfg.sigma] * graph.n
        if len(sigmas) != graph.n:
            raise ConfigError("sigma", f"expected {graph.n} entries, got {len(sigmas)}")
        objectives = []
        for i, ((feats_i, labels_i), s) in enumerate(zip(per_node, sigmas)):
            try:
                objectives.append(LocalObjective(feats_i, labels_i, float(s), cfg.loss_kind))
            except ValueError as exc:  # sigma passed load_config: the samples are at fault
                raise ConfigError(data_field, f"node {i}: {exc}") from None
        flat = pool_objectives(objectives)
        problem = build_augmented(graph, objectives, cfg.tau, p_comm_override=cfg.p_comm)
    except (GraphConstructionError, ScaleError) as exc:
        raise ConfigError(blame[exc.culprit], str(exc)) from None
    except (EigensolveError, np.linalg.LinAlgError) as exc:
        raise ConfigError("topology.weights", str(exc)) from None
    return graph, objectives, problem, flat, dataset_id


def derived_constants(problem, flat):
    meta = {
        "n": problem.n,
        "m": problem.m_max,
        "d": problem.d,
        "edges": problem.graph.n_edges,
        "tau": problem.tau,
        "p_comm": problem.sampling.p_comm,
        "alpha": problem.alpha,
        "gamma": problem.gamma,
        "sigma_total": flat.sigma_total,
        "loss": problem.loss.name,
    }
    if problem.loss.is_smooth:
        meta.update({
            "kappa_s": problem.kappa_s,
            "kappa_b_max": float(problem.kappa_b.max()),
            "kappa_comm": problem.kappa_comm,
            "rho": problem.rho,
            "rho_unclamped": problem.rho_unclamped,
            "s_max_bound": problem.s_max_bound,
            "predicted_time_per_log_eps": expected_time(problem, 1) / problem.rho,
        })
        if problem.gamma is not None:
            meta["balanced_p_comm"] = float(
                balanced_p_comm(problem.gamma, problem.kappa_comm, problem.s_max_bound)
            )
            meta["balanced_time_bound_per_log_eps"] = float(
                np.sqrt(2.0) * problem.s_max_bound
                + problem.tau * np.sqrt(problem.kappa_comm / problem.gamma)
            )
            rc, rp = rate_branches(problem, problem.sampling.p_comm)
            meta["rho_comm_branch"] = float(rc)
            meta["rho_comp_branch"] = float(rp)
    else:
        meta.update({"s_squared": problem.s_squared,
                     "mu2_virtual": float(problem.mu2_virtual[0])})
    return meta


def _run_cell(algo, seed, cfg, problem, flat, f_star):
    common = dict(log_every=cfg.log_every, f_star=f_star, stop_at_subopt=cfg.stop_at_subopt)
    instance = flat if algo == "point_saga" else problem
    return SOLVERS[algo](instance, cfg.iters[algo], seed, **common).record


def _median_times(cfg, records):
    """Per algorithm with a budget, the median over seeds of the time to
    stop_at_subopt; a failed cell never reaches it, and a median of never is None."""
    times = {}
    for algo in cfg.algorithms:
        if cfg.iters[algo] > 0:
            median = float(np.median([
                records[(algo, s)].time_to(cfg.stop_at_subopt) if (algo, s) in records
                else np.inf for s in cfg.seeds]))
            times[algo] = median if math.isfinite(median) else None
    return times


def _measured_rates(cfg, records, derived):
    """Per algorithm with a budget, the median over seeds of the rate that
    `records.fit_rate` measures in the window (100 reference_gap, FIT_HI),
    None if a cell has none (a failed cell fits no point), with the fewest
    fit points of its cells; and, for the algorithms in PREDICTED, that
    median over the predicted time per log-accuracy (else None)."""
    measured, efficiency = {}, {}
    for algo in cfg.algorithms:
        if cfg.iters[algo] > 0:
            fits = [fit_rate(records[(algo, s)], 100.0 * derived["reference_gap"], FIT_HI)
                    if (algo, s) in records else (None, 0) for s in cfg.seeds]
            rates = [rate for rate, _ in fits]
            median = None if None in rates else float(np.median(rates))
            measured[algo] = {"median": median, "fit_points": min(n for _, n in fits)}
            efficiency[algo] = (median / derived["predicted_time_per_log_eps"]
                                if algo in PREDICTED and median is not None else None)
    return measured, efficiency


def certify(cfg: ExperimentConfig, flat):
    """(f_star, reference_gap) of a built config: the reference optimum of its
    pooled problem `flat` and the bound on |f_star - F*| that
    `certified_optimum` proved; (None, None) when no algorithm has a budget."""
    if not any(cfg.iters[a] > 0 for a in cfg.algorithms):
        return None, None
    try:
        return certified_optimum(flat, **cfg.reference)[1:]
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # its target and ridge scale with sigma
        raise ConfigError("sigma", f"no certified reference optimum for the target "
                                   f"reference.tol * sum(sigma): {exc}") from None


def run_experiment(cfg: ExperimentConfig, instance, reference, out_dir):
    """Execute all (algorithm, seed) cells on `instance`, the tuple that
    `build_instance(cfg)` returned, against `reference`, the pair that
    `certify` returned, and write results.csv + metadata.json under
    `out_dir`, which it creates.

    Returns (exit_code, csv_path, metadata): exit code 0 when every cell
    succeeded, and the dict written to metadata.json.  Cells run one after
    another and a failing cell aborts only itself.
    """
    _, _, problem, flat, dataset_id = instance
    f_star, gap = reference
    os.makedirs(out_dir, exist_ok=True)

    cells = [(a, s) for a in cfg.algorithms for s in cfg.seeds if cfg.iters[a] > 0]
    records = {}
    failures = []
    for algo, seed in cells:
        try:
            records[(algo, seed)] = _run_cell(algo, seed, cfg, problem, flat, f_star)
        except Exception as exc:  # cell failure must not sink the batch
            failures.append({"algo": algo, "seed": seed, "error": str(exc)})

    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("algo,seed,iter,time,subopt\n")
        for algo, seed in sorted(records):
            for row in records[(algo, seed)].rows:
                fh.write(f"{algo},{seed},{row.iteration},{row.time:.12e},{row.subopt:.12e}\n")

    meta = {
        "config": asdict(cfg),
        "dataset_id": dataset_id,
        "derived": dict(derived_constants(problem, flat), f_star=f_star, reference_gap=gap),
        "failures": failures,
    }
    if cfg.stop_at_subopt is not None:
        meta["median_time_to_target"] = _median_times(cfg, records)
    meta["measured_time_per_log_eps"], meta["rate_efficiency"] = _measured_rates(
        cfg, records, meta["derived"])
    meta_path = os.path.join(out_dir, "metadata.json")
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for f in failures:
        print(f"cell failed: {f['algo']} seed {f['seed']}: {f['error']}", file=sys.stderr)
    return (1 if failures else 0), csv_path, meta


# ---------------------------------------------------------------------------
# CLI


def _apply_overrides(data, items, flag):
    """Set each KEY=VALUE of `items` in the config object `data`; a dotted
    key walks into (and creates) nested objects.  Errors name `flag`."""
    for item in items:
        key, sep, raw = item.partition("=")
        _expect(sep, flag, f"expected key=value, got {item!r}")
        parts = key.split(".")
        _expect(all(parts), flag, f"expected a key of dot-separated names, got {key!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for depth, part in enumerate(parts[:-1], start=1):
            node = node.setdefault(part, {})
            _expect(isinstance(node, dict), flag,
                    f"{key}: {'.'.join(parts[:depth])} is not an object")
        node[parts[-1]] = value


def _load_config_file(path, overrides, varied=()):
    """The validated config of the JSON file at `path`, after the
    `--override` items and then the `--vary` items (both KEY=VALUE)."""
    with _reading("<config>", path), open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    _expect(isinstance(data, dict), "<root>", "config must be an object")
    _apply_overrides(data, overrides or (), "--override")
    _apply_overrides(data, varied, "--vary")
    return load_config(data)


@contextlib.contextmanager
def _reading(field, path):
    """Turn an error raised while reading or parsing the file at `path` into
    a ConfigError naming `field`, the flag or config field that set `path`."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise ConfigError(field, f"invalid JSON: {exc}") from None
    except LibsvmParseError as exc:
        raise ConfigError(field, str(exc)) from None
    except FileNotFoundError:
        raise ConfigError(field, f"no such file: {path}") from None
    except OSError as exc:
        raise ConfigError(field, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(field, f"{path} is not UTF-8 text: {exc.reason}") from None


@contextlib.contextmanager
def _writing(field, path):
    """Turn an OSError raised while writing the outputs under `path` into a
    ConfigError naming `field`, the flag or config field that set `path`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(field, f"cannot write {path}: {exc.strerror}") from None


def _cmd_run(args):
    cfg = _load_config_file(args.config, args.override)
    instance = build_instance(cfg)
    reference = certify(cfg, instance[3])
    out_dir = args.out or cfg.out
    with _writing("--out" if args.out else "out", out_dir):
        code, csv_path, meta = run_experiment(cfg, instance, reference, out_dir)
    print(f"wrote {csv_path}")
    target = cfg.stop_at_subopt
    for algo, rate in meta["measured_time_per_log_eps"].items():
        time = meta.get("median_time_to_target", {}).get(algo)
        efficiency = meta["rate_efficiency"][algo]
        reached = "not reached" if time is None else f"{time:.0f}"
        measured = (f"not measured, {rate['fit_points']} fit points" if rate["median"] is None
                    else f"{rate['median']:.0f} ({rate['fit_points']} fit points)")
        print(f"{algo}: " + ("" if target is None else f"median time to {target:g} = {reached}, ")
              + f"measured time per log-eps = {measured}, rate efficiency = "
              + ("null" if efficiency is None else f"{efficiency:.3f}"))
    return code


def _cmd_sweep(args):
    key, _, raw = args.vary.partition("=")
    values = raw.split(",")
    _expect(key and all(values), "--vary", f"expected KEY=V1,V2,..., got {args.vary!r}")
    _expect(len(set(values)) == len(values), "--vary", "repeats a value")
    runs = []
    for value in values:  # a bad value fails here, before anything is written
        name = f"{key}={value}".translate(DIR_ESCAPES)
        _expect(len(os.fsencode(name)) <= NAME_MAX, "--vary",
                f"the directory name {name!r} is longer than {NAME_MAX} bytes")
        cfg = _load_config_file(args.config, args.override, [f"{key}={value}"])
        _expect(cfg.stop_at_subopt is not None, "stop_at_subopt", "a sweep needs a target")
        instance = build_instance(cfg)
        runs.append((value, name, cfg, instance, certify(cfg, instance[3])))
    out_dir = args.out or runs[0][2].out
    algos = list(dict.fromkeys(a for _, _, cfg, _, _ in runs for a in cfg.algorithms))
    rows, status = [], 0
    csv_path = os.path.join(out_dir, "sweep.csv")
    with _writing("--out" if args.out else "out", out_dir):
        for value, name, cfg, instance, reference in runs:
            code, _, meta = run_experiment(cfg, instance, reference, os.path.join(out_dir, name))
            derived, times = meta["derived"], meta["median_time_to_target"]
            nums = [derived["p_comm"], derived.get("rho"),
                    derived.get("predicted_time_per_log_eps")]
            nums += [np.inf if times.get(a) is None else times[a] for a in algos]
            nums += [meta["measured_time_per_log_eps"].get(a, {}).get("median") for a in algos]
            nums += [meta["rate_efficiency"].get(a) for a in algos]
            rows.append([value] + ["" if x is None else f"{x:.12e}" for x in nums] + [str(code)])
            status = max(status, code)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            per_algo = ("median_time", "measured_time_per_log_eps", "rate_efficiency")
            fh.write(",".join(["value", "p_comm", "rho", "predicted_time_per_log_eps"]
                              + [f"{col}_{a}" for col in per_algo for a in algos]
                              + ["status"]) + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
    print(f"wrote {csv_path}")
    return status


def _cmd_spectrum(args):
    cfg = _load_config_file(args.config, args.override)
    _, _, problem, flat, dataset_id = build_instance(cfg)
    meta = derived_constants(problem, flat)
    print(f"dataset: {dataset_id}")
    for key in sorted(meta):
        val = meta[key]
        print(f"{key} = {val:.10g}" if isinstance(val, float) else f"{key} = {val}")
    return 0


def _cmd_gen_data(args):
    _expect(args.samples >= 1, "--samples", "expected an integer >= 1")
    _expect(args.d >= 1, "--d", "expected an integer >= 1")
    _expect(0.0 <= args.correlation < 1.0, "--correlation", "expected a number in [0, 1)")
    _expect_dense(args.samples, args.d, "--d")
    feats, labels = synth_pool(args.samples, args.d, args.seed, args.correlation,
                               loss=args.loss)
    nonzero = feats != 0.0
    indptr = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    with _writing("--out", args.out):
        write_libsvm(args.out, LibsvmData(labels, indptr, np.nonzero(nonzero)[1],
                                          feats[nonzero], args.d))
    print(f"wrote {len(labels)} samples to {args.out}")
    return 0


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adfs-lab",
        description="Simulator for accelerated decentralized finite-sum optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)  # what the config commands share
    config.add_argument("config")
    config.add_argument("--override", action="append", metavar="KEY=VALUE")
    outputs = argparse.ArgumentParser(add_help=False, parents=[config])
    outputs.add_argument("--out", default=None, help="output directory (default: config.out)")

    sub.add_parser("run", parents=[outputs], help="run the experiment cells of a config")
    p_sweep = sub.add_parser("sweep", parents=[outputs],
                             help="run a config once per value of one key")
    p_sweep.add_argument("--vary", required=True, metavar="KEY=V1,V2,...",
                         help="a config key and its values, which hold no comma")
    sub.add_parser("spectrum", parents=[config], help="print the derived constants of a config")

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset in LibSVM format")
    p_gen.add_argument("--samples", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--correlation", type=float, default=0.0)
    p_gen.add_argument("--loss", choices=sorted(LOSSES), default="logistic")
    p_gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "sweep": _cmd_sweep, "spectrum": _cmd_spectrum,
               "gen-data": _cmd_gen_data}[args.command]
    try:
        return handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console entry point
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
