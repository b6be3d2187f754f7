"""Built-in deterministic validation suite behind `adfs-lab validate`.

Each check is small, seeded, and independent of the pytest suite; together
they exercise the spectral bounds, the operator shortcuts, solver
equivalences, sampling statistics, parser round-trips and determinism.
"""

import os
import tempfile

import numpy as np

from . import augmented as aug
from . import dense
from .adfs import run_adfs, run_adfs_efficient
from .instances import random_connected_graph, random_objectives, random_problem
from .objective import condition_numbers
from .rng import BlockStream, generator
from .topology import incidence, laplacian, symmetric_eigensolve

__all__ = ["run_all"]


def _check_spectral_bound():
    rng = generator("selfcheck", 1)
    worst = np.inf
    for _ in range(5):
        prob = random_problem(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(1, 4)),
                              d=int(rng.integers(1, 4)))
        worst = min(worst, dense.exact_sigma_a(prob) - 0.5 * prob.alpha)
    return worst >= -1e-8, f"min margin {worst:.3e}"


def _check_projector_identity():
    rng = generator("selfcheck", 2)
    prob = random_problem(rng, n=3, m=3, d=3)
    a = dense.dense_A(prob)
    proj = np.linalg.pinv(a) @ a
    d = prob.d
    worst = 0.0
    for g in range(prob.n_virtual):
        col = (prob.graph.n_edges + g) * d
        theta = prob.features[g] / np.sqrt(prob.xnorm2[g])
        vec = np.zeros(a.shape[1])
        vec[col : col + d] = theta
        worst = max(worst, float(np.linalg.norm(proj @ vec - vec)))
    return worst <= 1e-8, f"max residual {worst:.3e}"


def _check_operator_shortcuts():
    rng = generator("selfcheck", 3)
    prob = random_problem(rng, n=3, m=2, d=2)
    draw = aug.BlockDraw(kind="communication")
    a = dense.dense_A(prob)
    pb = np.diag(dense.dense_pb_dagger_diag(prob, draw))
    grad_op = a @ pb @ a.T @ dense.dense_sigma_dagger(prob)
    wt_op = a @ pb @ np.linalg.pinv(a)
    shape = (prob.n_rows, prob.d)
    worst = 0.0
    for _ in range(10):
        y = rng.normal(size=aug.zero_state(prob).shape)
        grad = (grad_op @ dense.state_rows(prob, y).ravel()).reshape(shape)
        got = dense.state_rows(prob, aug.apply_comm_step(prob, y))
        worst = max(worst, float(np.max(np.abs(grad - got))))
        delta = -(prob.eta if prob.smooth else 1.0) * aug.apply_comm_step(prob, y)
        wt = (wt_op @ dense.state_rows(prob, delta).ravel()).reshape(shape)
        got = dense.state_rows(prob, aug.apply_wtilde(prob, draw, delta))
        worst = max(worst, float(np.max(np.abs(wt - got))))
    return worst <= 1e-8, f"max deviation {worst:.3e}"


def _check_solver_equivalence():
    rng = generator("selfcheck", 4)
    prob = random_problem(rng, n=4, m=3, d=2)
    r1 = run_adfs(prob, 200, seed=5, log_every=20)
    r2 = run_adfs_efficient(prob, 200, seed=5, log_every=20)
    a = np.array([r.objective for r in r1.record.rows])
    b = np.array([r.objective for r in r2.record.rows])
    dev = float(np.max(np.abs(a - b)))
    return dev <= 1e-6 * (1.0 + np.max(np.abs(a))), f"trajectory deviation {dev:.3e}"


def _check_sampling_frequencies():
    rng = generator("selfcheck", 5)
    prob = random_problem(rng, n=3, m=3, d=2)
    stream = BlockStream("selfcheck-freq")
    draws = 20_000
    comm = 0
    counts = np.zeros(prob.n_virtual)
    for _ in range(draws):
        d = aug.draw_block(prob, stream)
        if d.kind == "communication":
            comm += 1
        else:
            counts[prob.vstart[:-1] + d.chosen] += 1
    p = prob.sampling.p_comm
    se = np.sqrt(p * (1 - p) / draws)
    ok = abs(comm / draws - p) <= 3 * se
    comp = draws - comm
    detail = f"comm freq {comm / draws:.4f} vs {p:.4f}"
    for i, pv in enumerate(prob.sampling.p_virtual):
        got = counts[prob.vstart[i] : prob.vstart[i + 1]] / comp
        se_i = np.sqrt(pv * (1 - pv) / comp)
        ok = ok and np.all(np.abs(got - pv) <= 3 * se_i + 1e-12)
    return ok, detail


def _check_condition_inequality():
    rng = generator("selfcheck", 6)
    ok = True
    for _ in range(5):
        objs = random_objectives(rng, n=3, m=int(rng.integers(1, 5)), d=3)
        rep = condition_numbers(objs)
        m = max(o.m for o in objs)
        ok = ok and np.all((m + 1) * rep.kappa_b >= rep.kappa_i - 1e-9)
        ok = ok and np.all(rep.kappa_i >= rep.kappa_b - 1e-9)
    return ok, "(m+1) kappa_b >= kappa_i >= kappa_b"


def _check_incidence_identity():
    rng = generator("selfcheck", 7)
    worst = 0.0
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 7)), weighted=True)
        inc = incidence(g)
        lap = laplacian(g)
        scale = max(float(np.max(np.abs(lap))), 1e-30)
        worst = max(worst, float(np.max(np.abs(inc @ inc.T - lap))) / scale)
    return worst <= 1e-12, f"max relative deviation {worst:.3e}"


def _check_libsvm_roundtrip():
    from .harness import parse_libsvm, write_libsvm

    rng = generator("selfcheck", 8)
    rows = []
    for _ in range(200):
        pairs = []
        idx = 0
        for _ in range(int(rng.integers(1, 6))):
            idx += int(rng.integers(1, 4))
            pairs.append((idx - 1, float(rng.normal())))
        rows.append((float(rng.normal()), pairs))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roundtrip.svm")
        write_libsvm(path, rows)
        parsed, _ = parse_libsvm(path)
    ok = len(parsed) == len(rows) and all(
        lab == lab2 and pairs == pairs2
        for (lab, pairs), (lab2, pairs2) in zip(rows, parsed)
    )
    return ok, f"{len(rows)} samples round-tripped"


def _check_determinism():
    from .harness import load_config, run_experiment

    cfg_data = {
        "topology": {"kind": "complete", "n": 2},
        "loss": "logistic",
        "m": 3,
        "dataset": {"kind": "synthetic", "d": 2, "correlation": 0.0, "seed": 3},
        "algorithms": ["adfs"],
        "seeds": [0, 1],
        "iters": 60,
        "log_every": 20,
        "tau": 2.0,
    }
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            cfg = load_config(dict(cfg_data))
            code, csv_path = run_experiment(cfg, out_dir=os.path.join(tmp, tag))
            if code != 0:
                return False, "experiment cell failed"
            with open(csv_path, "rb") as fh:
                outputs.append(fh.read())
    return outputs[0] == outputs[1], f"{len(outputs[0])} bytes, identical reruns"


def _check_eigensolver_invariants():
    rng = generator("selfcheck", 9)
    ok = True
    for _ in range(5):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        m = m + m.T
        spec = symmetric_eigensolve(m)
        ok = ok and abs(spec.eigenvalues.sum() - np.trace(m)) <= 1e-10 * max(
            abs(np.trace(m)), 1.0
        )
        ok = ok and abs((spec.eigenvalues**2).sum() - (m * m).sum()) <= 1e-10 * (m * m).sum()
    return ok, "trace and Frobenius identities"


CHECKS = [
    ("spectral-lower-bound", _check_spectral_bound),
    ("virtual-edge-projector", _check_projector_identity),
    ("operator-shortcuts", _check_operator_shortcuts),
    ("solver-equivalence", _check_solver_equivalence),
    ("sampling-frequencies", _check_sampling_frequencies),
    ("condition-inequality", _check_condition_inequality),
    ("incidence-identity", _check_incidence_identity),
    ("libsvm-roundtrip", _check_libsvm_roundtrip),
    ("experiment-determinism", _check_determinism),
    ("eigensolver-invariants", _check_eigensolver_invariants),
]


def run_all(verbose=False):
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return results
