"""The ten property checks, one implementation each.

Each check takes its inputs as arguments (a list of problems, or an rng and
a count), asserts its property and returns a one-line summary for the
acceptance report.  `test_check_on_small_inputs` runs every check on small
instances drawn from the `("selfcheck", k)` streams; the other test modules
call the same functions on their larger instance sets and counts.  Together
they exercise the spectral bounds, the operator shortcuts, solver
equivalence, sampling statistics, parser round-trips and determinism.
"""

import math
import os
import tempfile

import numpy as np
import pytest

from adfs_lab import augmented as aug
from adfs_lab.adfs import run_adfs_efficient
from adfs_lab.data import LibsvmData, parse_libsvm, write_libsvm
from adfs_lab.harness import build_instance, certify, load_config, run_experiment
from adfs_lab.objective import condition_numbers
from adfs_lab.rng import BlockStream, generator
from adfs_lab.topology import laplacian, symmetric_eigensolve
from dense import (dense_A, dense_pb_dagger_diag, dense_sigma_dagger, exact_sigma_a, incidence,
                   observed_run, state_rows)
from instances import random_connected_graph, random_objectives, random_problem
from oracles import reference_adfs


def spectral_lower_bound(problems):
    """sigma_A = lambda_min_pos(A^T Sigma^dagger A) is at least alpha / 2 and
    at least lambda_min_pos of the D~-scaled communication Laplacian."""
    worst_alpha = worst_comm = np.inf
    for prob in problems:
        sigma_a = exact_sigma_a(prob)
        dmt = prob.dm_tilde
        scaled = prob.laplacian_comm / np.sqrt(np.outer(dmt, dmt))
        worst_alpha = min(worst_alpha, sigma_a - 0.5 * prob.alpha)
        worst_comm = min(worst_comm, sigma_a - symmetric_eigensolve(scaled).lambda_min_pos)
    detail = f"{len(problems)} instances, min margins {worst_alpha:.3e} / {worst_comm:.3e}"
    assert min(worst_alpha, worst_comm) >= -1e-8, detail
    return detail


def projector_identity(problems, rng):
    """A^dagger A fixes e_ij (x) theta for every virtual edge, with theta on
    the edge's feature line at a random scale."""
    worst = 0.0
    for prob in problems:
        a = dense_A(prob)
        proj = np.linalg.pinv(a) @ a
        d = prob.d
        for g in range(prob.n_virtual):
            col = (prob.graph.n_edges + g) * d
            vec = np.zeros(a.shape[1])
            vec[col : col + d] = rng.uniform(0.5, 2.0) * prob.features[g] / np.sqrt(prob.xnorm2[g])
            worst = max(worst, float(np.linalg.norm(proj @ vec - vec)))
    detail = f"max residual {worst:.3e} over all virtual edges"
    assert worst <= 1e-8, detail
    return detail


def operator_shortcuts(problems, rng, count):
    """The edge-wise gossip step and W~ against the dense A P_b^dagger A^T
    Sigma^dagger and A P_b^dagger A^dagger, per problem on `count` random
    states with the communication block and `count` random computation
    blocks, W~ fed an update in range(A U_b): through apply_wtilde on the
    gossip block, and on a computation block scaled in place by the round
    table's INV_P column, as the solvers apply it.  The gossip operators act
    on the centers; their results are put into full states here."""
    worst_step = worst_wt = 0.0
    comm = aug.BlockDraw(kind="communication")
    for prob in problems:
        a = dense_A(prob)
        pinv_a = np.linalg.pinv(a)
        inv_p = aug.round_table(prob)[:, aug.INV_P]
        shape = (prob.n_rows, prob.d)

        def pb(draw):
            return np.diag(dense_pb_dagger_diag(prob, draw))

        def dev(op, state, got):  # the dense op applied to state, against got
            ref = (op @ state_rows(prob, state).ravel()).reshape(shape)
            return float(np.max(np.abs(ref - state_rows(prob, got))))

        def full(center):  # a state with these centers and zero coefficients
            return np.concatenate((center.ravel(), np.zeros(prob.n_virtual)))

        step_op = a @ pb(comm) @ a.T @ dense_sigma_dagger(prob)
        for _ in range(count):
            y = rng.normal(size=aug.zero_state(prob).shape)
            step = aug.apply_comm_step(prob, aug.split_state(prob, y)[0])
            worst_step = max(worst_step, dev(step_op, y, full(step)))
            # A applied to a random dual vector on the sampled virtual edges
            idx = rng.integers(prob.vstart[:-1], prob.vstart[1:])
            comp = aug.BlockDraw("computation", idx)
            scale = rng.normal(size=prob.n)
            comp_delta, comp_wt = aug.zero_state(prob), aug.zero_state(prob)
            for state, node_scale in ((comp_delta, scale), (comp_wt, scale * inv_p[idx])):
                center, coef = aug.split_state(prob, state)
                center[:] = node_scale[:, None] * prob.features[idx]
                coef[idx] = -node_scale
            comm_delta = -prob.eta * step
            comm_wt = aug.apply_wtilde(prob, comm_delta)
            for draw, delta, got in ((comm, full(comm_delta), full(comm_wt)),
                                     (comp, comp_delta, comp_wt)):
                worst_wt = max(worst_wt, dev(a @ pb(draw) @ pinv_a, delta, got))
    detail = (f"{2 * count * len(problems)} (state, draw) pairs, max deviation "
              f"{worst_step:.3e} (gossip step) / {worst_wt:.3e} (W~)")
    assert worst_step <= 1e-10 and worst_wt <= 1e-8, detail
    return detail


def solver_equivalence(problems, iters):
    """The smooth solver follows the reference recursion
    (oracles.reference_adfs): x, v and y agree at 20 evenly spaced
    iterations of `iters` (at least 20), relative to 1 + max |reference|."""
    marks = range(iters // 20, iters + 1, iters // 20)
    worst = 0.0
    for seed, prob in enumerate(problems):
        log_every = math.gcd(marks.step, iters)
        _, ref = observed_run(reference_adfs, prob, iters, seed=seed, log_every=log_every)
        _, eff = observed_run(run_adfs_efficient, prob, iters, seed=seed, log_every=log_every)
        for t in marks:
            for key in ("x", "v", "y"):
                a = state_rows(prob, ref[t][key])
                b = state_rows(prob, eff[t][key])
                worst = max(worst, float(np.max(np.abs(a - b))) / (1 + float(np.max(np.abs(a)))))
    detail = f"{iters}-iteration state deviation {worst:.3e}"
    assert worst <= 1e-6, detail
    return detail


def sampling_frequencies(problems, draws):
    """Over `draws` block draws the communication block and every virtual
    node come up at their probabilities within three standard errors."""
    for k, prob in enumerate(problems):
        stream = BlockStream(prob.sampling, "selfcheck-freq", k)
        comm = 0
        counts = np.zeros(prob.n_virtual)
        for _ in range(draws):
            draw = aug.draw_block(prob, stream)
            if draw.kind == "communication":
                comm += 1
            else:
                counts[draw.idx] += 1
        p = prob.sampling.p_comm
        assert abs(comm / draws - p) <= 3 * np.sqrt(p * (1 - p) / draws), (k, comm, p)
        comp = draws - comm
        pv = np.concatenate(prob.sampling.p_virtual)
        se = np.sqrt(pv * (1 - pv) / comp)
        assert np.all(np.abs(counts / comp - pv) <= 3 * se + 1e-12), (k, counts / comp, pv)
    return f"{draws} draws on each of {len(problems)} instances"


def condition_inequality(objective_sets):
    """kappa_b <= kappa_i <= (m_i + 1) kappa_b at every node of every set."""
    nodes = 0
    for objs in objective_sets:
        rep = condition_numbers(objs)
        m = np.array([o.m for o in objs])
        assert np.all((m + 1) * rep.kappa_b >= rep.kappa_i - 1e-9), (m, rep)
        assert np.all(rep.kappa_i >= rep.kappa_b - 1e-9), rep
        nodes += len(objs)
    return f"(m_i+1) kappa_b >= kappa_i >= kappa_b at {nodes} nodes"


def incidence_identity(graphs):
    """B B^T equals the weighted Laplacian, relative to its largest entry."""
    worst = 0.0
    for g in graphs:
        inc, lap = incidence(g), laplacian(g)
        scale = max(float(np.max(np.abs(lap))), 1e-30)
        worst = max(worst, float(np.max(np.abs(inc @ inc.T - lap))) / scale)
    detail = f"max relative deviation {worst:.3e} on {len(graphs)} graphs"
    assert worst <= 1e-12, detail
    return detail


def libsvm_roundtrip(rng, count):
    """`count` random sparse samples, values over nine decades, survive
    write_libsvm -> parse_libsvm bit for bit."""
    counts = rng.integers(1, 9, size=count)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    steps = rng.integers(1, 5, size=indptr[-1])
    ends = np.cumsum(steps)  # each row's 1-based indices are its steps' running sum
    indices = ends - np.repeat(ends[indptr[:-1]] - steps[indptr[:-1]], counts) - 1
    values = rng.normal(size=indptr[-1]) * 10.0 ** rng.integers(-4, 5, size=indptr[-1])
    rows = LibsvmData(rng.normal(size=count), indptr, indices, values, int(indices.max()) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roundtrip.svm")
        write_libsvm(path, rows)
        parsed = parse_libsvm(path)
    for name, a, b in zip(LibsvmData._fields, parsed[:4], rows[:4]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert parsed.dim == rows.dim
    return f"{count} samples round-tripped"


def certified(cfg):
    """(instance, reference) of a config: what `run` passes to run_experiment."""
    instance = build_instance(cfg)
    return instance, certify(cfg, instance[3])


def experiment_determinism(config):
    """Two runs of a config (a raw dict) write byte-identical results.csv
    and metadata.json."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            out_dir = os.path.join(tmp, tag)
            cfg = load_config(config)
            code, _, meta = run_experiment(cfg, *certified(cfg), out_dir)
            assert code == 0, meta["failures"]
            files = []
            for name in ("results.csv", "metadata.json"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files.append(fh.read())
            outputs.append(files)
    assert outputs[0] == outputs[1]
    return f"{sum(map(len, outputs[0]))} bytes, identical reruns"


def eigensolver_invariants(rng, sizes):
    """The eigenvalues of a random symmetric matrix of each size keep its
    trace and squared Frobenius norm."""
    for n in sizes:
        m = rng.normal(size=(n, n))
        m = m + m.T
        vals = symmetric_eigensolve(m).eigenvalues
        tr, fro2 = float(np.trace(m)), float((m * m).sum())
        assert abs(vals.sum() - tr) <= 1e-10 * max(abs(tr), 1.0), (n, vals.sum(), tr)
        assert abs((vals**2).sum() - fro2) <= 1e-10 * fro2, (n, (vals**2).sum(), fro2)
    return f"trace and Frobenius identities on {len(sizes)} matrices"


def _small_problems(rng, count):
    return [random_problem(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(1, 4)),
                           d=int(rng.integers(1, 4))) for _ in range(count)]


# each check with the inputs it draws from its own ("selfcheck", k) stream,
# k = 1..10 in this order
SMALL_INPUTS = [
    ("spectral-lower-bound", spectral_lower_bound, lambda rng: (_small_problems(rng, 5),)),
    ("virtual-edge-projector", projector_identity, lambda rng: (_small_problems(rng, 2), rng)),
    ("operator-shortcuts", operator_shortcuts, lambda rng: (_small_problems(rng, 2), rng, 10)),
    ("solver-equivalence", solver_equivalence,
     lambda rng: ([random_problem(rng, n=4, m=3, d=2)], 200)),
    ("sampling-frequencies", sampling_frequencies,
     lambda rng: ([random_problem(rng, n=3, m=3, d=2)], 20_000)),
    ("condition-inequality", condition_inequality,
     lambda rng: ([random_objectives(rng, 3, int(rng.integers(1, 5)), 3, ragged=True)
                   for _ in range(5)],)),
    ("incidence-identity", incidence_identity,
     lambda rng: ([random_connected_graph(rng, int(rng.integers(2, 7)), weighted=True)
                   for _ in range(5)],)),
    ("libsvm-roundtrip", libsvm_roundtrip, lambda rng: (rng, 200)),
    ("experiment-determinism", experiment_determinism, lambda rng: ({
        "topology": {"kind": "complete", "n": 2}, "loss": "logistic", "m": 3,
        "dataset": {"kind": "synthetic", "d": 2, "correlation": 0.0, "seed": 3},
        "algorithms": ["adfs"], "seeds": [0, 1], "iters": 60, "log_every": 20, "tau": 2.0},)),
    ("eigensolver-invariants", eigensolver_invariants,
     lambda rng: (rng, rng.integers(2, 9, size=5))),
]


@pytest.mark.parametrize("k,check,inputs",
                         [pytest.param(k, check, inputs, id=name)
                          for k, (name, check, inputs) in enumerate(SMALL_INPUTS, start=1)])
def test_check_on_small_inputs(k, check, inputs):
    check(*inputs(generator("selfcheck", k)))
