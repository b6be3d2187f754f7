"""Dense matrices of the augmented-graph dual problem, for small-scale checks.

The solvers never form these: they apply the operators edge-wise through
`adfs_lab.augmented`.  The graph's incidence map, the constraint operator A,
the blocks of Sigma^dagger and P_b^dagger, and the exact dual strong
convexity sigma_A built from them check those shortcuts and the method's
constants on small instances.  Node-space rows follow `AugmentedProblem`;
each spans d coordinates, and `state_rows` expands a solver state into them.
`observed_run` runs a solver and keeps a copy of its view at each log point,
the solver states those checks read.
"""

import numpy as np

from adfs_lab.augmented import split_state
from adfs_lab.topology import symmetric_eigensolve

DENSE_ROW_GUARD = 5000


def state_rows(problem, state):
    """The (n_rows, d) node-space matrix of a state, for dense checks."""
    center, coef = split_state(problem, state)
    return np.concatenate((center, coef[:, None] * problem.features))


def observed_run(solver, *args, **kwargs):
    """Run an ADFS solver with an observer: (result, {t: copy of the view at
    log point t}).  Every state a test reads must fall on the log grid."""
    views = {}

    def keep(t, view):
        views[t] = {key: state.copy() for key, state in view.items()}

    return solver(*args, observe=keep, **kwargs), views


def incidence(g):
    """n x E map whose column for edge (k,l) is mu_kl * (e_k - e_l)."""
    inc = np.zeros((g.n, g.n_edges))
    for col, ((k, l), mu) in enumerate(zip(g.edges, g.edge_weights)):
        inc[k, col] = mu
        inc[l, col] = -mu
    return inc


def _projector(problem, idx):
    x = problem.features[idx]
    return np.outer(x, x) / problem.xnorm2[idx]


def dense_A(problem):
    """Dense constraint operator, shape (n_rows * d, (E + V) * d).

    Communication-edge columns are mu_kl (e_k - e_l) (x) I_d, the columns of
    incidence (x) I_d; virtual-edge columns are mu_ij (e_i - e_(i,j)) (x) P_ij
    with the rank-one feature projector P_ij.
    Guarded to small instances.
    """
    d = problem.d
    rows = problem.n_rows * d
    if rows > DENSE_ROW_GUARD:
        raise ValueError(f"dense operator would have {rows} rows (> {DENSE_ROW_GUARD})")
    off = problem.graph.n_edges
    a = np.zeros((rows, (off + problem.n_virtual) * d))
    a[: problem.n * d, : off * d] = np.kron(incidence(problem.graph), np.eye(d))
    owner = np.repeat(np.arange(problem.n), problem.m_per_node)
    for g in range(problem.n_virtual):
        i = owner[g]
        r = problem.n + g
        blk = np.sqrt(problem.mu2_virtual[g]) * _projector(problem, g)
        a[i * d : (i + 1) * d, (off + g) * d : (off + g + 1) * d] = blk
        a[r * d : (r + 1) * d, (off + g) * d : (off + g + 1) * d] = -blk
    return a


def dense_sigma_dagger(problem, power=1):
    """(Sigma^dagger)^power, block diagonal over node-space rows.

    Center i carries sigma_i^-power I_d; virtual node (i, j) carries
    L_ij^-power P_ij for the smooth build and zero for the non-smooth one,
    whose conjugate curvature vanishes.
    """
    d = problem.d
    out = np.zeros((problem.n_rows * d, problem.n_rows * d))
    for i in range(problem.n):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = problem.sigma[i] ** (-power) * np.eye(d)
    if problem.loss.is_smooth:
        for g in range(problem.n_virtual):
            r = problem.n + g
            out[r * d : (r + 1) * d, r * d : (r + 1) * d] = (
                problem.smooth_virtual[g] ** (-power) * _projector(problem, g)
            )
    return out


def dense_pb_dagger_diag(problem, draw):
    """Diagonal of P_b^dagger over edge coordinates (zero off the block)."""
    d = problem.d
    n_edges = problem.graph.n_edges
    diag = np.zeros((n_edges + problem.n_virtual) * d)
    if draw.kind == "communication":
        diag[: n_edges * d] = 1.0 / problem.sampling.p_comm
    else:
        for g in draw.idx:
            c = (n_edges + g) * d
            diag[c : c + d] = 1.0 / problem.sampling.p_marginal[g]
    return diag


def exact_sigma_a(problem):
    """Exact dual strong convexity lambda_min_pos(A^T Sigma^dagger A)."""
    a = dense_A(problem)
    return symmetric_eigensolve(a.T @ dense_sigma_dagger(problem) @ a).lambda_min_pos
