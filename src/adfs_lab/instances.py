"""Random small problem instances for self-checks and tests."""

import numpy as np

from .augmented import build_augmented
from .objective import LocalObjective, LossKind
from .topology import CommunicationGraph

__all__ = ["random_connected_graph", "random_objectives", "random_problem"]


def random_connected_graph(rng, n, extra_edges=2, weighted=False):
    """Random spanning tree plus a few extra edges; optionally random weights."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(i)])
        edges.add((min(a, b), max(a, b)))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    rng.shuffle(possible)
    for e in possible[: int(extra_edges)]:
        edges.add(e)
    edges = sorted(edges)
    weights = rng.uniform(0.5, 2.0, size=len(edges)) if weighted else None
    return CommunicationGraph(n=n, edges=tuple(edges), edge_weights=weights)


def random_objectives(rng, n, m, d, loss=LossKind.LOGISTIC, sigma_range=(0.5, 2.0),
                      min_feature_norm=None, ragged=False):
    """Random per-node datasets; `min_feature_norm` floors ||X|| to keep the
    per-sample smoothness above sigma (which keeps the rate clamp inactive)."""
    objectives = []
    for _ in range(n):
        m_i = int(rng.integers(1, m + 1)) if ragged else m
        sigma = float(rng.uniform(*sigma_range))
        feats, labels = np.empty((m_i, d)), np.empty(m_i)
        for j in range(m_i):  # row by row: the features and label draws interleave
            feats[j] = rng.normal(size=d)
            nrm = np.linalg.norm(feats[j])
            if min_feature_norm is not None and nrm < min_feature_norm:
                feats[j] *= min_feature_norm / nrm
            if loss is LossKind.LOGISTIC:
                labels[j] = 1.0 if rng.random() < 0.5 else -1.0
            else:
                labels[j] = rng.normal()
        objectives.append(LocalObjective(feats, labels, sigma, loss))
    return objectives


def random_problem(rng, n=4, m=3, d=2, loss=LossKind.LOGISTIC, tau=3.0,
                   weighted=False, ragged=False):
    graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)),
                                   weighted=weighted)
    floor = None
    if loss.is_smooth:
        # L_ij = L_g ||X||^2 >= sigma_max keeps 2 rho <= min p_ij automatic
        floor = float(np.sqrt(2.0 / loss.scalar_smoothness))
    objectives = random_objectives(rng, n, m, d, loss=loss, min_feature_norm=floor,
                                   ragged=ragged)
    return build_augmented(graph, objectives, tau=tau)
