"""Communication graphs, their Laplacians, and dense symmetric eigensolves.

Everything downstream (virtual-edge weights, convergence rates, sampling
probabilities) is driven by the spectrum of the weighted graph Laplacian, so
this module also hosts the symmetric eigensolve (LAPACK through numpy) used
throughout the package.  Graphs are immutable after construction and must be
connected.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import RANGE_HI, RANGE_LO, in_range

__all__ = [
    "GraphConstructionError",
    "CommunicationGraph",
    "SymmetricSpectrum",
    "build_topology",
    "laplacian",
    "symmetric_eigensolve",
]

ZERO_TOL = 1e-9


class GraphConstructionError(ValueError):
    def __init__(self, culprit, message):  # the input at fault: "edges" or "weights"
        super().__init__(message)
        self.culprit = culprit


class EigensolveError(RuntimeError):
    pass


def _union_find_components(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, l in edges:
        ra, rb = find(k), find(l)
        if ra != rb:
            parent[ra] = rb
    roots = {}
    for v in range(n):
        roots.setdefault(find(v), []).append(v)
    return list(roots.values())


@dataclass(frozen=True)
class CommunicationGraph:
    """Undirected simple connected graph with per-edge weights in
    [data.RANGE_LO, data.RANGE_HI].

    `edge_weights[e]` is the gossip weight mu of edge `edges[e]`; the weighted
    Laplacian uses mu**2.  Unit weights reproduce the standard Laplacian.
    """

    n: int
    edges: tuple
    edge_weights: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.n < 1:
            raise GraphConstructionError("edges", f"node count must be >= 1, got {self.n}")
        norm_edges = []
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise GraphConstructionError("edges", f"malformed edge {e!r}")
            k, l = int(e[0]), int(e[1])
            if k == l:
                raise GraphConstructionError("edges", f"self-loop on node {k}")
            if not (0 <= k < self.n and 0 <= l < self.n):
                raise GraphConstructionError("edges", f"edge ({k},{l}) out of range for n={self.n}")
            key = (min(k, l), max(k, l))
            if key in seen:
                raise GraphConstructionError("edges", f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            norm_edges.append(key)
        object.__setattr__(self, "edges", tuple(norm_edges))
        if self.edge_weights is None:
            w = np.ones(len(norm_edges))
        else:
            w = np.asarray(self.edge_weights, dtype=float).copy()
        if w.shape != (len(norm_edges),):
            raise GraphConstructionError(
                "weights", f"expected {len(norm_edges)} edge weights, got shape {w.shape}")
        bad = np.flatnonzero(~in_range(w))
        if bad.size:
            raise GraphConstructionError(
                "weights", f"edge weight for {norm_edges[bad[0]]} must lie in "
                           f"[{RANGE_LO:g}, {RANGE_HI:g}], got {w[bad[0]]}")
        w.flags.writeable = False
        object.__setattr__(self, "edge_weights", w)
        comps = _union_find_components(self.n, norm_edges)
        if len(comps) > 1:
            comps.sort(key=len)
            raise GraphConstructionError(
                "edges", f"graph is disconnected: component {comps[0]} unreachable from the rest")

    @property
    def n_edges(self):
        return len(self.edges)


def build_topology(kind, **params) -> CommunicationGraph:
    """Construct one of the named graph families (or a custom edge list).

    kind: "line" (params: n), "grid2d" (rows, cols), "complete" (n),
    "custom" (n, edges, optional weights).  Edge weights default to 1.
    """
    weights = params.pop("weights", None)
    if kind == "line":
        n = int(params.pop("n"))
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "complete":
        n = int(params.pop("n"))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "grid2d":
        rows, cols = int(params.pop("rows")), int(params.pop("cols"))
        if rows < 1 or cols < 1:
            raise GraphConstructionError("edges", "grid2d needs rows >= 1 and cols >= 1")
        n = rows * cols
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
    elif kind == "custom":
        edges = [tuple(e) for e in params.pop("edges")]
        if "n" in params:
            n = int(params.pop("n"))
        elif edges:
            n = max(max(e) for e in edges) + 1
        else:
            raise GraphConstructionError("edges",
                                         "custom topology needs n or a non-empty edge list")
    else:
        raise GraphConstructionError("edges", f"unknown topology kind {kind!r}")
    if params:
        raise GraphConstructionError("edges", f"unexpected topology parameters {sorted(params)}")
    return CommunicationGraph(n=n, edges=tuple(edges), edge_weights=weights)


def laplacian(g: CommunicationGraph) -> np.ndarray:
    """Weighted Laplacian: L_kk = sum mu^2 over incident edges, L_kl = -mu_kl^2."""
    lap = np.zeros((g.n, g.n))
    for (k, l), mu in zip(g.edges, g.edge_weights):
        w = mu * mu
        lap[k, k] += w
        lap[l, l] += w
        lap[k, l] -= w
        lap[l, k] -= w
    return lap


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Eigenvalues sorted ascending plus the count treated as numerically zero."""

    eigenvalues: np.ndarray
    kernel_dim: int

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def lambda_min_pos(self) -> float:
        """Smallest eigenvalue above the zero threshold."""
        scale = float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0
        pos = self.eigenvalues[self.eigenvalues > ZERO_TOL * scale]
        if pos.size == 0:
            raise EigensolveError("matrix has no eigenvalue above the zero threshold")
        return float(pos[0])


def symmetric_eigensolve(mat) -> SymmetricSpectrum:
    """LAPACK eigenvalues (`eigvalsh`) of a dense symmetric matrix.

    Eigenvalues come back sorted ascending; those with |lam| <= ZERO_TOL * max|lam|
    count toward kernel_dim.  Raises on non-square input, on NaN or inf
    entries (which the symmetry test below would let through, since NaN > x
    is False) and on asymmetric input (beyond 1e-10 relative).
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigensolveError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise EigensolveError("matrix has NaN or inf entries")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale > 0 and float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
        raise EigensolveError("matrix is not symmetric within 1e-10 relative tolerance")
    a = 0.5 * a + 0.5 * a.T  # = 0.5 * (a + a.T), which overflows above half the float max
    vals = np.linalg.eigvalsh(a)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    kernel = int(np.sum(np.abs(vals) <= ZERO_TOL * scale)) if scale > 0 else vals.size
    return SymmetricSpectrum(eigenvalues=vals, kernel_dim=kernel)

