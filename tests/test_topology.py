import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adfs_lab.augmented import build_augmented
from adfs_lab.objective import LossKind
from adfs_lab.rng import generator
from adfs_lab.topology import (
    CommunicationGraph,
    EigensolveError,
    GraphConstructionError,
    build_topology,
    laplacian,
    symmetric_eigensolve,
)
from dense import incidence
from instances import random_connected_graph, random_objectives
from oracles import sturm_eigenvalues
from test_checks import eigensolver_invariants, incidence_identity


class TestBuildTopology:
    def test_complete_four_nodes(self):
        g = build_topology("complete", n=4)
        assert g.n == 4 and g.n_edges == 6
        assert set(g.edges) == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    def test_grid_3x3(self):
        g = build_topology("grid2d", rows=3, cols=3)
        assert g.n == 9 and g.n_edges == 12

    def test_line_path(self):
        g = build_topology("line", n=5)
        assert g.n == 5
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_single_node(self):
        g = build_topology("complete", n=1)
        assert g.n == 1 and g.n_edges == 0

    def test_custom(self):
        g = build_topology("custom", edges=[(0, 1), (1, 2)])
        assert g.n == 3

    def test_disconnected_rejected(self):
        with pytest.raises(GraphConstructionError, match="disconnected"):
            build_topology("custom", n=4, edges=[(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConstructionError, match="self-loop"):
            CommunicationGraph(n=2, edges=((0, 0),))

    def test_duplicate_rejected(self):
        with pytest.raises(GraphConstructionError, match="duplicate"):
            CommunicationGraph(n=3, edges=((0, 1), (1, 0)))

    def test_bad_weight_rejected(self):
        with pytest.raises(GraphConstructionError, match="must be finite"):
            CommunicationGraph(n=2, edges=((0, 1),), edge_weights=np.array([-1.0]))

    @pytest.mark.parametrize("build,culprit", [
        (lambda: build_topology("custom", n=4, edges=[(0, 1), (2, 3)]), "edges"),
        (lambda: build_topology("custom", edges=[[0, 1], [1, 0]]), "edges"),
        (lambda: CommunicationGraph(n=2, edges=((0, 2),)), "edges"),
        (lambda: build_topology("line", n=3, weights=[1.0]), "weights"),
        (lambda: build_topology("line", n=2, weights=[np.inf]), "weights"),
        (lambda: laplacian(build_topology("line", n=2, weights=[1e160])), "weights"),
    ], ids=["disconnected", "duplicate", "out-of-range", "weight-count", "inf-weight",
            "laplacian-overflow"])
    def test_error_names_its_culprit(self, build, culprit):
        with pytest.raises(GraphConstructionError) as exc:
            build()
        assert exc.value.culprit == culprit


class TestLaplacian:
    def test_complete_spectrum(self):
        for n in (2, 3, 5):
            spec = symmetric_eigensolve(laplacian(build_topology("complete", n=n)))
            assert spec.kernel_dim == 1
            assert np.allclose(spec.eigenvalues[1:], n, atol=1e-10)

    def test_rows_sum_to_zero(self, rng):
        g = random_connected_graph(rng, 7, extra_edges=4, weighted=True)
        assert np.max(np.abs(laplacian(g) @ np.ones(7))) < 1e-12

    def test_path_closed_form(self):
        n = 8
        spec = symmetric_eigensolve(laplacian(build_topology("line", n=n)))
        expected = np.sort(2.0 * (1.0 - np.cos(np.arange(n) * np.pi / n)))
        np.testing.assert_allclose(spec.eigenvalues, expected, atol=1e-10)

    def test_kernel_vector_is_constant(self, rng):
        # a one-dimensional kernel that holds the constants is spanned by them
        g = random_connected_graph(rng, 6, extra_edges=3, weighted=True)
        lap = laplacian(g)
        assert symmetric_eigensolve(lap).kernel_dim == 1
        assert np.max(np.abs(lap @ np.ones(g.n))) <= 1e-8 * np.max(np.abs(lap))


class TestIncidence:
    def test_single_edge(self):
        g = CommunicationGraph(n=2, edges=((0, 1),))
        inc = incidence(g)
        np.testing.assert_allclose(inc, [[1.0], [-1.0]])
        np.testing.assert_allclose(inc @ inc.T, [[1.0, -1.0], [-1.0, 1.0]])

    def test_path_identity(self):
        g = build_topology("line", n=3)
        np.testing.assert_allclose(incidence(g) @ incidence(g).T, laplacian(g))

    def test_random_weighted_identity(self):
        rngs = [generator("incidence", seed) for seed in range(20)]
        incidence_identity([
            random_connected_graph(r, int(r.integers(2, 9)), extra_edges=int(r.integers(0, 5)),
                                   weighted=True) for r in rngs])


class TestEigensolve:
    def test_identity(self):
        spec = symmetric_eigensolve(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(3))
        assert spec.kernel_dim == 0

    def test_k4_laplacian(self):
        spec = symmetric_eigensolve(laplacian(build_topology("complete", n=4)))
        np.testing.assert_allclose(spec.eigenvalues, [0, 4, 4, 4], atol=1e-10)
        assert spec.kernel_dim == 1

    def test_against_sturm_bisection(self, rng):
        m = rng.normal(size=(10, 10))
        m = m + m.T
        spec = symmetric_eigensolve(m)
        np.testing.assert_allclose(spec.eigenvalues, sturm_eigenvalues(m), atol=1e-8)

    def test_asymmetric_rejected(self):
        with pytest.raises(EigensolveError, match="not symmetric"):
            symmetric_eigensolve(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_without_warning(self, bad):
        # NaN - NaN is NaN, and NaN > tol is False: the symmetry test alone
        # would pass such a matrix on to LAPACK
        mat = np.eye(3)
        mat[0, 1] = mat[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolveError, match="NaN or inf"):
                symmetric_eigensolve(mat)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10_000))
    def test_trace_and_frobenius_invariants(self, n, seed):
        eigensolver_invariants(generator("eig-prop", seed), [n])


def spectral_gap(g, loss=LossKind.LOGISTIC):
    """gamma = lambda_min_pos(L) / lambda_max(L), as the augmented build records it."""
    return build_augmented(g, random_objectives(generator("gap", 0), g.n, 2, 2, loss=loss),
                           tau=1.0).gamma


class TestSpectralGap:
    def test_complete_graphs(self):
        for n in range(2, 11):
            assert abs(spectral_gap(build_topology("complete", n=n)) - 1.0) <= 1e-9

    def test_line_asymptotics(self):
        n = 50
        gamma = spectral_gap(build_topology("line", n=n))
        assert abs(gamma**-0.5 - 2 * n / np.pi) / (2 * n / np.pi) < 0.05

    def test_in_unit_interval(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 8)),
                                       extra_edges=int(rng.integers(0, 4)), weighted=True)
            gamma = spectral_gap(g)
            assert 0.0 < gamma <= 1.0 + 1e-12

    def test_single_node_rejected(self):
        # no edge, no gap: the smooth build records none, the non-smooth one refuses
        assert spectral_gap(build_topology("complete", n=1)) is None
        with pytest.raises(ValueError, match="at least one edge"):
            spectral_gap(build_topology("complete", n=1), LossKind.ABSOLUTE)
