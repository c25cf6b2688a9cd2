import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (conditional_from_joint, delaunay_graph, dense_log_density,
                     dense_precision, random_graph)
from womble import ValidationError
from womble.car import (_BandPlan, _resistances, build_precision,
                        cut_bounds, full_conditional_phi, log_density_phi,
                        precision_quadform, restore_bounds)
from womble.graph import (AreaGraph, DissimilarityData, adjacency_from_w,
                          alpha_prior_upper, evaluate_w)
from womble.simulate import lattice_graph
from conftest import all_ones_adj, assert_holds_no_setup


def _graph(n, borders):
    return AreaGraph(n, np.asarray(borders, dtype=np.int64).reshape(-1, 2))


class TestBuildPrecision:
    def test_two_area_pattern(self):
        # Q = [[1, -0.5], [-0.5, 1]]
        g = _graph(2, [(0, 1)])
        prec = build_precision(all_ones_adj(g), 0.5)
        assert prec.log_det == pytest.approx(np.log(0.75), abs=1e-14)

    def test_isolated_area_diagonal(self):
        # no borders: Q = 0.01 I
        g = _graph(2, [])
        prec = build_precision(all_ones_adj(g), 0.99)
        assert prec.log_det == pytest.approx(2.0 * np.log(0.01), abs=1e-12)

    def test_diagonal_formula(self):
        # diagonal 0.7 * retained-border count + 0.3, off-diagonal -0.7 w
        g = _graph(3, [(0, 1), (1, 2)])
        for w, q in [([1, 1], [[1.0, -0.7, 0.0], [-0.7, 1.7, -0.7], [0.0, -0.7, 1.0]]),
                     ([1, 0], [[1.0, -0.7, 0.0], [-0.7, 1.0, 0.0], [0.0, 0.0, 0.3]])]:
            prec = build_precision(adjacency_from_w(g, w), 0.7)
            assert prec.log_det == pytest.approx(np.linalg.slogdet(q)[1],
                                                 abs=1e-12)

    def test_logdet_vs_dense_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n, borders = random_graph(rng, n_max=6)
            g = _graph(n, borders)
            w = rng.integers(0, 2, size=g.n_borders).astype(np.uint8)
            adj = adjacency_from_w(g, w)
            prec = build_precision(adj, 0.99)
            dense = dense_precision(n, borders, w, 0.99)
            _, logdet = np.linalg.slogdet(dense)
            assert abs(prec.log_det - logdet) < 1e-10

    def test_given_plan_factorizes_alike(self):
        # a plan passed in, and reused, gives the log|Q| of a plan of its own
        g = lattice_graph(5, 7)
        plan = _BandPlan(g)
        rng = np.random.default_rng(11)
        for _ in range(5):
            adj = adjacency_from_w(g, rng.integers(0, 2, g.n_borders).astype(np.uint8))
            assert (build_precision(adj, 0.99, plan).log_det
                    == build_precision(adj, 0.99).log_det)
        assert_holds_no_setup(g)

    def test_rho_bounds(self):
        g = _graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            build_precision(all_ones_adj(g), 1.0)
        with pytest.raises(ValidationError):
            build_precision(all_ones_adj(g), -0.01)

    def test_quadform_matches_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, borders = random_graph(rng, n_max=8)
            g = _graph(n, borders)
            w = rng.integers(0, 2, size=g.n_borders).astype(np.uint8)
            adj = adjacency_from_w(g, w)
            d = rng.normal(size=n)
            dense = dense_precision(n, borders, w, 0.99)
            assert precision_quadform(adj, 0.99, d) == pytest.approx(
                d @ dense @ d, rel=1e-12, abs=1e-12)


class TestCutBounds:
    @staticmethod
    def _dense_resistances(g, w, rho):
        sigma = np.linalg.inv(dense_precision(g.n, g.borders, w, rho))
        k, j = g.borders[:, 0], g.borders[:, 1]
        return sigma[k, k] + sigma[j, j] - 2.0 * sigma[k, j]

    @pytest.mark.parametrize("name, graph", [
        # 5 x 7: 35 areas in blocks of the bandwidth, 6, so the last block
        # is shorter
        ("lattice", lattice_graph(5, 7)),
        ("path", _graph(9, [(k, k + 1) for k in range(8)])),
        ("isolated area", _graph(26, lattice_graph(5, 5).borders)),
        ("disconnected", _graph(32, np.vstack([lattice_graph(4, 4).borders,
                                               lattice_graph(4, 4).borders + 16]))),
        # irregular degrees, a band plan unlike a lattice's
        ("delaunay", delaunay_graph(300, seed=2)),
    ])
    def test_resistances_match_dense_inverse(self, name, graph):
        # with every border kept, and with about half of them severed, which
        # the restore bounds read under Q(w_M)
        plan = _BandPlan(graph)
        if name == "lattice":
            assert graph.n % plan.bandwidth != 0
        some = (np.random.default_rng(3).random(graph.n_borders) < 0.5).astype(np.uint8)
        for w in (np.ones(graph.n_borders, dtype=np.uint8), some):
            for rho in (0.5, 0.99):
                np.testing.assert_allclose(
                    _resistances(plan, adjacency_from_w(graph, w), rho),
                    self._dense_resistances(graph, w, rho),
                    rtol=1e-12, atol=1e-12)

    def test_pure_function_of_graph_and_rho(self):
        g = lattice_graph(3, 4)
        plan = _BandPlan(g)
        h = cut_bounds(plan, 0.99)
        np.testing.assert_array_equal(cut_bounds(_BandPlan(g), 0.99), h)
        assert not np.array_equal(cut_bounds(plan, 0.5), h)
        assert (h < 0).all()
        # the plan is the caller's: the bounds leave nothing on the graph
        assert plan.graph is g
        assert_holds_no_setup(g)

    def test_no_borders(self):
        assert cut_bounds(_BandPlan(_graph(3, [])), 0.99).shape == (0,)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bounds_every_cut(self, seed):
        # from any assignment w, severing any F within w moves log|Q| by at
        # most the sum of F's bounds
        rng = np.random.default_rng(seed)
        n, borders = random_graph(rng, n_max=10, p=float(rng.uniform(0.2, 0.8)))
        g = _graph(n, borders)
        if g.n_borders == 0:
            return
        rho = float(rng.choice([0.99, rng.uniform(0.0, 0.999)]))
        w = rng.integers(0, 2, size=g.n_borders).astype(np.uint8)
        w[rng.integers(g.n_borders)] = 1
        cut = (w == 1) & (rng.random(g.n_borders) < rng.uniform(0.1, 1.0))
        cut[rng.choice(np.nonzero(w)[0])] = True
        w_cut = np.where(cut, 0, w).astype(np.uint8)
        change = (build_precision(adjacency_from_w(g, w_cut), rho).log_det
                  - build_precision(adjacency_from_w(g, w), rho).log_det)
        assert change <= cut_bounds(_BandPlan(g), rho)[cut].sum() + 1e-9


class TestRestoreBounds:
    @staticmethod
    def _random_metrics(rng, g, q):
        # non-negative, with about a fifth of them zero
        z = rng.gamma(1.0, 1.0, size=(g.n_borders, q)) * (rng.random((g.n_borders, q)) < 0.8)
        return DissimilarityData(metric_names=tuple(f"m{i}" for i in range(q)),
                                 border_metrics=z)

    def test_every_reachable_assignment_contains_the_sparsest(self):
        # w never grows with any alpha_i, in floating point too: on a map the
        # size of the benchmark's largest, w(alpha) contains w(M) for alpha <= M,
        # and raising one component only severs borders
        g = lattice_graph(64, 64)
        rng = np.random.default_rng(5)
        dis = self._random_metrics(rng, g, 2)
        M = np.array([0.6, 0.9])
        w_min = evaluate_w(g, dis, M).w
        assert 0 < w_min.sum() < g.n_borders
        for _ in range(200):
            alpha = M * rng.random(2)
            w = evaluate_w(g, dis, alpha).w
            assert (w >= w_min).all()
            raised = alpha.copy()
            raised[rng.integers(2)] += rng.uniform(0.0, 0.3)
            assert (evaluate_w(g, dis, raised).w <= w).all()

    def test_pure_function_of_graph_rho_and_sparsest(self):
        g = lattice_graph(3, 4)
        rng = np.random.default_rng(1)
        dis, M = self._random_metrics(rng, g, 1), np.array([1.0])
        plan = _BandPlan(g)
        g_b = restore_bounds(plan, 0.99, dis, M)
        np.testing.assert_array_equal(restore_bounds(_BandPlan(g), 0.99, dis, M.copy()),
                                      g_b)
        assert (g_b > 0).all()
        other = self._random_metrics(rng, g, 1)
        assert not np.array_equal(restore_bounds(plan, 0.99, other, M), g_b)
        assert not np.array_equal(restore_bounds(plan, 0.5, dis, M), g_b)
        # the plan is the caller's: the bounds leave nothing on the graph
        assert_holds_no_setup(g)

    def test_no_borders(self):
        g = _graph(3, [])
        dis = DissimilarityData(metric_names=("m",), border_metrics=np.zeros((0, 1)))
        assert restore_bounds(_BandPlan(g), 0.99, dis, np.array([1.0])).shape == (0,)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bounds_every_restore(self, seed):
        # from any assignment alpha <= M reaches, restoring any F it severs
        # raises log|Q| by at most the sum of F's bounds
        rng = np.random.default_rng(seed)
        n, borders = random_graph(rng, n_max=10, p=float(rng.uniform(0.2, 0.8)))
        g = _graph(n, borders)
        if g.n_borders == 0:
            return
        rho = float(rng.choice([0.99, rng.uniform(0.0, 0.999)]))
        q = int(rng.integers(1, 4))
        dis = self._random_metrics(rng, g, q)
        M = rng.uniform(0.0, 2.0, size=q)
        # some components at their bound, so w is often w_M itself
        alpha = np.where(rng.random(q) < 0.4, M, M * rng.random(q))
        w = evaluate_w(g, dis, alpha).w
        assert (w >= evaluate_w(g, dis, M).w).all()
        severed = np.nonzero(w == 0)[0]
        if severed.size == 0:
            return
        restore = (w == 0) & (rng.random(g.n_borders) < rng.uniform(0.1, 1.0))
        restore[rng.choice(severed)] = True
        w_restored = np.where(restore, 1, w).astype(np.uint8)
        change = (build_precision(adjacency_from_w(g, w_restored), rho).log_det
                  - build_precision(adjacency_from_w(g, w), rho).log_det)
        assert change <= restore_bounds(_BandPlan(g), rho, dis, M)[restore].sum() + 1e-9


class TestBoundsOnAnIrregularMap:
    def test_cut_and_restore_bounds_hold(self):
        # on a Delaunay map, severing random sets of kept borders and
        # restoring random sets of severed ones moves the exact log|Q| by no
        # more than the sum of their cut and restore bounds
        g = delaunay_graph(300, seed=2)
        rng = np.random.default_rng(8)
        q = 2
        dis = TestRestoreBounds._random_metrics(rng, g, q)
        M = np.array([alpha_prior_upper(dis, i, 0.3) for i in range(q)])
        plan = _BandPlan(g)

        def log_det(w, rho):
            return build_precision(adjacency_from_w(g, w), rho, plan).log_det

        for rho in (0.5, 0.99):
            h, g_b = cut_bounds(plan, rho), restore_bounds(plan, rho, dis, M)
            for _ in range(10):
                alpha = np.where(rng.random(q) < 0.3, M, M * rng.random(q))
                w = evaluate_w(g, dis, alpha).w
                kept, severed = np.nonzero(w)[0], np.nonzero(w == 0)[0]
                assert kept.size and severed.size
                cut = np.zeros(g.n_borders, dtype=bool)
                cut[rng.choice(kept, int(rng.integers(1, kept.size + 1)), replace=False)] = True
                restore = np.zeros(g.n_borders, dtype=bool)
                restore[rng.choice(severed, int(rng.integers(1, severed.size + 1)),
                                   replace=False)] = True
                base = log_det(w, rho)
                assert log_det(np.where(cut, 0, w).astype(np.uint8), rho) - base \
                    <= h[cut].sum() + 1e-9
                assert log_det(np.where(restore, 1, w).astype(np.uint8), rho) - base \
                    <= g_b[restore].sum() + 1e-9


class TestLogDensity:
    def test_single_area_closed_form(self):
        g = _graph(1, [])
        adj = all_ones_adj(g)
        prec = build_precision(adj, 0.99)
        val = log_density_phi(np.array([0.0]), 0.0, 1.0, prec)
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi) + 0.5 * np.log(0.01))

    def test_phi_at_mean_drops_quadratic(self):
        g = _graph(3, [(0, 1), (1, 2)])
        adj = all_ones_adj(g)
        prec = build_precision(adj, 0.5)
        val = log_density_phi(np.full(3, 1.7), 1.7, 2.0, prec)
        expected = -1.5 * np.log(2 * np.pi * 2.0) + 0.5 * prec.log_det
        assert val == pytest.approx(expected)

    def test_path_graph_vs_dense_oracle(self):
        rng = np.random.default_rng(3)
        g = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        adj = all_ones_adj(g)
        prec = build_precision(adj, 0.99)
        for _ in range(5):
            phi = rng.normal(size=5)
            mu, tau2 = rng.normal(), rng.gamma(2.0)
            ours = log_density_phi(phi, mu, tau2, prec)
            dense = dense_log_density(
                phi, mu, tau2, dense_precision(5, g.borders, adj.w, 0.99))
            assert ours == pytest.approx(dense, abs=1e-8)

    def test_rho_zero_reduces_to_independent_normals(self):
        rng = np.random.default_rng(11)
        g = _graph(4, [(0, 1), (1, 2), (2, 3)])
        adj = all_ones_adj(g)
        prec = build_precision(adj, 0.0)
        phi = rng.normal(size=4)
        ours = log_density_phi(phi, 0.3, 1.7, prec)
        from scipy.stats import norm
        indep = norm(loc=0.3, scale=np.sqrt(1.7)).logpdf(phi).sum()
        assert ours == pytest.approx(indep, abs=1e-12)

    def test_logdet_refactorize_after_flip(self):
        # severing a border changes Q; the refreshed factorization must match
        # a dense recomputation
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, borders = random_graph(rng, n_max=8)
            g = _graph(n, borders)
            if g.n_borders == 0:
                continue
            w = np.ones(g.n_borders, dtype=np.uint8)
            w[rng.integers(g.n_borders)] = 0
            adj = adjacency_from_w(g, w)
            prec = build_precision(adj, 0.99)
            _, logdet = np.linalg.slogdet(dense_precision(n, borders, w, 0.99))
            assert abs(prec.log_det - logdet) < 1e-10


class TestFullConditional:
    def test_no_retained_neighbours(self):
        g = _graph(3, [(0, 1), (1, 2)])
        adj = adjacency_from_w(g, np.zeros(2, dtype=np.uint8))
        mean, var = full_conditional_phi(1, np.array([5.0, 0.0, -3.0]),
                                         0.4, 2.0, 0.99, adj)
        assert mean == pytest.approx(0.4)
        assert var == pytest.approx(2.0 / 0.01)

    def test_two_area_plugin(self):
        g = _graph(2, [(0, 1)])
        adj = all_ones_adj(g)
        mean, var = full_conditional_phi(0, np.array([0.0, 1.0]), 0.0, 1.0, 0.99, adj)
        assert mean == pytest.approx(0.99 / 1.0)
        assert var == pytest.approx(1.0 / 1.0)

    def test_matches_joint_partition_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n, borders = random_graph(rng, n_max=8, n_min=2)
            g = _graph(n, borders)
            w = rng.integers(0, 2, size=g.n_borders).astype(np.uint8)
            adj = adjacency_from_w(g, w)
            mu, tau2 = rng.normal(), rng.gamma(2.0) + 0.1
            phi = rng.normal(size=n)
            dense = dense_precision(n, borders, w, 0.99)
            k = int(rng.integers(n))
            mean, var = full_conditional_phi(k, phi, mu, tau2, 0.99, adj)
            omean, ovar = conditional_from_joint(k, phi, mu, tau2, dense)
            assert mean == pytest.approx(omean, abs=1e-8)
            assert var == pytest.approx(ovar, abs=1e-8)

    def test_index_out_of_range(self):
        g = _graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            full_conditional_phi(5, np.zeros(2), 0.0, 1.0, 0.99, all_ones_adj(g))
