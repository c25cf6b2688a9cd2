import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import delaunay_graph, random_graph
from womble import (ConstantMetricError, ValidationError, build_graph,
                    compute_border_metrics, io)
from womble.graph import (AreaGraph, DissimilarityData, alpha_min,
                          alpha_natural_limit, alpha_prior_upper, evaluate_w,
                          reverse_cuthill_mckee)
from womble.simulate import lattice_graph

LN2 = np.log(2.0)


def matrix_graph(tmp_path, mat):
    """The graph of a 0/1 matrix file, read as the CLI reads it."""
    path = tmp_path / "adjacency.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in mat))
    ids = [str(k) for k in range(len(mat))]
    return build_graph(io.read_adjacency(path, ids), area_ids=ids)


def scipy_components(n, borders):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    k, j = np.asarray(borders, dtype=np.int64).reshape(-1, 2).T
    adj = csr_matrix((np.ones(k.size), (k, j)), shape=(n, n))
    return int(connected_components(adj, directed=False)[0])


def scipy_rcm(graph):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee as rcm
    n, borders = graph.n, graph.borders
    pattern = csr_matrix((np.ones(len(borders)), borders.T), shape=(n, n))
    return rcm(pattern + pattern.T, symmetric_mode=True)


class TestReverseCuthillMcKee:
    """The band plan's ordering is scipy's reverse_cuthill_mckee permutation
    exactly, so every banded factor, and every output, is the same."""

    @pytest.mark.parametrize("rows, cols", [
        (1, 1), (1, 2), (1, 7), (7, 1), (1, 40), (40, 1), (3, 50),
        (16, 16), (64, 64), (128, 128)])
    def test_lattices(self, rows, cols):
        g = lattice_graph(rows, cols)
        assert np.array_equal(reverse_cuthill_mckee(g), scipy_rcm(g))

    @pytest.mark.parametrize("n", [300, 7000])
    def test_delaunay_maps(self, n):
        g = delaunay_graph(n, seed=n)
        assert np.array_equal(reverse_cuthill_mckee(g), scipy_rcm(g))

    def test_random_graphs(self):
        # isolated areas and several components, areas in no particular order
        rng = np.random.default_rng(47)
        for _ in range(200):
            n, borders = random_graph(rng, n_max=60, n_min=1, p=rng.uniform(0.0, 0.12))
            g = AreaGraph(n, rng.permutation(n)[borders])
            assert np.array_equal(reverse_cuthill_mckee(g), scipy_rcm(g))
        for n, n_borders in [(1000, 400), (3000, 4000), (2000, 2500)]:
            pairs = rng.integers(0, n, size=(n_borders, 2))
            pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
            g = AreaGraph(n, pairs)
            assert g.n_components > 1
            assert np.array_equal(reverse_cuthill_mckee(g), scipy_rcm(g))

    def test_borderless(self):
        for n in (1, 5, 40, 3000):
            g = AreaGraph(n, np.zeros((0, 2), dtype=np.int64))
            assert np.array_equal(reverse_cuthill_mckee(g), scipy_rcm(g))

    def test_components_are_searched_together(self, monkeypatch):
        # 600 isolated areas and 200 separate pairs: one round reaches every
        # pair's second area and one finds nothing more, so the search takes
        # two rounds, not one per component
        pairs = 600 + 2 * np.arange(200)
        g = AreaGraph(1000, np.column_stack([pairs, pairs + 1]))
        rounds = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: rounds.append(1) or lexsort(keys))
        order = reverse_cuthill_mckee(g)
        monkeypatch.undo()
        assert len(rounds) == 2
        assert np.array_equal(order, scipy_rcm(g))


class TestBuildGraph:
    def test_matrix_transcription(self, tmp_path):
        g = matrix_graph(tmp_path, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert g.n == 3
        assert [tuple(b) for b in g.borders] == [(0, 1), (1, 2)]

    def test_four_cycle_pairs(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n_borders == 4
        assert g.n_components == 1

    def test_disjoint_edges_components(self):
        g = build_graph([(0, 1), (2, 3)])
        assert g.n_components == 2

    @pytest.mark.parametrize("n, borders", [
        (26, lattice_graph(5, 5).borders),                       # isolated area
        (32, np.vstack([lattice_graph(4, 4).borders,
                        lattice_graph(4, 4).borders + 16])),     # two islands
        (5, np.zeros((0, 2), dtype=np.int64)),                    # no borders
        # a path listed from its far end
        (9, np.array([(k, k + 1) for k in range(7, -1, -1)])),
    ], ids=["isolated-area", "disconnected", "no-borders", "path"])
    def test_components_match_scipy(self, n, borders):
        assert AreaGraph(n, borders).n_components == scipy_components(n, borders)

    def test_components_match_scipy_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n, borders = random_graph(rng, n_max=40, n_min=1, p=rng.uniform(0.0, 0.15))
            borders = rng.permutation(n)[borders]   # areas in no particular order
            assert AreaGraph(n, borders).n_components == scipy_components(n, borders)

    def test_unordered_normalization(self):
        g = build_graph([(1, 0), (2, 1)])
        assert [tuple(b) for b in g.borders] == [(0, 1), (1, 2)]

    def test_asymmetric_matrix_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="symmetric"):
            matrix_graph(tmp_path, [[0, 1], [0, 0]])

    def test_nonzero_diagonal_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="diagonal"):
            matrix_graph(tmp_path, [[1, 1], [1, 0]])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            build_graph([(0, 0), (1, 2)])

    def test_two_pairs_are_never_read_as_a_matrix(self):
        # a 2 x 2 array of 0s and 1s is two index pairs, here one border
        # listed twice
        for area_ids in (None, ["a", "b", "c"]):
            with pytest.raises(ValidationError, match="duplicate border pair"):
                build_graph(np.array([(0, 1), (1, 0)]), area_ids=area_ids)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            AreaGraph(2, np.array([[0, 5]]))

    @pytest.mark.parametrize("pairs", [
        [(0.5, 1.7), (1.2, 2.9)],      # truncated, a 3-area graph
        [(True, False)],               # read as 1 and 0, a 1-border graph
        np.array([(0.0, 1.0)]),
    ], ids=["fractional", "boolean", "integral-float"])
    def test_non_integer_indices_rejected(self, pairs):
        with pytest.raises(ValidationError, match="integers"):
            build_graph(pairs)
        with pytest.raises(ValidationError, match="integers"):
            AreaGraph(3, pairs)

    def test_empty_and_int32_pairs_build(self):
        # an empty list is a float64 array; its area count comes from area_ids
        g = build_graph([], area_ids=["a", "b"])
        assert g.n == 2 and g.n_borders == 0 and g.borders.dtype == np.int64
        g = build_graph(np.array([(1, 0), (1, 2)], dtype=np.int32))
        assert g.borders.dtype == np.int64 and g.borders.tolist() == [[0, 1], [1, 2]]
        # Delaunay simplices are int32
        assert delaunay_graph(30, seed=1).borders.dtype == np.int64

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_graph([(0, 1), (1, 0), (1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_graph(np.zeros((0, 0)))

    def test_isolated_areas_fine_via_matrix(self, tmp_path):
        mat = np.zeros((3, 3), dtype=int)
        g = matrix_graph(tmp_path, mat)
        assert g.n == 3 and g.n_borders == 0 and g.n_components == 3
        assert [a.tolist() for a in g.incidence[0]] == [[], [], []]
        mat[0, 1] = mat[1, 0] = 1
        g = matrix_graph(tmp_path, mat)
        assert g.n == 3 and g.n_borders == 1 and g.n_components == 2
        assert [a.tolist() for a in g.incidence[0]] == [[1], [0], []]

    @pytest.mark.parametrize("pairs", [
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        [(4, 0), (2, 4), (1, 3), (0, 2)],
        [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (0, 1)],
    ])
    def test_incidence_matches_loop_reference(self, pairs):
        g = build_graph(pairs)
        nbrs = [[] for _ in range(g.n)]
        bids = [[] for _ in range(g.n)]
        for b, (k, j) in enumerate(g.borders):
            nbrs[k].append(j)
            bids[k].append(b)
            nbrs[j].append(k)
            bids[j].append(b)
        got_nbrs, got_bids = g.incidence
        assert [a.tolist() for a in got_nbrs] == nbrs
        assert [a.tolist() for a in got_bids] == bids
        assert all(a.dtype == np.int64 for a in got_nbrs + got_bids)

    def test_coloring_is_proper(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        color_of = {}
        for c, members in enumerate(g.coloring):
            for k in members:
                color_of[k] = c
        for k, j in g.borders:
            assert color_of[k] != color_of[j]


class TestBorderMetrics:
    def test_single_border_rejected(self):
        g = AreaGraph(2, np.array([[0, 1]]))
        with pytest.raises(ValidationError, match="fewer than 2 borders"):
            compute_border_metrics(g, np.array([1.0, 3.0]))

    def test_sample_sd_standardization(self):
        # raw absolute differences 2 and 4 -> sample SD sqrt(2)
        g = build_graph([(0, 1), (1, 2)])
        dis = compute_border_metrics(g, np.array([0.0, 2.0, 6.0]))
        assert dis.border_metrics[:, 0].std(ddof=1) == pytest.approx(1.0)
        np.testing.assert_allclose(dis.border_metrics[:, 0],
                                   [2.0 / np.sqrt(2), 4.0 / np.sqrt(2)])

    def test_identical_neighbours_get_zero(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)])
        dis = compute_border_metrics(g, np.array([5.0, 5.0, 1.0, 3.0]))
        assert dis.border_metrics[0, 0] == 0.0

    def test_constant_metric_rejected_by_name(self):
        g = build_graph([(0, 1), (1, 2)])
        with pytest.raises(ConstantMetricError, match="flat"):
            compute_border_metrics(g, np.array([[0.0, 0], [1, 1], [3, 2]]),
                                   metric_names=["ok", "flat"])

    def test_missing_values_rejected(self):
        g = build_graph([(0, 1), (1, 2)])
        with pytest.raises(ValidationError, match="missing"):
            compute_border_metrics(g, np.array([0.0, np.nan, 1.0]))

    def test_border_value_constructor_matches(self):
        g = build_graph([(0, 1), (1, 2)])
        direct = DissimilarityData.from_border_values(g, np.array([2.0, 4.0]))
        via_cov = compute_border_metrics(g, np.array([0.0, 2.0, 6.0]))
        np.testing.assert_allclose(direct.border_metrics, via_cov.border_metrics)

    @pytest.mark.parametrize("q, names", [(1, None), (3, ["a", "b", "c"])])
    def test_covariates_standardize_as_their_border_differences(self, q, names):
        # one standardization: covariates give bit for bit what their
        # absolute border differences give
        g = build_graph(np.array([(k, k + 1) for k in range(11)]
                                 + [(k, k + 3) for k in range(9)]))
        cov = np.random.default_rng(q).normal(size=(12, q))
        raw = np.abs(cov[g.borders[:, 0]] - cov[g.borders[:, 1]])
        via_cov = compute_border_metrics(g, cov, metric_names=names)
        direct = DissimilarityData.from_border_values(g, raw, metric_names=names)
        assert via_cov.border_metrics.tobytes() == direct.border_metrics.tobytes()
        assert via_cov.border_metrics.shape == direct.border_metrics.shape == (20, q)
        np.testing.assert_allclose(via_cov.border_metrics.std(axis=0, ddof=1), 1.0)
        assert via_cov.metric_names == direct.metric_names


class TestEvaluateW:
    def setup_method(self):
        self.g = build_graph([(0, 1), (1, 2), (2, 3)])
        self.dis = DissimilarityData(
            metric_names=("m",), border_metrics=np.array([[0.0], [2.0], [4.0]]))

    def test_alpha_zero_keeps_everything(self):
        adj = evaluate_w(self.g, self.dis, np.array([0.0]))
        assert int((adj.w == 0).sum()) == 0
        assert adj.w.tolist() == [1, 1, 1]

    def test_zero_dissimilarity_never_boundary(self):
        adj = evaluate_w(self.g, self.dis, np.array([100.0]))
        assert adj.w[0] == 1
        assert int((adj.w == 0).sum()) == 2

    def test_tie_at_half_keeps_border(self):
        # z = 2, alpha = ln(2)/2: exp(-ln 2) = 0.5 exactly -> keep
        adj = evaluate_w(self.g, self.dis, np.array([LN2 / 2.0]))
        assert adj.w[1] == 1
        assert adj.w[2] == 0  # z = 4 is strictly past the tie

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            evaluate_w(self.g, self.dis, np.array([-0.1]))

    def test_row_sums_count_retained_borders(self):
        adj = evaluate_w(self.g, self.dis, np.array([LN2 / 2.0]))
        # borders kept: (0,1), (1,2); severed: (2,3)
        assert adj.row_sums.tolist() == [1, 2, 1, 0]

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_one_metric_matches_the_matmul_bitwise(self, size):
        # evaluate_w scores one metric by an elementwise product: the
        # matmul's single rounded product, so the same bits and the same w,
        # at the tie alpha_min too
        from womble.simulate import lattice_graph

        g = lattice_graph(size, size)
        rng = np.random.default_rng(size)
        dis = compute_border_metrics(g, rng.gamma(2.0, 1.0, size=(g.n, 1)))
        z = dis.border_metrics
        upper = alpha_prior_upper(dis, 0)
        for a in (0.0, alpha_min(dis, 0), *rng.uniform(0.0, upper, 20), upper):
            alpha = np.array([a])
            s = z @ alpha
            assert (z[:, 0] * alpha[0]).tobytes() == s.tobytes()
            w = (s <= LN2 * (1.0 + 1e-15)).astype(np.uint8)
            assert evaluate_w(g, dis, alpha).w.tobytes() == w.tobytes()


class TestAlphaThresholds:
    def _dis(self, values):
        g = build_graph([(k, k + 1) for k in range(len(values))])
        return DissimilarityData(
            metric_names=("m",),
            border_metrics=np.asarray(values, dtype=float)[:, None])

    def test_alpha_min_matches_reported_threshold(self):
        # a metric maxing at ln(2)/0.131 has no-effect threshold 0.131
        dis = self._dis([1.0, LN2 / 0.131])
        assert alpha_min(dis, 0) == pytest.approx(0.131)

    def test_alpha_min_unit_max(self):
        dis = self._dis([0.3, 1.0])
        assert alpha_min(dis, 0) == pytest.approx(np.log(2.0))

    def test_alpha_min_closed_form(self):
        dis = self._dis([0.1, 2.0 * LN2])
        assert alpha_min(dis, 0) == pytest.approx(0.5)

    def test_alpha_min_all_zero_metric(self):
        dis = self._dis([0.0, 0.0])
        with pytest.raises(ValidationError, match="zero on every border"):
            alpha_min(dis, 0)

    def test_prior_upper_half_fraction(self):
        dis = self._dis([1.0, 2.0, 3.0, 4.0])
        m = alpha_prior_upper(dis, 0, 0.5)
        assert m == pytest.approx(LN2 / 2.0)
        # enumerate all four candidate thresholds: at alpha = M at most half
        # of the borders are severed, and M is the largest such candidate
        g = dis  # metric values are the thresholds' source
        counts = {}
        for z in [1.0, 2.0, 3.0, 4.0]:
            cand = LN2 / z
            severed = int(np.sum(g.border_metrics[:, 0] * cand > LN2))
            counts[cand] = severed
        assert counts[m] <= 2
        larger = [c for c in counts if c > m]
        assert all(counts[c] > 2 for c in larger)

    def test_prior_upper_full_fraction_is_natural_limit(self):
        dis = self._dis([1.0, 2.0, 3.0, 4.0])
        assert alpha_prior_upper(dis, 0, 1.0) == pytest.approx(LN2 / 1.0)
        assert alpha_natural_limit(dis, 0) == pytest.approx(LN2 / 1.0)

    def test_single_border_full_fraction(self):
        dis = DissimilarityData(metric_names=("m",), border_metrics=np.array([[2.5]]))
        assert alpha_prior_upper(dis, 0, 1.0) == pytest.approx(LN2 / 2.5)

    def test_zero_quantile_rejected(self):
        dis = self._dis([0.0, 0.0, 1.0, 2.0])
        with pytest.raises(ValidationError, match="zero"):
            alpha_prior_upper(dis, 0, 0.75)

    def test_natural_limit_ignores_zero_values(self):
        dis = self._dis([0.0, 0.5, 2.0])
        assert alpha_natural_limit(dis, 0) == pytest.approx(LN2 / 0.5)


class TestAdjacencyProperties:
    """Adjacency-rule invariants, property-tested."""

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_boundary_count_monotone_in_alpha(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 12))
        g = build_graph([(k, k + 1) for k in range(b)])
        q = int(rng.integers(1, 4))
        metrics = rng.gamma(1.0, 1.0, size=(b, q))
        dis = DissimilarityData(metric_names=tuple(f"m{i}" for i in range(q)),
                                border_metrics=metrics)
        a_lo = rng.uniform(0.0, 2.0, size=q)
        a_hi = a_lo + rng.uniform(0.0, 2.0, size=q)
        lo = int((evaluate_w(g, dis, a_lo).w == 0).sum())
        hi = int((evaluate_w(g, dis, a_hi).w == 0).sum())
        assert lo <= hi

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_single_metric_exact_endpoints(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 15))
        g = build_graph([(k, k + 1) for k in range(b)])
        z = rng.gamma(1.0, 1.0, size=b)
        z[rng.random(b) < 0.2] = 0.0
        if z.max() == 0.0:
            z[0] = 1.0
        dis = DissimilarityData(metric_names=("m",), border_metrics=z[:, None])
        amin = alpha_min(dis, 0)
        assert (evaluate_w(g, dis, np.array([amin])).w == 0).sum() == 0
        upper = alpha_natural_limit(dis, 0)
        adj = evaluate_w(g, dis, np.array([upper * (1 + 1e-9)]))
        assert int((adj.w == 0).sum()) == int(np.sum(z > 0))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_single_metric_fraction_bound_at_prior_cap(self, seed, fraction):
        # for a single metric with alpha <= M, the severed fraction stays
        # within the configured cap (multi-metric runs compound and may not)
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 25))
        g = build_graph([(k, k + 1) for k in range(b)])
        z = rng.gamma(1.0, 1.0, size=b) + 1e-6
        dis = DissimilarityData(metric_names=("m",), border_metrics=z[:, None])
        m = alpha_prior_upper(dis, 0, fraction)
        for a in (m, 0.5 * m, 0.0):
            adj = evaluate_w(g, dis, np.array([a]))
            assert int((adj.w == 0).sum()) <= fraction * b + 1e-9

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_covariate_rescaling_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        g = build_graph([(k, k + 1) for k in range(n - 1)])
        cov = rng.normal(size=(n, 2))
        dis1 = compute_border_metrics(g, cov)
        cov2 = cov.copy()
        cov2[:, 0] *= c
        dis2 = compute_border_metrics(g, cov2)
        np.testing.assert_allclose(dis1.border_metrics, dis2.border_metrics,
                                   rtol=1e-10)
        alpha = rng.uniform(0, 2, size=2)
        w1 = evaluate_w(g, dis1, alpha).w
        w2 = evaluate_w(g, dis2, alpha).w
        np.testing.assert_array_equal(w1, w2)
