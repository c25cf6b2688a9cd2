import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import unit_squares
from womble import ValidationError, build_graph, classify_boundaries, io
from womble.boundary import (INCONCLUSIVE, NO_EFFECT, SUBSTANTIAL, blv,
                             blv_rule_a, blv_rule_b, boundary_segments,
                             classify_effect)
from womble.graph import DissimilarityData, evaluate_w
from womble.simulate import lattice_graph


def samples_with_w_trace(graph, w_draws):
    """Minimal PosteriorSamples stand-in for classification tests, which
    read no phi and only the trace's per-border counts."""
    from womble.mcmc import PosteriorSamples
    w = np.asarray(w_draws, dtype=np.uint8)[None, :, :]
    m = w.shape[1]
    return PosteriorSamples(
        phi_draws=None,
        mu=np.zeros((1, m)), tau2=np.ones((1, m)), alpha=np.zeros((1, m, 0)),
        w_counts=w.sum(axis=1, dtype=np.int64),
        deviance=np.zeros((1, m)), acceptance={}, graph=graph, dis=None)


def interval_samples(lo, hi, n=1001):
    """Sample vector whose 2.5/97.5 percentiles are exactly (lo, hi)."""
    u = np.linspace(0.0, 1.0, n)
    x = lo + (hi - lo) * (u - 0.025) / 0.95
    return np.clip(x, 0.0, None)


class TestClassifyBoundaries:
    def test_all_ones_no_boundary(self):
        g = lattice_graph(2, 2)
        w = np.ones((10, g.n_borders))
        bset = classify_boundaries(samples_with_w_trace(g, w))
        assert bset.boundary_count == 0
        assert not bset.is_boundary.any()

    def test_sixty_percent_zero_is_boundary(self):
        g = lattice_graph(2, 2)
        w = np.ones((10, g.n_borders))
        w[:6, 0] = 0
        bset = classify_boundaries(samples_with_w_trace(g, w))
        assert bset.is_boundary[0]
        assert bset.w_mean[0] == pytest.approx(0.4)
        assert bset.boundary_count == 1

    def test_exact_tie_resolves_to_no_boundary(self):
        g = lattice_graph(2, 2)
        w = np.ones((10, g.n_borders))
        w[:5, 1] = 0
        bset = classify_boundaries(samples_with_w_trace(g, w))
        assert not bset.is_boundary[1]
        assert bset.w_median[1] == 1

    def test_counts_give_the_trace_mean(self):
        # w_mean from the kept counts equals the float mean of the 0/1 trace
        # bit for bit, an exact half-and-half tie and thirds included
        g = lattice_graph(3, 3)
        rng = np.random.default_rng(4)
        w = rng.integers(0, 2, size=(30, g.n_borders)).astype(np.uint8)
        w[:, 0] = np.arange(30) % 2
        w[:, 1] = np.arange(30) % 3 == 0
        samples = samples_with_w_trace(g, w)
        bset = classify_boundaries(samples)
        assert bset.w_mean[0] == 0.5
        assert bset.w_mean.tobytes() == w.mean(axis=0).tobytes()
        assert not bset.is_boundary[0] and bset.is_boundary[1]

    def test_empty_trace_rejected(self):
        g = lattice_graph(2, 2)
        with pytest.raises(ValidationError, match="empty"):
            classify_boundaries(samples_with_w_trace(
                g, np.zeros((0, g.n_borders))))

    def test_fraction_consistency(self):
        g = lattice_graph(3, 3)
        rng = np.random.default_rng(0)
        w = rng.integers(0, 2, size=(11, g.n_borders))
        bset = classify_boundaries(samples_with_w_trace(g, w))
        assert bset.is_boundary.mean() == pytest.approx(
            bset.boundary_count / g.n_borders)

    def test_degenerate_posterior_equals_evaluate_w(self):
        # constant-alpha trace: classification must equal the deterministic rule
        g = lattice_graph(3, 3)
        rng = np.random.default_rng(1)
        dis = DissimilarityData.from_border_values(
            g, rng.gamma(2.0, 1.0, g.n_borders))
        alpha = np.array([0.5])
        adj = evaluate_w(g, dis, alpha)
        w = np.tile(adj.w, (8, 1))
        bset = classify_boundaries(samples_with_w_trace(g, w))
        np.testing.assert_array_equal(bset.is_boundary, adj.w == 0)


class TestBlv:
    def test_single_border_value(self):
        g = lattice_graph(1, 2)
        res = blv(np.array([1.0, 1.5]), g)
        assert res.values[0] == pytest.approx(0.5)

    def test_rule_a_strict(self):
        g = lattice_graph(1, 2)
        res = blv(np.array([1.0, 1.5]), g)
        assert not blv_rule_a(res, 0.5)[0]
        assert blv_rule_a(res, 0.49999)[0]

    def test_rule_b_top_two_of_ten(self):
        g = lattice_graph(1, 11)
        risks = np.concatenate([[1.0], 1.0 + np.cumsum(np.arange(1, 11) / 10.0)])
        res = blv(risks, g)
        flags = blv_rule_b(res, 20.0)
        assert flags.sum() == 2
        top2 = np.argsort(-res.values)[:2]
        assert flags[top2].all()

    def test_rule_b_tie_stable_order(self):
        g = lattice_graph(1, 4)
        res = blv(np.array([1.0, 2.0, 3.0, 4.0]), g)  # equal BLVs of 1.0
        flags = blv_rule_b(res, 34.0)  # ceil(.34*3) = 2 flags
        assert flags.tolist() == [True, True, False]

    def test_nonpositive_risk_rejected(self):
        g = lattice_graph(1, 2)
        with pytest.raises(ValidationError):
            blv(np.array([0.0, 1.0]), g)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_rule_b_count_property(self, seed, c2):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 30))
        g = lattice_graph(1, b + 1)
        risks = rng.uniform(0.1, 3.0, size=b + 1)
        while len(set(np.abs(np.diff(risks)))) < b:
            risks = rng.uniform(0.1, 3.0, size=b + 1)
        flags = blv_rule_b(blv(risks, g), c2)
        assert flags.sum() == math.ceil(c2 / 100.0 * b)


class TestClassifyEffect:
    def test_substantial(self):
        s = interval_samples(0.171, 0.254)
        assert classify_effect(s, 0.131) == SUBSTANTIAL

    def test_no_effect(self):
        s = interval_samples(0.001, 0.046)
        assert classify_effect(s, 0.126) == NO_EFFECT

    def test_inconclusive_straddle(self):
        s = interval_samples(0.1, 0.2)
        assert classify_effect(s, 0.15) == INCONCLUSIVE

    def test_interval_construction_is_exact(self):
        s = interval_samples(0.171, 0.254)
        lo, hi = np.percentile(s, [2.5, 97.5])
        assert lo == pytest.approx(0.171, abs=1e-12)
        assert hi == pytest.approx(0.254, abs=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            classify_effect(np.array([0.1]), 0.2)


class TestBoundarySegments:
    def test_lattice_shared_edges(self):
        g = lattice_graph(2, 2)
        # border between a0_0 (cell r0,c0) and a0_1 (cell r0,c1)
        segs = boundary_segments(g, unit_squares(g), [0])
        b, lines = segs[0]
        assert b == 0
        assert len(lines) == 1
        pts = lines[0]
        # shared edge of the two unit squares: x = const 0.5 in col coordinate
        cols = {p[1] for p in pts}
        assert cols == {0.5}
        assert len(pts) == 2

    def test_missing_polygons_rejected(self):
        g = lattice_graph(2, 2)
        with pytest.raises(ValidationError, match="polygons"):
            boundary_segments(g, None, [0])
        with pytest.raises(ValidationError, match="polygons"):
            boundary_segments(g, unit_squares(g)[:3], [0])

    def test_second_feature_of_an_area_adds_its_rings(self, tmp_path):
        # area a is a square beside b, then a distant square: both are kept,
        # so the overlay still finds the a|b edge
        def square(x, y):
            return [[[x, y], [x + 1, y], [x + 1, y + 1], [x, y + 1], [x, y]]]
        features = [{"type": "Feature", "properties": {"area_id": a},
                     "geometry": {"type": "Polygon", "coordinates": square(x, y)}}
                    for a, x, y in [("a", 0, 0), ("b", 1, 0), ("a", 10, 10)]]
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        g = build_graph([(0, 1)], area_ids=["a", "b"])
        polygons = io.read_geojson_polygons(path, g.area_ids)
        assert polygons[0] == square(0, 0) + square(10, 10)
        assert boundary_segments(g, polygons, [0]) == [(0, [[[1, 0], [1, 1]]])]

    def test_chaining_produces_polyline(self):
        from womble.boundary import _chain_edges
        edges = {((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 2.0))}
        lines = _chain_edges(edges)
        assert len(lines) == 1
        assert len(lines[0]) == 3
