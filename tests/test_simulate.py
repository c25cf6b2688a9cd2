import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

import womble.simulate as sim
from oracles import lattice_loop
from womble import ChainConfig, NumericError, ValidationError
from womble.graph import AreaGraph
from womble.simulate import (Lattice, SimConfig, calibrate_range,
                             five_block_partition, gen_counts,
                             gen_dissimilarity, gen_surface, lattice_graph,
                             matern_correlation, run_study, true_boundary_mask)

MATERN_AT_RANGE = (1.0 + np.sqrt(5.0) + 5.0 / 3.0) * np.exp(-np.sqrt(5.0))


def cells(nrows, ncols):
    """(n, 2) (row, col) of each area of an nrows x ncols lattice."""
    return np.column_stack(np.divmod(np.arange(nrows * ncols), ncols))


class TestLattice:
    @pytest.mark.parametrize("nrows, ncols", [
        (1, 1), (1, 7), (7, 1), (3, 50), (16, 16), (64, 64)])
    def test_matches_double_loop(self, nrows, ncols):
        g = lattice_graph(nrows, ncols)
        borders, ids = lattice_loop(nrows, ncols)
        assert isinstance(g, Lattice) and g.shape == (nrows, ncols)
        assert g.n == nrows * ncols
        assert g.borders.dtype == borders.dtype and g.borders.shape == borders.shape
        assert g.borders.tobytes() == borders.tobytes()
        assert g.area_ids == tuple(ids)

    def test_dimensions_must_be_positive(self):
        for nrows, ncols in ((0, 3), (3, 0), (-1, 2)):
            with pytest.raises(ValidationError, match="positive"):
                lattice_graph(nrows, ncols)

    def test_shape_survives_pickle(self):
        g = pickle.loads(pickle.dumps(lattice_graph(3, 5)))
        assert type(g) is Lattice and g.shape == (3, 5)
        assert g.borders.tobytes() == lattice_graph(3, 5).borders.tobytes()


class TestMatern:
    def test_zero_distance(self):
        assert matern_correlation(0.0, 2.3) == 1.0

    def test_closed_form_at_distance_equal_range(self):
        # a = sqrt(5): (1 + sqrt5 + 5/3) exp(-sqrt5)
        assert matern_correlation(1.0, 1.0) == pytest.approx(MATERN_AT_RANGE,
                                                             rel=1e-12)
        assert MATERN_AT_RANGE == pytest.approx(0.5239941088318203, rel=1e-12)

    def test_vectorized(self):
        d = np.array([0.0, 0.5, 1.0, 5.0])
        out = matern_correlation(d, 1.0)
        assert out.shape == (4,)
        assert out[0] == 1.0
        assert (np.diff(out) < 0).all()

    def test_bessel_path_matches_half_integer_closed_form(self):
        # kappa = 1.5 closed form: (1 + a) exp(-a), a = sqrt(3) d / range
        d = 0.7
        a = np.sqrt(3.0) * d / 1.3
        assert matern_correlation(d, 1.3, kappa=1.5) == pytest.approx(
            (1 + a) * np.exp(-a), rel=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            matern_correlation(1.0, 0.0)
        with pytest.raises(ValidationError):
            matern_correlation(-1.0, 1.0)
        with pytest.raises(ValidationError):
            matern_correlation(1.0, 1.0, kappa=0.0)

    def test_in_place_form_matches_formula_and_spares_input(self):
        # the closed form gives the bits of the one-line formula, d untouched
        d = squareform(pdist(cells(12, 12)))
        before = d.copy()
        r = 3.7
        a = np.sqrt(5.0) * d / r
        expected = np.clip((1.0 + a + a * a / 3.0) * np.exp(-a), 0.0, 1.0)
        assert matern_correlation(d, r).tobytes() == expected.tobytes()
        assert d.tobytes() == before.tobytes()

    @given(st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=1.05, max_value=3.0))
    @settings(max_examples=80, deadline=None)
    def test_monotonicity_properties(self, d, extra, rng_val, factor):
        # decreasing in distance, increasing in range
        c1 = matern_correlation(d, rng_val)
        c2 = matern_correlation(d + extra, rng_val)
        assert c2 < c1
        c3 = matern_correlation(d, rng_val * factor)
        assert c3 > c1


class TestCalibrateRange:
    def test_inverts_closed_form_example(self):
        r = calibrate_range(1, 2, target_median=MATERN_AT_RANGE)
        assert r == pytest.approx(1.0, abs=1e-4)

    def test_lattice_self_check(self):
        r = calibrate_range(16, 16, 0.5)
        med = np.median(matern_correlation(pdist(cells(16, 16)), r))
        assert med == pytest.approx(0.5, abs=1e-6)

    @staticmethod
    def _all_pairs_calibration(points, target, kappa):
        """The bisection with the median taken over every pair."""
        dists = pdist(points)
        dists = dists[dists > 0]
        median = lambda r: float(np.median(matern_correlation(dists, r, kappa)))
        lo = hi = float(np.median(dists))
        while median(hi) < target:
            hi *= 2.0
        while median(lo) > target:
            lo /= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = median(mid)
            if abs(val - target) <= 1e-6:
                return mid
            lo, hi = (mid, hi) if val < target else (lo, mid)
        raise AssertionError("no convergence")

    @pytest.mark.parametrize("kappa", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("points", [
        "4x4", "3x5", "5x17", "16x16", "1x2", "2x1", "1x7", "32x32"])
    def test_middle_distances_give_the_all_pairs_result(self, points, kappa):
        # 3x5, 1x2 and 1x7 have an odd number of pairs
        nrows, ncols = map(int, points.split("x"))
        for target in (0.3, 0.5):
            assert (calibrate_range(nrows, ncols, target, kappa)
                    == self._all_pairs_calibration(cells(nrows, ncols), target, kappa))

    def test_unreachable_target_hits_cap(self, monkeypatch):
        monkeypatch.setattr(sim, "RANGE_CAP_FACTOR", 2.0)
        with pytest.raises(NumericError, match="cap"):
            calibrate_range(1, 2, target_median=0.99)

    def test_target_bounds_validated(self):
        with pytest.raises(ValidationError):
            calibrate_range(1, 2, target_median=1.0)
        with pytest.raises(ValidationError):
            calibrate_range(1, 2, target_median=0.0)
        with pytest.raises(ValidationError, match="two areas"):
            calibrate_range(1, 1)


class TestPartition:
    def test_default_16_boundary_fraction(self):
        g = lattice_graph(16, 16)
        labels = five_block_partition(16, 16)
        tb = true_boundary_mask(g, labels)
        assert g.n_borders == 480
        assert tb.sum() == 48
        assert set(labels.tolist()) == {0, 1, 2, 3, 4, 5}

    def test_scales_to_other_sizes(self):
        g = lattice_graph(8, 8)
        labels = five_block_partition(8, 8)
        tb = true_boundary_mask(g, labels)
        assert tb.any() and not tb.all()

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError, match="too small"):
            five_block_partition(4, 4)


def small_config(**kw):
    g = lattice_graph(6, 6)
    labels = np.zeros(36, dtype=int)
    labels[[14, 15, 20, 21]] = 1  # one interior 2x2 block
    defaults = dict(graph=g, true_partition=labels, k1=0.3, k2=3.0,
                    field_sd=0.2, E=100.0, replicates=2)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestGenSurface:
    def test_background_mean_zero(self):
        cfg = small_config(k1=0.4)
        reps = 200
        bg = cfg.true_partition == 0
        surface = sim._prepare(cfg)
        means = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng(10_000 + r)
            phi, _ = gen_surface(cfg, surface, rng)
            means[r] = phi[bg].mean()
        se = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean()) < 3 * se

    def test_block_mean_offset(self):
        cfg = small_config(k1=0.4)
        reps = 200
        blk = cfg.true_partition == 1
        surface = sim._prepare(cfg)
        means = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng(20_000 + r)
            phi, _ = gen_surface(cfg, surface, rng)
            means[r] = phi[blk].mean()
        se = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - 0.4) < 3 * se

    def test_lag1_correlation_matches_matern(self):
        # fixed adjacent pair, correlated across independent replicates:
        # the draws are iid bivariate normal with the Matern correlation
        cfg = small_config(k1=0.0)
        surface = sim._prepare(cfg)
        target = matern_correlation(1.0, calibrate_range(
            *cfg.graph.shape, cfg.target_median_correlation, cfg.kappa))
        k, j = cfg.graph.borders[0]
        reps = 200
        pairs = np.empty((reps, 2))
        for r in range(reps):
            rng = np.random.default_rng(30_000 + r)
            phi, _ = gen_surface(cfg, surface, rng)
            pairs[r] = phi[k], phi[j]
        r_hat = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        # Fisher z: 3 SE margin with SE = 1/sqrt(reps - 3)
        assert abs(np.arctanh(r_hat) - np.arctanh(target)) < 3.0 / np.sqrt(reps - 3)

    def test_risk_is_exp_phi(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        phi, r = gen_surface(cfg, sim._prepare(cfg), rng)
        np.testing.assert_allclose(r, np.exp(phi))

    @pytest.mark.parametrize("kappa", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("shape", ["1x2", "3x5", "17x40", "32x32"])
    def test_window_covariance_is_matern(self, shape, kappa):
        # exact, no sampling: the torus field's covariance is
        # ifft2(spectrum^2), and at every offset between two lattice areas,
        # (dr, dc) and (dr, -dc), it must be the Matern correlation
        nrows, ncols = map(int, shape.split("x"))
        rows = np.arange(1 - nrows, nrows)
        cols = np.arange(1 - ncols, ncols)
        dist = np.hypot(rows[:, None], cols[None, :])
        for target in (0.3, 0.5, 0.8):
            # _prepare reads the lattice, kappa and the target alone; a
            # SimConfig would also need a partition with both kinds of
            # border, which a 1x2 lattice cannot have
            cfg = SimpleNamespace(graph=lattice_graph(nrows, ncols), kappa=kappa,
                                  target_median_correlation=target)
            plan = sim._prepare(cfg)
            cov = np.fft.ifft2(plan ** 2).real
            np.testing.assert_allclose(
                cov[np.ix_(rows, cols)],
                matern_correlation(dist, calibrate_range(nrows, ncols, target, kappa),
                                   kappa), rtol=0, atol=1e-6)


class TestPrepare:
    def test_surface_setup_peak_memory(self):
        # 64x64: the plan is set up in arrays the size of its P x P torus,
        # at most a dozen of them alive at once, whatever the lattice's n^2
        g = lattice_graph(64, 64)
        cfg = SimConfig(graph=g, true_partition=five_block_partition(64, 64),
                        k1=0.4, k2=3.0)
        tracemalloc.start()
        try:
            plan = sim._prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        side = plan.shape[0]
        assert side <= 8 * 64
        assert peak <= 12 * 8 * side ** 2


class TestGenDissimilarity:
    def test_boundary_mean_offset(self):
        cfg = small_config(k2=3.0)
        tb = true_boundary_mask(cfg.graph, cfg.true_partition)
        reps = 300
        vals = []
        for r in range(reps):
            rng = np.random.default_rng(40_000 + r)
            vals.append(gen_dissimilarity(cfg, rng)[tb])
        vals = np.concatenate(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 4.0) < 3 * se + 1e-3

    def test_k2_zero_identical_distributions(self):
        cfg = small_config(k2=0.0)
        tb = true_boundary_mask(cfg.graph, cfg.true_partition)
        rng = np.random.default_rng(1)
        on, off = [], []
        for _ in range(300):
            raw = gen_dissimilarity(cfg, rng)
            on.append(raw[tb])
            off.append(raw[~tb])
        on, off = np.concatenate(on), np.concatenate(off)
        pooled_se = np.sqrt(on.var() / on.size + off.var() / off.size)
        assert abs(on.mean() - off.mean()) < 4 * pooled_se

    def test_near_perfect_separation_at_k2_3(self):
        from scipy.stats import norm
        overlap = norm.cdf(-3.0 / np.sqrt(0.5))
        assert overlap == pytest.approx(1.1e-5, rel=0.05)
        cfg = small_config(k2=3.0)
        tb = true_boundary_mask(cfg.graph, cfg.true_partition)
        rng = np.random.default_rng(2)
        crossings = 0
        total = 0
        for _ in range(2000):
            raw = gen_dissimilarity(cfg, rng)
            crossings += np.sum(raw[tb][:, None] < raw[~tb][None, :])
            total += tb.sum() * (~tb).sum()
        assert crossings / total < 5e-5


class TestGenCounts:
    def test_poisson_mean(self):
        rng = np.random.default_rng(3)
        y = gen_counts(np.ones(2000), np.full(2000, 1000.0), rng)
        assert abs(y.mean() - 1000.0) < 3 * np.sqrt(1000.0 / 2000)

    def test_zero_risk_limit(self):
        rng = np.random.default_rng(4)
        y = gen_counts(np.full(50, np.exp(-50.0)), np.ones(50), rng)
        assert (y == 0).all()

    def test_deterministic_under_seed(self):
        y1 = gen_counts(np.ones(10), np.full(10, 5.0), np.random.default_rng(9))
        y2 = gen_counts(np.ones(10), np.full(10, 5.0), np.random.default_rng(9))
        np.testing.assert_array_equal(y1, y2)


class TestRunStudy:
    def _chain_cfg(self, workers=1, n_chains=1):
        return ChainConfig(n_chains=n_chains, burn_in=300, keep=200, seed=0,
                           workers=workers)

    def test_scorecard_identities_and_determinism(self):
        cfg = small_config(replicates=2)
        s1 = run_study(cfg, self._chain_cfg())
        s2 = run_study(cfg, self._chain_cfg())
        assert s1.ba == s2.ba and s1.nba == s2.nba
        assert s1.rmse_pct == s2.rmse_pct
        assert 0.0 <= s1.ba <= 100.0 and 0.0 <= s1.nba <= 100.0
        per = s1.per_replicate
        tb = true_boundary_mask(cfg.graph, cfg.true_partition)
        for i in range(cfg.replicates):
            missed = 100.0 - per["ba"][i]
            false_pos = 100.0 - per["nba"][i]
            assert missed >= 0.0 and false_pos >= 0.0
            # counts are consistent with the boundary totals
            n_true = tb.sum()
            assert (per["ba"][i] / 100.0 * n_true) == pytest.approx(
                round(per["ba"][i] / 100.0 * n_true), abs=1e-9)

    def test_worker_pool_matches_sequential(self):
        cfg1 = small_config(replicates=2)
        cfg2 = small_config(replicates=2)
        # two chains per replicate: the sequential study shares one log|Q|
        # memo across chains and replicates, each pool worker its own
        s1 = run_study(cfg1, self._chain_cfg(workers=1, n_chains=2))
        s2 = run_study(cfg2, self._chain_cfg(workers=2, n_chains=2))
        assert s1.per_replicate.keys() == s2.per_replicate.keys()
        for name, col in s1.per_replicate.items():
            other = s2.per_replicate[name]
            assert col.dtype == other.dtype and col.tobytes() == other.tobytes(), name

    def test_all_one_partition_rejected(self, monkeypatch):
        # rejected once, when the cell is built: no chain runs
        def no_chains(*args, **kwargs):
            raise AssertionError("a chain ran before the partition was checked")

        monkeypatch.setattr("womble.simulate.run_chains", no_chains)
        cfg = small_config()
        with pytest.raises(ValidationError, match="boundaries"):
            SimConfig(graph=cfg.graph, true_partition=np.zeros(36, dtype=int),
                      k1=0.1, k2=1.0, replicates=1)
        # one group has no boundary whatever its label; a checkerboard makes
        # every border one
        rows, cols = np.divmod(np.arange(36), 6)
        for labels in (np.ones(36, dtype=int), (rows + cols) % 2):
            with pytest.raises(ValidationError, match="boundaries"):
                SimConfig(graph=cfg.graph, true_partition=labels,
                          k1=0.1, k2=1.0, replicates=1)

    def test_true_boundaries_derived_once(self, monkeypatch):
        cfg = small_config(replicates=1)
        tb = cfg.true_boundaries
        assert tb.dtype == bool
        assert tb.tobytes() == true_boundary_mask(cfg.graph, cfg.true_partition).tobytes()
        assert tb.sum() == 8    # the 2x2 block's perimeter

        def no_mask(*args, **kwargs):
            raise AssertionError("true boundaries derived after the cell was built")

        monkeypatch.setattr("womble.simulate.true_boundary_mask", no_mask)
        gen_dissimilarity(cfg, np.random.default_rng(0))
        run_study(cfg, self._chain_cfg())

    def test_config_validation(self):
        g = lattice_graph(3, 3)
        centre = np.zeros(9, dtype=int)
        centre[4] = 1     # 4 boundaries, 8 non-boundaries
        SimConfig(graph=g, true_partition=centre, k1=0.1, k2=0.0)
        with pytest.raises(ValidationError):
            SimConfig(graph=g, true_partition=centre, k1=-0.1, k2=0.0)
        with pytest.raises(ValidationError):
            SimConfig(graph=g, true_partition=np.zeros(4, dtype=int),
                      k1=0.1, k2=0.0)
        # the surface is drawn on a Lattice and no other graph, even one
        # with a lattice's own borders and ids
        for other in (AreaGraph(9, g.borders), AreaGraph(9, g.borders, g.area_ids)):
            with pytest.raises(ValidationError, match="Lattice"):
                SimConfig(graph=other, true_partition=centre, k1=0.1, k2=0.0)
        with pytest.raises(ValidationError, match="one per area"):
            SimConfig(graph=g, true_partition=centre,
                      k1=0.1, k2=0.0, E=np.ones(4))
        with pytest.raises(ValidationError, match="expected counts"):
            SimConfig(graph=g, true_partition=centre,
                      k1=0.1, k2=0.0, E=np.r_[np.ones(8), np.nan])
