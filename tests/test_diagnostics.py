import threading
import tracemalloc

import numpy as np
import pytest

from womble import ValidationError, diagnostics
from womble.diagnostics import (moran_permutation_test, morans_i,
                                pearson_residuals)
from womble.graph import AreaGraph
from womble.simulate import lattice_graph
from womble.rng import PERMUTATION, derive_rng


def dense_moran_oracle(values, graph):
    """Double-loop Moran's I over the full symmetric weight matrix."""
    n = graph.n
    w = np.zeros((n, n))
    for k, j in graph.borders:
        w[k, j] = w[j, k] = 1.0
    d = values - values.mean()
    num = 0.0
    s0 = 0.0
    for a in range(n):
        for b in range(n):
            num += w[a, b] * d[a] * d[b]
            s0 += w[a, b]
    return n / s0 * num / float(np.sum(d * d))


def all_at_once_permutations(values, graph, n_perm, seed):
    """Reference: every permutation drawn and scored in one array.

    Returns the observed I, the p-value and the permuted I's.
    """
    k, j = graph.borders[:, 0], graph.borders[:, 1]
    w = np.ones(graph.n_borders)
    d = values - values.mean()
    denom = float(np.sum(d * d))
    s0 = 2.0 * float(w.sum())
    rng = derive_rng(seed, PERMUTATION)
    keys = rng.random((n_perm, graph.n))
    order = np.argsort(keys, axis=1)
    dp = d[order]
    nums = 2.0 * np.sum(w * dp[:, k] * dp[:, j], axis=1)
    i_perm = graph.n / s0 * nums / denom
    observed = morans_i(values, graph)
    n_ge = int(np.sum(i_perm >= observed))
    return observed, (1 + n_ge) / (1 + n_perm), i_perm


def set_chunk_rows(monkeypatch, graph, rows):
    """Shrink the chunk budget so chunks hold `rows` permutations."""
    per_row = 8 * (3 * graph.n + 2 * graph.n_borders)
    monkeypatch.setattr(diagnostics, "PERM_CHUNK_BYTES", rows * per_row)


class TestMoransI:
    def test_two_area_antithetic(self):
        g = AreaGraph(2, np.array([[0, 1]]))
        assert morans_i(np.array([1.0, -1.0]), g) == pytest.approx(-1.0)

    def test_checkerboard_negative(self):
        g = lattice_graph(4, 4)
        vals = np.array([(r + c) % 2 for r in range(4) for c in range(4)],
                        dtype=float)
        i_stat = morans_i(vals, g)
        assert i_stat < 0
        assert i_stat == pytest.approx(dense_moran_oracle(vals, g), rel=1e-12)

    def test_constant_values_rejected(self):
        g = lattice_graph(2, 2)
        with pytest.raises(ValidationError, match="constant"):
            morans_i(np.ones(4), g)

    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = lattice_graph(3, int(rng.integers(2, 5)))
            vals = rng.normal(size=g.n)
            assert morans_i(vals, g) == pytest.approx(
                dense_moran_oracle(vals, g), rel=1e-12)

    def test_permutation_invariance(self):
        # relabelling areas together with the weight structure leaves I fixed
        rng = np.random.default_rng(1)
        g = lattice_graph(3, 4)
        vals = rng.normal(size=12)
        perm = rng.permutation(12)
        inv = np.empty(12, dtype=int)
        inv[perm] = np.arange(12)
        g2 = AreaGraph(12, inv[g.borders])
        assert morans_i(vals[perm], g2) == pytest.approx(morans_i(vals, g),
                                                         rel=1e-12)


class TestPermutationTest:
    def test_zero_permutations_gives_p_one(self):
        g = lattice_graph(2, 2)
        res = moran_permutation_test(np.array([1.0, -1, 1, -1]), g, n_perm=0)
        assert res.p_value == 1.0
        assert res.n_permutations == 0

    @pytest.mark.parametrize("n_perm", [0, 99])
    def test_negative_seed_rejected(self, n_perm):
        g = lattice_graph(2, 2)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            moran_permutation_test(np.array([1.0, -1, 1, -1]), g,
                                   n_perm=n_perm, seed=-1)

    def test_p_value_bounds(self):
        rng = np.random.default_rng(2)
        g = lattice_graph(4, 4)
        for seed in range(5):
            res = moran_permutation_test(rng.normal(size=16), g, n_perm=99,
                                         seed=seed)
            assert 1.0 / 100 <= res.p_value <= 1.0

    def test_determinism(self):
        g = lattice_graph(4, 4)
        resid = np.random.default_rng(3).normal(size=16)
        r1 = moran_permutation_test(resid, g, n_perm=500, seed=42)
        r2 = moran_permutation_test(resid, g, n_perm=500, seed=42)
        assert r1.p_value == r2.p_value and r1.I == r2.I

    def test_strong_correlation_detected(self):
        # smooth gradient: overwhelmingly significant
        g = lattice_graph(8, 8)
        vals = np.array([r + c for r in range(8) for c in range(8)],
                        dtype=float)
        res = moran_permutation_test(vals, g, n_perm=999, seed=0)
        assert res.p_value <= 0.002

    def test_null_smoke_uniformish(self):
        # a handful of independent null datasets should not pile up at small p
        g = lattice_graph(6, 6)
        rng = np.random.default_rng(4)
        ps = [moran_permutation_test(rng.normal(size=36), g, n_perm=199,
                                     seed=s).p_value for s in range(40)]
        assert np.mean(np.array(ps) <= 0.05) < 0.25
        assert np.mean(np.array(ps) >= 0.5) > 0.2


class TestChunkedPermutations:
    """Chunked scoring on any number of threads must reproduce the
    all-at-once reference bit for bit."""

    def check(self, monkeypatch, graph, n_perm, seed=7):
        """The chunk heights at 1, 2 and 3 threads, each run checked against
        the reference."""
        vals = np.random.default_rng(seed).normal(size=graph.n)
        ref_i, ref_p, ref_perm = all_at_once_permutations(vals, graph, n_perm,
                                                          seed)
        heights = {}
        for threads in (1, 2, 3):
            chunks = diagnostics._permuted_moran(vals, graph, n_perm, seed,
                                                 threads)
            assert np.concatenate(chunks).tobytes() == ref_perm.tobytes()
            monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: threads)
            res = moran_permutation_test(vals, graph, n_perm=n_perm, seed=seed)
            assert res.I == ref_i and res.p_value == ref_p
            heights[threads] = [len(c) for c in chunks]
        return heights

    @pytest.mark.parametrize("rows", [2, 3, 5, 64])
    def test_chunk_heights_match_reference(self, monkeypatch, rows):
        g = lattice_graph(16, 16)
        set_chunk_rows(monkeypatch, g, rows)
        for heights in self.check(monkeypatch, g, 500).values():
            assert sum(heights) == 500 and min(heights) >= 2

    @pytest.mark.parametrize("n_perm, heights", [
        (10, [3, 3, 4]),    # a lone last row joins the chunk before it
        (1, [1]),
        (2, [2]),
    ])
    def test_no_single_row_chunk(self, monkeypatch, n_perm, heights):
        g = lattice_graph(16, 16)
        set_chunk_rows(monkeypatch, g, 3)
        assert self.check(monkeypatch, g, n_perm)[1] == heights

    @pytest.mark.parametrize("n_perm, heights", [
        (10, [2, 2, 2, 2, 2]),
        (11, [2, 2, 2, 2, 3]),    # a lone last row joins the chunk before it
        (1, [1]),
        (2, [2]),
    ])
    def test_no_single_row_chunk_two_threads(self, monkeypatch, n_perm,
                                             heights):
        # two threads split the 3-row budget: chunks of 3 // 2 rows, at least 2
        g = lattice_graph(16, 16)
        set_chunk_rows(monkeypatch, g, 3)
        assert self.check(monkeypatch, g, n_perm)[2] == heights

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_perm", [1, 2, 10])
    def test_one_thread_per_group_of_chunks(self, monkeypatch, n_perm, threads):
        # each group of chunks derives its stream once; the caller scores the
        # first group and starts at most one thread for each other group, so
        # never more threads than chunks, and none are left running
        g = lattice_graph(16, 16)
        set_chunk_rows(monkeypatch, g, 3)
        seen = []

        def recording(*key):
            seen.append(threading.get_ident())
            return derive_rng(*key)

        pools = []

        class RecordingPool(diagnostics.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(diagnostics, "derive_rng", recording)
        monkeypatch.setattr(diagnostics, "ThreadPoolExecutor", RecordingPool)
        vals = np.random.default_rng(7).normal(size=g.n)
        before = threading.active_count()
        chunks = diagnostics._permuted_moran(vals, g, n_perm, 7, threads)
        groups = min(threads, len(chunks))
        assert pools == ([groups - 1] if groups > 1 else [])
        assert len(seen) == groups and len(set(seen)) <= groups
        assert threading.get_ident() in seen
        assert threading.active_count() == before
        _, _, ref_perm = all_at_once_permutations(vals, g, n_perm, 7)
        assert np.concatenate(chunks).tobytes() == ref_perm.tobytes()

    def test_default_budget_many_chunks(self, monkeypatch):
        g = lattice_graph(16, 16)
        heights = self.check(monkeypatch, g, 2000)
        assert len(heights[1]) > 1 and len(heights[3]) > 3

    def test_more_borders_than_sum_buffer(self, monkeypatch):
        # 65x65 has 8320 borders, more than numpy's 8192-element buffer
        g = lattice_graph(65, 65)
        assert g.n_borders > 8192
        self.check(monkeypatch, g, 200)
        set_chunk_rows(monkeypatch, g, 7)
        heights = self.check(monkeypatch, g, 200)
        assert heights[1][-1] == 4
        assert heights[2] == [3] * 66 + [2]    # chunks of 7 // 2 rows

    def test_threads_share_the_budget(self, monkeypatch):
        # two threads, each with chunks of half the budget; tracemalloc counts
        # numpy's buffers in every thread, and the slack covers the 8-byte
        # result per permutation and numpy's own small temporaries
        g = lattice_graph(16, 16)
        vals = np.random.default_rng(3).normal(size=g.n)
        n_perm = 4000
        monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 2)
        expected = moran_permutation_test(vals, g, n_perm=n_perm, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = moran_permutation_test(vals, g, n_perm=n_perm, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got == expected
        per_row = 8 * (3 * g.n + 2 * g.n_borders)
        one_thread = diagnostics.PERM_CHUNK_BYTES // (2 * per_row) * per_row
        # smaller than one thread's chunk, so no second one hides in it
        slack = 128 * 1024
        assert 8 * n_perm < slack < one_thread
        assert peak <= diagnostics.PERM_CHUNK_BYTES + slack


class TestPearsonResiduals:
    def test_formula(self):
        y = np.array([4.0, 9.0])
        E = np.array([2.0, 3.0])
        r = np.array([2.0, 3.0])
        out = pearson_residuals(y, E, r)
        np.testing.assert_allclose(out, [(4 - 4) / 2.0, 0.0])

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValidationError):
            pearson_residuals(np.array([1.0]), np.array([1.0]), np.array([0.0]))

    def test_mean_near_zero_for_consistent_fit(self):
        rng = np.random.default_rng(5)
        E = np.full(256, 100.0)
        r_hat = rng.gamma(4.0, 0.25, size=256)
        y = rng.poisson(E * r_hat)
        resid = pearson_residuals(y, E, r_hat)
        assert abs(resid.mean()) < 0.2
