import csv
from io import StringIO
from types import SimpleNamespace

import numpy as np
import pytest

from womble import ChainConfig, ObservedData, ValidationError, io, run_chains
from womble.boundary import BlvResult, BoundarySet
from womble.diagnostics import MoranResult
from womble.mcmc import DicResult, effective_sample_size
from womble.simulate import SimScore, lattice_graph


class TestAdjacencyDetection:
    def test_matrix_requires_square_zero_one(self, tmp_path):
        p = tmp_path / "adj.csv"
        p.write_text("0,1\n1,0\n")
        out = io.read_adjacency(p, ["a", "b"])
        assert out.shape == (2, 2)
        assert out.dtype == np.int64

    def test_pair_list_without_header(self, tmp_path):
        p = tmp_path / "adj.csv"
        p.write_text("a,b\nb,c\n")
        out = io.read_adjacency(p, ["a", "b", "c"])
        assert out.tolist() == [[0, 1], [1, 2]]

    def test_pair_list_with_header(self, tmp_path):
        p = tmp_path / "adj.csv"
        p.write_text("area_id_1,area_id_2\na,b\n")
        out = io.read_adjacency(p, ["a", "b"])
        assert out.tolist() == [[0, 1]]

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "adj.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            io.read_adjacency(p, ["a"])

    def test_bad_row_width_rejected(self, tmp_path):
        p = tmp_path / "adj.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValidationError, match="two fields"):
            io.read_adjacency(p, ["a", "b", "c"])


class TestAreasReader:
    def test_header_enforced(self, tmp_path):
        p = tmp_path / "areas.csv"
        p.write_text("id,cases,expected\na,1,2\n")
        with pytest.raises(ValidationError, match="area_id,y,E"):
            io.read_areas_csv(p)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "areas.csv"
        p.write_text("area_id,y,E\na,1,2\na,2,3\n")
        with pytest.raises(ValidationError, match="duplicate"):
            io.read_areas_csv(p)

    def test_metric_selection_order(self, tmp_path):
        p = tmp_path / "areas.csv"
        p.write_text("area_id,y,E,m1,m2\na,1,2,0.5,1.5\nb,2,3,0.7,1.8\n")
        ids, y, E, metrics = io.read_areas_csv(p, ["m2", "m1"])
        assert list(metrics) == ["m2", "m1"]
        np.testing.assert_allclose(metrics["m2"], [1.5, 1.8])


class TestSummaryWriter:
    def test_metric_free_fit_has_no_alpha_rows(self, tmp_path):
        g = lattice_graph(3, 3)
        rng = np.random.default_rng(0)
        data = ObservedData(y=rng.poisson(50, 9).astype(float),
                            E=np.full(9, 50.0))
        cfg = ChainConfig(n_chains=1, burn_in=50, keep=20, seed=0)
        samples = run_chains(data, g, None, cfg)
        io.write_posterior_summary(samples, tmp_path / "ps.csv")
        _, rows = io.read_table(tmp_path / "ps.csv")
        assert {r["param"] for r in rows} == {"mu", "tau2", "deviance"}

    def test_float_roundtrip_exact(self, tmp_path):
        vals = [0.1, 1 / 3, np.pi, 1e-300, 12345.6789]
        io._write_rows(tmp_path / "t.csv", ["v"], [[v] for v in vals])
        _, rows = io.read_table(tmp_path / "t.csv")
        parsed = [float(r["v"]) for r in rows]
        assert parsed == vals


# the values a float column is checked on: signed zero, the smallest
# subnormal, a power of ten written with an exponent, and others
SPECIAL = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, float("inf"), float("nan"), 2.0]


def _fmt(x) -> str:
    """The per-cell formatting the writers used to apply to every cell."""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def reference_csv(header, rows) -> bytes:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    return buf.getvalue().encode()


class TestWritersKeepBytes:
    """Every writer's file equals what the per-cell path wrote for the same
    numpy values: floats, numpy bools and integers, special values."""

    def _column(self, size, shift=0):
        return np.array([SPECIAL[(i + shift) % len(SPECIAL)] for i in range(size)])

    def test_risk_and_residuals(self, tmp_path):
        g = lattice_graph(3, 3)
        ids = g.area_ids
        med, lo, hi, resid = (self._column(g.n, s) for s in range(4))
        y, E = np.arange(g.n, dtype=float) * 7, self._column(g.n, 5)
        io.write_risk_csv(ids, med, lo, hi, tmp_path / "risk.csv")
        assert (tmp_path / "risk.csv").read_bytes() == reference_csv(
            ["area_id", "R_median", "R_ci2.5", "R_ci97.5"],
            [[a, med[k], lo[k], hi[k]] for k, a in enumerate(ids)])
        io.write_residuals_csv(ids, y, E, med, resid, tmp_path / "res.csv")
        assert (tmp_path / "res.csv").read_bytes() == reference_csv(
            ["area_id", "y", "E", "R_median", "residual"],
            [[a, int(y[k]), E[k], med[k], resid[k]] for k, a in enumerate(ids)])

    def test_boundary_and_blv(self, tmp_path):
        g = lattice_graph(3, 3)
        b = g.n_borders
        w_median = (np.arange(b) % 2).astype(np.uint8)
        bset = BoundarySet(graph=g, w_median=w_median, w_mean=self._column(b),
                           is_boundary=w_median == 0)
        values = self._column(b, 3)
        io.write_boundary_csv(bset, values, tmp_path / "boundary.csv")
        pairs = [(g.area_ids[k], g.area_ids[j]) for k, j in g.borders]
        assert (tmp_path / "boundary.csv").read_bytes() == reference_csv(
            ["area_id_1", "area_id_2", "w_median", "w_mean", "is_boundary", "blv"],
            [[p, q, int(w_median[i]), bset.w_mean[i], bool(bset.is_boundary[i]),
              values[i]] for i, (p, q) in enumerate(pairs)])
        res = BlvResult(graph=g, values=values)
        fa, fb = np.arange(b) % 3 == 0, np.arange(b) % 2 == 1
        for flags, header in (((None, None), []), ((fa, None), ["rule_a"]),
                              ((None, fb), ["rule_b"]), ((fa, fb), ["rule_a", "rule_b"])):
            io.write_blv_csv(res, tmp_path / "blv.csv", *flags)
            rows = [[p, q, values[i]] + [f[i] for f in flags if f is not None]
                    for i, (p, q) in enumerate(pairs)]
            assert (tmp_path / "blv.csv").read_bytes() == reference_csv(
                ["area_id_1", "area_id_2", "blv"] + header, rows)

    def test_one_row_writers(self, tmp_path):
        effects = [("m_a", np.float64(0.1), -0.0, 5e-324, np.float64(1e16), "no-effect"),
                   ("m_b", 2.0, np.float64(1 / 3), 7, 0.5, "substantial")]
        io.write_effects_csv(effects, tmp_path / "effects.csv")
        assert (tmp_path / "effects.csv").read_bytes() == reference_csv(
            ["metric", "estimate", "ci2.5", "ci97.5", "alpha_min", "verdict"],
            [list(r) for r in effects])
        res = DicResult(dic=np.float64(-0.0), p_d=5e-324, mean_deviance=1e16)
        io.write_dic_csv(res, tmp_path / "dic.csv")
        assert (tmp_path / "dic.csv").read_bytes() == reference_csv(
            ["dic", "p_d", "mean_deviance"], [list(res)])
        moran = MoranResult(I=np.float64(0.1), p_value=1e16,
                            n_permutations=np.int64(99))
        io.write_moran_csv(moran, tmp_path / "moran.csv")
        assert (tmp_path / "moran.csv").read_bytes() == reference_csv(
            ["I", "p_value", "n_permutations", "residual_type"],
            [[moran.I, moran.p_value, int(moran.n_permutations), "pearson"]])

    def test_simulation_writers(self, tmp_path):
        per = {"replicate": np.arange(4), "ba": self._column(4),
               "nba": self._column(4, 1), "bias_pct": self._column(4, 2),
               "rmse_pct": self._column(4, 3),
               "boundary_count": np.array([0.0, 3.0, 12.0, 1e3])}
        scores = [SimScore(k1=np.float64(0.1), k2=0, replicates=np.int64(4),
                           ba=-0.0, nba=5e-324, bias_pct=1e16, rmse_pct=0.1,
                           ba_se=np.float64(1 / 3), nba_se=2.0, bias_se=0.0,
                           rmse_se=float("nan"), per_replicate=per)]
        io.write_scorecard_csv(scores, tmp_path / "scorecard.csv")
        s = scores[0]
        assert (tmp_path / "scorecard.csv").read_bytes() == reference_csv(
            ["k1", "k2", "replicates", "ba", "nba", "bias_pct", "rmse_pct",
             "ba_se", "nba_se", "bias_se", "rmse_se"],
            [[s.k1, s.k2, int(s.replicates), s.ba, s.nba, s.bias_pct, s.rmse_pct,
              s.ba_se, s.nba_se, s.bias_se, s.rmse_se]])
        io.write_replicates_csv(s, tmp_path / "replicates.csv")
        assert (tmp_path / "replicates.csv").read_bytes() == reference_csv(
            ["replicate", "ba", "nba", "bias_pct", "rmse_pct", "boundary_count"],
            [[int(per["replicate"][i]), per["ba"][i], per["nba"][i],
              per["bias_pct"][i], per["rmse_pct"][i], int(per["boundary_count"][i])]
             for i in range(4)])

    def test_posterior_summary(self, tmp_path):
        rng = np.random.default_rng(1)
        draws = lambda *shape: rng.normal(size=shape) * 10.0 ** rng.integers(-5, 17)
        samples = SimpleNamespace(
            mu=draws(2, 6), tau2=np.array([[-0.0, 5e-324, 1e16, 0.1, 1 / 3, 2.0]] * 2),
            alpha=draws(2, 6, 1), deviance=np.full((2, 6), -0.0),
            dis=SimpleNamespace(metric_names=["m_a"]))
        io.write_posterior_summary(samples, tmp_path / "ps.csv")
        rows = []
        for name, arr in (("mu", samples.mu), ("tau2", samples.tau2),
                          ("alpha_m_a", samples.alpha[:, :, 0]),
                          ("deviance", samples.deviance)):
            for c in range(2):
                x = arr[c]
                rows.append([name, str(c), np.median(x), x.mean(),
                             np.percentile(x, 2.5), np.percentile(x, 97.5),
                             effective_sample_size(x[None, :])])
            pooled = arr.reshape(-1)
            rows.append([name, "all", np.median(pooled), pooled.mean(),
                         np.percentile(pooled, 2.5), np.percentile(pooled, 97.5),
                         effective_sample_size(arr)])
        assert (tmp_path / "ps.csv").read_bytes() == reference_csv(
            ["param", "chain", "median", "mean", "ci2.5", "ci97.5", "ess"], rows)
