import numpy as np
import pytest

from womble import ChainConfig, ObservedData, ValidationError, io, run_chains
from womble.simulate import lattice_graph


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
