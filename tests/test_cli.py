import csv
import errno
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from womble import NumericError, io
from womble.simulate import lattice_graph
from womble.cli import main
from conftest import assert_holds_no_setup, fresh_env
from oracles import unit_squares


def write_dataset(tmp: Path, nrows=4, ncols=4, metric=True, seed=0,
                  geojson=False, matrix=False):
    """Small lattice dataset with one informative metric column."""
    g = lattice_graph(nrows, ncols)
    rng = np.random.default_rng(seed)
    n = g.n
    labels = np.zeros(n, dtype=int)
    labels[: n // 4] = 1
    risk = np.where(labels == 0, 1.0, 1.4)
    y = rng.poisson(100.0 * risk)
    depriv = labels * 3.0 + rng.normal(0, 0.1, size=n)

    areas = tmp / "areas.csv"
    with open(areas, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        header = ["area_id", "y", "E"] + (["depriv"] if metric else [])
        w.writerow(header)
        for k in range(n):
            row = [g.area_ids[k], int(y[k]), 100.0]
            if metric:
                row.append(repr(float(depriv[k])))
            w.writerow(row)

    adjacency = tmp / "adjacency.csv"
    if matrix:
        mat = np.zeros((n, n), dtype=int)
        for k, j in g.borders:
            mat[k, j] = mat[j, k] = 1
        with open(adjacency, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            for row in mat:
                w.writerow(row.tolist())
    else:
        with open(adjacency, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["area_id_1", "area_id_2"])
            for k, j in g.borders:
                w.writerow([g.area_ids[k], g.area_ids[j]])

    paths = {"areas": areas, "adjacency": adjacency}
    if geojson:
        gj = tmp / "areas.geojson"
        features = []
        for k, polygon in enumerate(unit_squares(g)):
            features.append({
                "type": "Feature",
                "properties": {"area_id": g.area_ids[k]},
                "geometry": {"type": "Polygon",
                             "coordinates": polygon},
            })
        gj.write_text(json.dumps({"type": "FeatureCollection",
                                  "features": features}))
        paths["geojson"] = gj
    return g, paths


FIT_FLAGS = ["--chains", "2", "--burnin", "200", "--keep", "100", "--seed", "5"]
NON_FINITE_START = ("NUMERIC: non-finite log-posterior at initialization "
                    "after 100 re-draws\n")


def write_unstartable(tmp: Path) -> dict:
    """write_dataset with y = 0 and E = 1e-320: every log-SIR start overflows
    exp(phi), so each of the 100 re-draws of a chain's initial state has a
    non-finite log-posterior, found only after --out exists."""
    _, paths = write_dataset(tmp)
    _, rows = io.read_table(paths["areas"])
    with open(paths["areas"], "w") as fh:
        fh.write("area_id,y,E,depriv\n")
        for r in rows:
            fh.write(f"{r['area_id']},0,1e-320,{r['depriv']}\n")
    return paths


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if the command reaches the sampler."""
    def fail(*args, **kwargs):
        raise AssertionError("sampled before the input was checked")

    monkeypatch.setattr("womble.cli.run_chains", fail)


class TestFit:
    def test_end_to_end_outputs(self, tmp_path):
        g, paths = write_dataset(tmp_path, geojson=True)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--geojson", str(paths["geojson"]),
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 0
        for name in ["posterior_summary.csv", "risk.csv", "boundary.csv",
                     "effects.csv", "dic.csv", "residuals.csv",
                     "boundary_overlay.geojson"]:
            assert (out / name).exists(), name
        header, rows = io.read_table(out / "risk.csv")
        assert header == ["area_id", "R_median", "R_ci2.5", "R_ci97.5"]
        assert len(rows) == g.n
        header, rows = io.read_table(out / "boundary.csv")
        assert header == ["area_id_1", "area_id_2", "w_median", "w_mean",
                          "is_boundary", "blv"]
        assert len(rows) == g.n_borders
        header, rows = io.read_table(out / "effects.csv")
        assert [r["metric"] for r in rows] == ["depriv"]
        assert rows[0]["verdict"] in ("substantial", "no-effect", "inconclusive")

    def test_all_csvs_reparse(self, tmp_path):
        _, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        main(["fit", "--areas", str(paths["areas"]),
              "--adjacency", str(paths["adjacency"]),
              "--out", str(out)] + FIT_FLAGS)
        for f in out.glob("*.csv"):
            header, rows = io.read_table(f)
            assert header and rows
            for row in rows:
                for key, val in row.items():
                    if key.startswith(("area_id", "metric", "verdict", "param",
                                       "chain", "residual_type")):
                        continue
                    float(val)  # numeric fields parse

    def test_rerun_byte_identical(self, tmp_path):
        _, paths = write_dataset(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        args = ["fit", "--areas", str(paths["areas"]),
                "--adjacency", str(paths["adjacency"])] + FIT_FLAGS
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_matrix_adjacency_detected(self, tmp_path, capsys):
        # the same map as a 0/1 matrix file and as a pair list is one graph,
        # so the two fits write the same bytes
        outs = []
        for matrix in (True, False):
            inputs = tmp_path / f"matrix{matrix}"
            inputs.mkdir()
            _, paths = write_dataset(inputs, matrix=matrix)
            out = inputs / "out"
            rc = main(["fit", "--areas", str(paths["areas"]),
                       "--adjacency", str(paths["adjacency"]),
                       "--out", str(out)] + FIT_FLAGS)
            assert rc == 0
            outs.append((out, capsys.readouterr().out))
        (out1, stdout1), (out2, stdout2) = outs
        assert paths["adjacency"].read_text().startswith("area_id_1,area_id_2\n")
        assert stdout1 == stdout2
        assert sorted(p.name for p in out1.iterdir()) == sorted(p.name for p in out2.iterdir())
        for f1 in sorted(out1.iterdir()):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes(), f1.name

    def test_missing_metric_column_validation_exit(self, tmp_path, capsys):
        _, paths = write_dataset(tmp_path)
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--metrics", "not_there",
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 2
        assert "VALIDATION:" in capsys.readouterr().err

    def test_too_few_draws_for_verdicts_fails_before_sampling(self, tmp_path,
                                                             capsys):
        _, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--chains", "1", "--burnin", "10", "--keep", "1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "VALIDATION:" in err and "--keep" in err and "--chains" in err
        assert not (out / "posterior_summary.csv").exists()

    def test_missing_file_io_exit(self, tmp_path, capsys):
        _, paths = write_dataset(tmp_path)
        rc = main(["fit", "--areas", str(tmp_path / "nope.csv"),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 3
        assert "IO:" in capsys.readouterr().err

    def test_no_metric_columns_baseline_fit(self, tmp_path):
        _, paths = write_dataset(tmp_path, metric=False)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 0
        assert not (out / "effects.csv").exists()
        header, rows = io.read_table(out / "boundary.csv")
        assert all(r["is_boundary"] == "0" for r in rows)

    def test_baseline_blv_flag(self, tmp_path):
        g, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--baseline-blv", "c2=10",
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 0
        header, rows = io.read_table(out / "blv.csv")
        assert header == ["area_id_1", "area_id_2", "blv", "rule_b"]
        flagged = sum(r["rule_b"] == "1" for r in rows)
        assert flagged == math.ceil(0.10 * g.n_borders)

    @pytest.mark.parametrize("rules, named", [
        ("c2=x", "--baseline-blv c2"),
        ("c1=0.5,c2=150", "c2 must be a percentage"),
        ("c3=1", "unknown BLV rule"),
    ])
    def test_bad_baseline_blv_rules_fail_before_sampling(
            self, tmp_path, capsys, no_sampling, rules, named):
        _, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--baseline-blv", rules, "--out", str(out)] + FIT_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("VALIDATION:") and named in err
        assert not (out / "posterior_summary.csv").exists()

    def test_non_numeric_config_value(self, tmp_path, capsys):
        _, paths = write_dataset(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text("chains=abc\n")
        rc = main(["--config", str(cfg), "fit",
                   "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("VALIDATION:") and "chains" in err and "'abc'" in err

    def test_unknown_config_keys_rejected(self, tmp_path, capsys, no_sampling):
        _, paths = write_dataset(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text("rho=0.5\nchainz=3\nchains=2\n")
        rc = main(["--config", str(cfg), "fit",
                   "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("VALIDATION:") and str(cfg) in err
        assert "chainz" in err and "rho" in err

    def test_full_disk_fails_before_any_chain(self, tmp_path, capsys,
                                              monkeypatch):
        _, paths = write_dataset(tmp_path)
        tmp = tmp_path / "tmp"
        tmp.mkdir()

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def chain(*args):
            raise AssertionError("a chain started")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        monkeypatch.setattr(os, "posix_fallocate", full)
        monkeypatch.setattr("womble.mcmc._run_chain", chain)
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("IO:") and os.strerror(errno.ENOSPC) in err
        # chains x keep // thin x (8 x areas + borders) on the 4x4 lattice
        assert f"cannot reserve {2 * 100 * (8 * 16 + 24)} bytes" in err
        assert list(tmp.iterdir()) == []
        assert not (tmp_path / "out").exists()

    def test_non_finite_initial_state_exits_4(self, tmp_path, capsys):
        # found after --out exists, which the failed command removes
        paths = write_unstartable(tmp_path)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 4
        assert capsys.readouterr().err == NON_FINITE_START
        assert not out.exists()

    def test_config_file_supplies_defaults(self, tmp_path):
        # n_perm belongs to diagnose; a shared file may hold it
        _, paths = write_dataset(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text("chains=2\nburnin=200\nkeep=100\nseed=5\nn_perm=50\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        rc = main(["--config", str(cfg), "fit",
                   "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(out1)])
        assert rc == 0
        main(["fit", "--areas", str(paths["areas"]),
              "--adjacency", str(paths["adjacency"]),
              "--out", str(out2)] + FIT_FLAGS)
        assert (out1 / "risk.csv").read_bytes() == (out2 / "risk.csv").read_bytes()


    def test_config_file_supplies_every_flag(self, tmp_path):
        # the required flags too: the same fit as the one given by flags
        _, paths = write_dataset(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"areas={paths['areas']}\nadjacency={paths['adjacency']}\n"
                       f"out={tmp_path / 'o1'}\nchains=2\nburnin=200\nkeep=100\n"
                       "seed=5\n")
        assert main(["--config", str(cfg), "fit"]) == 0
        assert main(["fit", "--areas", str(paths["areas"]),
                     "--adjacency", str(paths["adjacency"]),
                     "--out", str(tmp_path / "o2")] + FIT_FLAGS) == 0
        risk = [(tmp_path / o / "risk.csv").read_bytes() for o in ("o1", "o2")]
        assert risk[0] == risk[1]


class TestEffectVerdict:
    def test_near_perfect_metric_substantial(self, tmp_path):
        # clean group-separating covariate: the fitted effect must come out
        # substantial and recover the true boundary set
        from womble.simulate import (SimConfig, _prepare, five_block_partition,
                                     gen_surface)

        g = lattice_graph(8, 8)
        labels = five_block_partition(8, 8)
        cfg = SimConfig(graph=g, true_partition=labels, k1=0.4, k2=3.0,
                        field_sd=0.2, E=100.0, replicates=1)
        rng = np.random.default_rng(31)
        _, risk = gen_surface(cfg, _prepare(cfg), rng)
        y = rng.poisson(100.0 * risk)
        cov = labels * 4.0 + rng.normal(0, 0.05, size=g.n)
        areas = tmp_path / "areas.csv"
        with open(areas, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["area_id", "y", "E", "depriv"])
            for k in range(g.n):
                w.writerow([g.area_ids[k], int(y[k]), 100.0,
                            repr(float(cov[k]))])
        adj = tmp_path / "adj.csv"
        with open(adj, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["area_id_1", "area_id_2"])
            for k, j in g.borders:
                w.writerow([g.area_ids[k], g.area_ids[j]])
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(areas), "--adjacency", str(adj),
                   "--chains", "2", "--burnin", "2000", "--keep", "1000",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        _, rows = io.read_table(out / "effects.csv")
        assert rows[0]["verdict"] == "substantial"
        _, rows = io.read_table(out / "boundary.csv")
        found = {(r["area_id_1"], r["area_id_2"]) for r in rows
                 if r["is_boundary"] == "1"}
        truth = {(g.area_ids[k], g.area_ids[j]) for k, j in g.borders
                 if labels[k] != labels[j]}
        assert found == truth


class TestDiagnose:
    def test_diagnose_after_fit(self, tmp_path):
        _, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        main(["fit", "--areas", str(paths["areas"]),
              "--adjacency", str(paths["adjacency"]),
              "--out", str(out)] + FIT_FLAGS)
        rc = main(["diagnose", "--fit-dir", str(out),
                   "--adjacency", str(paths["adjacency"]),
                   "--n-perm", "199", "--seed", "3"])
        assert rc == 0
        header, rows = io.read_table(out / "moran.csv")
        assert header == ["I", "p_value", "n_permutations", "residual_type"]
        p = float(rows[0]["p_value"])
        assert 0.0 < p <= 1.0
        assert rows[0]["residual_type"] == "pearson"

    @pytest.mark.parametrize("row, named", [
        ("a0_0,100,100.0,1.0,x\n", "non-numeric value in row 2"),
        ("a0_0,100,100.0\n", "row 2 has fewer than 5 fields"),
        ("a0_0,100,100.0,1.0,nan\n", "non-finite value in row 2"),
    ])
    def test_malformed_residuals_rejected(self, tmp_path, capsys, row, named):
        _, paths = write_dataset(tmp_path)
        fit_dir = tmp_path / "fit"
        fit_dir.mkdir()
        resid = fit_dir / "residuals.csv"
        resid.write_text("area_id,y,E,R_median,residual\n" + row)
        rc = main(["diagnose", "--fit-dir", str(fit_dir),
                   "--adjacency", str(paths["adjacency"]), "--n-perm", "9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("VALIDATION:") and str(resid) in err and named in err
        assert not (fit_dir / "moran.csv").exists()

    def test_missing_fit_dir_is_not_created(self, tmp_path, capsys):
        _, paths = write_dataset(tmp_path)
        fit_dir = tmp_path / "no_such_fit"
        rc = main(["diagnose", "--fit-dir", str(fit_dir),
                   "--adjacency", str(paths["adjacency"]), "--n-perm", "9"])
        assert rc == 3
        assert "IO:" in capsys.readouterr().err
        assert not fit_dir.exists()


def scipy_modules_after(code):
    """The scipy modules loaded once `code` has run in a fresh interpreter:
    this one has loaded scipy for the tests already."""
    env = fresh_env()
    probe = ("\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code + probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


class TestOutputStageMemory:
    """The output stage of `fit` reads retained phi a block of areas at a
    time: in a fresh process, its peak RSS grows over `_fit_outputs` by far
    less than the retained phi, 2 chains x 4000 draws x 1024 areas x 8 B."""

    PROBE = (
        "import resource, sys\n"
        "from womble import cli\n"
        "outputs = cli._fit_outputs\n"
        "def measured(*args):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    bset = outputs(*args)\n"
        "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print('output stage grew', 1024 * (after - before))\n"
        "    return bset\n"
        "cli._fit_outputs = measured\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")

    def test_output_stage_holds_a_block_not_the_draws(self, tmp_path):
        _, paths = write_dataset(tmp_path, 32, 32, metric=False)
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, "fit",
             "--areas", str(paths["areas"]), "--adjacency", str(paths["adjacency"]),
             "--chains", "2", "--burnin", "0", "--keep", "4000", "--workers", "2",
             "--seed", "1", "--out", str(tmp_path / "out")],
            env=fresh_env(), capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        grew = int(done.stdout.split("output stage grew ")[1].split()[0])
        phi_bytes = 2 * 4000 * 1024 * 8
        assert grew < phi_bytes / 2


class TestRetainedPhiReadOnce:
    def test_fit_reads_each_block_of_phi_once(self, tmp_path, monkeypatch):
        # 16 areas, 2 chains x 30 draws: with a budget of four draws of the
        # map, each chain writes 8 buffers and the output stage reduces 8
        # blocks of 2 areas, one read per block, chain and buffer
        from womble import mcmc

        monkeypatch.setattr(mcmc, "RISK_BLOCK_BYTES", 8 * 16 * 4)
        _, paths = write_dataset(tmp_path)
        reads = []
        preadv = os.preadv

        def counting(*args):
            reads.append(1)
            return preadv(*args)

        monkeypatch.setattr(os, "preadv", counting)
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--chains", "2", "--burnin", "20", "--keep", "30",
                   "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(reads) == 8 * 2 * 8


class TestStartupImports:
    """Importing womble, building ObservedData and running diagnose, blv or
    a metric-free fit load numpy but not scipy: without metrics nothing
    factorizes Q, and ln(y!) for the DIC is computed without scipy. fit with
    metrics and simulate load scipy.linalg for the banded Cholesky, and
    neither scipy.sparse nor scipy.special."""

    @pytest.mark.parametrize("module", ["womble", "womble.cli"])
    def test_import_loads_no_scipy(self, module):
        assert scipy_modules_after(f"import {module}") == "[]"

    def test_diagnose_loads_no_scipy(self, tmp_path):
        g, paths = write_dataset(tmp_path)
        fit_dir = tmp_path / "fit"
        fit_dir.mkdir()
        rows = [f"{a},{100 + k % 7},100.0,1.0,{(k % 7) / 10}"
                for k, a in enumerate(g.area_ids)]
        (fit_dir / "residuals.csv").write_text(
            "\n".join(["area_id,y,E,R_median,residual"] + rows) + "\n")
        argv = ["diagnose", "--fit-dir", str(fit_dir),
                "--adjacency", str(paths["adjacency"]), "--n-perm", "99"]
        code = f"from womble.cli import main\nassert main({argv!r}) == 0"
        assert scipy_modules_after(code) == "[]"
        assert (fit_dir / "moran.csv").exists()

    def test_fit_loads_scipy(self, tmp_path):
        # the probe's control: the sampler does import scipy
        _, paths = write_dataset(tmp_path)
        argv = ["fit", "--areas", str(paths["areas"]),
                "--adjacency", str(paths["adjacency"]), "--chains", "1",
                "--burnin", "10", "--keep", "2", "--out", str(tmp_path / "out")]
        code = f"from womble.cli import main\nassert main({argv!r}) == 0"
        loaded = scipy_modules_after(code)
        assert repr("scipy.linalg") in loaded
        # the RCM ordering and ln(y!) are computed on numpy
        assert "scipy.sparse" not in loaded and "scipy.special" not in loaded

    def test_metric_free_fit_loads_no_scipy(self, tmp_path):
        # no alpha, so no band plan; the components are counted, and ln(y!)
        # for the DIC computed, without scipy
        _, paths = write_dataset(tmp_path, metric=False)
        argv = ["fit", "--areas", str(paths["areas"]),
                "--adjacency", str(paths["adjacency"]), "--chains", "1",
                "--burnin", "10", "--keep", "2", "--out", str(tmp_path / "out")]
        code = f"from womble.cli import main\nassert main({argv!r}) == 0"
        assert scipy_modules_after(code) == "[]"
        assert (tmp_path / "out" / "dic.csv").exists()

    def test_blv_loads_no_scipy(self, tmp_path):
        # the smoothing model samples no alpha, so nothing reads log|Q|: no
        # band plan, no factorization; and no DIC, so no ln(y!)
        _, paths = write_dataset(tmp_path)
        argv = ["blv", "--areas", str(paths["areas"]),
                "--adjacency", str(paths["adjacency"]), "--c2", "20",
                "--chains", "2", "--workers", "2", "--burnin", "10",
                "--keep", "2", "--out", str(tmp_path / "out")]
        code = f"from womble.cli import main\nassert main({argv!r}) == 0"
        assert scipy_modules_after(code) == "[]"

    def test_simulate_loads_no_scipy_special(self, tmp_path):
        # at the default kappa the Matern kernel has a closed form, the
        # replicates, run in this process, write no DIC, and the band plan's
        # ordering is computed on numpy
        argv = ["simulate", "--nrows", "8", "--ncols", "8", "--replicates", "2",
                "--chains", "1", "--burnin", "10", "--keep", "5",
                "--out", str(tmp_path / "sim")]
        code = f"from womble.cli import main\nassert main({argv!r}) == 0"
        loaded = scipy_modules_after(code)
        assert repr("scipy.linalg") in loaded
        assert "scipy.special" not in loaded and "scipy.sparse" not in loaded

    def test_observed_data_loads_no_scipy(self):
        # y and E are still checked when the object is built
        code = ("import numpy as np\n"
                "from womble import ObservedData, ValidationError\n"
                "ObservedData(y=np.array([3.0, 0.0]), E=np.array([1.0, 2.0]))\n"
                "for y, E in [([-1.0], [1.0]), ([1.0], [0.0])]:\n"
                "    try:\n"
                "        ObservedData(y=np.array(y), E=np.array(E))\n"
                "    except ValidationError:\n"
                "        continue\n"
                "    raise AssertionError('not rejected when built')")
        assert scipy_modules_after(code) == "[]"


class TestBlvCommand:
    def test_blv_subcommand(self, tmp_path):
        g, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        rc = main(["blv", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--c1", "0.1", "--c2", "20",
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 0
        header, rows = io.read_table(out / "blv.csv")
        assert header == ["area_id_1", "area_id_2", "blv", "rule_a", "rule_b"]
        assert sum(r["rule_b"] == "1" for r in rows) == math.ceil(0.2 * g.n_borders)

    def test_baseline_is_the_metric_free_fit(self, tmp_path):
        # the same chains three ways: `blv`, `fit --baseline-blv`, and the
        # blv column of a fit without metrics
        (tmp_path / "m").mkdir()
        (tmp_path / "p").mkdir()
        _, paths = write_dataset(tmp_path / "m")
        _, plain = write_dataset(tmp_path / "p", metric=False)
        io_flags = lambda p, out: ["--areas", str(p["areas"]), "--adjacency",
                                   str(p["adjacency"]), "--out", str(tmp_path / out)]
        assert main(["blv", "--c1", "0.1", "--c2", "10"]
                    + io_flags(paths, "blv") + FIT_FLAGS) == 0
        assert main(["fit", "--baseline-blv", "c1=0.1,c2=10"]
                    + io_flags(paths, "fit") + FIT_FLAGS) == 0
        assert main(["fit"] + io_flags(plain, "plain") + FIT_FLAGS) == 0
        blv_csv = (tmp_path / "blv" / "blv.csv").read_bytes()
        assert (tmp_path / "fit" / "blv.csv").read_bytes() == blv_csv
        _, blv_rows = io.read_table(tmp_path / "blv" / "blv.csv")
        _, fit_rows = io.read_table(tmp_path / "plain" / "boundary.csv")
        assert [r["blv"] for r in fit_rows] == [r["blv"] for r in blv_rows]

    def test_reads_only_counts_and_expected(self, tmp_path):
        # blv uses no metric: an extra text column changes nothing
        _, paths = write_dataset(tmp_path)
        lines = paths["areas"].read_text().splitlines()
        text = tmp_path / "text.csv"
        text.write_text("".join(f"{line},{'note' if i else 'label'} {i}\n"
                                for i, line in enumerate(lines)))
        for areas, out in ((paths["areas"], "plain"), (text, "text")):
            assert main(["blv", "--areas", str(areas), "--adjacency",
                         str(paths["adjacency"]), "--c2", "10",
                         "--out", str(tmp_path / out)] + FIT_FLAGS) == 0
        assert ((tmp_path / "text" / "blv.csv").read_bytes()
                == (tmp_path / "plain" / "blv.csv").read_bytes())

    def test_requires_a_rule(self, tmp_path, capsys):
        _, paths = write_dataset(tmp_path)
        rc = main(["blv", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 2

    def test_bad_c2_fails_before_sampling(self, tmp_path, capsys, no_sampling):
        _, paths = write_dataset(tmp_path)
        rc = main(["blv", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]), "--c2", "150",
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 2
        assert "c2 must be a percentage" in capsys.readouterr().err


    def test_geojson_rejected(self, tmp_path, capsys, no_sampling):
        # blv draws no overlay, so it takes no geometry
        _, paths = write_dataset(tmp_path, geojson=True)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["blv", "--areas", str(paths["areas"]),
                  "--adjacency", str(paths["adjacency"]), "--c2", "10",
                  "--geojson", str(paths["geojson"]), "--out", str(out)] + FIT_FLAGS)
        assert exc.value.code == 2
        assert "unrecognized arguments: --geojson" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_simulate_small(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--k1", "0.4", "--k2", "3",
                   "--nrows", "8", "--ncols", "8", "--replicates", "2",
                   "--chains", "1", "--burnin", "200", "--keep", "100",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        header, rows = io.read_table(out / "scorecard.csv")
        assert header[:4] == ["k1", "k2", "replicates", "ba"]
        assert len(rows) == 1
        assert (out / "replicates_k1_0.4_k2_3.csv").exists()

    def test_simulate_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--k1", "0.4", "--k2", "0",
                "--nrows", "8", "--ncols", "8", "--replicates", "2",
                "--chains", "1", "--burnin", "150", "--keep", "80",
                "--seed", "2"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for f1 in sorted(out1.iterdir()):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes(), f1.name

    def test_multiple_cells(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--k1", "0.2,0.4", "--k2", "3",
                   "--nrows", "8", "--ncols", "8", "--replicates", "1",
                   "--chains", "1", "--burnin", "100", "--keep", "60",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        _, rows = io.read_table(out / "scorecard.csv")
        assert [(r["k1"], r["k2"]) for r in rows] == [("0.2", "3.0"), ("0.4", "3.0")]

    @pytest.mark.parametrize("k1, named", [
        ("0.4,0.4", "(0.4, 3.0) and (0.4, 3.0)"),
        ("0.4,0.4000001", "(0.4, 3.0) and (0.4000001, 3.0)"),
    ])
    def test_cells_sharing_a_detail_file_rejected(self, tmp_path, capsys,
                                                  monkeypatch, k1, named):
        def no_setup(*args, **kwargs):
            raise AssertionError("surface set up before the cells were checked")

        monkeypatch.setattr("womble.simulate._prepare", no_setup)
        out = tmp_path / "sim"
        rc = main(["simulate", "--k1", k1, "--k2", "3", "--nrows", "8",
                   "--ncols", "8", "--replicates", "1", "--chains", "1",
                   "--burnin", "10", "--keep", "10", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and "replicates_k1_0.4_k2_3.csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cells_share_one_surface(self, tmp_path, monkeypatch, workers):
        # the range is calibrated once per run, in no pool process, and each
        # cell's replicates are those of a run of that cell alone
        import womble.simulate as sim

        log = tmp_path / "calibrations"
        calibrate = sim.calibrate_range

        def counted(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return calibrate(*args, **kwargs)

        monkeypatch.setattr("womble.simulate.calibrate_range", counted)
        flags = ["--nrows", "8", "--ncols", "8", "--replicates", "2",
                 "--chains", "1", "--burnin", "60", "--keep", "40",
                 "--seed", "3", "--workers", workers]
        out = tmp_path / "grid"
        assert main(["simulate", "--k1", "0.2,0.4", "--k2", "0,3",
                     "--out", str(out)] + flags) == 0
        assert log.read_text().split() == [str(os.getpid())]
        for k1, k2 in [("0.2", "0"), ("0.2", "3"), ("0.4", "0"), ("0.4", "3")]:
            alone = tmp_path / f"alone_{k1}_{k2}"
            assert main(["simulate", "--k1", k1, "--k2", k2,
                         "--out", str(alone)] + flags) == 0
            name = f"replicates_k1_{k1}_k2_{k2}.csv"
            assert (out / name).read_bytes() == (alone / name).read_bytes(), name

    def test_cells_leave_nothing_on_the_graph(self, tmp_path, monkeypatch):
        # the surface is passed to each cell as a value, and each replicate
        # builds its band plan and sweep tables for itself
        import womble.cli as cli

        studies = []
        run_study = cli.run_study

        def recorded(config, *args, **kwargs):
            studies.append(config)
            return run_study(config, *args, **kwargs)

        monkeypatch.setattr(cli, "run_study", recorded)
        assert main(["simulate", "--k1", "0.2,0.4", "--nrows", "8", "--ncols", "8",
                     "--replicates", "2", "--chains", "1", "--burnin", "20",
                     "--keep", "10", "--out", str(tmp_path / "sim")]) == 0
        assert len(studies) == 2 and studies[0].graph is studies[1].graph
        assert_holds_no_setup(studies[0].graph)

    def test_expected_csv_per_area(self, tmp_path):
        g = lattice_graph(8, 8)
        ecsv = tmp_path / "expected.csv"
        lines = ["area_id,E"] + [f"{aid},{50 + i}" for i, aid in enumerate(g.area_ids)]
        ecsv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sim"
        rc = main(["simulate", "--k1", "0.4", "--k2", "3",
                   "--nrows", "8", "--ncols", "8", "--replicates", "1",
                   "--chains", "1", "--burnin", "100", "--keep", "60",
                   "--seed", "1", "--expected-csv", str(ecsv),
                   "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("flag", ["--k1", "--k2"])
    def test_non_numeric_cell_list(self, tmp_path, capsys, flag):
        rc = main(["simulate", flag, "0.2,abc", "--nrows", "8", "--ncols", "8",
                   "--replicates", "1", "--chains", "1", "--burnin", "10",
                   "--keep", "10", "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("VALIDATION:") and flag in err and "'abc'" in err

    @pytest.mark.parametrize("flag, name", [
        ("--k1", "k1"), ("--k2", "k2"), ("--field-sd", "field_sd"),
        ("--kappa", "kappa")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, monkeypatch,
                                           flag, name, value):
        def no_calibration(*args, **kwargs):
            raise AssertionError("range calibrated before the input was checked")

        monkeypatch.setattr("womble.simulate.calibrate_range", no_calibration)
        rc = main(["simulate", f"{flag}={value}", "--nrows", "8", "--ncols", "8",
                   "--replicates", "1", "--chains", "1", "--burnin", "10",
                   "--keep", "10", "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert capsys.readouterr().err == f"VALIDATION: {name} must be finite\n"

    def test_every_cell_checked_before_the_first_runs(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_study(*args, **kwargs):
            raise AssertionError("a cell ran before every cell was checked")

        monkeypatch.setattr("womble.cli.run_study", no_study)
        rc = main(["simulate", "--k1", "0.4,nan", "--nrows", "8", "--ncols", "8",
                   "--replicates", "1", "--chains", "1", "--burnin", "10",
                   "--keep", "10", "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert "k1 must be finite" in capsys.readouterr().err

    def test_expected_csv_missing_area_rejected(self, tmp_path, capsys):
        ecsv = tmp_path / "expected.csv"
        ecsv.write_text("area_id,E\na0_0,100\n")
        rc = main(["simulate", "--k1", "0.4", "--k2", "3",
                   "--nrows", "8", "--ncols", "8", "--replicates", "1",
                   "--chains", "1", "--burnin", "100", "--keep", "60",
                   "--seed", "1", "--expected-csv", str(ecsv),
                   "--out", str(tmp_path / "sim")])
        assert rc == 2

    @pytest.mark.parametrize("row, message", [
        ("a0_3,x", "E in row 5: 'x' is not a valid float"),
        ("a0_3", "row 5 has fewer than 2 fields"),
        ("a0_3,nan", "E must be finite and positive (row 5)"),
        ("a0_3,0", "E must be finite and positive (row 5)"),
        ("a0_0,100", "duplicate area_id 'a0_0' (row 5)"),
        ("zz_9,100", "unknown area_id 'zz_9' (row 5)"),
    ])
    def test_expected_csv_bad_row_rejected(self, tmp_path, capsys, monkeypatch,
                                           row, message):
        def no_calibration(*args, **kwargs):
            raise AssertionError("range calibrated before the input was checked")

        monkeypatch.setattr("womble.simulate.calibrate_range", no_calibration)
        g = lattice_graph(8, 8)
        lines = ["area_id,E"] + [f"{a},100" for a in g.area_ids]
        lines[4] = row
        ecsv = tmp_path / "expected.csv"
        ecsv.write_text("\n".join(lines) + "\n")
        rc = main(["simulate", "--nrows", "8", "--ncols", "8",
                   "--replicates", "1", "--chains", "1", "--burnin", "10",
                   "--keep", "10", "--expected-csv", str(ecsv),
                   "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"VALIDATION: {ecsv}: {message}\n"

    def test_lattice_above_4096_areas_runs(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--nrows", "65", "--ncols", "64",
                   "--replicates", "1", "--chains", "1", "--burnin", "10",
                   "--keep", "10", "--out", str(out)])
        assert rc == 0
        _, rows = io.read_table(out / "scorecard.csv")
        assert len(rows) == 1

    def test_verbose_echoes_settings(self, tmp_path, capsys):
        _, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]), "--verbose",
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 0
        text = capsys.readouterr().out
        assert "chains x" in text and "wrote" in text


class TestRejectedCommandsWriteNothing:
    """A command that exits 2, 3 or 4 leaves no --out directory (or parent
    of one) that it created, unless the directory holds a file."""

    @pytest.mark.parametrize("command, flags, code, named", [
        ("fit", ["--chains", "0"], 2, "n_chains must be >= 1"),
        ("fit", ["--areas", "{tmp}/missing.csv"], 3, "IO:"),
        ("fit", ["--max-boundary-fraction", "0"], 2,
         "max_boundary_fraction must be in (0, 1]"),
        ("fit", ["--seed", "-1"], 2, "seed must be >= 0"),
        ("fit", ["--baseline-blv", "c1=nan"], 2,
         "--baseline-blv c1 must be finite"),
        ("blv", ["--keep", "0"], 2, "keep must be >= 1"),
        ("blv", ["--c1", "nan"], 2, "--c1 must be finite"),
        ("blv", ["--max-boundary-fraction", "5"], 2,
         "max_boundary_fraction must be in (0, 1]"),
    ])
    def test_fit_and_blv(self, tmp_path, capsys, no_sampling, command, flags,
                         code, named):
        _, paths = write_dataset(tmp_path)
        out = tmp_path / "out"
        rule = ["--c2", "10"] if command == "blv" else []
        rc = main([command, "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]), "--out", str(out)]
                  + rule + FIT_FLAGS
                  + [f.format(tmp=tmp_path) for f in flags])
        assert rc == code
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, config, named", [
        ("fit", [], "", "--areas, --adjacency, --out"),
        ("fit", ["--out", "{tmp}/out"], "areas={areas}\n", "--adjacency"),
        ("blv", ["--c2", "10"], "out={tmp}/out\n", "--areas, --adjacency"),
        ("diagnose", ["--out", "{tmp}/out"], "", "--fit-dir, --adjacency"),
        ("simulate", [], "nrows=4\n", "--out"),
    ], ids=["fit", "fit-areas-from-file", "blv-out-from-file", "diagnose",
            "simulate"])
    def test_missing_required_flags(self, tmp_path, capsys, no_sampling,
                                    command, flags, config, named):
        # checked after the --config file's defaults apply, all in one line
        _, paths = write_dataset(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text(config.format(tmp=tmp_path, areas=paths["areas"]))
        rc = main(["--config", str(cfg), command]
                  + [f.format(tmp=tmp_path) for f in flags])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"VALIDATION: missing required flag(s): {named}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("call, named", [
        ("pwrite", "short write to the retained draws file"),
        ("preadv", "the retained draws file ends early"),
    ])
    def test_short_draws_file_io(self, tmp_path, capsys, monkeypatch, call,
                                 named):
        # every write, or every read, of the retained draws one byte short:
        # phi is read back before the first output file is written
        _, paths = write_dataset(tmp_path)
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        real = getattr(os, call)
        monkeypatch.setattr(os, call, lambda *args: real(*args) - 1)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 3
        assert capsys.readouterr().err == f"IO: [Errno {errno.EIO}] {named}\n"
        assert list(tmp.iterdir()) == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--keep", "0"], "keep must be >= 1"),
        (["--expected", "nan"], "expected counts must be positive and finite"),
        (["--k1", "nan"], "k1 must be finite"),
        (["--seed", "-1"], "seed must be >= 0"),
    ])
    def test_simulate_before_calibration(self, tmp_path, capsys, monkeypatch,
                                         flags, named):
        def no_calibration(*args, **kwargs):
            raise AssertionError("range calibrated before the input was checked")

        monkeypatch.setattr("womble.simulate.calibrate_range", no_calibration)
        out = tmp_path / "sim"
        rc = main(["simulate", "--nrows", "8", "--ncols", "8",
                   "--replicates", "1", "--chains", "1", "--burnin", "10",
                   "--keep", "10", "--out", str(out)] + flags)
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("failure", ["torus", "range cap"])
    def test_simulate_surface_setup_fails(self, tmp_path, capsys, monkeypatch,
                                          failure):
        if failure == "torus":
            # the 8x8 surface needs a torus of side 64 at the defaults
            monkeypatch.setattr("womble.simulate.MAX_TORUS_SIDE", 16)
            named = "--target-median-corr"
        else:
            def capped(*args, **kwargs):
                raise NumericError("range exceeded cap 1e+10")

            monkeypatch.setattr("womble.simulate.calibrate_range", capped)
            named = "NUMERIC: range exceeded cap 1e+10"
        out = tmp_path / "sim"
        rc = main(["simulate", "--nrows", "8", "--ncols", "8",
                   "--replicates", "1", "--chains", "1", "--burnin", "10",
                   "--keep", "10", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("NUMERIC:") and named in err
        assert not out.exists()

    def test_fit_zero_prior_bound(self, tmp_path, capsys, no_sampling):
        # one area of 16 differs: at --max-boundary-fraction 0.5 the metric's
        # quantile, and with it the prior bound, is zero
        _, paths = write_dataset(tmp_path, metric=False)
        lines = paths["areas"].read_text().splitlines()
        lines = [lines[0] + ",cat"] + [f"{row},{int(k == 5)}"
                                       for k, row in enumerate(lines[1:])]
        paths["areas"].write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]), "--out", str(out)]
                  + FIT_FLAGS)
        assert rc == 2
        assert "quantile of metric 'cat'" in capsys.readouterr().err
        assert not out.exists()

    def _unstartable(self, tmp_path, command, out) -> int:
        paths = write_unstartable(tmp_path)
        rule = ["--c2", "10"] if command == "blv" else []
        return main([command, "--areas", str(paths["areas"]),
                     "--adjacency", str(paths["adjacency"]), "--out", str(out)]
                    + rule + FIT_FLAGS)

    def test_blv_non_finite_initial_state(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._unstartable(tmp_path, "blv", out) == 4
        assert capsys.readouterr().err == NON_FINITE_START
        assert not out.exists()

    def test_created_parents_removed(self, tmp_path, capsys):
        # --out a/b creates a too; the failed command removes both
        assert self._unstartable(tmp_path, "fit", tmp_path / "a" / "b") == 4
        assert not (tmp_path / "a").exists()

    def test_existing_out_kept(self, tmp_path, capsys):
        # an --out that existed before the command is not removed, nor is a
        # created directory that holds a file
        out = tmp_path / "out"
        out.mkdir()
        assert self._unstartable(tmp_path, "fit", out) == 4
        assert list(out.iterdir()) == []

    def test_created_dir_holding_a_file_kept(self, tmp_path, capsys,
                                            monkeypatch):
        def write_then_fail(out, *args):
            (out / "posterior_summary.csv").write_text("partial\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("womble.cli._fit_outputs", write_then_fail)
        _, paths = write_dataset(tmp_path)
        out = tmp_path / "a" / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]), "--out", str(out)]
                  + FIT_FLAGS)
        assert rc == 3
        assert [p.name for p in out.iterdir()] == ["posterior_summary.csv"]

    def test_diagnose_negative_seed(self, tmp_path, capsys):
        g, paths = write_dataset(tmp_path)
        fit_dir = tmp_path / "fit"
        fit_dir.mkdir()
        (fit_dir / "residuals.csv").write_text(
            "area_id,y,E,R_median,residual\n"
            + "".join(f"{a},100,100.0,1.0,{0.1 * k}\n"
                      for k, a in enumerate(g.area_ids)))
        rc = main(["diagnose", "--fit-dir", str(fit_dir),
                   "--adjacency", str(paths["adjacency"]), "--n-perm", "9",
                   "--seed", "-1"])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (fit_dir / "moran.csv").exists()


class TestReaders:
    def test_geojson_overlay_parses(self, tmp_path):
        _, paths = write_dataset(tmp_path, geojson=True)
        out = tmp_path / "out"
        main(["fit", "--areas", str(paths["areas"]),
              "--adjacency", str(paths["adjacency"]),
              "--geojson", str(paths["geojson"]),
              "--out", str(out)] + FIT_FLAGS)
        doc = json.loads((out / "boundary_overlay.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        for feat in doc["features"]:
            assert feat["geometry"]["type"] == "LineString"
            assert len(feat["geometry"]["coordinates"]) >= 2

    @pytest.mark.parametrize("text, named", [
        ('{"type": "FeatureCollection", "features": [', "not valid JSON"),
        ('{"type": "FeatureCollection", "features": [{"type": "Feature", '
         '"properties": {"area_id": "a0_0"}, "geometry": {"type": "Polygon"}}]}',
         "feature 0 is malformed"),
        ('{"type": "FeatureCollection", "features": [1]}', "feature 0 is malformed"),
    ], ids=["invalid-json", "polygon-without-coordinates", "feature-not-object"])
    def test_malformed_geojson_rejected(self, tmp_path, capsys, no_sampling,
                                        text, named):
        _, paths = write_dataset(tmp_path)
        gj = tmp_path / "bad.geojson"
        gj.write_text(text)
        out = tmp_path / "out"
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]), "--geojson", str(gj),
                   "--out", str(out)] + FIT_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"VALIDATION: {gj}: ") and named in err
        assert not out.exists()

    def test_adjacency_unknown_id(self, tmp_path):
        _, paths = write_dataset(tmp_path)
        bad = tmp_path / "bad_adj.csv"
        bad.write_text("area_id_1,area_id_2\nnope,a0_0\n")
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(bad),
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 2

    @pytest.mark.parametrize("ids, pairs", [
        ("a,b", "a,b\nb,a\n"),
        ("a,b,c", "a,b\nb,a\n"),
        ("a,b,c", "a,b\na,b\n"),
    ], ids=["two-areas", "three-areas", "same-order"])
    def test_two_row_pair_list_is_read_as_pairs(self, tmp_path, capsys, ids,
                                                pairs):
        # two pairs make a 2 x 2 array of 0s and 1s; it is still a pair list,
        # whose one border is listed twice
        areas, adjacency = tmp_path / "areas.csv", tmp_path / "adjacency.csv"
        areas.write_text("area_id,y,E\n" + "".join(f"{a},5,5.0\n"
                                                   for a in ids.split(",")))
        adjacency.write_text(pairs)
        rc = main(["blv", "--areas", str(areas), "--adjacency", str(adjacency),
                   "--c2", "10", "--chains", "1", "--burnin", "10", "--keep", "10",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "duplicate border pair" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_two_area_matrix_is_read_as_a_matrix(self, tmp_path):
        areas, adjacency = tmp_path / "areas.csv", tmp_path / "adjacency.csv"
        areas.write_text("area_id,y,E\na,5,5.0\nb,7,5.0\n")
        adjacency.write_text("0,1\n1,0\n")
        rc = main(["blv", "--areas", str(areas), "--adjacency", str(adjacency),
                   "--c2", "10", "--chains", "1", "--burnin", "10", "--keep", "10",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        header, rows = io.read_table(tmp_path / "out" / "blv.csv")
        assert len(rows) == 1

    def test_all_zero_matrix_has_no_borders(self, tmp_path):
        # a matrix of 0s is a map without borders: blv writes its header only
        areas, adjacency = tmp_path / "areas.csv", tmp_path / "adjacency.csv"
        areas.write_text("area_id,y,E\na,5,5.0\nb,7,5.0\nc,6,5.0\n")
        adjacency.write_text("0,0,0\n0,0,0\n0,0,0\n")
        rc = main(["blv", "--areas", str(areas), "--adjacency", str(adjacency),
                   "--c2", "10", "--chains", "1", "--burnin", "10", "--keep", "10",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "blv.csv").read_text() == "area_id_1,area_id_2,blv,rule_b\n"

    @pytest.mark.parametrize("column, value, named", [
        (1, "nan", "y must be non-negative integer (row 4)"),
        (1, "inf", "y must be non-negative integer (row 4)"),
        (2, "nan", "E must be finite and positive (row 4)"),
        (2, "inf", "E must be finite and positive (row 4)"),
    ])
    def test_non_finite_count_rejected(self, tmp_path, capsys, no_sampling,
                                       column, value, named):
        _, paths = write_dataset(tmp_path)
        lines = paths["areas"].read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = value
        lines[3] = ",".join(fields)
        paths["areas"].write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]),
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("VALIDATION:") and str(paths["areas"]) in err
        assert named in err

    def test_workers_below_one_rejected(self, tmp_path, capsys, no_sampling):
        _, paths = write_dataset(tmp_path)
        rc = main(["fit", "--areas", str(paths["areas"]),
                   "--adjacency", str(paths["adjacency"]), "--workers", "0",
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_areas_validation(self, tmp_path):
        bad = tmp_path / "areas.csv"
        bad.write_text("area_id,y,E\na,-1,10\n")
        adj = tmp_path / "adj.csv"
        adj.write_text("area_id_1,area_id_2\na,a\n")
        rc = main(["fit", "--areas", str(bad), "--adjacency", str(adj),
                   "--out", str(tmp_path / "out")] + FIT_FLAGS)
        assert rc == 2
