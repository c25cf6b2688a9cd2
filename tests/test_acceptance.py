"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The simulation-study criterion dominates the runtime (a few
minutes with two workers); everything else finishes in seconds.
"""

import math
import time

import numpy as np
from scipy.stats import kstest

from oracles import (conditional_from_joint, dense_log_density,
                     dense_precision, random_graph)
from test_cli import FIT_FLAGS, write_dataset
from womble import ChainConfig, ObservedData, compute_border_metrics, run_chains
from womble.boundary import (NO_EFFECT, SUBSTANTIAL, blv, blv_rule_a,
                             blv_rule_b, classify_effect)
from womble.car import (build_precision, full_conditional_phi, log_density_phi,
                        precision_quadform)
from womble.diagnostics import moran_permutation_test
from womble.graph import (AreaGraph, DissimilarityData, adjacency_from_w,
                          alpha_min, alpha_natural_limit, evaluate_w)
from womble.mcmc import ModelState, gelman_rubin, update_phi, update_tau2
from womble.simulate import (SimConfig, five_block_partition, lattice_graph,
                             run_study)
from womble.cli import main
from womble.rng import derive_rng

LN2 = np.log(2.0)

# lines collected here are echoed in the terminal summary by conftest, so the
# per-criterion verdicts survive pytest's output capture
REPORT_LINES = []


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    REPORT_LINES.append(line)
    print("\n" + line)
    assert ok, f"criterion {criterion}: {detail}"


def interval_samples(lo, hi, n=1001):
    u = np.linspace(0.0, 1.0, n)
    return np.clip(lo + (hi - lo) * (u - 0.025) / 0.95, 0.0, None)


# -------------------------------------------------------------------- 1 ----

def test_criterion_1_car_coherence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    max_logdet = max_cond = max_dens = 0.0
    for _ in range(50):
        n, borders = random_graph(rng, n_max=8, n_min=2)
        graph = AreaGraph(n, borders)
        w = rng.integers(0, 2, size=graph.n_borders).astype(np.uint8)
        adj = adjacency_from_w(graph, w)
        rho = 0.99
        prec = build_precision(adj, rho)
        dense = dense_precision(n, borders, w, rho)
        max_logdet = max(max_logdet,
                         abs(prec.log_det - np.linalg.slogdet(dense)[1]))
        mu, tau2 = float(rng.normal()), float(rng.gamma(2.0) + 0.1)
        phi = rng.normal(size=n)
        k = int(rng.integers(n))
        mean, var = full_conditional_phi(k, phi, mu, tau2, rho, adj)
        omean, ovar = conditional_from_joint(k, phi, mu, tau2, dense)
        max_cond = max(max_cond, abs(mean - omean), abs(var - ovar))
        ours = log_density_phi(phi, mu, tau2, prec)
        oracle = dense_log_density(phi, mu, tau2, dense)
        max_dens = max(max_dens, abs(ours - oracle))
    elapsed = time.perf_counter() - t0
    ok = max_logdet < 1e-10 and max_cond < 1e-8 and max_dens < 1e-8 and elapsed < 10
    report(1, ok, f"50 graphs: |dlogdet|={max_logdet:.2e} "
                  f"|dcond|={max_cond:.2e} |ddens|={max_dens:.2e} "
                  f"elapsed={elapsed:.1f}s")


# -------------------------------------------------------------------- 2 ----

def test_criterion_2_adjacency_model():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    mono_ok = True
    for _ in range(500):
        b = int(rng.integers(2, 20))
        graph = AreaGraph(b + 1, np.array([(k, k + 1) for k in range(b)]))
        q = int(rng.integers(1, 4))
        z = rng.gamma(1.0, 1.0, size=(b, q))
        dis = DissimilarityData(metric_names=tuple(f"m{i}" for i in range(q)),
                                border_metrics=z)
        lo = rng.uniform(0, 2, size=q)
        hi = lo + rng.uniform(0, 2, size=q)
        if ((evaluate_w(graph, dis, lo).w == 0).sum()
                > (evaluate_w(graph, dis, hi).w == 0).sum()):
            mono_ok = False
            break

    endpoint_ok = True
    for _ in range(100):
        b = int(rng.integers(2, 20))
        graph = AreaGraph(b + 1, np.array([(k, k + 1) for k in range(b)]))
        z = rng.gamma(1.0, 1.0, size=b)
        z[rng.random(b) < 0.25] = 0.0
        if z.max() == 0.0:
            z[0] = 1.0
        dis = DissimilarityData(metric_names=("m",), border_metrics=z[:, None])
        amin = alpha_min(dis, 0)
        if (evaluate_w(graph, dis, np.array([amin])).w == 0).sum() != 0:
            endpoint_ok = False
            break
        over = alpha_natural_limit(dis, 0) * (1 + 1e-9)
        if (evaluate_w(graph, dis, np.array([over])).w == 0).sum() != int(np.sum(z > 0)):
            endpoint_ok = False
            break

    rescale_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 12))
        graph = AreaGraph(n, np.array([(k, k + 1) for k in range(n - 1)]))
        cov = rng.normal(size=(n, 2))
        dis1 = compute_border_metrics(graph, cov)
        cov2 = cov.copy()
        c = float(rng.uniform(1e-3, 1e3))
        cov2[:, 1] *= c
        dis2 = compute_border_metrics(graph, cov2)
        alpha = rng.uniform(0, 2, size=2)
        if not np.array_equal(evaluate_w(graph, dis1, alpha).w,
                              evaluate_w(graph, dis2, alpha).w):
            rescale_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = mono_ok and endpoint_ok and rescale_ok and elapsed < 5
    report(2, ok, f"monotone={mono_ok} endpoints={endpoint_ok} "
                  f"rescale={rescale_ok} elapsed={elapsed:.1f}s")


# -------------------------------------------------------------------- 3 ----

def test_criterion_3_simulation_scorecard():
    graph = lattice_graph(16, 16)
    labels = five_block_partition(16, 16)

    def cell(k1, k2, seed):
        cfg = SimConfig(graph=graph, true_partition=labels, k1=k1, k2=k2,
                        field_sd=0.2, E=100.0, replicates=20)
        return run_study(cfg, ChainConfig(n_chains=2, burn_in=5000, keep=2000,
                                          seed=seed, workers=2))

    t0 = time.perf_counter()
    s_main = cell(0.4, 3.0, 100)
    s_null = cell(0.4, 0.0, 200)
    s_small = cell(0.05, 3.0, 300)
    s_mid = cell(0.2, 3.0, 400)
    elapsed = time.perf_counter() - t0

    ok_main = s_main.ba >= 95.0 and s_main.nba >= 95.0
    ok_null = s_null.ba <= 10.0 and s_null.nba >= 90.0
    ok_mono = s_small.ba < s_mid.ba < s_main.ba
    ok = ok_main and ok_null and ok_mono
    report(3, ok,
           f"(0.4,3): BA={s_main.ba:.2f} NBA={s_main.nba:.2f} | "
           f"(0.4,0): BA={s_null.ba:.2f} NBA={s_null.nba:.2f} | "
           f"BA over k1: {s_small.ba:.2f} < {s_mid.ba:.2f} < {s_main.ba:.2f} | "
           f"elapsed={elapsed / 60:.1f} min")


# -------------------------------------------------------------------- 4 ----

def _prior_moment_match(seed, n_areas, rho, keep=60000):
    rng_g = np.random.default_rng(seed)
    while True:
        n, borders = random_graph(rng_g, n_max=n_areas, n_min=3)
        if borders.shape[0] >= 2:
            break
    graph = AreaGraph(n, borders)
    mu, tau2 = 0.4, 1.0
    adj = adjacency_from_w(graph, np.ones(graph.n_borders, dtype=np.uint8))
    state = ModelState(phi=np.full(n, mu), mu=mu, tau2=tau2, rho=rho,
                       alpha=np.zeros(0), adj=adj,
                       log_det=build_precision(adj, rho).log_det)
    cond_sd = np.sqrt(tau2 / (rho * adj.row_sums + 1 - rho))
    steps = 2.4 * cond_sd
    rng = derive_rng(seed, 50)
    for _ in range(5000):
        update_phi(state, None, steps, rng)
    draws = np.empty((keep, n))
    for i in range(keep):
        update_phi(state, None, steps, rng)
        draws[i] = state.phi
    target_cov = tau2 * np.linalg.inv(dense_precision(n, borders, adj.w, rho))

    n_batch = 50
    batches = draws[: keep - keep % n_batch].reshape(n_batch, -1, n)
    worst = 0.0
    # means
    bmeans = batches.mean(axis=1)
    se = bmeans.std(axis=0, ddof=1) / math.sqrt(n_batch)
    worst = max(worst, np.max(np.abs(draws.mean(axis=0) - mu) / se))
    # covariances via batch means of centered products
    centered = draws - draws.mean(axis=0)
    for a in range(n):
        for b in range(a, n):
            prod = (centered[:, a] * centered[:, b])[: keep - keep % n_batch]
            pb = prod.reshape(n_batch, -1).mean(axis=1)
            se_ab = pb.std(ddof=1) / math.sqrt(n_batch)
            dev = abs(prod.mean() - target_cov[a, b]) / se_ab
            worst = max(worst, dev)
    return worst


def test_criterion_4_sampler_validity():
    # (a) likelihood-disabled prior sampling matches CAR prior moments
    worst = 0.0
    for seed, rho in ((11, 0.5), (12, 0.5), (13, 0.9)):
        worst = max(worst, _prior_moment_match(seed, 6, rho))
    ok_prior = worst < 3.0

    # (b) tau2 conditional matches a gridded 1-D oracle (KS < 0.1)
    n = 20
    graph = AreaGraph(n, np.zeros((0, 2), dtype=np.int64))
    phi = np.random.default_rng(5).normal(0.0, 0.7, size=n)
    adj = adjacency_from_w(graph, np.zeros(0, dtype=np.uint8))
    state = ModelState(phi=phi.copy(), mu=0.0, tau2=1.0, rho=0.0,
                       alpha=np.zeros(0), adj=adj,
                       log_det=build_precision(adj, 0.0).log_det)
    rng = derive_rng(21, 0)
    # tau2 moves neither phi nor mu, so d^T Q d stays fixed
    quad = precision_quadform(adj, 0.0, state.phi - state.mu)
    for _ in range(1000):
        update_tau2(state, 0.6, rng, quad)
    draws = np.empty(5000)
    for i in range(5000):
        update_tau2(state, 0.6, rng, quad)
        draws[i] = state.tau2
    s = float(np.sum(phi ** 2))
    grid = np.linspace(1e-4, 100.0, 400000)
    logp = -0.5 * (n + 1) * np.log(grid) - s / (2 * grid)
    pdf = np.exp(logp - logp.max())
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    emp = np.sort(draws)
    ks = float(np.max(np.abs(np.interp(emp, grid, cdf)
                             - np.arange(1, 5001) / 5000.0)))
    ok_grid = ks < 0.1

    # (c) Gelman-Rubin < 1.1 on mu and tau2 in the default scenario
    graph16 = lattice_graph(16, 16)
    labels = five_block_partition(16, 16)
    cfg = SimConfig(graph=graph16, true_partition=labels, k1=0.4, k2=3.0,
                    field_sd=0.2, E=100.0, replicates=1)
    from womble.simulate import _prepare, gen_counts, gen_dissimilarity, gen_surface
    rng_d = np.random.default_rng(909)
    _, r_true = gen_surface(cfg, _prepare(cfg), rng_d)
    raw = gen_dissimilarity(cfg, rng_d)
    y = gen_counts(r_true, cfg.E, rng_d)
    dis = DissimilarityData.from_border_values(graph16, raw)
    data = ObservedData(y=y.astype(float), E=cfg.E)
    samples = run_chains(data, graph16, dis,
                         ChainConfig(n_chains=2, burn_in=5000, keep=2000, seed=17))
    gr_mu = gelman_rubin(samples.mu)
    gr_tau = gelman_rubin(samples.tau2)
    ok_gr = gr_mu < 1.1 and gr_tau < 1.1

    # acceptance-rate sanity, wide margins
    acc = samples.acceptance
    ok_acc = (np.all((acc["phi"].mean(axis=1) > 0.1) & (acc["phi"].mean(axis=1) < 0.6))
              and np.all((acc["tau2"] > 0.1) & (acc["tau2"] < 0.6))
              and np.all((acc["alpha"] > 0.1) & (acc["alpha"] < 0.6)))

    ok = ok_prior and ok_grid and ok_gr and ok_acc
    report(4, ok, f"prior-moments worst dev={worst:.2f} SE (<3) | "
                  f"tau2 grid KS={ks:.3f} (<0.1) | "
                  f"GR mu={gr_mu:.3f} tau2={gr_tau:.3f} (<1.1) | "
                  f"acceptance in band={ok_acc}")


# -------------------------------------------------------------------- 5 ----

def test_criterion_5_effect_classification():
    cases = [
        ((0.171, 0.254), 0.131, SUBSTANTIAL),
        ((0.001, 0.046), 0.126, NO_EFFECT),
        ((0.001, 0.103), 0.119, NO_EFFECT),
    ]
    results = []
    for (lo, hi), am, expected in cases:
        got = classify_effect(interval_samples(lo, hi), am)
        results.append(got == expected)
    ok = all(results)
    report(5, ok, " ".join(
        f"({lo},{hi}) vs {am} -> {exp}:{'ok' if r else 'BAD'}"
        for ((lo, hi), am, exp), r in zip(cases, results)))


# -------------------------------------------------------------------- 6 ----

def test_criterion_6_moran_calibration():
    graph = lattice_graph(16, 16)
    rng = np.random.default_rng(606)
    # null calibration: iid residual vectors
    pvals = np.empty(200)
    for i in range(200):
        resid = rng.normal(size=graph.n)
        pvals[i] = moran_permutation_test(resid, graph, n_perm=999,
                                          seed=10_000 + i).p_value
    ks = kstest(pvals, "uniform").statistic
    ok_null = ks < 0.1

    # power against rho = 0.99 CAR residuals
    adj = adjacency_from_w(graph, np.ones(graph.n_borders, dtype=np.uint8))
    q_dense = dense_precision(graph.n, graph.borders, adj.w, 0.99)
    cov = np.linalg.inv(q_dense)
    chol = np.linalg.cholesky(0.5 * (cov + cov.T))
    hits = 0
    for i in range(100):
        phi = chol @ rng.standard_normal(graph.n)
        p = moran_permutation_test(phi, graph, n_perm=999, seed=20_000 + i).p_value
        hits += p < 0.05
    ok_power = hits >= 90
    ok = ok_null and ok_power
    report(6, ok, f"null KS={ks:.3f} (<0.1) | power={hits}/100 (>=90)")


# -------------------------------------------------------------------- 7 ----

def test_criterion_7_determinism(tmp_path):
    _, paths = write_dataset(tmp_path)
    fit_args = ["fit", "--areas", str(paths["areas"]),
                "--adjacency", str(paths["adjacency"])] + FIT_FLAGS
    main(fit_args + ["--out", str(tmp_path / "f1")])
    main(fit_args + ["--out", str(tmp_path / "f2")])
    fit_ok = all((tmp_path / "f1" / f.name).read_bytes()
                 == (tmp_path / "f2" / f.name).read_bytes()
                 for f in sorted((tmp_path / "f1").iterdir()))
    sim_args = ["simulate", "--k1", "0.4", "--k2", "3", "--nrows", "8",
                "--ncols", "8", "--replicates", "2", "--chains", "1",
                "--burnin", "200", "--keep", "100", "--seed", "4"]
    main(sim_args + ["--out", str(tmp_path / "s1")])
    main(sim_args + ["--out", str(tmp_path / "s2")])
    sim_ok = all((tmp_path / "s1" / f.name).read_bytes()
                 == (tmp_path / "s2" / f.name).read_bytes()
                 for f in sorted((tmp_path / "s1").iterdir()))
    ok = fit_ok and sim_ok
    report(7, ok, f"fit byte-identical={fit_ok} simulate byte-identical={sim_ok}")


# -------------------------------------------------------------------- 8 ----

def test_criterion_8_blv_brute_force():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 25))
        graph = AreaGraph(n, np.array([(k, k + 1) for k in range(n - 1)]))
        risks = rng.uniform(0.2, 4.0, size=n)
        res = blv(risks, graph)
        # brute-force BLVs
        brute = np.array([abs(risks[k] - risks[j]) for k, j in graph.borders])
        if not np.allclose(res.values, brute, rtol=0, atol=0):
            ok = False
            break
        c1 = float(rng.uniform(0.0, 2.0))
        if blv_rule_a(res, c1).sum() != int(np.sum(brute > c1)):
            ok = False
            break
        c2 = float(rng.uniform(1.0, 100.0))
        flags = blv_rule_b(res, c2)
        expect_count = math.ceil(c2 / 100.0 * len(brute))
        if flags.sum() != expect_count:
            ok = False
            break
        if len(set(brute)) == len(brute):
            top = set(np.argsort(-brute)[:expect_count].tolist())
            if set(np.where(flags)[0].tolist()) != top:
                ok = False
                break
    report(8, ok, "rule (a)/(b) match brute force on 100 random risk vectors")
