import math
import os
import pickle
import tempfile
import tracemalloc
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import dense_precision, poisson_deviance
from womble import (ChainConfig, NumericError, ObservedData, ValidationError,
                    classify_boundaries, compute_border_metrics, run_chains)
from womble import car, mcmc
from womble.car import (CarParams, PrecisionStructure, build_precision,
                        log_density_phi, precision_quadform)
from womble.graph import (AreaGraph, DissimilarityData, adjacency_from_w,
                          alpha_prior_upper, build_graph, evaluate_w)
from womble.mcmc import (ModelState, deviance_at, dic, effective_sample_size,
                         gelman_rubin, update_alpha, update_mu, update_phi,
                         update_tau2)
from womble.rng import CHAIN, derive_rng
from womble.simulate import (SimConfig, five_block_partition, gen_counts,
                             gen_dissimilarity, gen_surface, lattice_graph,
                             run_study)

LN2 = np.log(2.0)


def make_state(graph, w=None, mu=0.0, tau2=1.0, rho=0.99, alpha=None, phi=None):
    if w is None:
        w = np.ones(graph.n_borders, dtype=np.uint8)
    adj = adjacency_from_w(graph, w)
    params = CarParams(mu=mu, tau2=tau2, rho=rho,
                       alpha=np.zeros(0) if alpha is None else alpha)
    return ModelState(phi=np.zeros(graph.n) if phi is None else phi,
                      params=params, adj=adj,
                      log_det=build_precision(adj, rho).log_det)


def quad_of(state):
    """d^T Q d at the state, d = phi - mu, as the tau2 and alpha updates take it."""
    return precision_quadform(state.adj, state.rho, state.phi - state.mu)


def bounds_of(graph, dis, M, rho=0.99):
    """(cut, restore) bounds at rho, as run_chains hands them to update_alpha."""
    return car.cut_bounds(graph, rho), car.restore_bounds(graph, rho, dis, M)


def reference_update_alpha(state, dis, steps, M, rng):
    """update_alpha as a plain loop: every proposal that changes w
    refactorizes Q and recomputes both quadratic forms."""
    p = state.params
    d = state.phi - p.mu
    for i in range(len(M)):
        alpha = state.params.alpha
        prop_i = alpha[i] + steps[i] * rng.standard_normal()
        if prop_i < 0.0 or prop_i > M[i]:
            continue
        alpha_prop = alpha.copy()
        alpha_prop[i] = prop_i
        adj_prop = evaluate_w(state.adj.graph, dis, alpha_prop)
        if np.array_equal(adj_prop.w, state.adj.w):
            state.alpha = alpha_prop
            continue
        prec_prop = build_precision(adj_prop, p.rho)
        quad_cur = precision_quadform(state.adj, p.rho, d)
        quad_prop = precision_quadform(adj_prop, p.rho, d)
        delta = (0.5 * (prec_prop.log_det - state.log_det)
                 - (quad_prop - quad_cur) / (2.0 * p.tau2))
        if math.log(rng.random()) < delta:
            state.alpha = alpha_prop
            state.adj, state.log_det = adj_prop, prec_prop.log_det


def path_graph(n):
    return AreaGraph(n, np.array([(k, k + 1) for k in range(n - 1)]))


# ---------------------------------------------------------------------------
# Reference sampler: the chain loop as it was written on a frozen CarParams
# (a dataclasses.replace per parameter change, every w-dependent input of
# the phi sweep rebuilt each sweep, d^T Q d computed inside each block and
# step sizes exponentiated every iteration). run_chains must reproduce its
# draws bit for bit.

@dataclass
class RefState:
    phi: np.ndarray
    params: CarParams
    adj: object
    prec: object
    logdet_memo: dict = field(default_factory=dict)

    def remember_log_det(self, key, log_det):
        self.logdet_memo[key] = log_det
        while len(self.logdet_memo) > mcmc.LOGDET_MEMO_CAP:
            del self.logdet_memo[next(iter(self.logdet_memo))]


def ref_sweep_classes(graph):
    nbrs, bids = graph.incidence
    classes = []
    for members in graph.coloring:
        rows, nbr, bidx = [], [], []
        for local, k in enumerate(members):
            rows.extend([local] * len(nbrs[k]))
            nbr.extend(nbrs[k].tolist())
            bidx.extend(bids[k].tolist())
        classes.append((members, np.array(rows, dtype=np.int64),
                        np.array(nbr, dtype=np.int64), np.array(bidx, dtype=np.int64)))
    return classes


def ref_update_phi(state, data, steps, rng):
    p = state.params
    rho = p.rho
    phi = state.phi
    wf = state.adj.w.astype(np.float64)
    accept = np.zeros(phi.shape[0], dtype=bool)
    for members, rows, nbr, bidx in ref_sweep_classes(state.adj.graph):
        m = members.shape[0]
        wsel = wf[bidx]
        s = np.bincount(rows, weights=wsel * phi[nbr], minlength=m)
        rs = np.bincount(rows, weights=wsel, minlength=m)
        denom = rho * rs + (1.0 - rho)
        pmean = (rho * s + (1.0 - rho) * p.mu) / denom
        pvar = p.tau2 / denom
        cur = phi[members]
        prop = cur + steps[members] * rng.standard_normal(m)
        delta = ((cur - pmean) ** 2 - (prop - pmean) ** 2) / (2.0 * pvar)
        if data is not None:
            delta = delta + (data.y[members] * (prop - cur)
                             - data.E[members] * (np.exp(prop) - np.exp(cur)))
        ok = (np.log(rng.random(m)) < delta) & (np.abs(prop) <= mcmc.PHI_GUARD)
        phi[members] = np.where(ok, prop, cur)
        accept[members] = ok
    return accept


def ref_update_mu(state, rng, prior_var):
    p = state.params
    one_q_one = (1.0 - p.rho) * state.adj.graph.n
    one_q_phi = (1.0 - p.rho) * float(np.sum(state.phi))
    prec = one_q_one / p.tau2 + 1.0 / prior_var
    mean = (one_q_phi / p.tau2) / prec
    state.params = replace(p, mu=mean + rng.standard_normal() / math.sqrt(prec))


def ref_update_tau2(state, step, rng, tau_max):
    p = state.params
    quad = precision_quadform(state.adj, p.rho, state.phi - p.mu)
    n = state.adj.graph.n
    u = math.log(p.tau2)
    u_prop = u + step * rng.standard_normal()
    accepted = False
    if u_prop <= 2.0 * math.log(tau_max):
        def target(x):
            return -0.5 * n * x - 0.5 * quad * math.exp(-x) + 0.5 * x
        if math.log(rng.random()) < target(u_prop) - target(u):
            state.params = replace(p, tau2=math.exp(u_prop))
            accepted = True
    return accepted


def ref_update_alpha(state, dis, steps, M, rng):
    p = state.params
    accept = np.zeros(len(M), dtype=bool)
    d = state.phi - p.mu
    quad_cur = None
    for i in range(len(M)):
        alpha = state.params.alpha
        prop_i = alpha[i] + steps[i] * rng.standard_normal()
        if prop_i < 0.0 or prop_i > M[i]:
            continue
        alpha_prop = alpha.copy()
        alpha_prop[i] = prop_i
        adj_prop = evaluate_w(state.adj.graph, dis, alpha_prop)
        if np.array_equal(adj_prop.w, state.adj.w):
            state.params = replace(state.params, alpha=alpha_prop)
            accept[i] = True
            continue
        key = np.packbits(adj_prop.w).tobytes()
        log_det = state.logdet_memo.get(key)
        if log_det is None:
            log_det = build_precision(adj_prop, p.rho).log_det
            state.remember_log_det(key, log_det)
        if quad_cur is None:
            quad_cur = precision_quadform(state.adj, p.rho, d)
        quad_prop = precision_quadform(adj_prop, p.rho, d)
        delta = (0.5 * (log_det - state.prec.log_det)
                 - (quad_prop - quad_cur) / (2.0 * p.tau2))
        if math.log(rng.random()) < delta:
            state.params = replace(state.params, alpha=alpha_prop)
            state.adj = adj_prop
            state.prec = PrecisionStructure(adj_prop, p.rho, log_det)
            quad_cur = quad_prop
            accept[i] = True
    return accept


def ref_initial_state(data, graph, dis, M, rng):
    for _ in range(100):
        phi = rng.normal(np.log(data.y + 0.5) - np.log(data.E), 1.0)
        mu = rng.normal(0.0, math.sqrt(10.0))
        tau2 = rng.uniform(0.0, 10.0) ** 2
        alpha = rng.uniform(0.0, M) if M.size else np.zeros(0)
        if tau2 == 0.0:
            continue
        if M.size:
            adj = evaluate_w(graph, dis, alpha)
        else:
            adj = adjacency_from_w(graph, np.ones(graph.n_borders, dtype=np.uint8))
        params = CarParams(mu=mu, tau2=tau2, rho=0.99, alpha=alpha)
        state = RefState(phi=phi, params=params, adj=adj,
                         prec=build_precision(adj, 0.99))
        state.remember_log_det(np.packbits(adj.w).tobytes(), state.prec.log_det)
        with np.errstate(over="ignore", invalid="ignore"):
            lp = (log_density_phi(phi, params, state.prec)
                  - 0.5 * mu ** 2 / 10.0 - 0.5 * math.log(tau2)
                  + float(np.sum(data.y * (np.log(data.E) + phi) - data.E * np.exp(phi))))
        if np.isfinite(lp):
            return state
    raise AssertionError("no finite initial state")


def ref_run_chain(c, data, graph, dis, config, M):
    rng = derive_rng(config.seed, CHAIN, c)
    state = ref_initial_state(data, graph, dis, M, rng)
    n, b, q = graph.n, graph.n_borders, M.size
    sample_alpha = q > 0
    log_phi_steps = np.full(n, math.log(0.5))
    log_tau_step = math.log(0.5)
    if sample_alpha:
        log_alpha_steps = np.log(0.1 * M)
    else:
        log_alpha_steps = np.zeros(0)
    n_retained = config.keep // config.thin
    out = {"phi": np.empty((n_retained, n)), "mu": np.empty(n_retained),
           "tau2": np.empty(n_retained), "alpha": np.empty((n_retained, q)),
           "w": np.empty((n_retained, b), dtype=np.uint8),
           "deviance": np.empty(n_retained)}
    lgamma_y = gammaln(data.y + 1.0)
    log_E = np.log(data.E)
    win_phi, win_tau, win_alpha = np.zeros(n), 0, np.zeros(q)
    post_phi, post_tau, post_alpha = np.zeros(n), 0, np.zeros(q)
    batch = idx = 0
    for it in range(config.burn_in + config.keep):
        acc_phi = ref_update_phi(state, data, np.exp(log_phi_steps), rng)
        ref_update_mu(state, rng, 10.0)
        acc_tau = ref_update_tau2(state, math.exp(log_tau_step), rng, 10.0)
        if sample_alpha:
            acc_alpha = ref_update_alpha(state, dis, np.exp(log_alpha_steps), M, rng)
        if it < config.burn_in:
            win_phi += acc_phi
            win_tau += acc_tau
            if sample_alpha:
                win_alpha += acc_alpha
            if (it + 1) % 100 == 0:
                batch += 1
                delta = min(0.25, 1.0 / math.sqrt(batch))
                target = 0.44
                rate = win_phi / 100
                log_phi_steps += np.where(rate > target, delta, -delta)
                np.clip(log_phi_steps, -15.0, 5.0, out=log_phi_steps)
                log_tau_step += delta if win_tau / 100 > target else -delta
                log_tau_step = min(max(log_tau_step, -15.0), 5.0)
                if sample_alpha:
                    arate = win_alpha / 100
                    log_alpha_steps += np.where(arate > target, delta, -delta)
                    np.clip(log_alpha_steps, -15.0, 5.0, out=log_alpha_steps)
                win_phi[:] = 0.0
                win_tau = 0
                win_alpha[:] = 0.0
        else:
            post_phi += acc_phi
            post_tau += acc_tau
            if sample_alpha:
                post_alpha += acc_alpha
            if (it - config.burn_in + 1) % config.thin == 0 and idx < n_retained:
                out["phi"][idx] = state.phi
                out["mu"][idx] = state.params.mu
                out["tau2"][idx] = state.params.tau2
                if q:
                    out["alpha"][idx] = state.params.alpha
                out["w"][idx] = state.adj.w
                out["deviance"][idx] = -2.0 * float(np.sum(
                    data.y * (log_E + state.phi) - data.E * np.exp(state.phi)
                    - lgamma_y))
                idx += 1
    out["accept_phi"] = post_phi / config.keep
    out["accept_tau2"] = post_tau / config.keep
    out["accept_alpha"] = post_alpha / config.keep
    return out


DRAWS = ("phi", "mu", "tau2", "alpha", "w", "w_counts", "deviance")


def draws_of(samples, name):
    """One of DRAWS, indexed (chain, draw, ...) or, for w_counts, (chain,
    border); phi is read back through the samples' area-major reader."""
    if name == "phi":
        return samples.phi_draws().T.reshape(*samples.mu.shape, -1)
    return getattr(samples, name)


def assert_same_draws(s1, s2):
    for name in DRAWS:
        a, b = draws_of(s1, name), draws_of(s2, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def reference_draws(data, graph, dis, config):
    """ref_run_chain's draws of every chain, stacked as run_chains returns
    them, with the w counts summed from the reference w trace."""
    M = np.array([alpha_prior_upper(dis, i, config.max_boundary_fraction)
                  for i in range(0 if dis is None else dis.q)])
    ref = [ref_run_chain(c, data, graph, dis, config, M) for c in range(config.n_chains)]
    for r in ref:
        r["w_counts"] = r["w"].sum(axis=0, dtype=np.int64)
    return ref


def assert_matches_reference(samples, data, graph, dis, config):
    ref = reference_draws(data, graph, dis, config)
    for name in DRAWS:
        expected = np.stack([r[name] for r in ref])
        assert draws_of(samples, name).tobytes() == expected.tobytes(), name
    for block in ("phi", "tau2", "alpha"):
        expected = np.array([r["accept_" + block] for r in ref])
        assert samples.acceptance[block].tobytes() == expected.tobytes(), block


class TestUpdatePhi:
    def test_zero_step_keeps_state_and_accepts(self):
        g = path_graph(4)
        state = make_state(g, phi=np.array([0.1, -0.2, 0.3, 0.0]))
        before = state.phi.copy()
        rng = derive_rng(0, 9)
        accept = update_phi(state, ObservedData(y=np.ones(4), E=np.ones(4)),
                            np.zeros(4), rng)
        np.testing.assert_array_equal(state.phi, before)
        assert accept.shape == (4,) and accept.all()

    def test_zero_count_drifts_down(self):
        # y = 0 with a flat prior: the likelihood pushes phi toward -inf
        g = AreaGraph(1, np.zeros((0, 2), dtype=np.int64))
        state = make_state(g, tau2=1e6, phi=np.array([0.0]))
        data = ObservedData(y=np.array([0.0]), E=np.array([1.0]))
        rng = derive_rng(1, 0)
        for _ in range(300):
            update_phi(state, data, np.full(1, 0.8), rng)
        assert state.phi[0] < -1.0

    def test_single_area_gamma_poisson_oracle(self):
        # near-flat prior: posterior of R matches Gamma(5, 1) moments
        g = AreaGraph(1, np.zeros((0, 2), dtype=np.int64))
        state = make_state(g, mu=0.0, tau2=100.0,
                           phi=np.array([np.log(5.0)]))
        data = ObservedData(y=np.array([5.0]), E=np.array([1.0]))
        rng = derive_rng(2, 0)
        draws = np.empty(20000)
        for i in range(20000):
            update_phi(state, data, np.full(1, 0.7), rng)
            draws[i] = state.phi[0]
        r_mean = np.exp(draws[2000:]).mean()
        assert abs(r_mean - 5.0) / 5.0 < 0.10

    def test_guard_rejects_runaway_proposals(self):
        g = AreaGraph(1, np.zeros((0, 2), dtype=np.int64))
        state = make_state(g, tau2=1e8, phi=np.array([49.9]))
        data = ObservedData(y=np.array([0.0]), E=np.array([1e-300]))
        rng = derive_rng(3, 0)
        for _ in range(200):
            update_phi(state, data, np.full(1, 5.0), rng)
            assert abs(state.phi[0]) <= 50.0


    def test_prior_sweep_matches_reference(self):
        # data=None, with the assignment switched between sweeps so the
        # cached border weights and denominators must follow it
        g = lattice_graph(5, 5)
        assignments = [np.ones(g.n_borders, dtype=np.uint8),
                       (np.arange(g.n_borders) % 3 != 0).astype(np.uint8)]
        phi = np.random.default_rng(4).normal(size=25)
        state = make_state(g, mu=0.2, tau2=0.7, phi=phi.copy())
        ref = RefState(phi=phi.copy(), params=state.params, adj=state.adj, prec=None)
        rngs = [derive_rng(15, 0), derive_rng(15, 0)]
        steps = np.linspace(0.2, 1.5, 25)
        for sweep in range(60):
            if sweep % 7 == 0:
                state.adj = ref.adj = adjacency_from_w(g, assignments[sweep // 7 % 2])
            accept = update_phi(state, None, steps, rngs[0])
            ref_accept = ref_update_phi(ref, None, steps, rngs[1])
            assert state.phi.tobytes() == ref.phi.tobytes()
            assert accept.tobytes() == ref_accept.tobytes()


class TestModelState:
    def test_params_round_trip(self):
        g = path_graph(4)
        state = make_state(g, mu=0.3, tau2=2.0, rho=0.5, alpha=np.array([0.2, 0.1]))
        p = state.params
        assert (p.mu, p.tau2, p.rho) == (0.3, 2.0, 0.5)
        np.testing.assert_array_equal(p.alpha, [0.2, 0.1])
        state.params = CarParams(mu=-1.0, tau2=0.5, rho=0.9, alpha=np.array([0.4]))
        assert (state.mu, state.tau2, state.rho) == (-1.0, 0.5, 0.9)
        np.testing.assert_array_equal(state.alpha, [0.4])
        assert state.params == CarParams(mu=-1.0, tau2=0.5, rho=0.9, alpha=state.alpha)
        state.tau2 = 0.0   # the plain attribute is not checked; params is
        with pytest.raises(ValidationError, match="tau2"):
            state.params


class TestUpdateMu:
    def test_centered_phi_gives_zero_mean(self):
        g = path_graph(5)
        state = make_state(g, tau2=0.5)
        rng = derive_rng(4, 0)
        draws = []
        for _ in range(4000):
            state.phi = np.zeros(5)
            update_mu(state, rng)
            draws.append(state.params.mu)
        draws = np.array(draws)
        assert abs(draws.mean()) < 4 * draws.std() / np.sqrt(len(draws))

    def test_single_area_plugin_and_grid_oracle(self):
        # n=1, no borders, rho=.99, tau2=.01, phi=2:
        # precision = .01/.01 + 1/10 = 1.1, mean = (.01*2/.01)/1.1
        g = AreaGraph(1, np.zeros((0, 2), dtype=np.int64))
        rng = derive_rng(5, 0)
        draws = np.empty(30000)
        state = make_state(g, tau2=0.01, phi=np.array([2.0]))
        for i in range(draws.size):
            state.params = CarParams(mu=0.0, tau2=0.01, rho=0.99)
            update_mu(state, rng)
            draws[i] = state.params.mu
        expected_mean = (0.01 * 2.0 / 0.01) / 1.1
        assert expected_mean == pytest.approx(1.8181818181818181)
        assert draws.mean() == pytest.approx(expected_mean, abs=0.02)
        assert draws.var() == pytest.approx(1.0 / 1.1, rel=0.05)
        # gridded-posterior oracle for the same conditional
        grid = np.linspace(-6, 8, 200001)
        logpost = (-0.5 * (2.0 - grid) ** 2 * (0.01 / 0.01)
                   - 0.5 * grid ** 2 / 10.0)
        dens = np.exp(logpost - logpost.max())
        dens /= np.trapezoid(dens, grid)
        grid_mean = np.trapezoid(grid * dens, grid)
        grid_var = np.trapezoid((grid - grid_mean) ** 2 * dens, grid)
        assert grid_mean == pytest.approx(expected_mean, abs=1e-6)
        assert grid_var == pytest.approx(1.0 / 1.1, abs=1e-6)

    def test_huge_tau2_collapses_to_prior(self):
        g = path_graph(3)
        rng = derive_rng(6, 0)
        state = make_state(g, tau2=1e12, phi=np.array([5.0, -2.0, 3.0]))
        draws = np.empty(20000)
        for i in range(draws.size):
            state.params = CarParams(mu=0.0, tau2=1e12, rho=0.99)
            update_mu(state, rng)
            draws[i] = state.params.mu
        assert draws.var() == pytest.approx(10.0, rel=0.05)
        assert abs(draws.mean()) < 0.1


class TestUpdateTau2:
    def test_support_constraint(self):
        g = path_graph(4)
        state = make_state(g, tau2=99.0, phi=np.random.default_rng(0).normal(size=4))
        rng = derive_rng(7, 0)
        for _ in range(500):
            update_tau2(state, 5.0, rng, quad_of(state))
            assert state.params.tau2 <= 100.0

    def test_zero_quadratic_drifts_down(self):
        g = path_graph(6)
        state = make_state(g, mu=1.3, tau2=1.0, phi=np.full(6, 1.3))
        rng = derive_rng(8, 0)
        for _ in range(500):
            update_tau2(state, 0.7, rng, quad_of(state))
        assert state.params.tau2 < 0.05

    def test_grid_oracle_ks(self):
        # rho = 0: Q = I, the conditional depends on phi only through S
        n = 20
        g = AreaGraph(n, np.zeros((0, 2), dtype=np.int64))
        rng_data = np.random.default_rng(123)
        phi = rng_data.normal(0.0, 0.7, size=n)
        state = make_state(g, mu=0.0, tau2=1.0, rho=0.0, phi=phi.copy())
        rng = derive_rng(9, 0)
        draws = np.empty(5000)
        for _ in range(1000):
            update_tau2(state, 0.6, rng, quad_of(state))
        for i in range(draws.size):
            update_tau2(state, 0.6, rng, quad_of(state))
            draws[i] = state.params.tau2
        s = float(np.sum(phi ** 2))
        grid = np.linspace(1e-4, 100.0, 400000)
        logp = -0.5 * (n + 1) * np.log(grid) - s / (2 * grid)
        p = np.exp(logp - logp.max())
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        emp_sorted = np.sort(draws)
        theo = np.interp(emp_sorted, grid, cdf)
        ks = np.max(np.abs(theo - (np.arange(1, draws.size + 1) / draws.size)))
        assert ks < 0.1


class TestUpdateAlpha:
    def _flat_dis(self, graph, value=2.0):
        z = np.full((graph.n_borders, 1), value)
        return DissimilarityData(q=1, metric_names=("m",), border_metrics=z,
                                 scales=np.ones(1))

    def test_same_pattern_always_accepted(self):
        g = path_graph(6)
        dis = self._flat_dis(g, 2.0)
        # all thresholds at ln2/2; stay well below with tiny steps
        state = make_state(g, alpha=np.array([0.05]))
        state.adj = evaluate_w(g, dis, state.params.alpha)
        rng = derive_rng(10, 0)
        M = np.array([0.2])
        bounds = bounds_of(g, dis, M)
        accepted = 0
        for _ in range(200):
            before = state.params.alpha[0]
            accept = update_alpha(state, dis, np.array([0.001]), M, bounds,
                                  rng, quad_of(state))
            assert accept.shape == (1,)
            accepted += accept[0]
            assert state.params.alpha[0] != before or not accept[0]
        assert accepted == 200

    def test_out_of_bounds_rejected(self):
        g = path_graph(6)
        dis = self._flat_dis(g)
        state = make_state(g, alpha=np.array([0.1]))
        rng = derive_rng(11, 0)
        M = np.array([0.2])
        bounds = bounds_of(g, dis, M)
        for _ in range(300):
            update_alpha(state, dis, np.array([5.0]), M, bounds, rng,
                         quad_of(state))
            assert 0.0 <= state.params.alpha[0] <= 0.2

    def _pattern_change_run(self, seed, check):
        # a path whose six possible assignments the chain keeps revisiting
        g = path_graph(6)
        z = np.linspace(0.5, 3.0, g.n_borders)[:, None]
        dis = DissimilarityData(q=1, metric_names=("m",), border_metrics=z,
                                scales=np.ones(1))
        state = make_state(g, alpha=np.array([0.0]),
                           phi=np.random.default_rng(1).normal(size=6))
        rng = derive_rng(seed, 0)
        M = np.array([2.0])
        bounds = bounds_of(g, dis, M)
        for _ in range(500):
            update_alpha(state, dis, np.array([0.3]), M, bounds, rng,
                         quad_of(state))
            check(g, dis, state)
        return state

    def test_pattern_change_uses_refreshed_logdet(self):
        # the state's log_det tracks every pattern change, and a memo hit
        # returns exactly the float a fresh factorization gives
        def check(g, dis, state):
            adj_expected = evaluate_w(g, dis, state.params.alpha)
            np.testing.assert_array_equal(state.adj.w, adj_expected.w)
            assert state.log_det == build_precision(state.adj, 0.99).log_det
            dense = dense_precision(6, g.borders, state.adj.w, 0.99)
            assert state.log_det == pytest.approx(
                np.linalg.slogdet(dense)[1], abs=1e-10)

        state = self._pattern_change_run(12, check)
        # increasing z: each assignment is a threshold, six in all
        assert 1 < len(mcmc._log_det_memo(state.adj.graph, 0.99)) <= 6

    def test_matches_unmemoized_reference(self):
        # q = 2 on a lattice: identical accept decisions, alpha and log|Q|
        # to the loop that refactorizes and recomputes both quadratic forms
        g = lattice_graph(4, 4)
        cov = np.random.default_rng(6).normal(size=(16, 2))
        dis = compute_border_metrics(g, cov, metric_names=["a", "b"])
        phi = np.random.default_rng(7).normal(size=16)
        alpha = np.array([0.1, 0.1])
        w = evaluate_w(g, dis, alpha).w
        states = [make_state(g, w=w, tau2=0.5, alpha=alpha, phi=phi.copy())
                  for _ in range(2)]
        rngs = [derive_rng(14, 0), derive_rng(14, 0)]
        steps, M = np.array([0.4, 0.4]), np.array([1.5, 1.5])
        bounds = bounds_of(g, dis, M)
        for _ in range(300):
            update_alpha(states[0], dis, steps, M, bounds, rngs[0],
                         quad_of(states[0]))
            reference_update_alpha(states[1], dis, steps, M, rngs[1])
            np.testing.assert_array_equal(states[0].params.alpha,
                                          states[1].params.alpha)
            np.testing.assert_array_equal(states[0].adj.w, states[1].adj.w)
            assert states[0].log_det == states[1].log_det

    def test_logdet_memo_respects_cap(self, monkeypatch):
        monkeypatch.setattr(mcmc, "LOGDET_MEMO_CAP", 2)
        sizes = []

        def check(g, dis, state):
            sizes.append(len(mcmc._log_det_memo(g, 0.99)))
            assert state.log_det == build_precision(state.adj, 0.99).log_det

        self._pattern_change_run(12, check)
        assert max(sizes) == 2

    def test_logdet_memo_is_keyed_by_rho(self):
        # two states on one graph, at rho 0.99 and 0.5, keep meeting the same
        # six assignments; each must get log|Q| at its own rho
        g = path_graph(6)
        z = np.linspace(0.5, 3.0, g.n_borders)[:, None]
        dis = DissimilarityData(q=1, metric_names=("m",), border_metrics=z,
                                scales=np.ones(1))
        phi = np.random.default_rng(1).normal(size=6)
        states = [make_state(g, rho=rho, alpha=np.array([0.0]), phi=phi.copy())
                  for rho in (0.99, 0.5)]
        rng = derive_rng(12, 0)
        M = np.array([2.0])
        bounds = {s.rho: bounds_of(g, dis, M, s.rho) for s in states}
        for _ in range(300):
            for state in states:
                update_alpha(state, dis, np.array([0.3]), M, bounds[state.rho],
                             rng, quad_of(state))
                for s in states:
                    assert s.log_det == build_precision(s.adj, s.rho).log_det
        assert len(mcmc._log_det_memo(g, 0.99)) > 1
        assert len(mcmc._log_det_memo(g, 0.5)) > 1


class TestAlphaJointDistribution:
    """With the likelihood off and mu and tau2 fixed, the phi and alpha
    blocks target p(alpha) p(phi | alpha), so alpha is Uniform(0, M) on any
    graph; a wrong log|Q| term in the alpha ratio skews it (Geweke 2004,
    "Getting it right"). Each chain starts from an exact joint draw, so a
    correct kernel keeps every state on target however slowly it mixes, and
    a wrong one drifts towards its own stationary law."""

    @pytest.mark.parametrize("graph, q, rho", [
        # the fit's rho; below it phi mixes faster, so a wrong kernel drifts
        # further in the same number of iterations
        (lattice_graph(3, 4), 1, 0.99),
        (lattice_graph(3, 4), 2, 0.9),
        (AreaGraph(12, np.vstack([lattice_graph(2, 3).borders,
                                  lattice_graph(2, 3).borders + 6])), 1, 0.9),
        (AreaGraph(10, lattice_graph(3, 3).borders), 1, 0.9),
    ], ids=["lattice-q1", "lattice-q2", "disconnected", "isolated-area"])
    def test_alpha_is_uniform_on_its_prior(self, monkeypatch, graph, q, rho):
        from scipy.stats import kstest

        rng = np.random.default_rng(31)
        # metrics in [1, 3] before standardizing spread the thresholds
        # ln2 / z_b over the prior's range, with M = ln2 / min z_b; a
        # long-tailed metric's tiny min z_b makes M huge, and then even a
        # wrong log|Q| term can leave alpha within KS 0.3 of the uniform
        raw = rng.uniform(1.0, 3.0, size=(graph.n_borders, q))
        dis = DissimilarityData.from_border_values(graph, raw)
        M = mcmc.alpha_upper_bounds(dis, 1.0)
        # no memo, so each bound decides every proposal its direction allows
        monkeypatch.setattr(mcmc, "LOGDET_MEMO_CAP", 0)
        reads = [0, 0]

        class CountedBounds(tuple):
            def __getitem__(self, i):
                reads[i] += 1
                return tuple.__getitem__(self, i)

        bounds = CountedBounds(bounds_of(graph, dis, M, rho))
        n_chains, n_iter = 60, 300
        final = np.empty((n_chains, q))
        moved = 0
        for c in range(n_chains):
            alpha = M * rng.random(q)
            w = evaluate_w(graph, dis, alpha).w
            chol = np.linalg.cholesky(dense_precision(graph.n, graph.borders, w, rho))
            phi = np.linalg.solve(chol.T, rng.standard_normal(graph.n))
            state = make_state(graph, w=w, rho=rho, alpha=alpha, phi=phi)
            for _ in range(n_iter):
                update_phi(state, None, np.ones(graph.n), rng)
                update_alpha(state, dis, 0.5 * M, M, bounds, rng, quad_of(state))
            final[c] = state.alpha / M
            moved += not np.array_equal(state.adj.w, w)
        # a kernel that never changed w would keep alpha uniform too
        assert moved > n_chains // 2
        # both the cut and the restore bound decided proposals
        assert reads[0] > 0 and reads[1] > 0
        for i in range(q):
            assert kstest(final[:, i], "uniform").statistic < 0.3


class TestRunChains:
    def _tiny_inputs(self, seed=0):
        g = lattice_graph(4, 4)
        rng = np.random.default_rng(seed)
        y = rng.poisson(100.0, size=16).astype(float)
        data = ObservedData(y=y, E=np.full(16, 100.0))
        raw = rng.gamma(2.0, 1.0, size=g.n_borders)
        dis = DissimilarityData.from_border_values(g, raw)
        return g, data, dis

    def test_keep_zero_rejected(self):
        with pytest.raises(ValidationError, match="retained"):
            ChainConfig(n_chains=1, burn_in=10, keep=0, seed=1)

    @pytest.mark.parametrize("setting, named", [
        ({"seed": -1}, "seed must be >= 0"),
        ({"max_boundary_fraction": 0.0}, "max_boundary_fraction"),
        ({"max_boundary_fraction": 1.5}, "max_boundary_fraction"),
        ({"max_boundary_fraction": float("nan")}, "max_boundary_fraction"),
    ])
    def test_bad_setting_rejected_when_built(self, setting, named):
        with pytest.raises(ValidationError, match=named):
            ChainConfig(**setting)

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            ChainConfig().keep = 0

    def test_thin_divides_keep(self):
        g, data, dis = self._tiny_inputs()
        cfg = ChainConfig(n_chains=1, burn_in=50, keep=40, thin=4, seed=1)
        samples = run_chains(data, g, dis, cfg)
        assert draws_of(samples, "phi").shape == (1, 10, 16)

    def test_determinism(self):
        g, data, dis = self._tiny_inputs()
        cfg = ChainConfig(n_chains=2, burn_in=100, keep=50, seed=7)
        s1 = run_chains(data, g, dis, cfg)
        s2 = run_chains(data, g, dis, cfg)
        assert_same_draws(s1, s2)

    def test_worker_pool_matches_sequential(self):
        g, data, dis = self._tiny_inputs()
        cfg1 = ChainConfig(n_chains=2, burn_in=60, keep=30, seed=3, workers=1)
        cfg2 = ChainConfig(n_chains=2, burn_in=60, keep=30, seed=3, workers=2)
        s1 = run_chains(data, g, dis, cfg1)
        s2 = run_chains(data, g, dis, cfg2)
        assert_same_draws(s1, s2)

    def test_logdet_memo_leaves_draws_unchanged(self, monkeypatch):
        # q = 2; with the cap at 0 every lookup misses and Q is refactorized
        g = lattice_graph(4, 4)
        cov = np.random.default_rng(2).normal(size=(16, 2))
        dis = compute_border_metrics(g, cov, metric_names=["a", "b"])
        data = ObservedData(y=np.random.default_rng(3).poisson(100.0, 16),
                            E=np.full(16, 100.0))
        cfg = ChainConfig(n_chains=2, burn_in=150, keep=100, seed=4)
        calls = []

        def counting(adj, rho):
            calls.append(1)
            return build_precision(adj, rho)

        monkeypatch.setattr(mcmc, "build_precision", counting)
        # a graph per run, so each count starts from an empty process memo
        memo = run_chains(data, AreaGraph(g.n, g.borders), dis, cfg)
        with_memo = len(calls)
        monkeypatch.setattr(mcmc, "LOGDET_MEMO_CAP", 0)
        fresh = run_chains(data, AreaGraph(g.n, g.borders), dis, cfg)
        assert with_memo < len(calls) - with_memo
        assert_same_draws(memo, fresh)

    def test_no_assignment_factorized_twice(self, monkeypatch):
        # three chains in one process share one memo: under the cap each
        # assignment is factorized once, and the draws are those of the same
        # run in a pool of three workers
        g = lattice_graph(4, 4)
        cov = np.random.default_rng(2).normal(size=(16, 2))
        dis = compute_border_metrics(g, cov, metric_names=["a", "b"])
        data = ObservedData(y=np.random.default_rng(3).poisson(100.0, 16),
                            E=np.full(16, 100.0))
        cfg = ChainConfig(n_chains=3, burn_in=150, keep=100, seed=4, workers=1)
        keys = []

        def counting(adj, rho):
            keys.append((adj.key, rho))
            return build_precision(adj, rho)

        monkeypatch.setattr(mcmc, "build_precision", counting)
        shared = run_chains(data, g, dis, cfg)
        assert 1 < len(set(keys)) == len(keys) <= mcmc.LOGDET_MEMO_CAP
        pooled = run_chains(data, AreaGraph(g.n, g.borders), dis,
                            replace(cfg, workers=3))
        assert_same_draws(shared, pooled)

    def test_q2_lattice_matches_reference(self):
        # burn-in not a multiple of the adaptation window, and thinning
        g = lattice_graph(6, 6)
        cov = np.random.default_rng(8).normal(size=(36, 2))
        dis = compute_border_metrics(g, cov, metric_names=["a", "b"])
        data = ObservedData(y=np.random.default_rng(9).poisson(80.0, 36),
                            E=np.full(36, 80.0))
        cfg = ChainConfig(n_chains=2, burn_in=250, keep=120, thin=2, seed=21)
        samples = run_chains(data, g, dis, cfg)
        assert len({w.tobytes() for w in samples.pooled("w")}) > 1
        assert_matches_reference(samples, data, g, dis, cfg)

    def test_cut_bound_skips_factorizations(self, monkeypatch):
        # cuts that the bound rejects are never factorized, yet the draws are
        # those of the reference sampler, which factorizes every memo miss
        g = lattice_graph(6, 6)
        cov = np.random.default_rng(8).normal(size=(36, 2))
        dis = compute_border_metrics(g, cov, metric_names=["a", "b"])
        data = ObservedData(y=np.random.default_rng(9).poisson(80.0, 36),
                            E=np.full(36, 80.0))
        cfg = ChainConfig(n_chains=2, burn_in=200, keep=100, seed=23)
        calls = []

        def counting(adj, rho):
            calls.append(1)
            return build_precision(adj, rho)

        monkeypatch.setattr(mcmc, "build_precision", counting)
        # a graph per run, so each count starts from an empty process memo
        samples = run_chains(data, AreaGraph(g.n, g.borders), dis, cfg)
        bounded = len(calls)
        monkeypatch.setattr(mcmc, "CUT_BOUND_SLACK", math.inf)
        unbounded = run_chains(data, AreaGraph(g.n, g.borders), dis, cfg)
        assert 0 < bounded < len(calls) - bounded
        assert_same_draws(samples, unbounded)
        assert_matches_reference(samples, data, g, dis, cfg)

    def test_restore_bound_skips_factorizations(self, monkeypatch):
        # restores that the bound rejects are never factorized: fewer calls
        # than with the restore bound made void, which are fewer than with
        # both bounds off, and the draws are the reference sampler's, which
        # factorizes every memo miss and calls precision_quadform for every
        # proposal
        g = lattice_graph(6, 6)
        cov = np.random.default_rng(8).normal(size=(36, 2))
        dis = compute_border_metrics(g, cov, metric_names=["a", "b"])
        data = ObservedData(y=np.random.default_rng(9).poisson(80.0, 36),
                            E=np.full(36, 80.0))
        cfg = ChainConfig(n_chains=2, burn_in=200, keep=100, seed=23)
        calls = []

        def counting(adj, rho):
            calls.append(1)
            return build_precision(adj, rho)

        def run():
            # a graph per run, so each count starts from an empty process memo
            del calls[:]
            return run_chains(data, AreaGraph(g.n, g.borders), dis, cfg), len(calls)

        monkeypatch.setattr(mcmc, "build_precision", counting)
        samples, bounded = run()
        monkeypatch.setattr(mcmc, "restore_bounds",
                            lambda graph, *args: np.full(graph.n_borders, math.inf))
        cut_only, cut_calls = run()
        monkeypatch.setattr(mcmc, "CUT_BOUND_SLACK", math.inf)
        unbounded, all_calls = run()
        assert 0 < bounded < cut_calls < all_calls
        assert_same_draws(samples, cut_only)
        assert_same_draws(samples, unbounded)
        assert_matches_reference(samples, data, g, dis, cfg)

    def test_metric_free_matches_reference(self):
        # every fourth border dropped, so the kept borders are not a lattice
        g, data, _ = self._tiny_inputs(seed=4)
        kept = np.arange(g.n_borders) % 4 != 0
        g = AreaGraph(g.n, g.borders[kept])
        cfg = ChainConfig(n_chains=2, burn_in=200, keep=100, seed=22)
        samples = run_chains(data, g, None, cfg)
        assert_matches_reference(samples, data, g, None, cfg)

    def test_carried_quadform_is_fresh(self, monkeypatch):
        # the d^T Q d handed to tau2 and alpha equals one computed on the spot
        g, data, dis = self._tiny_inputs(seed=5)
        seen = []

        def checked(update):
            def wrapper(state, *args):
                fresh = precision_quadform(state.adj, state.rho, state.phi - state.mu)
                assert args[-1] == fresh
                seen.append(update.__name__)
                return update(state, *args)
            return wrapper

        monkeypatch.setattr(mcmc, "update_tau2", checked(update_tau2))
        monkeypatch.setattr(mcmc, "update_alpha", checked(update_alpha))
        run_chains(data, g, dis, ChainConfig(n_chains=1, burn_in=100, keep=50, seed=6))
        assert seen.count("update_tau2") == seen.count("update_alpha") == 150

    def test_w_trace_consistency(self):
        g, data, dis = self._tiny_inputs()
        cfg = ChainConfig(n_chains=1, burn_in=200, keep=100, seed=11)
        samples = run_chains(data, g, dis, cfg)
        alpha = samples.pooled("alpha")
        w = samples.pooled("w")
        for i in range(0, w.shape[0], 7):
            expected = evaluate_w(g, dis, alpha[i]).w
            np.testing.assert_array_equal(w[i], expected)

    def test_w_counts_give_the_trace_mean(self):
        # three chains of 25 draws: w_mean is the float mean of the pooled
        # trace, bit for bit
        g, data, dis = self._tiny_inputs(seed=3)
        cfg = ChainConfig(n_chains=3, burn_in=100, keep=25, seed=12)
        samples = run_chains(data, g, dis, cfg)
        w = samples.pooled("w")
        assert 0 < w.sum() < w.size
        np.testing.assert_array_equal(samples.w_counts,
                                      samples.w.sum(axis=1, dtype=np.int64))
        bset = classify_boundaries(samples)
        assert bset.w_mean.tobytes() == w.mean(axis=0).tobytes()

    def test_no_metrics_keeps_every_border(self):
        g, data, _ = self._tiny_inputs()
        cfg = ChainConfig(n_chains=2, burn_in=50, keep=20, seed=5)
        samples = run_chains(data, g, None, cfg)
        assert samples.alpha.shape == (2, 20, 0)
        assert samples.acceptance["alpha"].shape == (2, 0)
        assert samples.w.shape == (2, 20, g.n_borders) and (samples.w == 1).all()

    def test_prior_sampling_moment_match_smoke(self):
        # likelihood disabled: phi sweeps must target the CAR prior
        g = path_graph(4)
        mu, tau2, rho = 0.5, 1.0, 0.5
        adj = adjacency_from_w(g, np.ones(3, dtype=np.uint8))
        state = ModelState(phi=np.full(4, mu),
                           params=CarParams(mu=mu, tau2=tau2, rho=rho),
                           adj=adj, log_det=build_precision(adj, rho).log_det)
        rng = derive_rng(13, 0)
        steps = np.full(4, 1.6)
        keep = np.empty((30000, 4))
        for i in range(5000):
            update_phi(state, None, steps, rng)
        for i in range(keep.shape[0]):
            update_phi(state, None, steps, rng)
            keep[i] = state.phi
        cov_target = tau2 * np.linalg.inv(
            dense_precision(4, g.borders, adj.w, rho))
        mean_err = np.abs(keep.mean(axis=0) - mu)
        assert (mean_err < 0.08).all()
        cov_err = np.abs(np.cov(keep.T) - cov_target)
        assert (cov_err < 0.12).all()


class TestPoolSize:
    """run_tasks opens no more processes than it has tasks; a fake pool
    records its size and its tasks, and runs its initializer and the tasks
    inline, so no process starts."""

    @pytest.fixture
    def pool(self, monkeypatch):
        record = {"sizes": [], "tasks": []}

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                record["sizes"].append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                record["tasks"].append(pickle.dumps((fn, args)))
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(mcmc, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(mcmc, "_shared_task", None)
        return record

    @pytest.mark.parametrize("workers, n_tasks, pools", [
        (32, 2, [2]), (2, 5, [2]), (32, 1, []), (1, 3, []),
    ])
    def test_pool_is_sized_to_the_tasks(self, pool, workers, n_tasks, pools):
        assert mcmc.run_tasks(pow, (2,), n_tasks, workers) == [t * t for t in range(n_tasks)]
        assert pool["sizes"] == pools

    def test_two_chains_open_two_workers(self, pool):
        g, data, dis = TestRunChains()._tiny_inputs()
        cfg = ChainConfig(n_chains=2, burn_in=20, keep=10, seed=1, workers=32)
        pooled = run_chains(data, g, dis, cfg)
        alone = run_chains(data, g, dis, replace(cfg, workers=1))
        assert pool["sizes"] == [2]
        assert_same_draws(pooled, alone)

    def _assert_tasks_carry_only_an_index(self, tasks, n_tasks):
        assert len(tasks) == n_tasks
        for i, task in enumerate(tasks):
            assert pickle.loads(task) == (mcmc._run_shared_task, (i,))
            assert len(task) < 100

    def test_chains_share_the_graph(self, pool):
        g, data, dis = TestRunChains()._tiny_inputs()
        cfg = ChainConfig(n_chains=3, burn_in=20, keep=10, seed=1, workers=2)
        pooled = run_chains(data, g, dis, cfg)
        self._assert_tasks_carry_only_an_index(pool["tasks"], 3)
        assert_same_draws(pooled, run_chains(data, g, dis, replace(cfg, workers=1)))

    def test_replicates_share_the_graph(self, pool):
        g = lattice_graph(8, 8)
        cfg = SimConfig(graph=g, true_partition=five_block_partition(8, 8),
                        k1=0.4, k2=3.0, replicates=3)
        chains = ChainConfig(n_chains=1, burn_in=20, keep=10, seed=1, workers=2)
        pooled = run_study(cfg, chains)
        self._assert_tasks_carry_only_an_index(pool["tasks"], 3)
        alone = run_study(cfg, replace(chains, workers=1))
        for name, value in pooled.per_replicate.items():
            assert value.tobytes() == alone.per_replicate[name].tobytes(), name

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValidationError, match="workers must be >= 1"):
            ChainConfig(workers=workers)


class TestBandPlanBeforeFork:
    """The band plan is built in the parent before the pool forks and reaches
    the workers inside the pickled graph, and the alpha block's cut and
    restore bounds, one resistance recursion each, are built once per
    run_chains call before its chains start; each call logs its pid here, so
    a forked worker that built its own would show."""

    @pytest.fixture
    def pids(self, tmp_path, monkeypatch):
        log = tmp_path / "calls"
        log.touch()

        def logged(kind, fn):
            def wrapper(*args):
                with open(log, "a") as fh:
                    fh.write(f"{kind} {os.getpid()}\n")
                return fn(*args)
            return wrapper

        monkeypatch.setattr(car._BandPlan, "__init__",
                            logged("plan", car._BandPlan.__init__))
        monkeypatch.setattr(car, "_resistances",
                            logged("resistances", car._resistances))
        return lambda kind: [pid for k, pid in map(str.split, log.read_text().splitlines())
                             if k == kind]

    def test_run_chains(self, pids):
        g = lattice_graph(4, 4)
        cov = np.random.default_rng(2).normal(size=(16, 2))
        dis = compute_border_metrics(g, cov, metric_names=["a", "b"])
        data = ObservedData(y=np.random.default_rng(3).poisson(100.0, 16),
                            E=np.full(16, 100.0))
        cfg = ChainConfig(n_chains=2, burn_in=20, keep=10, seed=1, workers=2)
        run_chains(data, g, dis, cfg)
        me = str(os.getpid())
        assert pids("plan") == [me]
        assert pids("resistances") == [me, me]
        # chains run in this process leave the log|Q| memo on the graph, and
        # no bound
        run_chains(data, g, dis, replace(cfg, workers=1))
        assert pids("resistances") == [me] * 4
        assert set(g._cache) == {"band_plan", "sweep_tables", ("log_det", car.RHO)}

    def test_run_chains_without_metrics(self, pids):
        g, data, _ = TestRunChains()._tiny_inputs()
        run_chains(data, g, None, ChainConfig(n_chains=2, burn_in=20, keep=10,
                                              seed=1, workers=2))
        assert pids("plan") == [str(os.getpid())]
        assert pids("resistances") == []

    def test_run_study(self, pids):
        g = lattice_graph(8, 8)
        cfg = SimConfig(graph=g, true_partition=five_block_partition(8, 8),
                        k1=0.4, k2=3.0, replicates=2)
        run_study(cfg, ChainConfig(n_chains=1, burn_in=20, keep=10, seed=1,
                                   workers=2))
        me = str(os.getpid())
        assert pids("plan") == [me]
        # two per replicate, each replicate's in the worker that runs it
        recursions = pids("resistances")
        assert len(recursions) == 4 and me not in recursions
        assert all(recursions.count(pid) % 2 == 0 for pid in recursions)


class TestRetainedPhi:
    """Retained phi and w live in one temporary file; the output stage reads
    phi back a block of areas at a time."""

    def _inputs(self):
        return TestRunChains()._tiny_inputs(seed=5)

    @pytest.mark.parametrize("n_chains, keep, thin, budget, buffers", [
        (2, 30, 3, 8 * 16 * 4, 3),   # buffers of 4, 4 and 2 draws; 5 blocks
        (1, 12, 1, 8 * 16 * 5, 3),   # buffers of 5, 5 and 2; 2 blocks
        (3, 8, 1, 8 * 16, 8),        # one draw per buffer; 8 blocks
        (2, 10, 1, 1 << 30, 1),      # one buffer per chain; one block
        (2, 30, 1, 8 * 60, 10),      # one-area blocks widened to two
    ])
    def test_reader_matches_row_major_reference(self, monkeypatch, n_chains,
                                                keep, thin, budget, buffers):
        g, data, dis = self._inputs()
        monkeypatch.setattr(mcmc, "RISK_BLOCK_BYTES", budget)
        cfg = ChainConfig(n_chains=n_chains, burn_in=20, keep=keep, thin=thin,
                          seed=2)
        samples = run_chains(data, g, dis, cfg)
        # the old layout: (chains, draws, areas) row-major, read in one shot
        expected = np.stack([r["phi"] for r in reference_draws(data, g, dis, cfg)])
        expected = expected.reshape(-1, g.n)
        reads = []
        preadv = os.preadv

        def counting(*args):
            reads.append(1)
            return preadv(*args)

        monkeypatch.setattr(os, "preadv", counting)
        assert samples.phi_draws().T.tobytes() == expected.tobytes()
        assert len(reads) == n_chains * buffers
        blocks = []
        chain = mcmc._PhiReader.chain

        def recording(reader, c, areas, *buffers):
            if c == 0:
                blocks.append(areas)
            return chain(reader, c, areas, *buffers)

        monkeypatch.setattr(mcmc._PhiReader, "chain", recording)
        reads.clear()
        samples.risk_summary()
        monkeypatch.setattr(mcmc._PhiReader, "chain", chain)
        assert len(reads) == len(blocks) * n_chains * buffers
        assert all(a.stop - a.start >= 2 for a in blocks)
        assert blocks[0].start == 0 and blocks[-1].stop == g.n
        assert [a.start for a in blocks[1:]] == [a.stop for a in blocks[:-1]]
        for areas in blocks + [slice(3, 11), slice(15, 16)]:
            got = samples.phi_draws(areas)
            assert got.T.tobytes() == np.ascontiguousarray(expected[:, areas]).tobytes()

    @pytest.mark.parametrize("n_chains, keep, width", [
        (2, 30, 3),      # 16 areas in blocks of 3, 3, 3, 3 and 4
        (2, 30, 1),      # one-area blocks are widened to two
        (1, 1, 5),       # a single retained draw
        (2, 30, None),   # every area in one block
        (3, 30, 3),      # chain buffers of 16 and 14 draws
        (3, 25, 2),      # blocks of two areas; buffers of 9, 9 and 7 draws
    ])
    def test_blocked_reductions_match_one_shot(self, monkeypatch, n_chains,
                                               keep, width):
        g, data, dis = self._inputs()
        draws = n_chains * keep
        if width is not None:
            monkeypatch.setattr(mcmc, "RISK_BLOCK_BYTES", 8 * draws * width)
        samples = run_chains(data, g, dis, ChainConfig(
            n_chains=n_chains, burn_in=40, keep=keep, seed=2))
        # draw-major, as the one-shot reductions read it
        pooled = np.ascontiguousarray(samples.phi_draws().T)
        by_area = np.exp(pooled.T.copy())
        expected = (np.median(by_area, axis=1),
                    np.percentile(by_area, 2.5, axis=1),
                    np.percentile(by_area, 97.5, axis=1),
                    np.exp(pooled).mean(axis=0))
        got = samples.risk_summary()
        for e, a in zip(expected, got):
            assert a.tobytes() == e.tobytes()
        mean_dev = float(samples.deviance.reshape(-1).mean())
        p_d = mean_dev - deviance_at(expected[3], data)
        assert dic(samples.pooled("deviance"), got.mean, data) == (
            mean_dev + p_d, p_d, mean_dev)

    @pytest.mark.parametrize("n_chains, keep, thin", [
        (1, 1201, 1),    # chain buffers of 150 draws and a partial one of 1
        (2, 610, 1),     # buffers of 152 draws and a partial one of 2
        (3, 1920, 3),    # 640 draws thinned from 1920: buffers of 240, 240, 160
    ])
    def test_summary_holds_one_block_and_one_stage(self, monkeypatch, n_chains,
                                                   keep, thin):
        # 64 areas in blocks of 8; tracemalloc counts numpy's buffers, and
        # the slack covers numpy's own small temporaries
        g = lattice_graph(8, 8)
        rng = np.random.default_rng(4)
        data = ObservedData(y=rng.poisson(50.0, g.n).astype(float),
                            E=np.full(g.n, 50.0))
        m, width = keep // thin, 8
        draws = n_chains * m
        monkeypatch.setattr(mcmc, "RISK_BLOCK_BYTES", 8 * draws * width)
        samples = run_chains(data, g, None, ChainConfig(
            n_chains=n_chains, burn_in=10, keep=keep, thin=thin, seed=3))
        expected = samples.risk_summary()  # numpy's lazy imports load here
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = samples.risk_summary()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        for e, a in zip(expected, got):
            assert a.tobytes() == e.tobytes()
        block, stage, outputs = 8 * width * draws, 8 * width * m, 8 * 4 * g.n
        # smaller than a stage, so no stage-sized temporary hides in it
        slack = 32 * 1024
        assert slack < stage
        assert peak <= block + stage + outputs + slack

    def test_phi_is_read_only(self):
        # each read is a fresh array, through a descriptor that cannot write
        g, data, dis = self._inputs()
        samples = run_chains(data, g, dis, ChainConfig(n_chains=1, burn_in=20,
                                                       keep=10, seed=1))
        first = samples.phi_draws()
        again = first.copy()
        first[:] = 1.0
        assert samples.phi_draws().tobytes() == again.tobytes()
        with pytest.raises(OSError):
            os.write(samples.phi_draws.fd, b"1")
        assert not samples.w.flags.writeable

    def test_file_is_removed_after_a_run(self, tmp_path, monkeypatch):
        g, data, dis = self._inputs()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        seen = []
        chain = mcmc._run_chain

        def recording(*args):
            path = Path(args[-1].path)
            seen.append(path.parent == tmp_path and path.exists()
                        and path.name.startswith(mcmc.PHI_FILE_PREFIX))
            return chain(*args)

        monkeypatch.setattr(mcmc, "_run_chain", recording)
        samples = run_chains(data, g, dis, ChainConfig(n_chains=2, burn_in=20,
                                                       keep=10, seed=1))
        assert seen == [True, True]
        assert list(tmp_path.iterdir()) == []
        # the unlinked file stays readable through the samples' reader
        assert np.isfinite(samples.phi_draws()).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_file_is_removed_when_a_chain_raises(self, tmp_path, monkeypatch,
                                                 workers):
        # log-SIR initialization overflows exp(phi) for every redraw
        g = lattice_graph(2, 2)
        data = ObservedData(y=np.full(4, 1e9), E=np.full(4, 1e-300))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cfg = ChainConfig(n_chains=2, burn_in=10, keep=5, seed=0,
                          workers=workers)
        with pytest.raises(NumericError, match="100 re-draws"):
            run_chains(data, g, None, cfg)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_runs_leave_no_descriptor_open(self):
        g, data, dis = self._inputs()
        cfg = ChainConfig(n_chains=2, burn_in=5, keep=4, seed=1)
        run_chains(data, g, dis, cfg).risk_summary()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            samples = run_chains(data, g, dis, cfg)
            samples.risk_summary()
        del samples
        assert len(os.listdir("/proc/self/fd")) == before


class TestDic:
    def test_single_sample_degenerate(self):
        g = lattice_graph(3, 3)
        rng = np.random.default_rng(2)
        data = ObservedData(y=rng.poisson(50, 9).astype(float),
                            E=np.full(9, 50.0))
        dis = DissimilarityData.from_border_values(
            g, rng.gamma(2.0, 1.0, g.n_borders))
        cfg = ChainConfig(n_chains=1, burn_in=20, keep=1, seed=4)
        samples = run_chains(data, g, dis, cfg)
        res = dic(samples.pooled("deviance"), samples.risk_summary().mean, data)
        assert res.p_d == pytest.approx(0.0, abs=1e-9)
        assert res.dic == pytest.approx(samples.deviance[0, 0], abs=1e-9)

    def test_unit_risk_closed_form(self):
        n = 7
        data = ObservedData(y=np.ones(n), E=np.ones(n))
        assert deviance_at(np.ones(n), data) == pytest.approx(2.0 * n)

    def test_deviance_matches_oracle(self):
        rng = np.random.default_rng(3)
        y = rng.poisson(30, 5).astype(float)
        E = np.full(5, 30.0)
        r = rng.gamma(2.0, 0.5, 5)
        data = ObservedData(y=y, E=E)
        assert deviance_at(r, data) == pytest.approx(
            poisson_deviance(y, E, r), rel=1e-12)

    def test_true_w_beats_all_boundaries_on_correlated_data(self):
        # strongly correlated surfaces: severing every border must cost DIC.
        # With every border cut Q = (1 - rho) I, the precision of a graph
        # without borders.
        g = lattice_graph(8, 8)
        cut = build_graph(np.zeros((64, 64), dtype=int))
        labels = np.zeros(64, dtype=int)
        cfg_sim = SimConfig(graph=g, true_partition=labels, k1=0.0, k2=0.0,
                            field_sd=0.3, E=100.0, replicates=1)
        wins = 0
        n_rep = 20
        for rep in range(n_rep):
            rng = np.random.default_rng(1000 + rep)
            phi, r_true = gen_surface(cfg_sim, rng)
            y = gen_counts(r_true, np.full(64, 100.0), rng)
            data = ObservedData(y=y.astype(float), E=np.full(64, 100.0))
            cfg = ChainConfig(n_chains=1, burn_in=800, keep=600, seed=rep)
            dic_true, dic_cut = (
                dic(s.pooled("deviance"), s.risk_summary().mean, data).dic
                for s in (run_chains(data, graph, None, cfg) for graph in (g, cut)))
            wins += dic_true < dic_cut
        assert wins >= 0.8 * n_rep


class TestDiagnosticsHelpers:
    def test_gelman_rubin_identical_chains(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        assert gelman_rubin(np.vstack([x, x])) == pytest.approx(1.0, abs=0.05)

    def test_gelman_rubin_flags_disagreement(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=500)
        b = rng.normal(8.0, 1.0, size=500)
        assert gelman_rubin(np.vstack([a, b])) > 2.0

    def test_ess_iid_near_length(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4000))
        ess = effective_sample_size(x)
        assert 2000 < ess < 6000

    def test_ess_correlated_much_smaller(self):
        rng = np.random.default_rng(3)
        n = 4000
        x = np.empty(n)
        x[0] = 0.0
        for i in range(1, n):
            x[i] = 0.97 * x[i - 1] + rng.normal()
        assert effective_sample_size(x[None, :]) < n / 10


class TestDisconnectedGraph:
    def test_fit_runs_on_disconnected_graph(self):
        # two islands plus an isolated area: legal, reported, and fittable
        borders = np.array([(0, 1), (0, 2), (1, 3), (2, 3),
                            (4, 5), (4, 6), (5, 7), (6, 7)])
        g = AreaGraph(9, borders)
        assert g.n_components == 3
        rng = np.random.default_rng(0)
        data = ObservedData(y=rng.poisson(80, 9).astype(float),
                            E=np.full(9, 80.0))
        dis = DissimilarityData.from_border_values(g, rng.gamma(2.0, 1.0, 8))
        samples = run_chains(data, g, dis,
                             ChainConfig(n_chains=1, burn_in=200, keep=100,
                                         seed=1))
        assert draws_of(samples, "phi").shape == (1, 100, 9)


class TestInitialization:
    def test_nonfinite_posterior_raises_after_redraws(self):
        # log-SIR initialization overflows exp(phi) for every redraw
        from womble import NumericError
        g = lattice_graph(2, 2)
        data = ObservedData(y=np.full(4, 1e9), E=np.full(4, 1e-300))
        dis = DissimilarityData.from_border_values(
            g, np.random.default_rng(0).gamma(2.0, 1.0, g.n_borders))
        cfg = ChainConfig(n_chains=1, burn_in=10, keep=5, seed=0)
        with pytest.raises(NumericError, match="100 re-draws"):
            run_chains(data, g, dis, cfg)


class TestObservedData:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            ObservedData(y=np.array([-1.0]), E=np.array([1.0]))

    def test_nonpositive_expected_rejected(self):
        with pytest.raises(ValidationError):
            ObservedData(y=np.array([1.0]), E=np.array([0.0]))

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValidationError):
            ObservedData(y=np.array([1.5]), E=np.array([1.0]))


class TestAlphaConcentration:
    def test_near_perfect_metric_concentrates_above_threshold(self):
        # reduced-scale version of the simulation check: with k2=3 the alpha
        # posterior must sit above the no-effect threshold
        g = lattice_graph(8, 8)
        labels = five_block_partition(8, 8)
        cfg_sim = SimConfig(graph=g, true_partition=labels, k1=0.4, k2=3.0,
                            field_sd=0.2, E=100.0, replicates=1)
        rng = np.random.default_rng(5)
        phi, r_true = gen_surface(cfg_sim, rng)
        raw = gen_dissimilarity(cfg_sim, rng)
        y = gen_counts(r_true, np.full(64, 100.0), rng)
        dis = DissimilarityData.from_border_values(g, raw)
        data = ObservedData(y=y.astype(float), E=np.full(64, 100.0))
        cfg = ChainConfig(n_chains=1, burn_in=2000, keep=1500, seed=9)
        samples = run_chains(data, g, dis, cfg)
        from womble.graph import alpha_min
        amin = alpha_min(dis, 0)
        frac = np.mean(samples.pooled("alpha")[:, 0] > amin)
        assert frac >= 0.95
