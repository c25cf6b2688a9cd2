"""Metropolis-within-Gibbs sampler for the boundary-detection model.

Model: y_k ~ Poisson(E_k R_k) with ln R_k = phi_k; phi follows the CAR prior
of :mod:`womble.car` with adjacency determined by evaluate_w(alpha); mu has a
N(0, 10) prior, the standard deviation sqrt(tau2) a Uniform(0, 10) prior, and
each alpha_i a Uniform(0, M_i) prior with M_i from alpha_prior_upper.

Update scheme, one iteration:

* phi: per-area random-walk Metropolis, swept in graph-coloring blocks (a
  block's members share no border, so their full conditionals depend only on
  areas outside the block; each area keeps its own accept/reject decision).
* mu: exact Gibbs draw. W* has zero row sums, so 1'Q1 = (1-rho) n and
  1'Q phi = (1-rho) sum(phi), making the conditional trivially cheap.
* tau2: random-walk Metropolis on ln(tau2) with Jacobian correction,
  hard-rejecting sqrt(tau2) > 10.
* alpha: component-wise truncated random-walk Metropolis. A proposal that
  leaves the border assignment unchanged is accepted outright (uniform prior,
  symmetric proposal, identical CAR density); otherwise the ratio uses the
  full CAR density including (1/2) log|Q(alpha)|. Each chain memoizes log|Q|
  by border assignment (at most LOGDET_MEMO_CAP entries, oldest evicted
  first), so Q is factorized only for assignments the chain has not seen or
  has evicted; a hit returns the float a refactorization would.

Step sizes adapt toward 0.44 acceptance during burn-in only (Robbins-Monro
style batch updates) and are frozen afterward.

Chains are independent: each derives its own random stream from
(seed, chain index) and owns all mutable state, so results are identical
whether chains run sequentially or in a process pool.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import gammaln

from .car import (CarParams, PrecisionStructure, build_precision,
                  log_density_phi, precision_quadform)
from .errors import NumericError, ValidationError
from .graph import (AdjacencyState, AreaGraph, DissimilarityData,
                    adjacency_from_w, alpha_prior_upper, evaluate_w)
from .rng import CHAIN, derive_rng

PHI_GUARD = 50.0  # proposals beyond +-50 on the log-risk scale are rejected
# border assignments whose log|Q| one chain remembers; about B/8 bytes each
LOGDET_MEMO_CAP = 4096


@dataclass(frozen=True)
class ObservedData:
    """Disease counts and expected counts per area."""

    y: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if y.ndim != 1 or y.shape != E.shape:
            raise ValidationError("y and E must be 1-D arrays of equal length")
        if not np.isfinite(y).all() or (y < 0).any() or np.any(y != np.floor(y)):
            raise ValidationError("y must contain finite non-negative integers")
        if not np.isfinite(E).all() or (E <= 0).any():
            raise ValidationError("E must contain finite positive values")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "E", E)
        y.setflags(write=False)
        E.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass
class ChainConfig:
    """Sampler run configuration; defaults follow the full multi-chain
    protocol (five chains, 40k burn-in, 10k retained each)."""

    n_chains: int = 5
    burn_in: int = 40000
    keep: int = 10000
    thin: int = 1
    seed: int = 0
    phi_step: float = 0.5
    tau2_step: float = 0.5
    alpha_step: Optional[float] = None   # default: 0.1 * M_i per metric
    adapt_window: int = 100
    adapt_target: float = 0.44
    max_boundary_fraction: float = 0.5
    rho: float = 0.99
    prior_mu_var: float = 10.0
    tau_max: float = 10.0
    fixed_w: Optional[np.ndarray] = None  # freeze the border assignment; skip alpha
    workers: int = 1

    def validate(self):
        if self.n_chains < 1:
            raise ValidationError("n_chains must be >= 1")
        if self.keep < 1:
            raise ValidationError("keep must be >= 1: nothing would be retained")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if self.keep // self.thin < 1:
            raise ValidationError("keep // thin must be >= 1: nothing would be retained")
        if self.burn_in < 0:
            raise ValidationError("burn_in must be >= 0")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError("rho must lie in [0, 1)")


@dataclass
class ModelState:
    """Current sampler state; `adj` always equals evaluate_w at params.alpha
    (or the frozen assignment for fixed-W fits)."""

    phi: np.ndarray
    params: CarParams
    adj: AdjacencyState
    prec: PrecisionStructure
    wf: np.ndarray = field(repr=False, default=None)  # float view of adj.w
    last_accept: dict = field(default_factory=dict)
    # packed border assignment -> log|Q| at params.rho, in insertion order
    logdet_memo: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if self.wf is None:
            self.wf = self.adj.w.astype(np.float64)

    def set_adjacency(self, adj: AdjacencyState, prec: PrecisionStructure):
        self.adj = adj
        self.prec = prec
        self.wf = adj.w.astype(np.float64)

    def remember_log_det(self, key: bytes, log_det: float):
        memo = self.logdet_memo
        memo[key] = log_det
        while len(memo) > LOGDET_MEMO_CAP:
            del memo[next(iter(memo))]

    def log_post(self, data: Optional[ObservedData],
                 prior_mu_var: float = 10.0) -> float:
        """Joint log-posterior up to prior normalizing constants."""
        lp = log_density_phi(self.phi, self.params, self.prec)
        lp += -0.5 * self.params.mu ** 2 / prior_mu_var
        lp += -0.5 * math.log(self.params.tau2)
        if data is not None:
            lp += float(np.sum(data.y * (np.log(data.E) + self.phi)
                               - data.E * np.exp(self.phi)))
        return lp


def _memo_key(w: np.ndarray) -> bytes:
    return np.packbits(w).tobytes()


class _SweepTables:
    """Per-color edge incidence used by the vectorized phi sweep."""

    def __init__(self, graph: AreaGraph):
        nbrs, bids = graph.incidence
        self.classes = []
        for members in graph.coloring:
            rows, nbr, bidx = [], [], []
            for local, k in enumerate(members):
                rows.extend([local] * len(nbrs[k]))
                nbr.extend(nbrs[k].tolist())
                bidx.extend(bids[k].tolist())
            self.classes.append((members,
                                 np.array(rows, dtype=np.int64),
                                 np.array(nbr, dtype=np.int64),
                                 np.array(bidx, dtype=np.int64)))


def _sweep_tables(graph: AreaGraph) -> _SweepTables:
    tables = graph._cache.get("sweep_tables")
    if tables is None:
        tables = _SweepTables(graph)
        graph._cache["sweep_tables"] = tables
    return tables


def update_phi(state: ModelState, data: Optional[ObservedData],
               steps: np.ndarray, rng: np.random.Generator) -> ModelState:
    """One sweep of per-area random-walk Metropolis on phi.

    With data=None the likelihood term is dropped and the sweep targets the
    CAR prior alone (used by sampler-validation tests).
    """
    p = state.params
    rho = p.rho
    phi = state.phi
    accept = np.zeros(phi.shape[0], dtype=bool)
    for members, rows, nbr, bidx in _sweep_tables(state.adj.graph).classes:
        m = members.shape[0]
        wsel = state.wf[bidx]
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
        ok = (np.log(rng.random(m)) < delta) & (np.abs(prop) <= PHI_GUARD)
        phi[members] = np.where(ok, prop, cur)
        accept[members] = ok
    state.last_accept["phi"] = accept
    return state


def update_mu(state: ModelState, rng: np.random.Generator,
              prior_var: float = 10.0) -> ModelState:
    """Gibbs draw of mu from its exact Gaussian full conditional.

    Conditional precision is 1'Q1 / tau2 + 1/prior_var and the mean is
    (1'Q phi / tau2) / precision; with W* having zero row sums these reduce
    to (1-rho) n / tau2 + 1/prior_var and (1-rho) sum(phi) / tau2.
    """
    p = state.params
    n = state.adj.graph.n
    one_q_one = (1.0 - p.rho) * n
    one_q_phi = (1.0 - p.rho) * float(np.sum(state.phi))
    prec = one_q_one / p.tau2 + 1.0 / prior_var
    mean = (one_q_phi / p.tau2) / prec
    state.params = replace(p, mu=mean + rng.standard_normal() / math.sqrt(prec))
    return state


def update_tau2(state: ModelState, step: float, rng: np.random.Generator,
                tau_max: float = 10.0) -> ModelState:
    """Random-walk Metropolis on ln(tau2) with Jacobian correction.

    The Uniform(0, tau_max) prior on the standard deviation scale contributes
    a (tau2)^(-1/2) factor on the variance scale; proposals with
    sqrt(tau2) > tau_max are rejected outright.
    """
    p = state.params
    d = state.phi - p.mu
    quad = precision_quadform(state.adj, p.rho, d)
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
    state.last_accept["tau2"] = accepted
    return state


def update_alpha(state: ModelState, dis: DissimilarityData, steps: np.ndarray,
                 M: np.ndarray, rng: np.random.Generator) -> ModelState:
    """Component-wise truncated random-walk Metropolis on alpha.

    Every proposal inside the prior's support goes through evaluate_w.
    Proposals whose assignment is unchanged are accepted outright; every
    other one is judged by a full CAR-density comparison, taking log|Q| from
    the state's memo and factorizing Q only for an assignment not in it.
    """
    p = state.params
    graph = state.adj.graph
    accept = np.zeros(len(M), dtype=bool)
    d = state.phi - p.mu
    quad_cur = None  # d^T Q d at the current assignment, computed when needed
    for i in range(len(M)):
        alpha = state.params.alpha
        prop_i = alpha[i] + steps[i] * rng.standard_normal()
        if prop_i < 0.0 or prop_i > M[i]:
            continue
        alpha_prop = alpha.copy()
        alpha_prop[i] = prop_i
        adj_prop = evaluate_w(graph, dis, alpha_prop)
        if np.array_equal(adj_prop.w, state.adj.w):
            state.params = replace(state.params, alpha=alpha_prop)
            accept[i] = True
            continue
        key = _memo_key(adj_prop.w)
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
            state.set_adjacency(adj_prop,
                                PrecisionStructure(adj_prop, p.rho, log_det))
            quad_cur = quad_prop
            accept[i] = True
    state.last_accept["alpha"] = accept
    return state


class DicResult(NamedTuple):
    dic: float
    p_d: float
    mean_deviance: float


@dataclass
class PosteriorSamples:
    """Thinned multi-chain draws plus the per-border w trace.

    Arrays are indexed (chain, draw, ...); pooled views flatten the first two
    axes with chains kept contiguous.
    """

    phi: np.ndarray        # (C, m, n)
    mu: np.ndarray         # (C, m)
    tau2: np.ndarray       # (C, m)
    alpha: np.ndarray      # (C, m, q)
    w: np.ndarray          # (C, m, B) uint8
    deviance: np.ndarray   # (C, m)
    acceptance: dict       # block -> (C, ...) post-burn-in acceptance rates
    graph: AreaGraph
    dis: Optional[DissimilarityData]
    config: ChainConfig
    alpha_upper: np.ndarray

    @property
    def n_chains(self) -> int:
        return self.phi.shape[0]

    @property
    def n_retained(self) -> int:
        return self.phi.shape[1]

    def pooled_phi(self) -> np.ndarray:
        return self.phi.reshape(-1, self.phi.shape[2])

    def pooled_w(self) -> np.ndarray:
        return self.w.reshape(-1, self.w.shape[2])

    def pooled_alpha(self) -> np.ndarray:
        return self.alpha.reshape(-1, self.alpha.shape[2])

    def pooled(self, name: str) -> np.ndarray:
        return getattr(self, name).reshape(-1)

    def risk_draws(self) -> np.ndarray:
        return np.exp(self.pooled_phi())


def _initial_state(data: ObservedData, graph: AreaGraph,
                   dis: Optional[DissimilarityData], config: ChainConfig,
                   M: np.ndarray, rng: np.random.Generator) -> ModelState:
    # dispersed initialization: empirical log-SIR with unit jitter for phi,
    # prior draws for mu / tau / alpha
    for _ in range(100):
        phi = rng.normal(np.log(data.y + 0.5) - np.log(data.E), 1.0)
        mu = rng.normal(0.0, math.sqrt(config.prior_mu_var))
        tau2 = rng.uniform(0.0, config.tau_max) ** 2
        if M.size:
            alpha = rng.uniform(0.0, M)
        else:
            alpha = np.zeros(0)
        if tau2 == 0.0:
            continue
        if config.fixed_w is not None:
            adj = adjacency_from_w(graph, config.fixed_w)
        elif dis is not None and M.size:
            adj = evaluate_w(graph, dis, alpha)
        else:
            adj = adjacency_from_w(graph, np.ones(graph.n_borders, dtype=np.uint8))
        params = CarParams(mu=mu, tau2=tau2, rho=config.rho, alpha=alpha)
        state = ModelState(phi=phi, params=params, adj=adj,
                           prec=build_precision(adj, config.rho))
        state.remember_log_det(_memo_key(adj.w), state.prec.log_det)
        # overflow here just means "re-draw", not an error
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(state.log_post(data, config.prior_mu_var))
        if finite:
            return state
    raise NumericError("non-finite log-posterior at initialization after 100 re-draws")


def _run_chain(chain_idx: int, data: ObservedData, graph: AreaGraph,
               dis: Optional[DissimilarityData], config: ChainConfig,
               M: np.ndarray) -> dict:
    rng = derive_rng(config.seed, CHAIN, chain_idx)
    state = _initial_state(data, graph, dis, config, M, rng)
    n, b, q = graph.n, graph.n_borders, M.size
    sample_alpha = q > 0 and config.fixed_w is None

    log_phi_steps = np.full(n, math.log(config.phi_step))
    log_tau_step = math.log(config.tau2_step)
    if sample_alpha:
        base = config.alpha_step if config.alpha_step is not None else None
        log_alpha_steps = np.log(np.full(q, base) if base is not None else 0.1 * M)
    else:
        log_alpha_steps = np.zeros(0)

    n_retained = config.keep // config.thin
    out_phi = np.empty((n_retained, n))
    out_mu = np.empty(n_retained)
    out_tau2 = np.empty(n_retained)
    out_alpha = np.empty((n_retained, q))
    out_w = np.empty((n_retained, b), dtype=np.uint8)
    out_dev = np.empty(n_retained)
    lgamma_y = gammaln(data.y + 1.0)
    log_E = np.log(data.E)

    win_phi = np.zeros(n)
    win_tau = 0
    win_alpha = np.zeros(q)
    batch = 0
    post_phi = np.zeros(n)
    post_tau = 0
    post_alpha = np.zeros(q)
    idx = 0
    total = config.burn_in + config.keep
    for it in range(total):
        update_phi(state, data, np.exp(log_phi_steps), rng)
        update_mu(state, rng, config.prior_mu_var)
        update_tau2(state, math.exp(log_tau_step), rng, config.tau_max)
        if sample_alpha:
            update_alpha(state, dis, np.exp(log_alpha_steps), M, rng)
        burn = it < config.burn_in
        if burn:
            win_phi += state.last_accept["phi"]
            win_tau += state.last_accept["tau2"]
            if sample_alpha:
                win_alpha += state.last_accept["alpha"]
            if (it + 1) % config.adapt_window == 0:
                batch += 1
                delta = min(0.25, 1.0 / math.sqrt(batch))
                target = config.adapt_target
                rate = win_phi / config.adapt_window
                log_phi_steps += np.where(rate > target, delta, -delta)
                np.clip(log_phi_steps, -15.0, 5.0, out=log_phi_steps)
                log_tau_step += delta if win_tau / config.adapt_window > target else -delta
                log_tau_step = min(max(log_tau_step, -15.0), 5.0)
                if sample_alpha:
                    arate = win_alpha / config.adapt_window
                    log_alpha_steps += np.where(arate > target, delta, -delta)
                    np.clip(log_alpha_steps, -15.0, 5.0, out=log_alpha_steps)
                win_phi[:] = 0.0
                win_tau = 0
                win_alpha[:] = 0.0
        else:
            post_phi += state.last_accept["phi"]
            post_tau += state.last_accept["tau2"]
            if sample_alpha:
                post_alpha += state.last_accept["alpha"]
            if (it - config.burn_in + 1) % config.thin == 0 and idx < n_retained:
                out_phi[idx] = state.phi
                out_mu[idx] = state.params.mu
                out_tau2[idx] = state.params.tau2
                if q:
                    out_alpha[idx] = state.params.alpha
                out_w[idx] = state.adj.w
                out_dev[idx] = -2.0 * float(np.sum(
                    data.y * (log_E + state.phi) - data.E * np.exp(state.phi)
                    - lgamma_y))
                idx += 1
    return {
        "phi": out_phi, "mu": out_mu, "tau2": out_tau2, "alpha": out_alpha,
        "w": out_w, "deviance": out_dev,
        "accept_phi": post_phi / config.keep,
        "accept_tau2": post_tau / config.keep,
        "accept_alpha": post_alpha / config.keep,
    }


def run_chains(data: ObservedData, graph: AreaGraph,
               dis: Optional[DissimilarityData],
               config: ChainConfig) -> PosteriorSamples:
    """Run the configured chains and merge their retained draws.

    Chains are seeded from (config.seed, chain index) and initialised at
    dispersed locations; the per-border w indicator is recorded at every
    retained iteration. Identical inputs produce identical output arrays,
    regardless of `workers`.
    """
    config.validate()
    if data.n != graph.n:
        raise ValidationError("data length does not match the graph")
    if config.fixed_w is not None:
        fw = np.asarray(config.fixed_w)
        if fw.shape != (graph.n_borders,) or not np.isin(fw, (0, 1)).all():
            raise ValidationError("fixed_w must be a 0/1 vector with one entry per border")
    if dis is not None and config.fixed_w is None:
        M = np.array([alpha_prior_upper(dis, i, config.max_boundary_fraction)
                      for i in range(dis.q)])
    else:
        M = np.zeros(0)

    if config.workers > 1 and config.n_chains > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_run_chain, c, data, graph, dis, config, M)
                       for c in range(config.n_chains)]
            results = [f.result() for f in futures]
    else:
        results = [_run_chain(c, data, graph, dis, config, M)
                   for c in range(config.n_chains)]

    stack = lambda key: np.stack([r[key] for r in results])
    return PosteriorSamples(
        phi=stack("phi"), mu=stack("mu"), tau2=stack("tau2"),
        alpha=stack("alpha"), w=stack("w"), deviance=stack("deviance"),
        acceptance={
            "phi": stack("accept_phi"),
            "tau2": np.array([r["accept_tau2"] for r in results]),
            "alpha": stack("accept_alpha"),
        },
        graph=graph, dis=dis, config=config, alpha_upper=M)


def deviance_at(r_hat: np.ndarray, data: ObservedData) -> float:
    """Poisson deviance -2 sum[y ln(E R) - E R - ln(y!)] at a fixed risk
    vector, constants retained."""
    mean = data.E * r_hat
    return -2.0 * float(np.sum(data.y * np.log(mean) - mean
                               - gammaln(data.y + 1.0)))


def dic(samples: PosteriorSamples, data: ObservedData) -> DicResult:
    """Deviance information criterion with the plug-in evaluated at the
    posterior mean of R_k (risk scale, not phi scale)."""
    dev = samples.pooled("deviance")
    if dev.size == 0:
        raise ValidationError("empty samples")
    mean_dev = float(dev.mean())
    r_bar = samples.risk_draws().mean(axis=0)
    d_hat = deviance_at(r_bar, data)
    p_d = mean_dev - d_hat
    return DicResult(dic=mean_dev + p_d, p_d=p_d, mean_deviance=mean_dev)


def gelman_rubin(chains: np.ndarray) -> float:
    """Potential scale reduction factor for one scalar parameter.

    `chains` is (n_chains, length); values near 1 indicate convergence.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2 or chains.shape[0] < 2 or chains.shape[1] < 2:
        raise ValidationError("gelman_rubin needs >= 2 chains of length >= 2")
    m, length = chains.shape
    within = chains.var(axis=1, ddof=1).mean()
    means = chains.mean(axis=1)
    between = length * means.var(ddof=1)
    v_hat = (length - 1) / length * within + (m + 1) / (m * length) * between
    if within == 0.0:
        return 1.0
    return float(np.sqrt(v_hat / within))


def effective_sample_size(chains: np.ndarray) -> float:
    """Autocorrelation-based ESS, summed over chains (Geyer initial positive
    sequence on each chain)."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    total = 0.0
    for x in chains:
        length = x.shape[0]
        x = x - x.mean()
        var = float(np.dot(x, x)) / length
        if var == 0.0 or length < 4:
            total += length
            continue
        nfft = 1 << (2 * length - 1).bit_length()
        f = np.fft.rfft(x, nfft)
        acf = np.fft.irfft(f * np.conj(f), nfft)[:length].real
        acf = acf / acf[0]
        # sum adjacent pairs while positive
        s = 0.0
        t = 1
        while t + 1 < length:
            pair = acf[t] + acf[t + 1]
            if pair <= 0.0:
                break
            s += pair
            t += 2
        total += length / max(1.0, 1.0 + 2.0 * s)
    return float(total)
