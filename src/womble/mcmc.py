"""Metropolis-within-Gibbs sampler for the boundary-detection model.

Model: y_k ~ Poisson(E_k R_k) with ln R_k = phi_k; phi follows the CAR prior
of :mod:`womble.car` with adjacency determined by evaluate_w(alpha) and
rho = car.RHO; mu has a N(0, PRIOR_MU_VAR) prior, the standard deviation
sqrt(tau2) a Uniform(0, TAU_MAX) prior, and each alpha_i a Uniform(0, M_i)
prior with M_i from alpha_prior_upper. Without dissimilarity metrics there is
no alpha: every border is kept, which is the ordinary smoothing model of the
BLV baseline.

Update scheme, one iteration:

* phi: per-area random-walk Metropolis, swept in graph-coloring blocks (a
  block's members share no border, so their full conditionals depend only on
  areas outside the block; each area keeps its own accept/reject decision).
* mu: exact Gibbs draw. W* has zero row sums, so 1'Q1 = (1-rho) n and
  1'Q phi = (1-rho) sum(phi), making the conditional trivially cheap.
* tau2: random-walk Metropolis on ln(tau2) with Jacobian correction,
  hard-rejecting sqrt(tau2) > TAU_MAX.
* alpha: component-wise truncated random-walk Metropolis. A proposal that
  leaves the border assignment unchanged is accepted outright (uniform prior,
  symmetric proposal, identical CAR density); otherwise the ratio uses the
  full CAR density including (1/2) log|Q(alpha)|. Each chain memoizes log|Q|
  by border assignment (at most LOGDET_MEMO_CAP entries, oldest evicted
  first), so Q is factorized only for assignments the chain has not seen or
  has evicted; a hit returns the float a refactorization would. A miss that
  raises alpha_i only severs borders (z >= 0), so log|Q| changes by at most
  the sum of their car.cut_bounds: when the proposal fails against that
  bound (with CUT_BOUND_SLACK to spare), it is rejected unfactorized and not
  remembered. The uniform is drawn before the memo lookup, where nothing
  else draws, so every decision and draw is the one the full ratio makes.
  The bounds are built in the chain's process at its first such miss.

Step sizes start at PHI_STEP, TAU2_STEP and ALPHA_STEP_FRACTION * M_i, adapt
toward ADAPT_TARGET acceptance in batches of ADAPT_WINDOW burn-in iterations
(Robbins-Monro style), and are frozen afterward.

Each chain runs on a plain mutable ModelState, validated once when built;
a block changes it in place and returns what it accepted. An iteration
computes d^T Q d (d = phi - mu) once for the tau2 and alpha blocks; the phi
sweep keeps its border weights and denominators until the assignment changes.

Chains are independent: each derives its own random stream from
(seed, chain index) and owns all mutable state, so results are identical
whether chains run sequentially or in a process pool. The graph's band plan
(RCM ordering and scipy's banded Cholesky) and ln(y!) are built in the
parent before the pool forks, so workers receive them pickled with the graph
and the data, with the scipy modules they use already loaded. Retained phi
goes to one temporary file under TMPDIR, each chain writing its own slice;
the merged samples map it read-only, and the output stage reduces it a block
of areas at a time (RISK_BLOCK_BYTES).
"""

import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .car import (RHO, CarParams, PrecisionStructure, _band_plan,
                  build_precision, cut_bounds, log_density_phi,
                  precision_quadform)
from .errors import NumericError, ValidationError
from .graph import (AdjacencyState, AreaGraph, DissimilarityData,
                    adjacency_from_w, alpha_prior_upper, evaluate_w)
from .rng import CHAIN, derive_rng

PHI_GUARD = 50.0  # proposals beyond +-50 on the log-risk scale are rejected
PRIOR_MU_VAR = 10.0  # mu ~ N(0, PRIOR_MU_VAR)
TAU_MAX = 10.0  # sqrt(tau2) ~ Uniform(0, TAU_MAX)
# initial random-walk step sizes; alpha_i starts at ALPHA_STEP_FRACTION * M_i
PHI_STEP = 0.5
TAU2_STEP = 0.5
ALPHA_STEP_FRACTION = 0.1
# burn-in adaptation: batch length and target acceptance rate
ADAPT_WINDOW = 100
ADAPT_TARGET = 0.44
# border assignments whose log|Q| one chain remembers; about B/8 bytes each
LOGDET_MEMO_CAP = 4096
# margin of the cut bound over the exact ratio, far above the rounding in
# either log|Q|, so a bound rejection is one the exact test also makes
CUT_BOUND_SLACK = 1e-6
# temporary file of retained phi, (chains, draws, areas) float64, under TMPDIR
PHI_FILE_PREFIX = "womble-phi-"
# exp(phi) is reduced over blocks of areas of one to two times this many bytes
RISK_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class ObservedData:
    """Disease counts and expected counts per area, and ln(y!), the Poisson
    deviance's constant term."""

    y: np.ndarray
    E: np.ndarray
    _lgamma_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if y.ndim != 1 or y.shape != E.shape:
            raise ValidationError("y and E must be 1-D arrays of equal length")
        if not np.isfinite(y).all() or (y < 0).any() or np.any(y != np.floor(y)):
            raise ValidationError("y must contain finite non-negative integers")
        if not np.isfinite(E).all() or (E <= 0).any():
            raise ValidationError("E must contain finite positive values")
        from scipy.special import gammaln
        lgamma_y = gammaln(y + 1.0)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "_lgamma_y", lgamma_y)
        for a in (y, E, lgamma_y):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class ChainConfig:
    """Sampler run configuration, the settings the CLI exposes; defaults
    follow the full multi-chain protocol (five chains, 40k burn-in, 10k
    retained each). Priors and step-size tuning are module constants; whether
    alpha is sampled follows from the metrics given to run_chains. Checked
    when built, so every ChainConfig is a valid one."""

    n_chains: int = 5
    burn_in: int = 40000
    keep: int = 10000
    thin: int = 1
    seed: int = 0
    max_boundary_fraction: float = 0.5
    workers: int = 1

    def __post_init__(self):
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
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        # NaN fails the comparison, so it is rejected too
        if not 0.0 < self.max_boundary_fraction <= 1.0:
            raise ValidationError("max_boundary_fraction must be in (0, 1]")


class ModelState:
    """One chain's state as plain attributes, changed in place: phi, mu, tau2,
    rho, alpha, `adj` (evaluate_w at alpha; all borders without metrics) and
    `log_det` (log|Q| for `adj`). `params` gets and sets a validated CarParams."""

    def __init__(self, phi: np.ndarray, params: CarParams, adj: AdjacencyState,
                 prec: PrecisionStructure):
        self.phi = phi
        self.params = params
        self.adj = adj
        self.log_det = prec.log_det
        # packed border assignment -> log|Q| at rho, in insertion order
        self.logdet_memo = {}
        self.sweep = None  # update_phi's cached inputs, a _Sweep

    @property
    def params(self) -> CarParams:
        return CarParams(mu=self.mu, tau2=self.tau2, rho=self.rho, alpha=self.alpha)

    @params.setter
    def params(self, p: CarParams):
        self.mu, self.tau2, self.rho, self.alpha = p.mu, p.tau2, p.rho, p.alpha

    def remember_log_det(self, key: bytes, log_det: float):
        memo = self.logdet_memo
        memo[key] = log_det
        while len(memo) > LOGDET_MEMO_CAP:
            del memo[next(iter(memo))]

    def log_post(self, data: ObservedData) -> float:
        """Joint log-posterior up to prior normalizing constants."""
        lp = log_density_phi(self.phi, self.params,
                             PrecisionStructure(self.adj, self.rho, self.log_det))
        lp += -0.5 * self.mu ** 2 / PRIOR_MU_VAR
        lp += -0.5 * math.log(self.tau2)
        lp += float(np.sum(data.y * (np.log(data.E) + self.phi)
                           - data.E * np.exp(self.phi)))
        return lp


def _sweep_tables(graph: AreaGraph) -> list:
    """Per-colour edge incidence (members, rows, nbr, bidx), once per graph."""
    tables = graph._cache.get("sweep_tables")
    if tables is None:
        nbrs, bids = graph.incidence
        tables = [(members,
                   np.repeat(np.arange(members.shape[0]), [len(nbrs[k]) for k in members]),
                   np.concatenate([nbrs[k] for k in members]),
                   np.concatenate([bids[k] for k in members]))
                  for members in graph.coloring]
        graph._cache["sweep_tables"] = tables
    return tables


class _Sweep:
    """One chain's per-colour phi-sweep inputs: y and E gathers, and border
    weights and denominators rho * row_sums + (1 - rho) per assignment."""

    def __init__(self, graph: AreaGraph, data: Optional[ObservedData]):
        self.tables = _sweep_tables(graph)
        self.data = data
        self.obs = [(None, None) if data is None else (data.y[t[0]], data.E[t[0]])
                    for t in self.tables]
        self.adj = self.rho = None

    def weights(self, adj: AdjacencyState, rho: float) -> list:
        if adj is not self.adj or rho != self.rho:
            wf = adj.w.astype(np.float64)
            rs = adj.row_sums.astype(np.float64)
            self._weights = [(wf[bidx], rho * rs[members] + (1.0 - rho))
                             for members, _, _, bidx in self.tables]
            self.adj, self.rho = adj, rho
        return self._weights


def update_phi(state: ModelState, data: Optional[ObservedData],
               steps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One sweep of per-area random-walk Metropolis on phi; returns the
    per-area acceptance flags.

    With data=None the likelihood term is dropped and the sweep targets the
    CAR prior alone (used by sampler-validation tests).
    """
    sweep = state.sweep
    if sweep is None or sweep.data is not data:
        sweep = state.sweep = _Sweep(state.adj.graph, data)
    rho, tau2, phi = state.rho, state.tau2, state.phi
    mu_term = (1.0 - rho) * state.mu
    accept = np.zeros(phi.shape[0], dtype=bool)
    for (members, rows, nbr, _), (wsel, denom), (y, E) in zip(
            sweep.tables, sweep.weights(state.adj, rho), sweep.obs):
        m = members.shape[0]
        s = np.bincount(rows, weights=wsel * phi[nbr], minlength=m)
        pmean = (rho * s + mu_term) / denom
        pvar = tau2 / denom
        cur = phi[members]
        prop = cur + steps[members] * rng.standard_normal(m)
        delta = ((cur - pmean) ** 2 - (prop - pmean) ** 2) / (2.0 * pvar)
        if y is not None:
            delta = delta + (y * (prop - cur) - E * (np.exp(prop) - np.exp(cur)))
        ok = (np.log(rng.random(m)) < delta) & (np.abs(prop) <= PHI_GUARD)
        phi[members] = np.where(ok, prop, cur)
        accept[members] = ok
    return accept


def update_mu(state: ModelState, rng: np.random.Generator):
    """Gibbs draw of mu from its exact Gaussian full conditional.

    Conditional precision is 1'Q1 / tau2 + 1/PRIOR_MU_VAR and the mean is
    (1'Q phi / tau2) / precision; with W* having zero row sums these reduce
    to (1-rho) n / tau2 + 1/PRIOR_MU_VAR and (1-rho) sum(phi) / tau2.
    """
    one_q_one = (1.0 - state.rho) * state.phi.shape[0]
    one_q_phi = (1.0 - state.rho) * float(state.phi.sum())
    prec = one_q_one / state.tau2 + 1.0 / PRIOR_MU_VAR
    mean = (one_q_phi / state.tau2) / prec
    state.mu = mean + rng.standard_normal() / math.sqrt(prec)


def update_tau2(state: ModelState, step: float, rng: np.random.Generator,
                quad: float) -> bool:
    """Random-walk Metropolis on ln(tau2) with Jacobian correction; returns
    whether the proposal was accepted.

    The Uniform(0, TAU_MAX) prior on the standard deviation scale contributes
    a (tau2)^(-1/2) factor on the variance scale; proposals with
    sqrt(tau2) > TAU_MAX are rejected outright. `quad` is d^T Q d at the
    current state, d = phi - mu.
    """
    n = state.phi.shape[0]
    u = math.log(state.tau2)
    u_prop = u + step * rng.standard_normal()
    accepted = False
    if u_prop <= 2.0 * math.log(TAU_MAX):
        def target(x):
            return -0.5 * n * x - 0.5 * quad * math.exp(-x) + 0.5 * x
        if math.log(rng.random()) < target(u_prop) - target(u):
            state.tau2 = math.exp(u_prop)
            accepted = True
    return accepted


def update_alpha(state: ModelState, dis: DissimilarityData, steps: np.ndarray,
                 M: np.ndarray, rng: np.random.Generator,
                 quad: float) -> np.ndarray:
    """Component-wise truncated random-walk Metropolis on alpha; returns the
    per-component acceptance flags.

    Every proposal inside the prior's support goes through evaluate_w.
    Proposals whose assignment is unchanged are accepted outright; every
    other one is judged by a full CAR-density comparison, taking log|Q| from
    the state's memo and factorizing Q only for an assignment not in it and,
    when the proposal only severs borders, not already rejected by the cut
    bound.
    `quad` is d^T Q d at the current state, d = phi - mu.
    """
    graph, rho, tau2 = state.adj.graph, state.rho, state.tau2
    accept = np.zeros(len(M), dtype=bool)
    d = state.phi - state.mu
    for i in range(len(M)):
        prop_i = state.alpha[i] + steps[i] * rng.standard_normal()
        if prop_i < 0.0 or prop_i > M[i]:
            continue
        alpha_prop = state.alpha.copy()
        alpha_prop[i] = prop_i
        adj_prop = evaluate_w(graph, dis, alpha_prop)
        if adj_prop.key == state.adj.key:
            state.alpha = alpha_prop
            accept[i] = True
            continue
        log_u = math.log(rng.random())
        quad_prop = precision_quadform(adj_prop, rho, d)
        quad_term = (quad_prop - quad) / (2.0 * tau2)
        log_det = state.logdet_memo.get(adj_prop.key)
        if log_det is None:
            # z >= 0, so raising alpha_i only severs borders, and log|Q|
            # changes by at most the sum of their cut bounds: when even that
            # bound rejects, the exact ratio would reject too
            if prop_i > state.alpha[i]:
                cut = state.adj.w > adj_prop.w
                bound = 0.5 * float(cut_bounds(graph, rho)[cut].sum()) - quad_term
                if log_u >= bound + CUT_BOUND_SLACK:
                    continue
            log_det = build_precision(adj_prop, rho).log_det
            state.remember_log_det(adj_prop.key, log_det)
        delta = 0.5 * (log_det - state.log_det) - quad_term
        if log_u < delta:
            state.alpha, state.adj, state.log_det = alpha_prop, adj_prop, log_det
            quad = quad_prop
            accept[i] = True
    return accept


class DicResult(NamedTuple):
    dic: float
    p_d: float
    mean_deviance: float


@dataclass
class PosteriorSamples:
    """Thinned multi-chain draws plus the per-border w trace.

    Arrays are indexed (chain, draw, ...); pooled views flatten the first two
    axes with chains kept contiguous. `run_chains` gives phi as a read-only
    map of a temporary file that is already unlinked.
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

    def pooled(self, name: str) -> np.ndarray:
        """The draws of `name` with the chain and draw axes merged."""
        a = getattr(self, name)
        return a.reshape(-1, *a.shape[2:])

    def _risk_blocks(self):
        """Yield (areas, exp(phi)) over blocks of areas: a slice and the
        pooled (draws, areas) risk draws, one to two RISK_BLOCK_BYTES each.

        numpy sums a one-area block pairwise but a wider one draw by draw,
        as it does the whole map, so blocks hold at least two areas."""
        phi = self.phi.reshape(-1, self.phi.shape[2])
        draws, n = phi.shape
        n_blocks = max(1, n // max(2, RISK_BLOCK_BYTES // (8 * draws)))
        edges = [n * i // n_blocks for i in range(n_blocks + 1)]
        for start, stop in zip(edges, edges[1:]):
            yield slice(start, stop), np.exp(phi[:, start:stop])

    def risk_median(self) -> np.ndarray:
        """Posterior median of each area's risk R_k."""
        med = np.empty(self.phi.shape[2])
        for areas, r in self._risk_blocks():
            # numpy reduces along rows several times faster, same values
            med[areas] = np.median(r.T.copy(), axis=1)
        return med

    def risk_summary(self):
        """Posterior median, 2.5% and 97.5% points of each area's risk."""
        med, lo, hi = (np.empty(self.phi.shape[2]) for _ in range(3))
        for areas, r in self._risk_blocks():
            r = r.T.copy()
            med[areas] = np.median(r, axis=1)
            lo[areas] = np.percentile(r, 2.5, axis=1)
            hi[areas] = np.percentile(r, 97.5, axis=1)
        return med, lo, hi


def _initial_state(data: ObservedData, graph: AreaGraph,
                   dis: Optional[DissimilarityData], M: np.ndarray,
                   rng: np.random.Generator) -> ModelState:
    # dispersed initialization: empirical log-SIR with unit jitter for phi,
    # prior draws for mu / tau / alpha
    for _ in range(100):
        phi = rng.normal(np.log(data.y + 0.5) - np.log(data.E), 1.0)
        mu = rng.normal(0.0, math.sqrt(PRIOR_MU_VAR))
        tau2 = rng.uniform(0.0, TAU_MAX) ** 2
        if M.size:
            alpha = rng.uniform(0.0, M)
            adj = evaluate_w(graph, dis, alpha)
        else:
            alpha = np.zeros(0)
            adj = adjacency_from_w(graph, np.ones(graph.n_borders, dtype=np.uint8))
        if tau2 == 0.0:
            continue
        params = CarParams(mu=mu, tau2=tau2, rho=RHO, alpha=alpha)
        state = ModelState(phi=phi, params=params, adj=adj,
                           prec=build_precision(adj, RHO))
        state.remember_log_det(adj.key, state.log_det)
        # overflow here just means "re-draw", not an error
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(state.log_post(data))
        if finite:
            return state
    raise NumericError("non-finite log-posterior at initialization after 100 re-draws")


def _run_chain(chain_idx: int, data: ObservedData, graph: AreaGraph,
               dis: Optional[DissimilarityData], config: ChainConfig,
               M: np.ndarray, phi_path: str) -> dict:
    """Run one chain, writing its retained phi into its (draws, n) slice of
    the float64 file at `phi_path`; return the other draws."""
    rng = derive_rng(config.seed, CHAIN, chain_idx)
    state = _initial_state(data, graph, dis, M, rng)
    n, b, q = graph.n, graph.n_borders, M.size

    log_phi_steps = np.full(n, math.log(PHI_STEP))
    log_tau_step = math.log(TAU2_STEP)
    log_alpha_steps = np.log(ALPHA_STEP_FRACTION * M)
    phi_steps, tau_step = np.exp(log_phi_steps), math.exp(log_tau_step)
    alpha_steps = np.exp(log_alpha_steps)

    n_retained = config.keep // config.thin
    out_phi = np.memmap(phi_path, dtype=np.float64, mode="r+",
                        offset=8 * chain_idx * n_retained * n, shape=(n_retained, n))
    out_mu = np.empty(n_retained)
    out_tau2 = np.empty(n_retained)
    out_alpha = np.empty((n_retained, q))
    out_w = np.empty((n_retained, b), dtype=np.uint8)
    out_dev = np.empty(n_retained)
    log_E = np.log(data.E)

    # acceptance counts: per adaptation window in burn-in, then over the kept run
    hits_phi, hits_tau, hits_alpha = np.zeros(n), 0, np.zeros(q)
    batch = 0
    idx = 0
    burn_in, window, target = config.burn_in, ADAPT_WINDOW, ADAPT_TARGET
    for it in range(burn_in + config.keep):
        if it == burn_in:
            hits_phi[:], hits_tau, hits_alpha[:] = 0.0, 0, 0.0
        hits_phi += update_phi(state, data, phi_steps, rng)
        update_mu(state, rng)
        # tau2 changes none of phi, mu and w: one d^T Q d serves both blocks
        quad = precision_quadform(state.adj, state.rho, state.phi - state.mu)
        hits_tau += update_tau2(state, tau_step, rng, quad)
        if q:
            hits_alpha += update_alpha(state, dis, alpha_steps, M, rng, quad)
        if it < burn_in:
            if (it + 1) % window == 0:
                batch += 1
                delta = min(0.25, 1.0 / math.sqrt(batch))
                log_phi_steps += np.where(hits_phi / window > target, delta, -delta)
                np.clip(log_phi_steps, -15.0, 5.0, out=log_phi_steps)
                log_tau_step += delta if hits_tau / window > target else -delta
                log_tau_step = min(max(log_tau_step, -15.0), 5.0)
                log_alpha_steps += np.where(hits_alpha / window > target, delta, -delta)
                np.clip(log_alpha_steps, -15.0, 5.0, out=log_alpha_steps)
                phi_steps, tau_step = np.exp(log_phi_steps), math.exp(log_tau_step)
                alpha_steps = np.exp(log_alpha_steps)
                hits_phi[:], hits_tau, hits_alpha[:] = 0.0, 0, 0.0
        elif (it - burn_in + 1) % config.thin == 0 and idx < n_retained:
            out_phi[idx] = state.phi
            out_mu[idx] = state.mu
            out_tau2[idx] = state.tau2
            out_alpha[idx] = state.alpha
            out_w[idx] = state.adj.w
            out_dev[idx] = _deviance(data.y, log_E + state.phi,
                                     data.E * np.exp(state.phi), data._lgamma_y)
            idx += 1
    return {
        "mu": out_mu, "tau2": out_tau2, "alpha": out_alpha,
        "w": out_w, "deviance": out_dev,
        "accept_phi": hits_phi / config.keep,
        "accept_tau2": hits_tau / config.keep,
        "accept_alpha": hits_alpha / config.keep,
    }


def run_chains(data: ObservedData, graph: AreaGraph,
               dis: Optional[DissimilarityData],
               config: ChainConfig) -> PosteriorSamples:
    """Run the configured chains and merge their retained draws.

    Alpha is sampled iff there are metrics; with dis=None every border is
    kept, the BLV baseline's smoothing model. Chains are seeded from
    (config.seed, chain index) and initialised at dispersed locations; the
    per-border w indicator is recorded at every retained iteration. Identical
    inputs produce identical output arrays, regardless of `workers`.

    Retained phi is written to one temporary file of chains x (keep // thin)
    x n float64 under TMPDIR, reserved before any chain starts (an OSError
    if the disk cannot hold it). The file is unlinked before returning;
    `phi` maps it read-only until the samples are released.

    The graph's band plan is built here, before the pool forks (see the
    module docstring). `config` was checked when it was built.
    """
    if data.n != graph.n:
        raise ValidationError("data length does not match the graph")
    M = alpha_upper_bounds(dis, config.max_boundary_fraction)
    _band_plan(graph)

    shape = (config.n_chains, config.keep // config.thin, graph.n)
    nbytes = 8 * math.prod(shape)
    with tempfile.NamedTemporaryFile(prefix=PHI_FILE_PREFIX) as fh:
        # reserved up front, so a full disk fails here and not as a SIGBUS
        # when a chain first writes to a page of the map
        try:
            os.posix_fallocate(fh.fileno(), 0, nbytes)
        except OSError as exc:
            raise OSError(exc.errno, f"cannot reserve {nbytes} bytes for "
                          f"retained phi (chains x keep // thin x areas x 8) "
                          f"in {fh.name}: {exc.strerror}") from exc
        results = run_tasks(_run_chain, [(c, data, graph, dis, config, M, fh.name)
                                         for c in range(config.n_chains)],
                            config.workers)
        phi = np.memmap(fh.name, dtype=np.float64, mode="r", shape=shape)
    stack = lambda key: np.stack([r[key] for r in results])
    return PosteriorSamples(
        phi=phi, mu=stack("mu"), tau2=stack("tau2"),
        alpha=stack("alpha"), w=stack("w"), deviance=stack("deviance"),
        acceptance={b: stack("accept_" + b) for b in ("phi", "tau2", "alpha")},
        graph=graph, dis=dis)


def alpha_upper_bounds(dis: Optional[DissimilarityData],
                       max_boundary_fraction: float) -> np.ndarray:
    """M, one alpha_prior_upper per metric; a zero bound raises here."""
    return np.array([alpha_prior_upper(dis, i, max_boundary_fraction)
                     for i in range(0 if dis is None else dis.q)])


def run_tasks(fn, tasks: list, workers: int) -> list:
    """[fn(*t) for t in tasks], in a pool of min(workers, tasks) processes
    when that exceeds one; the results are the same."""
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, *t) for t in tasks]
            return [f.result() for f in futures]
    return [fn(*t) for t in tasks]


def _deviance(y, log_mean, mean, lgamma_y) -> float:
    return -2.0 * float((y * log_mean - mean - lgamma_y).sum())


def deviance_at(r_hat: np.ndarray, data: ObservedData) -> float:
    """Poisson deviance -2 sum[y ln(E R) - E R - ln(y!)] at a fixed risk
    vector, constants retained."""
    mean = data.E * r_hat
    return _deviance(data.y, np.log(mean), mean, data._lgamma_y)


def dic(samples: PosteriorSamples, data: ObservedData) -> DicResult:
    """Deviance information criterion with the plug-in evaluated at the
    posterior mean of R_k (risk scale, not phi scale)."""
    dev = samples.pooled("deviance")
    if dev.size == 0:
        raise ValidationError("empty samples")
    mean_dev = float(dev.mean())
    r_bar = np.empty(samples.phi.shape[2])
    for areas, r in samples._risk_blocks():
        r_bar[areas] = r.mean(axis=0)
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
