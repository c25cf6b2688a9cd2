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
  full CAR density including (1/2) log|Q(alpha)|, from the memo that the
  chains of one process share (_log_det). A miss that raises alpha_i only
  severs borders (z >= 0), so log|Q| changes by at most the sum of their
  car.cut_bounds; one that lowers alpha_i only restores borders, so log|Q|
  rises by at most the sum of their car.restore_bounds; run_chains computes
  both vectors once per run. When the proposal fails against its bound (with
  CUT_BOUND_SLACK to spare), it is rejected unfactorized and not remembered.
  The uniform is drawn before the memo lookup, where nothing else draws, so
  every decision and draw is the one the full ratio makes. Every proposal's
  d^T Q d comes from per-border squared differences of d = phi - mu that the
  block computes once.

Step sizes start at PHI_STEP, TAU2_STEP and ALPHA_STEP_FRACTION * M_i, adapt
toward ADAPT_TARGET acceptance in batches of ADAPT_WINDOW burn-in iterations
(Robbins-Monro style), and are frozen afterward.

Each chain runs on a plain mutable ModelState, validated once when built;
a block changes it in place and returns what it accepted. An iteration
computes d^T Q d (d = phi - mu) once for the tau2 and alpha blocks; the phi
sweep keeps its border weights and denominators until the assignment changes.

Chains are independent: each derives its own random stream from
(seed, chain index) and owns all mutable state but the log|Q| memo, whose
entries are the same whichever chain made them, so results are identical
whether chains run sequentially or in a process pool. The graph's band plan
(RCM ordering and scipy's banded Cholesky), the alpha block's cut and
restore bounds and ln(y!) are built in the parent before the pool forks; the
pool's workers get the graph, the data, the settings and the bounds once,
through its initializer (inherited, not pickled, where the pool forks), with
the scipy modules they use already loaded, and each task carries only its
chain index.

Retained phi and w go to one temporary file under TMPDIR, each chain writing
its own slices: phi in buffers of a few megabytes of draws (RISK_BLOCK_BYTES),
each stored area by area, then one row of w per retained draw. A chain
returns only the number of retained draws in which each border is kept.
PosteriorSamples.risk_summary is the one reader of phi: in one pass it reads
a block of areas at a time through a read-only descriptor, one read per
chain and buffer, and returns the risk medians, intervals and the posterior
mean of R that dic takes. It holds one area-major buffer of the widest block
and one stage of a chain's share of it, so no process holds all retained
draws.
"""

import errno
import math
import os
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .car import (RHO, CarParams, PrecisionStructure, _band_plan,
                  build_precision, cut_bounds, log_density_phi,
                  precision_quadform, restore_bounds)
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
# assignments whose log|Q| a process remembers per graph and rho; ~B/8 bytes each
LOGDET_MEMO_CAP = 4096
# margin of both bounds over the exact ratio, far above the rounding in
# either log|Q|, so a bound rejection is one the exact test also makes
CUT_BOUND_SLACK = 1e-6
# temporary file of retained phi and w under TMPDIR (see _DrawLayout)
PHI_FILE_PREFIX = "womble-phi-"
# a chain buffers at most this many bytes of retained phi per write, and
# risk_summary reduces exp(phi) over blocks of areas of one to two times this
# many bytes, each read into one reused buffer
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
                 log_det: float):
        self.phi = phi
        self.params = params
        self.adj = adj
        self.log_det = log_det
        self.sweep = None  # update_phi's cached inputs, a _Sweep

    @property
    def params(self) -> CarParams:
        return CarParams(mu=self.mu, tau2=self.tau2, rho=self.rho, alpha=self.alpha)

    @params.setter
    def params(self, p: CarParams):
        self.mu, self.tau2, self.rho, self.alpha = p.mu, p.tau2, p.rho, p.alpha

    def log_post(self, data: ObservedData) -> float:
        """Joint log-posterior up to prior normalizing constants."""
        lp = log_density_phi(self.phi, self.params,
                             PrecisionStructure(self.adj, self.rho, self.log_det))
        lp += -0.5 * self.mu ** 2 / PRIOR_MU_VAR
        lp += -0.5 * math.log(self.tau2)
        lp += float(np.sum(data.y * (np.log(data.E) + self.phi)
                           - data.E * np.exp(self.phi)))
        return lp


def _log_det_memo(graph: AreaGraph, rho: float) -> dict:
    return graph._cache.setdefault(("log_det", rho), {})


def _log_det(adj: AdjacencyState, rho: float) -> float:
    """log|Q| of `adj` at rho from this process's memo on the graph (packed
    assignment -> log|Q|, shared by all its chains), or else factorized and
    remembered, the oldest of over LOGDET_MEMO_CAP entries evicted."""
    memo = _log_det_memo(adj.graph, rho)
    log_det = memo.get(adj.key)
    if log_det is None:
        log_det = memo[adj.key] = build_precision(adj, rho).log_det
        while len(memo) > LOGDET_MEMO_CAP:
            del memo[next(iter(memo))]
    return log_det


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
                 M: np.ndarray, bounds: tuple, rng: np.random.Generator,
                 quad: float) -> np.ndarray:
    """Component-wise truncated random-walk Metropolis on alpha; returns the
    per-component acceptance flags.

    Every proposal inside the prior's support goes through evaluate_w.
    Proposals whose assignment is unchanged are accepted outright; every
    other one is judged by a full CAR-density comparison, with log|Q| from
    _log_det, so Q is factorized only for an assignment this process has not
    remembered and not already rejected by its bound. `bounds` is
    (car.cut_bounds, car.restore_bounds) at the state's rho and M: the first
    when the proposal raises alpha_i (it only severs borders), the second
    when it lowers alpha_i (it only restores them).
    `quad` is d^T Q d at the current state, d = phi - mu.
    """
    graph, rho, tau2 = state.adj.graph, state.rho, state.tau2
    accept = np.zeros(len(M), dtype=bool)
    sq = None  # per-border squared differences of d, at the first w change
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
        if sq is None:
            d = state.phi - state.mu
            # d^T Q d = rho sum_b w_b sq_b + c, as precision_quadform sums it;
            # bit for bit, since each w_b is 0 or 1
            diff = d[graph.borders[:, 0]] - d[graph.borders[:, 1]]
            sq, c = diff * diff, (1.0 - rho) * (d * d).sum()
        quad_prop = float(rho * (adj_prop.w * sq).sum() + c)
        quad_term = (quad_prop - quad) / (2.0 * tau2)
        if adj_prop.key not in _log_det_memo(graph, rho):
            # a miss that raises alpha_i only severs borders, one that lowers
            # it only restores them: try the bound on the flipped borders
            bound = bounds[int(prop_i < state.alpha[i])]
            flipped = state.adj.w != adj_prop.w
            if log_u >= 0.5 * float(bound[flipped].sum()) - quad_term + CUT_BOUND_SLACK:
                continue
        log_det = _log_det(adj_prop, rho)
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


class RiskSummary(NamedTuple):
    """Per area: posterior median, 2.5% and 97.5% points, and mean of R_k."""

    median: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mean: np.ndarray


def median_interval(x: np.ndarray, overwrite_input: bool = False) -> tuple:
    """(median, 2.5% point, 97.5% point) of draws along the last axis: the
    posterior median and equal-tailed 95% interval. With overwrite_input,
    both partition x in place, reordering each row, instead of a copy each."""
    lo, hi = np.percentile(x, [2.5, 97.5], axis=-1, overwrite_input=overwrite_input)
    return np.median(x, axis=-1, overwrite_input=overwrite_input), lo, hi


class _DrawLayout(NamedTuple):
    """Where one run's retained draws lie in its temporary file.

    Chain c's phi fills bytes [8n c m, 8n (c + 1) m) for m = `draws`, in
    buffers of `block` draws (the last one may be shorter); a buffer of k
    draws is stored area-major, as an (n, k) float64 array, so one area's k
    draws are contiguous. The uint8 w rows, `borders` bytes each, follow
    all of the phi, chain by chain and draw by draw."""

    path: str
    chains: int
    draws: int     # retained per chain
    n: int
    borders: int
    block: int

    @property
    def nbytes(self) -> int:
        return self.chains * self.draws * (8 * self.n + self.borders)

    def phi_offset(self, chain: int, draw: int) -> int:
        """Where the phi buffer that starts at `draw` of `chain` begins."""
        return 8 * self.n * (chain * self.draws + draw)

    def buffers(self, chain: int):
        """(draws, byte offset) of each of `chain`'s phi buffers."""
        for start in range(0, self.draws, self.block):
            yield min(self.block, self.draws - start), self.phi_offset(chain, start)

    def w_offset(self, chain: int, draw: int) -> int:
        return (self.phi_offset(self.chains, 0)
                + self.borders * (chain * self.draws + draw))


def _pwrite(fd: int, a: np.ndarray, offset: int):
    if os.pwrite(fd, a, offset) != a.nbytes:
        raise OSError(errno.EIO, "short write to the retained draws file")


class _PhiReader:
    """Reads retained phi back from the (unlinked) draw file through its own
    read-only descriptor, closed when the reader is released."""

    def __init__(self, layout: _DrawLayout):
        self.layout = layout
        self.fd = os.open(layout.path, os.O_RDONLY)
        weakref.finalize(self, os.close, self.fd)

    def chain(self, c: int, areas: slice, stage: np.ndarray, out: np.ndarray):
        """Chain c's draws of a slice of areas (step 1) into `out`, an (areas,
        draws) array, in draw order: one read per buffer into the front of
        the flat `stage`, which must hold a chain's draws of those areas."""
        lay = self.layout
        first = areas.indices(lay.n)[0]
        width = out.shape[0]
        view, pos = memoryview(stage).cast("B"), 0
        for k, offset in lay.buffers(c):
            size = 8 * width * k
            if os.preadv(self.fd, [view[pos:pos + size]], offset + 8 * first * k) != size:
                raise OSError(errno.EIO, "the retained draws file ends early")
            pos += size
        # the full buffers, then the partial one, each stored area-major
        n_full, rest = divmod(lay.draws, lay.block)
        full = n_full * lay.block
        out[:, :full].reshape(width, n_full, lay.block)[:] = (
            stage[:full * width].reshape(n_full, width, lay.block).transpose(1, 0, 2))
        out[:, full:] = stage[full * width:lay.draws * width].reshape(width, rest)

    def __call__(self, areas: slice = slice(None)) -> np.ndarray:
        """The pooled phi of a slice of areas (step 1), area-major: an
        (areas, draws) array, chains in order, read a chain at a time."""
        lay = self.layout
        width = len(range(*areas.indices(lay.n)))
        out = np.empty((width, lay.chains * lay.draws))
        stage = np.empty(width * lay.draws)
        for c in range(lay.chains):
            self.chain(c, areas, stage, out[:, c * lay.draws:(c + 1) * lay.draws])
        return out


@dataclass
class PosteriorSamples:
    """Thinned multi-chain draws, with retained phi and w left on disk.

    Arrays are indexed (chain, draw, ...); pooled views flatten the first two
    axes with chains kept contiguous. `run_chains` leaves phi and w in a
    temporary file that is already unlinked: `phi_draws(areas)` reads the
    pooled phi of a slice of areas, area-major (areas, draws), and `w` maps
    the w trace read-only for benchmarks; nothing in the package reads it,
    since `w_counts` holds what boundary classification needs.
    """

    phi_draws: _PhiReader
    mu: np.ndarray         # (C, m)
    tau2: np.ndarray       # (C, m)
    alpha: np.ndarray      # (C, m, q)
    w: np.ndarray          # (C, m, B) uint8
    w_counts: np.ndarray   # (C, B) int64: retained draws that keep each border
    deviance: np.ndarray   # (C, m)
    acceptance: dict       # block -> (C, ...) post-burn-in acceptance rates
    graph: AreaGraph
    dis: Optional[DissimilarityData]

    def pooled(self, name: str) -> np.ndarray:
        """The draws of `name` with the chain and draw axes merged."""
        a = getattr(self, name)
        return a.reshape(-1, *a.shape[2:])

    def risk_summary(self) -> RiskSummary:
        """Posterior summaries of each area's risk R_k = exp(phi_k), from one
        read of retained phi in blocks of at least two areas and one to two
        RISK_BLOCK_BYTES each.

        A block is read into one area-major (areas, draws) buffer, sized to
        the widest block and reused, a chain at a time through one stage of
        a chain's share of it; exp runs in place on the buffer, and the order
        statistics partition it in place. The mean of R is each area's
        running sum in chain and draw order, a cumsum of each chain's draws
        in the stage with the sum carried in: the order in which numpy sums
        draw-major draws, so its bits do not depend on how the areas are
        blocked."""
        (chains, m), n = self.mu.shape, self.graph.n
        draws = chains * m
        n_blocks = max(1, n // max(2, RISK_BLOCK_BYTES // (8 * draws)))
        edges = [n * i // n_blocks for i in range(n_blocks + 1)]
        widest = max(b - a for a, b in zip(edges, edges[1:]))
        buffer, stage = np.empty(widest * draws), np.empty(widest * m)
        out = RiskSummary(*(np.empty(n) for _ in RiskSummary._fields))
        for start, stop in zip(edges, edges[1:]):
            areas, width = slice(start, stop), stop - start
            r = buffer[:width * draws].reshape(width, draws)
            for c in range(chains):
                self.phi_draws.chain(c, areas, stage, r[:, c * m:(c + 1) * m])
            np.exp(r, out=r)
            scan, total = stage[:width * m].reshape(width, m), np.zeros(width)
            for c in range(chains):
                scan[:] = r[:, c * m:(c + 1) * m]
                scan[:, 0] += total
                np.cumsum(scan, axis=1, out=scan)
                total[:] = scan[:, -1]
            out.mean[areas] = total / draws
            out.median[areas], out.lo[areas], out.hi[areas] = median_interval(
                r, overwrite_input=True)
        return out


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
        state = ModelState(phi, params, adj, _log_det(adj, RHO))
        # overflow here just means "re-draw", not an error
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(state.log_post(data))
        if finite:
            return state
    raise NumericError("non-finite log-posterior at initialization after 100 re-draws")


def _run_chain(chain_idx: int, data: ObservedData, graph: AreaGraph,
               dis: Optional[DissimilarityData], config: ChainConfig,
               M: np.ndarray, bounds: Optional[tuple], layout: _DrawLayout) -> dict:
    """Run one chain, writing its retained phi and w into its slices of the
    draw file (see _DrawLayout); return the other draws and, per border, the
    number of retained draws that keep it."""
    rng = derive_rng(config.seed, CHAIN, chain_idx)
    state = _initial_state(data, graph, dis, M, rng)
    n, b, q = graph.n, graph.n_borders, M.size

    log_phi_steps = np.full(n, math.log(PHI_STEP))
    log_tau_step = math.log(TAU2_STEP)
    log_alpha_steps = np.log(ALPHA_STEP_FRACTION * M)
    phi_steps, tau_step = np.exp(log_phi_steps), math.exp(log_tau_step)
    alpha_steps = np.exp(log_alpha_steps)

    n_retained, block = layout.draws, layout.block
    phi_buffer = np.empty(n * block)
    out_mu = np.empty(n_retained)
    out_tau2 = np.empty(n_retained)
    out_alpha = np.empty((n_retained, q))
    w_counts = np.zeros(b, dtype=np.int64)
    out_dev = np.empty(n_retained)
    log_E = np.log(data.E)

    # acceptance counts: per adaptation window in burn-in, then over the kept run
    hits_phi, hits_tau, hits_alpha = np.zeros(n), 0, np.zeros(q)
    batch = 0
    idx = 0
    burn_in, window, target = config.burn_in, ADAPT_WINDOW, ADAPT_TARGET
    with open(layout.path, "r+b", buffering=0) as fh:
        fd = fh.fileno()
        for it in range(burn_in + config.keep):
            if it == burn_in:
                hits_phi[:], hits_tau, hits_alpha[:] = 0.0, 0, 0.0
            hits_phi += update_phi(state, data, phi_steps, rng)
            update_mu(state, rng)
            # tau2 changes none of phi, mu and w: one d^T Q d serves both blocks
            quad = precision_quadform(state.adj, state.rho, state.phi - state.mu)
            hits_tau += update_tau2(state, tau_step, rng, quad)
            if q:
                hits_alpha += update_alpha(state, dis, alpha_steps, M, bounds, rng, quad)
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
                # the buffer holding draw idx, (n, k) area-major
                j = idx % block
                k = min(block, n_retained - idx + j)
                buffered = phi_buffer[:n * k].reshape(n, k)
                buffered[:, j] = state.phi
                if j == k - 1:
                    _pwrite(fd, buffered, layout.phi_offset(chain_idx, idx - j))
                _pwrite(fd, state.adj.w, layout.w_offset(chain_idx, idx))
                w_counts += state.adj.w
                out_mu[idx] = state.mu
                out_tau2[idx] = state.tau2
                out_alpha[idx] = state.alpha
                out_dev[idx] = _deviance(data.y, log_E + state.phi,
                                         data.E * np.exp(state.phi), data._lgamma_y)
                idx += 1
    return {
        "mu": out_mu, "tau2": out_tau2, "alpha": out_alpha,
        "w_counts": w_counts, "deviance": out_dev,
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

    Retained phi and w are written to one temporary file under TMPDIR of
    chains x (keep // thin) x (8 n + B) bytes, reserved before any chain
    starts (an OSError if the disk cannot hold it). The file is unlinked
    before returning; the samples read phi from it through `phi_draws` and
    map w read-only until they are released.

    The graph's band plan and, with metrics, the alpha block's cut and
    restore bounds are built here, before the pool forks (see the module
    docstring). `config` was checked when it was built.
    """
    if data.n != graph.n:
        raise ValidationError("data length does not match the graph")
    M = alpha_upper_bounds(dis, config.max_boundary_fraction)
    _band_plan(graph)
    bounds = None if dis is None else (cut_bounds(graph, RHO),
                                       restore_bounds(graph, RHO, dis, M))

    n_draws = config.keep // config.thin
    block = min(n_draws, max(1, RISK_BLOCK_BYTES // (8 * graph.n)))
    with tempfile.NamedTemporaryFile(prefix=PHI_FILE_PREFIX) as fh:
        layout = _DrawLayout(fh.name, config.n_chains, n_draws, graph.n,
                             graph.n_borders, block)
        # reserved up front, so a full disk fails here and not part-way
        # through a chain
        try:
            os.posix_fallocate(fh.fileno(), 0, layout.nbytes)
        except OSError as exc:
            raise OSError(exc.errno, f"cannot reserve {layout.nbytes} bytes "
                          f"for retained draws (chains x keep // thin x "
                          f"(8 x areas + borders)) in {fh.name}: "
                          f"{exc.strerror}") from exc
        results = run_tasks(_run_chain, (data, graph, dis, config, M, bounds, layout),
                            config.n_chains, config.workers)
        phi_draws = _PhiReader(layout)
        w = np.memmap(fh.name, dtype=np.uint8, mode="r", offset=layout.w_offset(0, 0),
                      shape=(config.n_chains, n_draws, graph.n_borders))
    stack = lambda key: np.stack([r[key] for r in results])
    return PosteriorSamples(
        phi_draws=phi_draws, mu=stack("mu"), tau2=stack("tau2"),
        alpha=stack("alpha"), w=w, w_counts=stack("w_counts"),
        deviance=stack("deviance"),
        acceptance={b: stack("accept_" + b) for b in ("phi", "tau2", "alpha")},
        graph=graph, dis=dis)


def alpha_upper_bounds(dis: Optional[DissimilarityData],
                       max_boundary_fraction: float) -> np.ndarray:
    """M, one alpha_prior_upper per metric; a zero bound raises here."""
    return np.array([alpha_prior_upper(dis, i, max_boundary_fraction)
                     for i in range(0 if dis is None else dis.q)])


# (fn, shared arguments) of the pool that this process is a worker of; set
# only in pool workers, by the pool's initializer
_shared_task = None


def _share_task(fn, args: tuple):
    global _shared_task
    _shared_task = fn, args


def _run_shared_task(i: int):
    fn, args = _shared_task
    return fn(i, *args)


def run_tasks(fn, args: tuple, n_tasks: int, workers: int) -> list:
    """[fn(i, *args) for i in range(n_tasks)], in a pool of min(workers,
    n_tasks) processes when that exceeds one; the results are the same.

    The pool's workers receive fn and args once, through its initializer,
    and each task carries only its index i."""
    workers = min(workers, n_tasks)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_share_task,
                                 initargs=(fn, args)) as pool:
            futures = [pool.submit(_run_shared_task, i) for i in range(n_tasks)]
            return [f.result() for f in futures]
    return [fn(i, *args) for i in range(n_tasks)]


def _deviance(y, log_mean, mean, lgamma_y) -> float:
    return -2.0 * float((y * log_mean - mean - lgamma_y).sum())


def deviance_at(r_hat: np.ndarray, data: ObservedData) -> float:
    """Poisson deviance -2 sum[y ln(E R) - E R - ln(y!)] at a fixed risk
    vector, constants retained."""
    mean = data.E * r_hat
    return _deviance(data.y, np.log(mean), mean, data._lgamma_y)


def dic(deviance: np.ndarray, r_mean: np.ndarray, data: ObservedData) -> DicResult:
    """Deviance information criterion from the pooled deviance draws, with
    the plug-in evaluated at the posterior mean of R_k (risk scale, not phi
    scale; PosteriorSamples.risk_summary().mean)."""
    if deviance.size == 0:
        raise ValidationError("empty samples")
    mean_dev = float(deviance.mean())
    p_d = mean_dev - deviance_at(r_mean, data)
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
