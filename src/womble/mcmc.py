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
  full CAR density including (1/2) log|Q(alpha)|, from the run's _LogDets
  (one memo that a process's chains share). A miss that raises alpha_i only
  severs borders (z >= 0), so log|Q| changes by at most the sum of their
  car.cut_bounds; one that lowers alpha_i only restores borders, so log|Q|
  rises by at most the sum of their car.restore_bounds; the _LogDets holds
  both vectors, once per run. When the proposal fails against its bound (with
  CUT_BOUND_SLACK to spare), it is rejected unfactorized and not remembered.
  The uniform is drawn before the memo lookup, where nothing else draws, so
  every decision and draw is the one the full ratio makes. Every proposal's
  d^T Q d comes from the terms of car.quadform_terms, the ones that
  precision_quadform sums, which the block computes once.

Step sizes start at PHI_STEP, TAU2_STEP and ALPHA_STEP_FRACTION * M_i, adapt
toward ADAPT_TARGET acceptance in batches of ADAPT_WINDOW burn-in iterations
(Robbins-Monro style), and are frozen afterward: one rule over one vector
of steps and one of acceptance counts for (phi_1..phi_n, ln tau2, alpha_1..
alpha_q). The kept run that follows the burn-in retains every thin-th draw.

Each chain runs on a plain mutable ModelState, which nothing validates: it
starts at dispersed draws and every block keeps its values in their support.
A block changes it in place and returns what it accepted. An iteration
computes d^T Q d (d = phi - mu) once for the tau2 and alpha blocks; the phi
sweep keeps its border weights and Q's diagonal until the assignment changes,
and takes each colour's conditional moments from car.conditional_moments.

Chains are independent: each derives its own random stream from
(seed, chain index) and owns all mutable state but the log|Q| memo, whose
entries are the same whichever chain made them, so results are identical
whether chains run sequentially or in a process pool. The run's _LogDets,
with metrics (its band plan: womble.graph's RCM ordering and scipy.linalg's
banded Cholesky), and ln(y!), when the caller asks for the per-draw deviance
(as `fit`, which writes the DIC, does), are built in the parent before the
pool forks. The pool's workers get the graph, the data, the settings and
the _LogDets once (each its own memo), through its initializer (inherited,
not pickled, where the pool forks), with scipy.linalg already loaded where
they use it, and each task carries only its chain index. Without metrics
nothing reads log|Q|, so a run factorizes nothing and loads no scipy; ln(y!)
is a port of Cephes lgam on the standard library (_log_factorial), so the
deviance loads none either.

Retained phi and w go to one temporary file under TMPDIR, each chain writing
its own slices through _DrawLayout.writer: phi in buffers of a few megabytes
of draws (RISK_BLOCK_BYTES), each stored area by area, then one row of w per
retained draw. A chain returns only the number of retained draws in which
each border is kept. PosteriorSamples.risk_summary is the one reader of phi:
in one pass it reads a block of areas at a time through _PhiReader.chain,
one read per chain and buffer, and returns the risk medians, intervals and
the posterior mean of R that dic takes. It holds one area-major buffer of the
widest block and one stage of a chain's share of it, so no process holds all
retained draws.
"""

import errno
import math
import os
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .car import (RHO, PrecisionStructure, _BandPlan, build_precision,
                  conditional_moments, cut_bounds, log_density_phi,
                  precision_diagonal, precision_quadform, quadform_terms,
                  restore_bounds)
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
# assignments whose log|Q| a process remembers per run; ~B/8 bytes each
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
    """Disease counts and expected counts per area, checked when built, and
    ln(y!), the Poisson deviance's constant term, computed on first use."""

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
        for a in (y, E):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @cached_property
    def lgamma_y(self) -> np.ndarray:
        """ln(y!) per area (`_log_factorial`), built on first use and kept."""
        lgamma_y = _log_factorial(self.y)
        lgamma_y.setflags(write=False)
        return lgamma_y


# Cephes lgam (Moshier), the ln Gamma of scipy.special.gammaln: the
# coefficients of its Stirling correction below 1000, ln sqrt(2 pi), and the
# argument above which ln Gamma overflows
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305


def _log_factorial(y: np.ndarray) -> np.ndarray:
    """ln(y!) for an array of non-negative integer-valued floats, bit for bit
    what scipy.special.gammaln(y + 1) gives, once per distinct count."""
    values, inverse = np.unique(y, return_inverse=True)
    return np.array([_lgam(v + 1.0) for v in values.tolist()], dtype=float)[inverse]


def _lgam(x: float) -> float:
    """Cephes lgam at an integer x >= 1: below 13 the log of the exact
    product (x - 1)!; above, the Stirling series, with the polynomial
    correction below 1000, the short one up to 1e8 and none beyond, and inf
    above _MAXLGM. Each log is libm's, through math.log, as Cephes takes it:
    numpy's vectorized log may round differently."""
    if x < 13.0:
        return math.log(float(math.factorial(int(x) - 1)))
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        a = a * p + c
    return q + a / x


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


@dataclass
class ModelState:
    """One chain's state, changed in place: `adj` is evaluate_w at alpha (all
    borders without metrics) and `log_det` is log|Q| for `adj` at rho,
    computed only with metrics (None without them, where nothing reads it)."""

    phi: np.ndarray
    mu: float
    tau2: float
    rho: float
    alpha: np.ndarray
    adj: AdjacencyState
    log_det: Optional[float]
    sweep: Optional["_Sweep"] = None  # update_phi's cached inputs


class _LogDets:
    """One run's log|Q| at `rho`, memoized per process (packed assignment ->
    log|Q|, the oldest of over LOGDET_MEMO_CAP evicted), through the run's
    one band plan, and the alpha block's (cut, restore) bounds at rho and M;
    built only when alpha is sampled."""

    def __init__(self, graph: AreaGraph, rho: float, dis: DissimilarityData,
                 M: np.ndarray):
        self.plan, self.rho, self.memo = _BandPlan(graph), rho, {}
        self.bounds = (cut_bounds(self.plan, rho),
                       restore_bounds(self.plan, rho, dis, M))

    def __call__(self, adj: AdjacencyState) -> float:
        log_det = self.memo.get(adj.key)
        if log_det is None:
            log_det = self.memo[adj.key] = build_precision(adj, self.rho, self.plan).log_det
            while len(self.memo) > LOGDET_MEMO_CAP:
                del self.memo[next(iter(self.memo))]
        return log_det


class _Sweep:
    """One chain's phi-sweep inputs: per colour its edge incidence (members,
    rows, nbr, bidx), the y and E gathers of `data`, and per assignment the
    border weights and Q's diagonal."""

    def __init__(self, graph: AreaGraph, data: Optional[ObservedData]):
        nbrs, bids = graph.incidence
        self.tables = [(members,
                        np.repeat(np.arange(members.shape[0]),
                                  [len(nbrs[k]) for k in members]),
                        np.concatenate([nbrs[k] for k in members]),
                        np.concatenate([bids[k] for k in members]))
                       for members in graph.coloring]
        self.observe(data)
        self.adj = self.rho = None

    def observe(self, data: Optional[ObservedData]):
        self.data = data
        self.obs = [(None, None) if data is None else (data.y[t[0]], data.E[t[0]])
                    for t in self.tables]

    def weights(self, adj: AdjacencyState, rho: float) -> list:
        if adj is not self.adj or rho != self.rho:
            wf, diag = adj.w.astype(np.float64), precision_diagonal(adj, rho)
            self._weights = [(wf[bidx], diag[members])
                             for members, _, _, bidx in self.tables]
            self.adj, self.rho = adj, rho
        return self._weights


def update_phi(state: ModelState, data: Optional[ObservedData],
               steps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One sweep of per-area random-walk Metropolis on phi; returns the
    per-area acceptance flags.

    A colour's members share no border, so one car.conditional_moments call
    gives the full-conditional moments of them all.
    With data=None the likelihood term is dropped and the sweep targets the
    CAR prior alone (used by sampler-validation tests).
    """
    sweep = state.sweep
    if sweep is None:
        sweep = state.sweep = _Sweep(state.adj.graph, data)
    elif sweep.data is not data:
        sweep.observe(data)
    mu, tau2, rho, phi = state.mu, state.tau2, state.rho, state.phi
    accept = np.zeros(phi.shape[0], dtype=bool)
    for (members, rows, nbr, _), (wsel, diag), (y, E) in zip(
            sweep.tables, sweep.weights(state.adj, rho), sweep.obs):
        m = members.shape[0]
        s = np.bincount(rows, weights=wsel * phi[nbr], minlength=m)
        pmean, pvar = conditional_moments(s, diag, mu, tau2, rho)
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
                 M: np.ndarray, log_dets: _LogDets, rng: np.random.Generator,
                 quad: float) -> np.ndarray:
    """Component-wise truncated random-walk Metropolis on alpha; returns the
    per-component acceptance flags.

    Every proposal inside the prior's support goes through evaluate_w.
    Proposals whose assignment is unchanged are accepted outright; every
    other one is judged by a full CAR-density comparison, with log|Q| from
    `log_dets` (at the state's rho), so Q is factorized only for an
    assignment this process has not remembered and not already rejected by
    a bound: log_dets.bounds[0] when the proposal raises alpha_i (it only
    severs borders), log_dets.bounds[1] when it lowers alpha_i (it only
    restores them).
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
            sq, c = quadform_terms(graph, rho, state.phi - state.mu)
        quad_prop = float(rho * (adj_prop.w * sq).sum() + c)
        quad_term = (quad_prop - quad) / (2.0 * tau2)
        if adj_prop.key not in log_dets.memo:
            # a miss that raises alpha_i only severs borders, one that lowers
            # it only restores them: try the bound on the flipped borders
            bound = log_dets.bounds[int(prop_i < state.alpha[i])]
            flipped = state.adj.w != adj_prop.w
            if log_u >= 0.5 * float(bound[flipped].sum()) - quad_term + CUT_BOUND_SLACK:
                continue
        log_det = log_dets(adj_prop)
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
    all of the phi, chain by chain and draw by draw. `writer` writes them;
    _PhiReader.chain reads phi back."""

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

    @contextmanager
    def writer(self, chain: int):
        """write(draw, phi, w) stores `chain`'s retained draw `draw`: phi in
        its buffer, written when full or at the last draw, and w's row."""
        buffer = np.empty(self.n * self.block)
        with open(self.path, "r+b", buffering=0) as fh:
            fd = fh.fileno()

            def write(draw: int, phi: np.ndarray, w: np.ndarray):
                j = draw % self.block
                k = min(self.block, self.draws - draw + j)
                buffered = buffer[:self.n * k].reshape(self.n, k)
                buffered[:, j] = phi
                if j == k - 1:
                    _pwrite(fd, buffered, self.phi_offset(chain, draw - j))
                _pwrite(fd, w, self.w_offset(chain, draw))
            yield write


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
        draws) array, in draw order: one read per area-major buffer into the
        front of the flat `stage`, which must hold a buffer's draws of them."""
        first, width, start = areas.indices(self.layout.n)[0], out.shape[0], 0
        view = memoryview(stage).cast("B")
        for k, offset in self.layout.buffers(c):
            size = 8 * width * k
            if os.preadv(self.fd, [view[:size]], offset + 8 * first * k) != size:
                raise OSError(errno.EIO, "the retained draws file ends early")
            out[:, start:start + k] = stage[:width * k].reshape(width, k)
            start += k


@dataclass
class PosteriorSamples:
    """Thinned multi-chain draws, with retained phi and w left on disk.

    Arrays are indexed (chain, draw, ...); pooled views flatten the first two
    axes with chains kept contiguous. `run_chains` leaves phi and w in a
    temporary file that is already unlinked: `phi_draws.chain` reads one
    chain's phi of a slice of areas, area-major (areas, draws), and `w` maps
    the w trace read-only for benchmarks; nothing in the package reads it,
    since `w_counts` holds what boundary classification needs.
    """

    phi_draws: _PhiReader
    mu: np.ndarray         # (C, m)
    tau2: np.ndarray       # (C, m)
    alpha: np.ndarray      # (C, m, q)
    w: np.ndarray          # (C, m, B) uint8
    w_counts: np.ndarray   # (C, B) int64: retained draws that keep each border
    deviance: Optional[np.ndarray]   # (C, m); None unless run_chains was asked for it
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
                   log_dets: Optional[_LogDets],
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
        # the joint log-posterior up to prior normalizing constants and log|Q|,
        # which is finite (Q is positive definite for rho < 1) and so never
        # decides this test; overflow here just means "re-draw", not an error
        with np.errstate(over="ignore", invalid="ignore"):
            lp = (log_density_phi(phi, mu, tau2, PrecisionStructure(adj, RHO, 0.0))
                  - 0.5 * mu ** 2 / PRIOR_MU_VAR - 0.5 * math.log(tau2)
                  + float(np.sum(data.y * (np.log(data.E) + phi)
                                 - data.E * np.exp(phi))))
        if np.isfinite(lp):
            log_det = None if log_dets is None else log_dets(adj)
            return ModelState(phi, mu, tau2, RHO, alpha, adj, log_det)
    raise NumericError("non-finite log-posterior at initialization after 100 re-draws")


def _run_chain(chain_idx: int, data: ObservedData, graph: AreaGraph,
               dis: Optional[DissimilarityData], config: ChainConfig,
               M: np.ndarray, log_dets: Optional[_LogDets], deviance: bool,
               layout: _DrawLayout) -> dict:
    """Run one chain, storing its retained phi and w through the layout's
    writer; return the other draws (the deviance of each only if asked) and,
    per border, the number of retained draws that keep it."""
    rng = derive_rng(config.seed, CHAIN, chain_idx)
    state = _initial_state(data, graph, dis, M, log_dets, rng)
    n, q = graph.n, M.size

    # log step sizes and acceptance counts of (phi_1..phi_n, ln tau2,
    # alpha_1..alpha_q); tau2's step is math.exp of its entry, which numpy's
    # exp does not always round alike
    log_steps = np.concatenate([np.full(n, math.log(PHI_STEP)), [math.log(TAU2_STEP)],
                                np.log(ALPHA_STEP_FRACTION * M)])
    steps, hits = np.exp(log_steps), np.zeros(log_steps.shape)
    phi_steps, alpha_steps = steps[:n], steps[n + 1:]
    phi_hits, alpha_hits = hits[:n], hits[n + 1:]
    tau_step = math.exp(log_steps[n])

    def iterate():
        np.add(phi_hits, update_phi(state, data, phi_steps, rng), out=phi_hits)
        update_mu(state, rng)
        # tau2 changes none of phi, mu and w: one d^T Q d serves both blocks
        quad = precision_quadform(state.adj, state.rho, state.phi - state.mu)
        hits[n] += update_tau2(state, tau_step, rng, quad)
        if q:
            np.add(alpha_hits, update_alpha(state, dis, alpha_steps, M, log_dets, rng, quad),
                   out=alpha_hits)

    # burn-in: the acceptance counts are per adaptation window
    for it in range(config.burn_in):
        iterate()
        if (it + 1) % ADAPT_WINDOW == 0:
            delta = min(0.25, 1.0 / math.sqrt((it + 1) // ADAPT_WINDOW))
            log_steps += np.where(hits / ADAPT_WINDOW > ADAPT_TARGET, delta, -delta)
            np.clip(log_steps, -15.0, 5.0, out=log_steps)
            np.exp(log_steps, out=steps)
            tau_step = math.exp(log_steps[n])
            hits[:] = 0.0
    hits[:] = 0.0

    # the kept run: counts over all of it, every thin-th draw retained
    m = layout.draws
    out_mu, out_tau2 = np.empty(m), np.empty(m)
    out_dev = np.empty(m) if deviance else None
    out_alpha = np.empty((m, q))
    w_counts = np.zeros(graph.n_borders, dtype=np.int64)
    log_E = np.log(data.E)
    with layout.writer(chain_idx) as write:
        for it in range(config.keep):
            iterate()
            if (it + 1) % config.thin == 0:
                idx = it // config.thin
                write(idx, state.phi, state.adj.w)
                w_counts += state.adj.w
                out_mu[idx], out_tau2[idx], out_alpha[idx] = state.mu, state.tau2, state.alpha
                if deviance:
                    out_dev[idx] = _deviance(data.y, log_E + state.phi,
                                             data.E * np.exp(state.phi), data.lgamma_y)
    return {"mu": out_mu, "tau2": out_tau2, "alpha": out_alpha, "w_counts": w_counts,
            "deviance": out_dev, "accept_phi": phi_hits / config.keep,
            "accept_tau2": hits[n] / config.keep, "accept_alpha": alpha_hits / config.keep}


def run_chains(data: ObservedData, graph: AreaGraph,
               dis: Optional[DissimilarityData],
               config: ChainConfig, deviance: bool = False) -> PosteriorSamples:
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

    The Poisson deviance of each retained draw, which only the DIC reads, is
    computed when `deviance` is set, and `samples.deviance` is None if not.

    With metrics, the run's _LogDets (its one band plan, a log|Q| memo freed
    with the run, and the alpha block's bounds) is built here, before the
    pool forks; without them nothing reads log|Q| and none of it is built.
    ln(y!) is built here too, only with `deviance` (see the module
    docstring). `config` was checked when it was built.
    """
    if data.n != graph.n:
        raise ValidationError("data length does not match the graph")
    M = alpha_upper_bounds(dis, config.max_boundary_fraction)
    log_dets = _LogDets(graph, RHO, dis, M) if M.size else None
    if deviance:
        data.lgamma_y   # built before the pool forks, so workers inherit it

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
        results = run_tasks(_run_chain,
                            (data, graph, dis, config, M, log_dets, deviance, layout),
                            config.n_chains, config.workers)
        phi_draws = _PhiReader(layout)
        w = np.memmap(fh.name, dtype=np.uint8, mode="r", offset=layout.w_offset(0, 0),
                      shape=(config.n_chains, n_draws, graph.n_borders))
    stack = lambda key: np.stack([r[key] for r in results])
    return PosteriorSamples(
        phi_draws=phi_draws, mu=stack("mu"), tau2=stack("tau2"),
        alpha=stack("alpha"), w=w, w_counts=stack("w_counts"),
        deviance=stack("deviance") if deviance else None,
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
    return _deviance(data.y, np.log(mean), mean, data.lgamma_y)


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
