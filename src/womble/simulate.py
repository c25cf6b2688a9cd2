"""Simulation study: Matern-correlated risk surfaces with piecewise-constant
means, tunable-quality dissimilarity metrics, and the detection scorecard.

Each replicate draws a fresh log-risk surface phi ~ MVN(m, field_sd^2 C),
where m is 0 in the background group and k1 elsewhere, and C is a Matern
correlation matrix whose range is calibrated so the median inter-area
correlation hits a target (0.5 by default). Counts are Poisson(E exp(phi)).
On a `Lattice`, which keeps its (nrows, ncols), C is stationary, so phi is
the corner window of a field drawn by FFT on a P x P torus that C wraps onto
(Wood & Chan 1994). P doubles from twice the longer side until no torus
eigenvalue is below -1e-8 times the largest; the negative ones left are
zeroed. The spectrum depends on the shape, kappa and the target alone:
`_prepare` sets it up as one array, which `run_study` takes (or builds) and
hands to each replicate. The single dissimilarity metric is drawn per border
as |N(1, 0.5^2)| off the true boundaries (which `SimConfig` derives once)
and |N(1 + k2, 0.5^2)| on them, then standardized to unit standard
deviation over borders like any other metric.

The field's marginal standard deviation defaults to 0.2; detection quality
depends strongly on it (larger values bury the k1 step under smooth field
variation), and it is exposed as configuration.

scipy is imported inside the functions that call it, so importing this
module (and the CLI) loads numpy alone. A study loads scipy.linalg, for the
band plan's banded Cholesky (its RCM ordering is numpy's), before its pool
forks, and scipy.special only for a Matern smoothness other than 2.5.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .boundary import classify_boundaries
from .errors import NumericError, ValidationError
from .graph import AreaGraph, DissimilarityData
from .mcmc import ChainConfig, ObservedData, run_chains, run_tasks
from .rng import REPLICATE, derive_rng

RANGE_CAP_FACTOR = 1e9
MAX_TORUS_SIDE = 2048   # one complex FFT of it takes 64 MB


class Lattice(AreaGraph):
    """Rectangular rook-adjacency lattice of unit cells: area r * ncols + c,
    id a{r}_{c}, is the cell in row r and column c. `shape` is
    (nrows, ncols), the window the simulation study draws its surface on."""

    def __init__(self, nrows: int, ncols: int):
        if nrows < 1 or ncols < 1:
            raise ValidationError("lattice dimensions must be positive")
        k = np.arange(nrows * ncols).reshape(nrows, ncols)
        borders = np.concatenate([
            np.column_stack([k[:, :-1].ravel(), k[:, 1:].ravel()]),
            np.column_stack([k[:-1].ravel(), k[1:].ravel()])])
        super().__init__(nrows * ncols, borders,
                         [f"a{r}_{c}" for r in range(nrows) for c in range(ncols)])
        self.shape = (nrows, ncols)


# the one way to build a lattice, by the name `cli` calls
lattice_graph = Lattice


# 16x16 template: one background group plus five rectangular blocks placed
# interior and mutually separated; exactly 48 of 480 borders (10%) are true
# boundaries at that size. Rows/cols are inclusive.
_BLOCK_TEMPLATE = (
    ((2, 3), (2, 3)),
    ((2, 3), (11, 12)),
    ((7, 8), (6, 8)),
    ((12, 13), (2, 4)),
    ((11, 13), (11, 13)),
)


def five_block_partition(nrows: int = 16, ncols: int = 16) -> np.ndarray:
    """Group labels (0 = background, 1..5 = blocks) for a lattice.

    The 16x16 template is scaled proportionally for other sizes; the result
    must keep every block interior, non-empty, and non-overlapping.
    """
    labels = np.zeros(nrows * ncols, dtype=np.int64)
    for g, ((r0, r1), (c0, c1)) in enumerate(_BLOCK_TEMPLATE, start=1):
        sr0 = int(round(r0 * nrows / 16))
        sr1 = int(round(r1 * nrows / 16))
        sc0 = int(round(c0 * ncols / 16))
        sc1 = int(round(c1 * ncols / 16))
        if sr0 < 1 or sc0 < 1 or sr1 > nrows - 2 or sc1 > ncols - 2 or sr1 < sr0 or sc1 < sc0:
            raise ValidationError(
                f"lattice {nrows}x{ncols} too small for the five-block partition")
        for r in range(sr0, sr1 + 1):
            for c in range(sc0, sc1 + 1):
                if labels[r * ncols + c] != 0:
                    raise ValidationError(
                        f"scaled blocks overlap on a {nrows}x{ncols} lattice")
                labels[r * ncols + c] = g
    return labels


def true_boundary_mask(graph: AreaGraph, labels: np.ndarray) -> np.ndarray:
    """True iff a border's endpoints carry different group labels."""
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise ValidationError("one label per area required")
    return labels[graph.borders[:, 0]] != labels[graph.borders[:, 1]]


def matern_correlation(d, range_: float, kappa: float = 2.5):
    """Matern correlation at distance d with smoothness kappa.

    kappa = 2.5 uses the closed half-integer form (1 + a + a^2/3) exp(-a)
    with a = sqrt(5) d / range; other smoothness values go through the
    modified Bessel function.
    """
    if range_ <= 0:
        raise ValidationError("range must be positive")
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    d = np.asarray(d, dtype=float)
    if (d < 0).any():
        raise ValidationError("distances must be non-negative")
    if kappa == 2.5:
        a = math.sqrt(5.0) * d / range_
        out = (1.0 + a + a * a / 3.0) * np.exp(-a)
    else:
        from scipy.special import gamma as gamma_fn
        from scipy.special import kv

        a = math.sqrt(2.0 * kappa) * d / range_
        with np.errstate(invalid="ignore"):
            out = np.where(
                a > 0.0,
                (2.0 ** (1.0 - kappa) / gamma_fn(kappa)) * a ** kappa * kv(kappa, a),
                1.0)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def calibrate_range(nrows: int, ncols: int, target_median: float = 0.5,
                    kappa: float = 2.5) -> float:
    """Bisection for the Matern range whose median correlation over the area
    pairs of an nrows x ncols lattice equals the target within 1e-6. It rises
    with the range, so convergence is guaranteed below the cap."""
    if nrows * ncols < 2:
        raise ValidationError("at least two areas required")
    if not 0.0 < target_median < 1.0:
        raise ValidationError("target median correlation must be in (0, 1)")
    # offset (dr, dc) != 0 joins (nrows - dr)(ncols - dc) pairs, (dr, -dc) as many
    dr, dc = np.divmod(np.arange(1, nrows * ncols), ncols)
    counts = (nrows - dr) * (ncols - dc) * (1 + (dr * dc > 0))
    dists = np.sqrt(dr * dr + dc * dc, dtype=float)
    order = np.argsort(dists)
    ends = np.cumsum(counts[order])
    # correlation never increases with distance, so the median correlation
    # is the correlation at the middle distance, or the mean of it at the
    # two middle ones: the same float as the median over all pairs
    half = int(ends[-1]) // 2
    kth = [half] if ends[-1] % 2 else [half - 1, half]
    middle = dists[order[np.searchsorted(ends, kth, side="right")]]
    median = lambda r: float(np.median(matern_correlation(middle, r, kappa)))
    lo = hi = float(np.median(middle))
    cap = float(dists.max()) * RANGE_CAP_FACTOR
    while median(hi) < target_median:
        hi *= 2.0
        if hi > cap:
            raise NumericError(
                f"range exceeded cap {cap:.3g} before reaching median "
                f"correlation {target_median}")
    while median(lo) > target_median:
        lo /= 2.0
        if lo < 1e-30:
            raise NumericError("range collapsed before reaching the target median")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = median(mid)
        if abs(val - target_median) <= 1e-6:
            return mid
        if val < target_median:
            lo = mid
        else:
            hi = mid
    raise NumericError("range calibration did not converge")


@dataclass(frozen=True)
class SimConfig:
    """One cell of the simulation study, checked when built. `true_boundaries`
    is derived there: the (B,) mask of borders whose areas the partition
    puts in different groups."""

    graph: Lattice
    true_partition: np.ndarray
    k1: float
    k2: float
    kappa: float = 2.5
    target_median_correlation: float = 0.5
    field_sd: float = 0.2
    E: Union[float, np.ndarray] = 100.0
    replicates: int = 20
    true_boundaries: np.ndarray = field(init=False)

    def __post_init__(self):
        # NaN fails no comparison, so finiteness is checked first
        for name in ("k1", "k2", "field_sd", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.kappa <= 0:
            raise ValidationError("kappa must be positive")
        if not 0.0 < self.target_median_correlation < 1.0:
            raise ValidationError("target median correlation must be in (0, 1)")
        if self.k1 < 0 or self.k2 < 0:
            raise ValidationError("k1 and k2 must be non-negative")
        if self.field_sd <= 0:
            raise ValidationError("field_sd must be positive")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        labels = np.asarray(self.true_partition, dtype=np.int64)
        if labels.shape != (self.graph.n,):
            raise ValidationError("true_partition must label every area")
        if not isinstance(self.graph, Lattice):
            raise ValidationError("the study's graph must be a Lattice (lattice_graph)")
        E = np.asarray(self.E, dtype=float)
        if E.shape not in ((), (self.graph.n,)):
            raise ValidationError("expected counts must be one value or one per area")
        E = np.broadcast_to(E, (self.graph.n,)).copy()
        if (E <= 0).any() or not np.isfinite(E).all():
            raise ValidationError("expected counts must be positive and finite")
        tb = true_boundary_mask(self.graph, labels)
        if not tb.any() or tb.all():
            raise ValidationError("partition must yield both boundaries and non-boundaries")
        object.__setattr__(self, "true_partition", labels)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "true_boundaries", tb)


def _prepare(config: SimConfig) -> np.ndarray:
    """The square-rooted spectrum of the torus the Matern correlation wraps
    onto, which depends on the lattice's shape, kappa and the target alone."""
    nrows, ncols = config.graph.shape
    rng_val = calibrate_range(nrows, ncols, config.target_median_correlation,
                              config.kappa)
    side = 2 * max(nrows, ncols)
    while side <= MAX_TORUS_SIDE:
        offsets = np.minimum(np.arange(side), side - np.arange(side)) ** 2
        dists = np.sqrt(np.add.outer(offsets, offsets), dtype=float)
        eig = np.fft.fft2(matern_correlation(dists, rng_val, config.kappa)).real
        if eig.min() >= -1e-8 * eig.max():
            break
        side *= 2
    else:
        raise NumericError(f"no torus of side up to {MAX_TORUS_SIDE} embeds the "
                           f"correlation on {nrows}x{ncols}: lower --target-median-corr")
    return np.sqrt(np.clip(eig, 0.0, None))


def gen_surface(config: SimConfig, spectrum: np.ndarray, rng: np.random.Generator):
    """Draw one log-risk surface from `spectrum`, the cell's _prepare(config),
    and take its lattice-sized corner; returns (phi_true, R_true)."""
    nrows, ncols = config.graph.shape
    torus = np.fft.ifft2(spectrum * np.fft.fft2(rng.standard_normal(spectrum.shape)))
    mean = np.where(config.true_partition == 0, 0.0, config.k1)
    phi = mean + config.field_sd * torus.real[:nrows, :ncols].ravel()
    return phi, np.exp(phi)


def gen_dissimilarity(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Raw border metric draws: |N(1, 0.5^2)| off-boundary, |N(1+k2, 0.5^2)|
    on-boundary. Standardization to unit SD happens when the values are turned
    into DissimilarityData."""
    return np.abs(rng.normal(np.where(config.true_boundaries, 1.0 + config.k2, 1.0), 0.5))


def gen_counts(R_true: np.ndarray, E: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Independent Poisson counts with mean E_k R_k."""
    E = np.asarray(E, dtype=float)
    if (E <= 0).any():
        raise ValidationError("expected counts must be positive")
    return rng.poisson(E * np.asarray(R_true, dtype=float))


@dataclass(frozen=True)
class SimScore:
    """Replicate-averaged scorecard for one (k1, k2) cell.

    ba / nba are percentage agreement on true boundaries / non-boundaries;
    bias_pct and rmse_pct are the relative error of the posterior-median risk
    surface, in percent of truth. *_se fields are Monte-Carlo standard errors
    over replicates.
    """

    k1: float
    k2: float
    replicates: int
    ba: float
    nba: float
    bias_pct: float
    rmse_pct: float
    ba_se: float
    nba_se: float
    bias_se: float
    rmse_se: float
    per_replicate: dict


def _replicate_result(rep: int, config: SimConfig, chain_config: ChainConfig,
                      surface: np.ndarray) -> dict:
    data_rng = derive_rng(chain_config.seed, REPLICATE, rep, 0)
    chain_seed = int(np.random.SeedSequence(
        chain_config.seed, spawn_key=(REPLICATE, rep, 1)).generate_state(1)[0])
    phi_true, r_true = gen_surface(config, surface, data_rng)
    raw = gen_dissimilarity(config, data_rng)
    y = gen_counts(r_true, config.E, data_rng)
    dis = DissimilarityData.from_border_values(config.graph, raw,
                                               metric_names=("sim_metric",))
    data = ObservedData(y=y, E=config.E)
    cfg = replace(chain_config, seed=chain_seed, workers=1)
    samples = run_chains(data, config.graph, dis, cfg)
    bset = classify_boundaries(samples)
    tb = config.true_boundaries
    ba = 100.0 * float(np.mean(bset.is_boundary[tb]))
    nba = 100.0 * float(np.mean(~bset.is_boundary[~tb]))
    r_hat = samples.risk_summary().median
    rel = (r_hat - r_true) / r_true
    return {
        "replicate": rep,
        "ba": ba,
        "nba": nba,
        "bias_pct": 100.0 * float(np.mean(rel)),
        "rmse_pct": 100.0 * float(np.sqrt(np.mean(rel ** 2))),
        "boundary_count": bset.boundary_count,
    }


def run_study(config: SimConfig, chain_config: ChainConfig,
              surface: Optional[np.ndarray] = None) -> SimScore:
    """Generate, fit, and score `config.replicates` independent replicates.

    Replicates derive their streams from (`chain_config.seed`, replicate
    index) and run in a pool of `chain_config.workers` processes; the chains
    of one replicate run without a pool. Results are identical either way.
    Every replicate draws from `surface`, the torus spectrum _prepare(config)
    gives if None; cells on one lattice with the same kappa and target may
    pass one. The partition was checked when `config` was built.
    """
    if surface is None:
        surface = _prepare(config)
    # loaded before the pool forks, so that no worker imports it for its
    # replicates' band plans. The replicates write no DIC, so nothing
    # builds ln(y!)
    import scipy.linalg  # noqa: F401
    results = run_tasks(_replicate_result, (config, chain_config, surface),
                        config.replicates, chain_config.workers)

    def col(name):
        return np.array([r[name] for r in results], dtype=float)

    def se(x):
        return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0

    ba, nba = col("ba"), col("nba")
    bias, rmse = col("bias_pct"), col("rmse_pct")
    return SimScore(
        k1=config.k1, k2=config.k2, replicates=config.replicates,
        ba=float(ba.mean()), nba=float(nba.mean()),
        bias_pct=float(bias.mean()), rmse_pct=float(rmse.mean()),
        ba_se=se(ba), nba_se=se(nba), bias_se=se(bias), rmse_se=se(rmse),
        per_replicate={k: col(k) if k != "replicate" else
                       np.array([r[k] for r in results])
                       for k in results[0]})
