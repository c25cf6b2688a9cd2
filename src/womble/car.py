"""Leroux-form CAR prior: joint density, full conditionals, sparse precision.

The random-effect vector phi follows a proper multivariate Gaussian
N(mu 1, tau^2 Q^{-1}) with precision Q = rho W* + (1 - rho) I, where W* has
diagonal entries equal to each area's retained-border count and off-diagonal
entries -w_kj. Q is positive definite for rho in [0, 1); boundary-model fits
pin rho at RHO = 0.99, so boundary structure is carried by W(alpha).

Q's diagonal (`precision_diagonal`), the conditional moments of phi
(`conditional_moments`) and the terms of d^T Q d (`quadform_terms`) have one
implementation each, which the factorization, the phi sweep (a colour of areas
per call), `full_conditional_phi`, `precision_quadform` and the alpha block call.

log |Q| enters the sampler's ratio for every alpha proposal that changes the
border assignment, so it is computed through a banded Cholesky factorization
under a reverse-Cuthill-McKee ordering. The ordering, bandwidth, and banded
index layout depend only on the contiguity pattern, never on which borders
are currently severed, so the symbolic work (a _BandPlan) is done once per
run and each evaluation is a vectorized assembly plus one LAPACK pbtrf call.
The result is a deterministic function of the assignment, which lets the
chains one process runs share one memo of it per run (see
womble.mcmc._LogDets).

`cut_bounds` gives, per border b, h_b = ln(1 - rho R_b) < 0, with R_b the
border's resistance under Q with every border kept. Severing a set F of
borders from any assignment changes log |Q| by at most the sum of h_b over
F, which lets the sampler reject a border-cutting proposal without
factorizing. `restore_bounds` gives the matching g_b = ln(1 + rho R'_b) > 0,
with R'_b the resistance under Q(w_M), w_M the sparsest assignment alpha <= M
reaches: restoring a set F onto any reachable assignment raises log |Q| by
at most the sum of g_b over F, which lets the sampler reject a
border-restoring proposal without factorizing.
Resistances are read from the band of the inverse of Q(w) by a block
Takahashi recursion over the same banded factor; `run_chains` builds one
plan per run and calls both functions with it once, before the chains start.

The reverse-Cuthill-McKee ordering is womble.graph's, on numpy. scipy.linalg
is imported by the band plan (its banded Cholesky) and by the resistance
recursion, not by this module: `run_chains` builds the plan in the parent
process before the chains fork, so pool workers inherit it with scipy.linalg
already loaded, and commands that never factorize Q load no scipy at all:
`diagnose` and `blv`, whose smoothing model samples no alpha and writes no
DIC, run on numpy alone.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError, ValidationError
from .graph import (AdjacencyState, AreaGraph, DissimilarityData,
                    adjacency_from_w, evaluate_w, reverse_cuthill_mckee)

RHO = 0.99  # the dependence parameter every fit uses


class _BandPlan:
    """One graph's symbolic layout for banded assembly of Q, and the banded
    Cholesky factorizer that uses it."""

    def __init__(self, graph: AreaGraph):
        from scipy.linalg import cholesky_banded

        n, borders = graph.n, graph.borders
        pos = np.empty(n, dtype=np.int64)
        pos[reverse_cuthill_mckee(graph)] = np.arange(n)
        pk, pj = pos[borders[:, 0]], pos[borders[:, 1]]
        self.graph = graph
        self.offsets = np.abs(pk - pj)
        self.low = np.minimum(pk, pj)
        self.bandwidth = int(self.offsets.max(initial=0))
        self.pos = pos
        self.cholesky_banded = cholesky_banded

    def factor(self, adj: AdjacencyState, rho: float) -> np.ndarray:
        """The lower banded Cholesky factor of Q for one assignment of this
        plan's graph, in the plan's ordering: factor[d, c] = L[c + d, c]."""
        # Fortran order lets LAPACK factorize the fresh buffer in place
        ab = np.zeros((self.bandwidth + 1, self.graph.n), order="F")
        ab[0, self.pos] = precision_diagonal(adj, rho)
        ab[self.offsets, self.low] = -rho * adj.w.astype(np.float64)
        try:
            return self.cholesky_banded(ab, overwrite_ab=True, lower=True,
                                        check_finite=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - PD by construction
            raise NumericError(f"precision factorization failed: {exc}") from exc


@dataclass(frozen=True)
class PrecisionStructure:
    """Q = rho W* + (1 - rho) I for one adjacency assignment, represented by
    its log-determinant."""

    adj: AdjacencyState
    rho: float
    log_det: float


def precision_diagonal(adj: AdjacencyState, rho: float) -> np.ndarray:
    """(n,) diagonal of Q: rho times each area's retained-border count, plus
    1 - rho."""
    return rho * adj.row_sums + (1.0 - rho)


def build_precision(adj: AdjacencyState, rho: float,
                    plan: Optional[_BandPlan] = None) -> PrecisionStructure:
    """Assemble and factorize Q for one adjacency assignment, through `plan`
    (a _BandPlan of adj's graph), or through a plan of its own if none.

    Positive definiteness is guaranteed for rho in [0, 1); a factorization
    failure therefore signals a programming error, not bad input.
    """
    if not 0.0 <= rho < 1.0:
        raise ValidationError("rho must lie in [0, 1)")
    if plan is None:
        plan = _BandPlan(adj.graph)
    log_det = 2.0 * float(np.log(plan.factor(adj, rho)[0]).sum())
    return PrecisionStructure(adj=adj, rho=rho, log_det=log_det)


def cut_bounds(plan: _BandPlan, rho: float) -> np.ndarray:
    """(B,) h_b = ln(1 - rho R_b), where R_b = (e_k - e_j)^T Q_all^{-1}
    (e_k - e_j) is border b's resistance with every border of the plan's
    graph kept.

    Severing a set F of retained borders from any assignment w changes log|Q|
    by at most sum_{b in F} h_b: by the determinant lemma and Hadamard's
    inequality the change is at most sum_F ln(1 - rho R_b(w)), and
    R_b(w) >= R_b because Q(w) <= Q_all.
    """
    graph = plan.graph
    every = adjacency_from_w(graph, np.ones(graph.n_borders, dtype=np.uint8))
    return np.log1p(-rho * _resistances(plan, every, rho))


def restore_bounds(plan: _BandPlan, rho: float, dis: DissimilarityData,
                   M: np.ndarray) -> np.ndarray:
    """(B,) g_b = ln(1 + rho R'_b), where R'_b is border b's resistance under
    Q(w_M) and w_M = evaluate_w(graph, dis, M), graph the plan's.

    w never grows with any alpha_i, so every assignment alpha <= M reaches
    contains w_M, and Q(w) >= Q(w_M). Restoring a border b that w severs
    multiplies |Q| by 1 + rho R_b(w) <= 1 + rho R'_b (determinant lemma,
    resistance falling as Q grows), so restoring a set F raises log|Q| by at
    most sum_{b in F} g_b; only borders that w_M severs are ever restored.
    """
    return np.log1p(rho * _resistances(plan, evaluate_w(plan.graph, dis, M), rho))


def _resistances(plan: _BandPlan, adj: AdjacencyState, rho: float) -> np.ndarray:
    """R_b = (e_k - e_j)^T Sigma (e_k - e_j) for every border, from the band
    of Sigma = Q(w)^{-1}, w the assignment `adj` of the plan's graph.

    The plan's band ordering is the full graph's, so it holds every border
    whether w keeps it or not, and makes Q(w) block tridiagonal in blocks of
    the bandwidth: both ends of a border lie in one block or in adjacent ones.
    With D_I and C_I the diagonal and subdiagonal blocks of its Cholesky
    factor and G_I = C_I D_I^{-1}, the block Takahashi recursion runs from
    the last block up:

        Sigma_{I+1,I} = -Sigma_{I+1,I+1} G_I
        Sigma_{I,I}   = D_I^{-T} D_I^{-1} + G_I^T Sigma_{I+1,I+1} G_I

    holding one block pair at a time, so beyond the factor it needs
    O(bandwidth^2) memory.
    """
    from scipy.linalg import solve_triangular

    n, n_borders = plan.graph.n, plan.graph.n_borders
    if n_borders == 0:
        return np.zeros(0)
    factor = plan.factor(adj, rho)
    size, low = plan.bandwidth, plan.low
    high = low + plan.offsets
    diag = np.empty(n)
    cross = np.empty(n_borders)                 # Sigma[low, high]
    n_blocks = -(-n // size)
    block = low // size
    order = np.argsort(block, kind="stable")
    edges = np.searchsorted(block[order], np.arange(n_blocks + 1))
    d = np.arange(size + 1)[:, None]
    sigma = None                                # Sigma_{I+1,I+1}
    for i in reversed(range(n_blocks)):
        s, e = i * size, min((i + 1) * size, n)
        m, f = e - s, min(e + size, n)
        # columns s..e of L, rows s..f, as a dense (f - s, m) array
        rows = d + np.arange(m)
        inside = rows < f - s
        band = np.zeros((f - s, m))
        band[rows[inside], np.nonzero(inside)[1]] = factor[:, s:e][inside]
        d_inv = solve_triangular(band[:m], np.eye(m), lower=True,
                                 check_finite=False)
        block_sigma = d_inv.T @ d_inv
        ids = order[edges[i]:edges[i + 1]]
        lo, hi = low[ids] - s, high[ids] - s
        same = hi < m
        if sigma is not None:
            g = band[m:] @ d_inv
            below = -(sigma @ g)                 # Sigma_{I+1,I}
            block_sigma -= g.T @ below
            cross[ids[~same]] = below[hi[~same] - m, lo[~same]]
        cross[ids[same]] = block_sigma[lo[same], hi[same]]
        diag[s:e] = np.diagonal(block_sigma)
        sigma = block_sigma
    return diag[low] + diag[high] - 2.0 * cross


def quadform_terms(graph: AreaGraph, rho: float, d: np.ndarray) -> tuple:
    """(sq, c): per border b, sq_b = (d_k - d_j)^2, and c = (1 - rho) d^T d.
    d^T W* d telescopes to sum_b w_b sq_b, so d^T Q d = rho sum_b w_b sq_b + c
    for any assignment w, in O(B + n) without materializing Q."""
    diff = d[graph.borders[:, 0]] - d[graph.borders[:, 1]]
    return diff * diff, (1.0 - rho) * (d * d).sum()


def precision_quadform(adj: AdjacencyState, rho: float, d: np.ndarray) -> float:
    """d^T Q d at the assignment `adj`, from quadform_terms."""
    sq, c = quadform_terms(adj.graph, rho, d)
    return float(rho * (adj.w * sq).sum() + c)


def log_density_phi(phi: np.ndarray, mu: float, tau2: float,
                    prec: PrecisionStructure) -> float:
    """Joint log-density of phi under the CAR prior N(mu 1, tau2 Q^{-1}),
    normalizing constant included.

    Returns -(n/2) ln(2 pi tau^2) + (1/2) log|Q| - (phi - mu 1)^T Q
    (phi - mu 1) / (2 tau^2). The constant matters: Metropolis ratios for
    alpha compare densities under different Q, and |Q| depends on the
    adjacency assignment.
    """
    phi = np.asarray(phi, dtype=float)
    n = prec.adj.graph.n
    if phi.shape != (n,):
        raise ValidationError(f"phi must have length {n}")
    quad = precision_quadform(prec.adj, prec.rho, phi - mu)
    return (-0.5 * n * np.log(2.0 * np.pi * tau2)
            + 0.5 * prec.log_det
            - quad / (2.0 * tau2))


def conditional_moments(s, diag, mu: float, tau2: float, rho: float):
    """Mean and variance of phi_k given all other components, from s = sum_j
    w_kj phi_j and diag = Q_kk (`precision_diagonal`); elementwise over
    arrays of areas.

    mean = (rho s + (1 - rho) mu) / Q_kk,  var = tau^2 / Q_kk

    An area whose retained-border count is zero falls back to mean mu and
    variance tau^2 / (1 - rho); rho < 1 keeps both finite.
    """
    return (rho * s + (1.0 - rho) * mu) / diag, tau2 / diag


def full_conditional_phi(k: int, phi: np.ndarray, mu: float, tau2: float,
                         rho: float, adj: AdjacencyState):
    """`conditional_moments` of one area k under the assignment `adj`."""
    graph = adj.graph
    if not 0 <= k < graph.n:
        raise ValidationError("area index out of range")
    starts, nbrs, bids = graph.incidence
    at = slice(starts[k], starts[k + 1])
    s = float(np.sum(adj.w[bids[at]] * phi[nbrs[at]]))
    return conditional_moments(s, precision_diagonal(adj, rho)[k], mu, tau2, rho)
