"""Independent dense oracles used across the test suite.

Everything here deliberately avoids the package's fast paths: precision
matrices are assembled densely, log-densities go through scipy's
multivariate normal, and conditionals come from partitioning the joint.
"""

import numpy as np
from scipy.stats import multivariate_normal


def dense_precision(n, borders, w, rho):
    """Q = rho W* + (1 - rho) I assembled entry by entry."""
    wstar = np.zeros((n, n))
    for (k, j), wb in zip(borders, w):
        wstar[k, j] -= wb
        wstar[j, k] -= wb
        wstar[k, k] += wb
        wstar[j, j] += wb
    return rho * wstar + (1.0 - rho) * np.eye(n)


def dense_log_density(phi, mu, tau2, Q):
    """MVN log-density via scipy with covariance tau2 Q^{-1}."""
    cov = tau2 * np.linalg.inv(Q)
    cov = 0.5 * (cov + cov.T)
    return float(multivariate_normal(mean=np.full(len(phi), mu),
                                     cov=cov, allow_singular=False).logpdf(phi))


def conditional_from_joint(k, phi, mu, tau2, Q):
    """Conditional mean/variance of phi_k from partitioning the joint."""
    n = Q.shape[0]
    cov = tau2 * np.linalg.inv(Q)
    rest = [i for i in range(n) if i != k]
    s_kk = cov[k, k]
    s_kr = cov[k, rest]
    s_rr = cov[np.ix_(rest, rest)]
    sol = np.linalg.solve(s_rr, phi[rest] - mu)
    mean = mu + s_kr @ sol
    var = s_kk - s_kr @ np.linalg.solve(s_rr, s_kr)
    return float(mean), float(var)


def random_graph(rng, n_max=8, n_min=2, p=0.5):
    """Random unordered border list on n areas (possibly disconnected)."""
    n = int(rng.integers(n_min, n_max + 1))
    borders = []
    for k in range(n):
        for j in range(k + 1, n):
            if rng.random() < p:
                borders.append((k, j))
    return n, np.array(borders, dtype=np.int64).reshape(-1, 2)


def delaunay_graph(n, seed):
    """The Delaunay triangulation of n seeded uniform points: a map whose
    areas have irregular degrees, unlike a lattice's."""
    from scipy.spatial import Delaunay

    from womble.graph import AreaGraph
    tri = Delaunay(np.random.default_rng(seed).random((n, 2))).simplices
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]), axis=1)
    return AreaGraph(n, np.unique(edges, axis=0))


def lattice_loop(nrows, ncols):
    """A lattice's (B, 2) borders and area ids by the per-cell double loop:
    each cell's right, then lower, neighbour, cells in row-major order."""
    borders = []
    for r in range(nrows):
        for c in range(ncols):
            k = r * ncols + c
            if c + 1 < ncols:
                borders.append((k, k + 1))
            if r + 1 < nrows:
                borders.append((k, (r + 1) * ncols + c))
    ids = [f"a{r}_{c}" for r in range(nrows) for c in range(ncols)]
    return np.array(borders, dtype=np.int64).reshape(-1, 2), ids


def unit_squares(graph):
    """The rings of the unit square around each (row, col) cell of a
    Lattice, one polygon per area."""
    rows, cols = np.divmod(np.arange(graph.n), graph.shape[1])
    return [[[[r - 0.5, c - 0.5], [r - 0.5, c + 0.5], [r + 0.5, c + 0.5],
              [r + 0.5, c - 0.5], [r - 0.5, c - 0.5]]]
            for r, c in zip(rows.tolist(), cols.tolist())]


def poisson_deviance(y, E, r):
    from scipy.special import gammaln
    mean = E * r
    return -2.0 * float(np.sum(y * np.log(mean) - mean - gammaln(y + 1.0)))
