"""Independent dense oracles used across the test suite.

Everything here deliberately avoids the package's fast paths: precision
matrices are assembled densely, log-densities go through scipy's
multivariate normal, and conditionals come from partitioning the joint.
"""

import csv
import json
from pathlib import Path

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


def voronoi_map(n, seed):
    """A seeded Voronoi map of n areas on the unit square: a map of
    irregular convex polygons, as a real map's are.

    A frame of 40 points on a circle of radius 1.5 around the square
    surrounds the n uniform points, so every one of their cells is bounded.
    Returns (graph, polygons, points, ridges): the borders are the Voronoi
    ridges between two of the n cells, each area's polygon is its cell's
    vertices ordered by angle (the cells are convex) as one closed ring, and
    ridges[b] is border b's shared segment, the (2, 2) coordinates of its two
    vertices."""
    from scipy.spatial import Voronoi

    from womble.graph import AreaGraph
    points = np.random.default_rng(seed).random((n, 2))
    turn = 2.0 * np.pi * np.arange(40) / 40
    frame = 0.5 + 1.5 * np.column_stack([np.cos(turn), np.sin(turn)])
    vor = Voronoi(np.concatenate([points, frame]))
    inner = np.all(vor.ridge_points < n, axis=1)
    pairs = vor.ridge_points[inner]
    order = np.lexsort((pairs.max(axis=1), pairs.min(axis=1)))
    graph = AreaGraph(n, pairs)
    ridges = vor.vertices[np.asarray(vor.ridge_vertices)[inner][order]]
    polygons = []
    for k in range(n):
        corners = vor.vertices[vor.regions[vor.point_region[k]]]
        d = corners - points[k]
        ring = corners[np.argsort(np.arctan2(d[:, 1], d[:, 0]))].tolist()
        polygons.append([ring + ring[:1]])
    return graph, polygons, points, ridges


def write_voronoi_inputs(directory, n, seed):
    """Write the `womble` input files of voronoi_map(n, seed) to `directory`:
    areas.csv (y, E and one metric `step`), adjacency.csv (a pair list),
    matrix.csv (the same borders as a 0/1 matrix) and areas.geojson.

    Areas right of x = 0.5 have log-risk 0.4 and `step` about 3, those left
    of it log-risk 0 and `step` about 0, so the borders across x = 0.5 are
    the true boundaries. Returns voronoi_map's tuple."""
    graph, polygons, points, ridges = voronoi_map(n, seed)
    rng = np.random.default_rng([seed, 1])
    right = points[:, 0] > 0.5
    E = rng.uniform(500.0, 1500.0, n)
    y = rng.poisson(E * np.exp(np.where(right, 0.4, 0.0)))
    step = np.where(right, 3.0, 0.0) + rng.normal(0.0, 0.1, n)
    ids = [f"v{k}" for k in range(n)]
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "areas.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["area_id", "y", "E", "step"])
        w.writerows(zip(ids, y.tolist(), E.tolist(), step.tolist()))
    with open(out / "adjacency.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["area_id_1", "area_id_2"])
        w.writerows((ids[k], ids[j]) for k, j in graph.borders.tolist())
    mat = np.zeros((n, n), dtype=np.int64)
    mat[graph.borders[:, 0], graph.borders[:, 1]] = 1
    mat += mat.T
    (out / "matrix.csv").write_text("".join(",".join(map(str, row)) + "\n"
                                            for row in mat.tolist()))
    (out / "areas.geojson").write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [{"type": "Feature", "properties": {"area_id": a},
                      "geometry": {"type": "Polygon", "coordinates": p}}
                     for a, p in zip(ids, polygons)]}))
    return graph, polygons, points, ridges


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
