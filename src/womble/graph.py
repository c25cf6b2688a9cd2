"""Areal contiguity structure and covariate-dissimilarity border metrics.

The contiguity graph fixes which pairs of areas *can* be neighbours; the
dissimilarity metrics and the non-negative coefficient vector alpha decide,
deterministically, which of those borders are kept as neighbour relations
(w = 1) and which are severed into boundaries (w = 0):

    w_b(alpha) = 1  iff  exp(-sum_i z_bi * alpha_i) >= 0.5

Ties at exactly 0.5 keep the border (no boundary). Borders with zero
dissimilarity can never become boundaries, whatever alpha is.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConstantMetricError, ValidationError

LN2 = np.log(2.0)


class AreaGraph:
    """Immutable areal contiguity graph.

    Parameters
    ----------
    borders : (B, 2) integer array of unordered area-index pairs, each listed
        once; float or boolean indices are rejected, not truncated.
    area_ids : optional sequence of unique string identifiers (defaults to
        stringified indices).
    """

    def __init__(self, n: int, borders: np.ndarray,
                 area_ids: Optional[Sequence[str]] = None):
        if n <= 0:
            raise ValidationError("graph must contain at least one area")
        borders = np.asarray(borders)
        if borders.size and borders.dtype.kind not in "iu":
            raise ValidationError("border indices must be integers")
        borders = borders.astype(np.int64, copy=False).reshape(-1, 2)
        if borders.size and (borders.min() < 0 or borders.max() >= n):
            raise ValidationError("border index out of range")
        if np.any(borders[:, 0] == borders[:, 1]):
            raise ValidationError("self-loop in border list")
        lo = np.minimum(borders[:, 0], borders[:, 1])
        hi = np.maximum(borders[:, 0], borders[:, 1])
        order = np.lexsort((hi, lo))
        borders = np.column_stack([lo, hi])[order]
        if borders.shape[0] and np.any(np.all(np.diff(borders, axis=0) == 0, axis=1)):
            raise ValidationError("duplicate border pair")
        area_ids = [str(a) for a in (range(n) if area_ids is None else area_ids)]
        if len(area_ids) != n or len(set(area_ids)) != n:
            raise ValidationError("area_ids must be unique and match the area count")
        self.n = n
        self.borders = borders
        self.borders.setflags(write=False)
        self.area_ids = tuple(area_ids)

    @property
    def n_borders(self) -> int:
        return self.borders.shape[0]

    @cached_property
    def n_components(self) -> int:
        """Connected-component count. Disconnection is legal, just reported."""
        return len(np.unique(_component_roots(self.n, self.borders)))

    @cached_property
    def incidence(self):
        """The flat incidence table ``(starts, nbrs, bids)`` of read-only int64
        arrays: area k's neighbours, and the borders to them, in border order,
        are ``nbrs[starts[k]:starts[k + 1]]`` and ``bids[...]`` alike."""
        ends = self.borders.ravel()
        # a stable sort of the interleaved endpoints keeps each area's
        # entries in border order
        order = np.argsort(ends, kind="stable")
        nbrs = self.borders[:, ::-1].ravel()[order]
        bids = np.repeat(np.arange(self.n_borders, dtype=np.int64), 2)[order]
        starts = np.searchsorted(ends[order], np.arange(self.n + 1))
        for a in (starts, nbrs, bids):
            a.setflags(write=False)
        return starts, nbrs, bids

    def gather(self, areas: np.ndarray):
        """``(at, owner)``: the incidence table positions of an int array of
        areas, area by area, and the index in `areas` of each one's area."""
        starts = self.incidence[0]
        counts = starts[areas + 1] - starts[areas]
        owner = np.repeat(np.arange(areas.size), counts)
        shift = starts[areas] - np.cumsum(counts) + counts
        return np.arange(owner.size) + shift[owner], owner

    @cached_property
    def coloring(self) -> list:
        """Greedy proper coloring: area lists whose members share no border.

        Within one color class every full conditional depends only on areas
        outside the class, so per-area Metropolis updates of a whole class may
        be applied simultaneously.
        """
        starts, nbrs, _ = self.incidence
        # plain lists: slicing them area by area is faster than slicing arrays
        starts, nbrs = starts.tolist(), nbrs.tolist()
        colors = [-1] * self.n
        for k in range(self.n):
            used = set(map(colors.__getitem__, nbrs[starts[k]:starts[k + 1]]))
            c = 0
            while c in used:
                c += 1
            colors[k] = c
        colors = np.array(colors, dtype=np.int64)
        return [np.where(colors == c)[0] for c in range(int(colors.max()) + 1)]

    def __repr__(self):
        return (f"AreaGraph(n={self.n}, borders={self.n_borders}, "
                f"components={self.n_components})")


def _component_roots(n: int, borders: np.ndarray) -> np.ndarray:
    """(n,) each area's smallest area in its component.

    Min-label propagation: every area points at a smaller or equal one of
    its component; each round flattens the pointers to roots (pointer
    jumping), then hooks the larger root of each border that joins two onto
    the smaller. When no border joins two roots, each component has one,
    its smallest area."""
    label = np.arange(n)
    k, j = borders.T
    while True:
        while not np.array_equal(label[label], label):
            label = label[label]
        a, b = label[k], label[j]
        joins = a != b
        if not joins.any():
            return label
        np.minimum.at(label, np.maximum(a, b)[joins], np.minimum(a, b)[joins])


def reverse_cuthill_mckee(graph: AreaGraph) -> np.ndarray:
    """(n,) reverse Cuthill-McKee ordering of the areas (Cuthill & McKee
    1969; George & Liu 1981), the permutation that scipy.sparse.csgraph's
    reverse_cuthill_mckee gives for the contiguity pattern.

    Each component is searched breadth first from its first area in
    np.argsort order of the int32 degrees, one of lowest degree. The
    unvisited neighbours of a level are claimed by their first parent in
    level order, in ascending index (the order of graph.incidence), and then
    stably sorted by degree within that parent. Components follow one
    another in the order of their first areas, and the whole order is
    reversed. Every component's search advances one level per round, so an
    area of degree 0, a component of its own, costs no round.
    """
    n = graph.n
    starts, nbrs, _ = graph.incidence
    degree = np.diff(starts).astype(np.int32)
    by_degree = np.argsort(degree)
    rank = np.empty(n, dtype=np.int64)
    rank[by_degree] = np.arange(n)
    # each area's component, as the rank of the component's first area
    component = _component_roots(n, rank[graph.borders])[rank]
    level = by_degree[np.unique(component)]
    visited = np.zeros(n, dtype=bool)
    visited[level] = True
    levels = [level]
    while level.size:
        # every neighbour of the level, parent by parent
        at, parent = graph.gather(level)
        reached = nbrs[at]
        fresh = ~visited[reached]
        reached, parent = reached[fresh], parent[fresh]
        _, first = np.unique(reached, return_index=True)
        first.sort()
        reached, parent = reached[first], parent[first]
        level = reached[np.lexsort((degree[reached], parent))]
        visited[level] = True
        levels.append(level)
    order = np.concatenate(levels)
    return order[np.argsort(component[order], kind="stable")][::-1]


def build_graph(pairs, area_ids=None) -> AreaGraph:
    """Build an AreaGraph from a sequence of (k, j) area-index border pairs.

    The area count is len(area_ids), or else one more than the largest
    index, so an empty list needs area_ids. Each border may be listed in
    either order but only once; the stored list is normalized to unordered
    pairs. `io.read_adjacency` turns a pair-list or 0/1 matrix file into
    such pairs.
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        if area_ids is None:
            raise ValidationError("empty border list: pass area_ids to give the area count")
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError("border pairs must be a (B, 2) array of area indices")
    n = int(pairs.max()) + 1 if area_ids is None else len(area_ids)
    return AreaGraph(n, pairs, area_ids)


@dataclass(frozen=True)
class DissimilarityData:
    """Standardized border dissimilarity metrics.

    ``border_metrics[b, i]`` is the non-negative dissimilarity of metric
    ``metric_names[i]`` across border ``b``. `from_border_values` and
    `compute_border_metrics` divide each metric's raw values by their sample
    standard deviation over borders, so every metric has unit standard
    deviation.
    """

    metric_names: tuple
    border_metrics: np.ndarray

    def __post_init__(self):
        bm = np.asarray(self.border_metrics, dtype=float)
        if bm.ndim != 2 or bm.shape[1] != len(self.metric_names):
            raise ValidationError("border_metrics must be a (B, q) array, "
                                  "one column per metric name")
        if not np.isfinite(bm).all() or (bm < 0).any():
            raise ValidationError("border metrics must be finite and non-negative")
        object.__setattr__(self, "border_metrics", bm)
        bm.setflags(write=False)

    @property
    def q(self) -> int:
        """The number of metrics."""
        return self.border_metrics.shape[1]

    @staticmethod
    def from_border_values(graph: AreaGraph, values: np.ndarray,
                           metric_names=None) -> "DissimilarityData":
        """Standardize border-level raw metric values directly: a (B,) array
        is one metric, a (B, q) array q metrics.

        Used when the dissimilarity is observed per border rather than derived
        from per-area covariates; the same unit-SD standardization applies.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != graph.n_borders:
            raise ValidationError("one row of metric values per border required")
        if (values < 0).any() or not np.isfinite(values).all():
            raise ValidationError("border metric values must be finite and non-negative")
        return _standardize(graph, values, metric_names)


def _standardize(graph: AreaGraph, raw: np.ndarray,
                 metric_names) -> DissimilarityData:
    """Divide each column of the (B, q) raw border values by its sample
    standard deviation over borders; a constant column cannot be divided."""
    q = raw.shape[1]
    if metric_names is None:
        names = tuple(f"metric_{i}" for i in range(q))
    else:
        names = tuple(str(m) for m in metric_names)
        if len(names) != q:
            raise ValidationError("metric_names length must equal q")
    if graph.n_borders < 2:
        raise ValidationError(
            "standard deviation over borders is undefined with fewer than 2 borders")
    sd = raw.std(axis=0, ddof=1)
    for i, s in enumerate(sd):
        if s == 0.0:
            raise ConstantMetricError(names[i])
    return DissimilarityData(metric_names=names, border_metrics=raw / sd)


def compute_border_metrics(graph: AreaGraph, covariates: np.ndarray,
                           metric_names=None) -> DissimilarityData:
    """Standardized absolute covariate differences across each border.

    For border b = (k, j) and metric i the raw value is |z_ki - z_ji|; it is
    divided by the sample standard deviation of those raw values over all
    borders. A metric whose raw differences are constant over borders cannot
    be standardized and is rejected with ConstantMetricError.
    """
    cov = np.asarray(covariates, dtype=float)
    if cov.ndim == 1:
        cov = cov[:, None]
    if cov.shape[0] != graph.n:
        raise ValidationError("covariates must have one row per area")
    if not np.isfinite(cov).all():
        raise ValidationError("covariates contain missing or non-finite values")
    if cov.shape[1] < 1:
        raise ValidationError("at least one covariate required")
    k, j = graph.borders[:, 0], graph.borders[:, 1]
    return _standardize(graph, np.abs(cov[k] - cov[j]), metric_names)


@dataclass(frozen=True)
class AdjacencyState:
    """Binary neighbour-relation assignment over the borders of a graph;
    what is derived from `w` is computed on first access."""

    graph: AreaGraph
    w: np.ndarray              # (B,) uint8, 1 = neighbours, 0 = boundary

    def __post_init__(self):
        self.w.setflags(write=False)

    @cached_property
    def key(self) -> bytes:
        """The packed assignment: equal keys iff equal w on one graph."""
        return np.packbits(self.w).tobytes()

    @cached_property
    def row_sums(self) -> np.ndarray:
        """(n,) number of retained borders incident to each area."""
        wf = self.w.astype(np.float64)
        b, n = self.graph.borders, self.graph.n
        rs = (np.bincount(b[:, 0], weights=wf, minlength=n)
              + np.bincount(b[:, 1], weights=wf, minlength=n)).astype(np.int64)
        rs.setflags(write=False)
        return rs


def evaluate_w(graph: AreaGraph, dis: DissimilarityData,
               alpha: np.ndarray) -> AdjacencyState:
    """Deterministic border assignment for coefficient vector alpha >= 0.

    A border is kept (w = 1) iff exp(-z_b . alpha) >= 0.5, i.e. iff
    z_b . alpha <= ln 2; ties keep the border. Non-borders carry no w at all.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (dis.q,):
        raise ValidationError(f"alpha must have {dis.q} components")
    if (alpha < 0).any():
        raise ValidationError("alpha components must be non-negative")
    z = dis.border_metrics
    # one metric: the matmul's single rounded product, without numpy's slow
    # path for a one-column matrix
    s = z[:, 0] * alpha[0] if dis.q == 1 else z @ alpha
    # few-ulp slack so the tie (and alpha = ln2 / z_max exactly) lands on the
    # keep side regardless of rounding in z * (ln2 / z)
    return AdjacencyState(graph, (s <= LN2 * (1.0 + 1e-15)).astype(np.uint8))


def adjacency_from_w(graph: AreaGraph, w) -> AdjacencyState:
    """AdjacencyState for an explicit 0/1 border assignment."""
    w = np.asarray(w, dtype=np.uint8).copy()
    if w.shape != (graph.n_borders,):
        raise ValidationError("w must have one entry per border")
    return AdjacencyState(graph=graph, w=w)


def alpha_min(dis: DissimilarityData, i: int) -> float:
    """No-effect threshold for metric i: ln(2) / max_b z_bi.

    Below this value the metric cannot, on its own, sever any border.
    """
    zmax = float(dis.border_metrics[:, i].max())
    if zmax <= 0.0:
        raise ValidationError(f"metric {dis.metric_names[i]!r} is zero on every border")
    return LN2 / zmax


def alpha_natural_limit(dis: DissimilarityData, i: int) -> float:
    """ln(2) / (min positive z_bi): beyond it the metric alone severs every
    border with positive dissimilarity."""
    z = dis.border_metrics[:, i]
    pos = z[z > 0]
    if pos.size == 0:
        raise ValidationError(f"metric {dis.metric_names[i]!r} is zero on every border")
    return LN2 / float(pos.min())


def alpha_prior_upper(dis: DissimilarityData, i: int,
                      max_boundary_fraction: float = 0.5) -> float:
    """Prior upper limit M_i for metric i's coefficient.

    Chosen so that at alpha_i = M_i (other components zero) at most
    ``max_boundary_fraction`` of borders are classified as boundaries:
    M_i = ln(2) / z^(p), with z^(p) the lower-nearest-rank empirical quantile
    of the metric at probability 1 - fraction. With fraction = 1 this is the
    natural limit ln(2) / z^min over positive values.
    """
    if not 0.0 < max_boundary_fraction <= 1.0:
        raise ValidationError("max_boundary_fraction must be in (0, 1]")
    z = dis.border_metrics[:, i]
    b = z.shape[0]
    rank = int(np.ceil((1.0 - max_boundary_fraction) * b))
    if rank == 0:
        return alpha_natural_limit(dis, i)
    zp = float(np.sort(z)[rank - 1])
    if zp <= 0.0:
        raise ValidationError(
            f"quantile of metric {dis.metric_names[i]!r} at the requested "
            "boundary fraction is zero; increase max_boundary_fraction")
    return LN2 / zp
