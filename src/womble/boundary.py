"""Posterior boundary classification, the BLV baseline, and effect verdicts."""

import math
from dataclasses import dataclass
import numpy as np

from .errors import ValidationError
from .graph import AreaGraph
from .mcmc import PosteriorSamples

SUBSTANTIAL = "substantial"
NO_EFFECT = "no-effect"
INCONCLUSIVE = "inconclusive"
# polygon vertices are matched after rounding to this many decimals
VERTEX_DECIMALS = 9


@dataclass(frozen=True)
class BoundarySet:
    """Per-border boundary classification from the pooled w draws.

    A border is a boundary iff the posterior median of its w indicator is 0;
    exact ties (w = 1 in exactly half the draws) resolve to w = 1, i.e. no
    boundary, the conservative reading.
    """

    graph: AreaGraph
    w_median: np.ndarray
    w_mean: np.ndarray
    is_boundary: np.ndarray

    @property
    def boundary_count(self) -> int:
        return int(self.is_boundary.sum())

    @property
    def boundary_fraction(self) -> float:
        b = self.graph.n_borders
        return self.boundary_count / b if b else 0.0


def classify_boundaries(samples: PosteriorSamples) -> BoundarySet:
    """Classify each border from the posterior median of w, chains pooled.

    w_mean is the pooled count of draws that keep a border over the number
    of draws: the float mean of the 0/1 trace, bit for bit, since both sum
    exactly."""
    draws = samples.mu.size
    if draws == 0:
        raise ValidationError("empty w trace")
    w_mean = samples.w_counts.sum(axis=0) / draws
    w_median = (w_mean >= 0.5).astype(np.uint8)
    return BoundarySet(graph=samples.graph, w_median=w_median, w_mean=w_mean,
                       is_boundary=w_median == 0)


@dataclass(frozen=True)
class BlvResult:
    """Boundary likelihood values |R_k - R_j| over the borders of a graph."""

    graph: AreaGraph
    values: np.ndarray


def blv(risk_medians: np.ndarray, graph: AreaGraph) -> BlvResult:
    """Absolute risk difference across each border."""
    r = np.asarray(risk_medians, dtype=float)
    if r.shape != (graph.n,):
        raise ValidationError("one risk value per area required")
    if (r <= 0).any():
        raise ValidationError("risks must be positive")
    k, j = graph.borders[:, 0], graph.borders[:, 1]
    return BlvResult(graph=graph, values=np.abs(r[k] - r[j]))


def blv_rule_a(res: BlvResult, c1: float) -> np.ndarray:
    """Flag borders with BLV strictly greater than the cutoff c1."""
    return res.values > c1


def check_rule_b(c2: float):
    """Reject a rule (b) percentage outside (0, 100]."""
    if not 0.0 < c2 <= 100.0:
        raise ValidationError("c2 must be a percentage in (0, 100]")


def blv_rule_b(res: BlvResult, c2: float) -> np.ndarray:
    """Flag the top c2% of BLVs: exactly ceil(c2/100 * B) borders, ties broken
    by stable border order (earlier border wins)."""
    check_rule_b(c2)
    b = res.values.shape[0]
    n_flag = math.ceil(c2 / 100.0 * b)
    order = np.argsort(-res.values, kind="stable")
    flags = np.zeros(b, dtype=bool)
    flags[order[:n_flag]] = True
    return flags


def effect_interval(alpha_samples: np.ndarray) -> tuple:
    """Equal-tailed 95% credible interval (2.5 / 97.5 percentiles) of one
    metric's posterior draws."""
    a = np.asarray(alpha_samples, dtype=float)
    if a.size < 2:
        raise ValidationError("at least 2 samples required")
    lo, hi = np.percentile(a, [2.5, 97.5])
    return float(lo), float(hi)


def interval_verdict(lo: float, hi: float, alpha_min_i: float) -> str:
    """An effect interval against the no-effect threshold: entirely below ->
    "no-effect", entirely above -> "substantial", otherwise "inconclusive"."""
    if hi < alpha_min_i:
        return NO_EFFECT
    if lo > alpha_min_i:
        return SUBSTANTIAL
    return INCONCLUSIVE


def classify_effect(alpha_samples: np.ndarray, alpha_min_i: float) -> str:
    """Effect verdict for one metric from its posterior draws: the verdict
    of its effect_interval."""
    return interval_verdict(*effect_interval(alpha_samples), alpha_min_i)


def boundary_segments(graph: AreaGraph, border_indices) -> list:
    """Shared-edge polylines for selected borders, for map overlay export.

    Requires topologically clean polygons: two neighbouring areas must share
    edge vertices exactly (after rounding to VERTEX_DECIMALS). Each selected
    border yields a list of polylines covering the shared segment.
    """
    if graph.polygons is None:
        raise ValidationError("graph has no polygons")
    edge_sets = [_edge_set(graph.polygons[k]) for k in range(graph.n)]
    out = []
    for b in border_indices:
        k, j = graph.borders[b]
        shared = edge_sets[k] & edge_sets[j]
        out.append((int(b), _chain_edges(shared)))
    return out


def _edge_set(polygon):
    edges = set()
    if polygon is None:
        return edges
    for ring in polygon:
        pts = [tuple(np.round(p, VERTEX_DECIMALS)) for p in ring]
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts = pts[:-1]
        for a, bpt in zip(pts, pts[1:] + pts[:1]):
            if a != bpt:
                edges.add((min(a, bpt), max(a, bpt)))
    return edges


def _chain_edges(edges) -> list:
    """Join shared edges into maximal polylines (deterministic order)."""
    remaining = sorted(edges)
    adj = {}
    for a, b in remaining:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    used = set()
    lines = []
    for start_edge in remaining:
        if start_edge in used:
            continue
        a, b = start_edge
        used.add(start_edge)
        line = [a, b]
        # extend forward from b, then backward from a
        for head, append in ((b, True), (a, False)):
            while True:
                nxt = None
                for cand in sorted(adj.get(head, [])):
                    e = (min(head, cand), max(head, cand))
                    if e not in used:
                        nxt = cand
                        used.add(e)
                        break
                if nxt is None:
                    break
                if append:
                    line.append(nxt)
                else:
                    line.insert(0, nxt)
                head = nxt
        lines.append([list(p) for p in line])
    return lines
