"""Residual spatial-correlation testing via Moran's I permutation test."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import AreaGraph
from .rng import PERMUTATION, derive_rng

# Working-array budget of the permutation test, shared by its threads. A
# permutation row takes about 8 * (3n + 2B) bytes, so with T threads each
# chunk is 1/T of this figure, and peak memory stays near it whatever n_perm
# and T are.
PERM_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class MoranResult:
    I: float
    p_value: float
    n_permutations: int


def _border_ends(graph: AreaGraph):
    if graph.n_borders == 0:
        raise ValidationError("weight structure has no retained borders")
    return graph.borders[:, 0], graph.borders[:, 1]


def morans_i(values: np.ndarray, graph: AreaGraph) -> float:
    """Moran's I over the graph's borders, each of weight 1 (both
    orientations counted).

    I = (n / S0) * sum_kj w_kj (v_k - vbar)(v_j - vbar) / sum_k (v_k - vbar)^2
    with S0 = sum_kj w_kj = 2B. Constant input has zero variance and is
    rejected.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (graph.n,):
        raise ValidationError("one value per area required")
    k, j = _border_ends(graph)
    d = v - v.mean()
    denom = float(np.sum(d * d))
    if denom == 0.0:
        raise ValidationError("values are constant; Moran's I is undefined")
    s0 = 2.0 * graph.n_borders
    num = 2.0 * float(np.sum(d[k] * d[j]))
    return graph.n / s0 * num / denom


def moran_permutation_test(residuals: np.ndarray, graph: AreaGraph,
                           n_perm: int = 10000, seed: int = 0) -> MoranResult:
    """One-sided upper-tail permutation test for positive spatial correlation.

    p = (1 + #{permuted I >= observed I}) / (1 + n_perm), permutations drawn
    by randomly relabelling residuals across areas.
    """
    v = np.asarray(residuals, dtype=float)
    observed = morans_i(v, graph)
    if n_perm < 0:
        raise ValidationError("n_perm must be >= 0")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if n_perm == 0:
        return MoranResult(I=observed, p_value=1.0, n_permutations=0)
    n_ge = sum(int(np.sum(i_perm >= observed)) for i_perm in
               _permuted_moran(v, graph, n_perm, seed, _usable_cpus()))
    return MoranResult(I=observed, p_value=(1 + n_ge) / (1 + n_perm),
                       n_permutations=n_perm)


def _usable_cpus() -> int:
    """CPUs this process may run on (`taskset` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _permuted_moran(v, graph: AreaGraph, n_perm: int, seed: int,
                    threads: int):
    """Moran's I of n_perm random relabellings of v, a list of chunks in order.

    Row r of the permutations takes keys n*r to n*(r + 1) - 1 of one stream,
    so the statistics are the same whatever the chunk height. A 1-row
    remainder is folded into the chunk before it: numpy's row sum of a 1-row
    array can round differently from the same row inside a taller one.

    The chunks are cut into at most `threads` contiguous groups, each scored
    on its own thread from its own copy of the stream, advanced to the
    group's first row: Generator.random takes one PCG64 output per double.
    Each chunk is 1/threads of the budget, so all threads together hold
    about PERM_CHUNK_BYTES, and the output is the same at every thread count.
    """
    k, j = _border_ends(graph)
    n = graph.n
    d = v - v.mean()
    denom = float(np.sum(d * d))
    s0 = 2.0 * graph.n_borders
    per_row = 8 * (3 * n + 2 * graph.n_borders)
    height = max(2, PERM_CHUNK_BYTES // (threads * per_row))
    heights = []
    left = n_perm
    while left:
        heights.append(left if left <= height + 1 else height)
        left -= heights[-1]

    def score(first, last):
        # chunks first..last-1, from the stream advanced to their first row
        rng = derive_rng(seed, PERMUTATION)
        rng.bit_generator.advance(sum(heights[:first]) * n)
        out = []
        for rows in heights[first:last]:
            # random relabelling: argsort of uniform keys per permutation
            keys = rng.random((rows, n))
            order = np.argsort(keys, axis=1)
            dp = d[order]
            prod = dp[:, k]
            prod *= dp[:, j]   # in place: two border-sized arrays alive, not three
            nums = 2.0 * np.sum(prod, axis=1)
            out.append(n / s0 * nums / denom)
        return out

    groups = min(threads, len(heights))
    cuts = [len(heights) * g // groups for g in range(groups + 1)]
    if groups == 1:
        return score(0, len(heights))
    with ThreadPoolExecutor(groups - 1) as pool:
        rest = [pool.submit(score, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
        chunks = score(cuts[0], cuts[1])
        for f in rest:
            chunks += f.result()
    return chunks


def pearson_residuals(y: np.ndarray, E: np.ndarray,
                      r_hat: np.ndarray) -> np.ndarray:
    """(y - E r) / sqrt(E r) with r the posterior-median risk."""
    y = np.asarray(y, dtype=float)
    mean = np.asarray(E, dtype=float) * np.asarray(r_hat, dtype=float)
    if (mean <= 0).any():
        raise ValidationError("fitted means must be positive")
    return (y - mean) / np.sqrt(mean)
