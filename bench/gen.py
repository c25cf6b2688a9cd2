"""Seeded input generator for the benchmark (numpy only).

Writes a rook lattice as the CSV files `womble` reads, plus the truth the
correctness checks compare against. It does not import womble, so a change to
the program cannot change the inputs a seed produces.

Each lattice size has one fixed map, drawn from MAP_SEED: the partition,
true risk, expected counts and both metrics. The seed draws the disease
counts on it, so the seed changes the data the sampler sees but not the
geometry of the alpha posterior that sets how much work a run does.

Make-up of one dataset (nrows x ncols areas, row-major, ids `a<row>_<col>`):

* partition: background group 0 and five rectangular blocks 1..5, the
  16x16 layout scaled to the lattice; blocks are interior and never touch, so
  every true boundary separates a block from the background;
* true log-risk: 0.4 inside blocks, 0 outside, plus iid N(0, 0.05^2);
* expected counts E ~ Uniform(500, 1500), counts y ~ Poisson(E R);
* `m_inf` (informative): 3 + 0.5 g inside block g, 0 outside, plus iid
  N(0, 0.1^2), so across-boundary differences are large and within-group
  ones small but not zero;
* `m_noise` (uninformative): iid N(0, 1).
"""

import csv
from pathlib import Path

import numpy as np

# 16x16 block layout, inclusive (rows, cols); scaled to other lattice sizes
BLOCKS = (((2, 3), (2, 3)), ((2, 3), (11, 12)), ((7, 8), (6, 8)),
          ((12, 13), (2, 4)), ((11, 13), (11, 13)))
K1 = 0.4
MAP_SEED = 20110809


def area_id(r, c):
    return f"a{r}_{c}"


def lattice_borders(nrows, ncols):
    """(B, 2) index pairs k < j of the rook lattice, row-major order."""
    idx = np.arange(nrows * ncols).reshape(nrows, ncols)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    pairs = np.vstack([horiz, vert])
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def partition(nrows, ncols):
    labels = np.zeros((nrows, ncols), dtype=np.int64)
    for g, ((r0, r1), (c0, c1)) in enumerate(BLOCKS, start=1):
        rs = slice(round(r0 * nrows / 16), round(r1 * nrows / 16) + 1)
        cs = slice(round(c0 * ncols / 16), round(c1 * ncols / 16) + 1)
        if labels[rs, cs].any():
            raise ValueError(f"blocks overlap on a {nrows}x{ncols} lattice")
        labels[rs, cs] = g
    return labels.ravel()


def generate(out, nrows, ncols, seed):
    """Write areas.csv, adjacency.csv and truth.npz under `out`; return out."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(MAP_SEED, spawn_key=(nrows, ncols)))
    count_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(nrows, ncols)))
    n = nrows * ncols
    ids = [area_id(r, c) for r in range(nrows) for c in range(ncols)]
    borders = lattice_borders(nrows, ncols)
    labels = partition(nrows, ncols)
    log_risk = np.where(labels > 0, K1, 0.0) + rng.normal(0.0, 0.05, n)
    risk = np.exp(log_risk)
    E = rng.uniform(500.0, 1500.0, n)
    m_inf = np.where(labels > 0, 3.0 + 0.5 * labels, 0.0) + rng.normal(0.0, 0.1, n)
    m_noise = rng.normal(0.0, 1.0, n)
    y = count_rng.poisson(E * risk)

    with open(out / "areas.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["area_id", "y", "E", "m_inf", "m_noise"])
        for k in range(n):
            w.writerow([ids[k], int(y[k]), repr(float(E[k])),
                        repr(float(m_inf[k])), repr(float(m_noise[k]))])
    with open(out / "adjacency.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["area_id_1", "area_id_2"])
        for k, j in borders:
            w.writerow([ids[k], ids[j]])
    np.savez(out / "truth.npz", labels=labels, borders=borders,
             true_boundary=labels[borders[:, 0]] != labels[borders[:, 1]],
             risk=risk, E=E, y=y)
    return out
