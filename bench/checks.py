"""Correctness checks on womble outputs, from independent computations.

Every check raises CheckFailed with a one-line reason. None of them compares
against a stored copy of earlier output: each recomputes a quantity from the
inputs, or tests a property the method guarantees.
"""

import csv
import math
from pathlib import Path

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

LN2 = math.log(2.0)
REL = 1e-12


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(path, name, cast=float):
    header, rows = read_csv(path)
    i = header.index(name)
    return np.array([cast(r[i]) for r in rows])


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def read_inputs(inputs):
    """Area ids, metric columns and border index pairs from the input CSVs."""
    header, rows = read_csv(Path(inputs) / "areas.csv")
    ids = [r[0] for r in rows]
    cols = {h: np.array([float(r[i]) for r in rows]) for i, h in enumerate(header) if i >= 3}
    index = {a: k for k, a in enumerate(ids)}
    _, pairs = read_csv(Path(inputs) / "adjacency.csv")
    borders = np.array([(index[a], index[b]) for a, b in pairs])
    return ids, cols, borders


def _truth_by_pair(inputs):
    ids, _, _ = read_inputs(inputs)
    truth = np.load(Path(inputs) / "truth.npz")
    return {(ids[k], ids[j]): bool(t)
            for (k, j), t in zip(truth["borders"], truth["true_boundary"])}


def boundary_recovery(fit_dir, inputs, min_ba=90.0, min_nba=98.0):
    """Posterior boundaries against the generated partition."""
    header, rows = read_csv(Path(fit_dir) / "boundary.csv")
    truth = _truth_by_pair(inputs)
    i1, i2, ib = header.index("area_id_1"), header.index("area_id_2"), header.index("is_boundary")
    require(len(rows) == len(truth), "boundary.csv does not list every border once")
    hits = {True: [], False: []}
    for r in rows:
        t = truth.get((r[i1], r[i2]), truth.get((r[i2], r[i1])))
        require(t is not None, f"boundary.csv names an unknown border {r[i1]}-{r[i2]}")
        hits[t].append(r[ib] == "1")
    ba = 100.0 * np.mean(hits[True])
    nba = 100.0 * (1.0 - np.mean(hits[False]))
    require(ba >= min_ba and nba >= min_nba,
            f"boundary recovery BA={ba:.1f} NBA={nba:.1f} below {min_ba}/{min_nba}")
    return ba, nba


def effects_alpha_min(fit_dir, inputs):
    """alpha_min = ln 2 / max z, z the standardized |difference| over borders."""
    _, cols, borders = read_inputs(inputs)
    header, rows = read_csv(Path(fit_dir) / "effects.csv")
    im, ia = header.index("metric"), header.index("alpha_min")
    require(rows, "effects.csv has no rows")
    for r in rows:
        x = cols[r[im]]
        raw = np.abs(x[borders[:, 0]] - x[borders[:, 1]])
        expected = LN2 / float((raw / raw.std(ddof=1)).max())
        require(close(float(r[ia]), expected, 1e-10),
                f"effects.csv alpha_min {r[ia]} for {r[im]}, expected {expected!r}")


def dic_identity(fit_dir):
    header, rows = read_csv(Path(fit_dir) / "dic.csv")
    d = dict(zip(header, map(float, rows[0])))
    require(close(d["dic"], d["mean_deviance"] + d["p_d"]),
            f"dic {d['dic']!r} != mean_deviance + p_d")


def blv_rule_b(blv_dir, c2, inputs, min_recall=95.0):
    """Exactly ceil(c2 B / 100) flags, none below an unflagged border, and the
    true boundaries among the flagged."""
    header, rows = read_csv(Path(blv_dir) / "blv.csv")
    values = np.array([float(r[header.index("blv")]) for r in rows])
    flags = np.array([r[header.index("rule_b")] == "1" for r in rows])
    need = math.ceil(c2 / 100.0 * len(rows))
    require(int(flags.sum()) == need, f"rule (b) flagged {int(flags.sum())}, expected {need}")
    require(flags.all() or values[flags].min() >= values[~flags].max(),
            "rule (b) flagged a border below an unflagged one")
    truth = _truth_by_pair(inputs)
    i1, i2 = header.index("area_id_1"), header.index("area_id_2")
    on_true = [f for r, f in zip(rows, flags) if truth[(r[i1], r[i2])]]
    recall = 100.0 * np.mean(on_true)
    require(recall >= min_recall, f"rule (b) flags {recall:.1f}% of true boundaries")


def moran(diag_dir, residual_dir, inputs, n_perm):
    """Moran's I from residuals.csv over the input adjacency, and a p-value of
    the form (1 + k) / (1 + n_perm)."""
    ids, _, borders = read_inputs(inputs)
    header, rows = read_csv(Path(residual_dir) / "residuals.csv")
    require([r[0] for r in rows] == ids, "residuals.csv areas differ from the input")
    v = np.array([float(r[header.index("residual")]) for r in rows])
    d = v - v.mean()
    expected = len(v) / len(borders) * float(np.sum(d[borders[:, 0]] * d[borders[:, 1]])) \
        / float(np.dot(d, d))
    header, rows = read_csv(Path(diag_dir) / "moran.csv")
    m = dict(zip(header, rows[0]))
    require(close(float(m["I"]), expected, 1e-9), f"Moran I {m['I']}, expected {expected!r}")
    require(int(m["n_permutations"]) == n_perm, "moran.csv permutation count")
    k = float(m["p_value"]) * (1 + n_perm) - 1
    require(abs(k - round(k)) < 1e-6 and 0 <= round(k) <= n_perm,
            f"p-value {m['p_value']} is not (1 + k) / (1 + {n_perm})")


def scorecard(sim_dir, k1, k2, min_pct=95.0):
    """BA/NBA at least min_pct and equal to the means of the replicate file."""
    header, rows = read_csv(Path(sim_dir) / "scorecard.csv")
    require(len(rows) == 1, "scorecard.csv must hold one cell")
    s = dict(zip(header, map(float, rows[0])))
    rep = Path(sim_dir) / f"replicates_k1_{k1:g}_k2_{k2:g}.csv"
    for key in ("ba", "nba"):
        col = column(rep, key)
        require(len(col) == int(s["replicates"]), "replicate file row count")
        require(close(s[key], float(col.mean())), f"scorecard {key} is not the replicate mean")
        require(s[key] >= min_pct, f"scorecard {key}={s[key]:.2f} below {min_pct}")


def same_bytes(a, b):
    """Two output directories hold the same files with the same bytes."""
    a, b = Path(a), Path(b)
    fa = sorted(p.name for p in a.iterdir() if p.is_file())
    fb = sorted(p.name for p in b.iterdir() if p.is_file())
    require(fa == fb, f"{a.name} and {b.name} hold different files")
    for name in fa:
        require((a / name).read_bytes() == (b / name).read_bytes(),
                f"{name} differs between {a.name} and {b.name}")


def log_det(sample):
    """log|Q| of a recorded assignment by sparse LU, against womble's value."""
    n, rho = sample["n"], sample["rho"]
    borders = np.asarray(sample["borders"], dtype=np.int64).reshape(-1, 2)
    w = np.asarray(sample["w"], dtype=float)
    k, j = borders[:, 0], borders[:, 1]
    deg = np.bincount(k, weights=w, minlength=n) + np.bincount(j, weights=w, minlength=n)
    rows = np.concatenate([np.arange(n), k, j])
    cols = np.concatenate([np.arange(n), j, k])
    vals = np.concatenate([rho * deg + (1.0 - rho), -rho * w, -rho * w])
    lu = splu(csc_matrix((vals, (rows, cols)), shape=(n, n)))
    expected = float(np.sum(np.log(np.abs(lu.U.diagonal()))))
    require(close(sample["log_det"], expected, 1e-9),
            f"log|Q| {sample['log_det']!r}, sparse LU gives {expected!r}")
