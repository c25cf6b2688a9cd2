"""Self-test of the benchmark's own estimator and checks.

    python3 bench/selftest.py

Checks the ESS estimator against AR(1) series, then makes real womble
outputs at a small protocol, shows that every check passes on them, and shows
that each check fails on a deliberately corrupted copy. Scratch files go to
`.bench_work/selftest/`. Exits 0 when all of this holds.
"""

import csv
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import ess
import gen

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "selftest"


def womble(*argv):
    from womble import cli
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"womble {argv[0]} exited {code}")


def rewrite(path, edit):
    """Apply edit(header, rows) to a CSV in place."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def set_col(name, fn):
    def edit(header, rows):
        i = header.index(name)
        for r in rows:
            r[i] = fn(r, header)
    return edit


def must_fail(label, src, edit, check):
    bad = WORK / f"bad_{label}"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(src, bad)
    edit(bad)
    try:
        check(bad)
    except checks.CheckFailed as exc:
        print(f"  {label}: fails as it should ({exc})")
        return
    raise SystemExit(f"check {label} passed on corrupted output")


def main():
    ess.selftest()
    print("ESS estimator: AR(1) series within 5% of n(1-phi)/(1+phi)")
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    inp = gen.generate(WORK / "inputs", 16, 16, seed=7)
    fit, diag, blv, sim = (WORK / k for k in ("fit", "diag", "blv", "sim"))
    chain = ["--chains", 2, "--burnin", 500, "--keep", 500, "--seed", 7]
    files = ["--areas", inp / "areas.csv", "--adjacency", inp / "adjacency.csv"]
    womble("fit", *files, "--metrics", "m_inf,m_noise", *chain, "--out", fit)
    womble("diagnose", "--fit-dir", fit, "--adjacency", inp / "adjacency.csv",
           "--n-perm", 999, "--out", diag)
    womble("blv", *files, "--c2", 10, *chain, "--out", blv)
    womble("simulate", "--k1", 0.4, "--k2", 3, "--replicates", 2, *chain, "--out", sim)

    checks.boundary_recovery(fit, inp)
    checks.effects_alpha_min(fit, inp)
    checks.dic_identity(fit)
    checks.moran(diag, fit, inp, 999)
    checks.blv_rule_b(blv, 10, inp)
    checks.scorecard(sim, 0.4, 3)
    checks.same_bytes(fit, fit)
    from womble.graph import build_graph, evaluate_w, compute_border_metrics
    from womble.car import build_precision
    _, cols, borders = checks.read_inputs(inp)
    graph = build_graph(borders, area_ids=[str(i) for i in range(256)])
    dis = compute_border_metrics(graph, cols["m_inf"])
    prec = build_precision(evaluate_w(graph, dis, np.array([0.5])), 0.99)
    sample = {"n": graph.n, "borders": graph.borders.tolist(),
              "w": prec.adj.w.tolist(), "rho": 0.99, "log_det": prec.log_det}
    checks.log_det(sample)
    print("every check passes on real output; each must fail when corrupted:")

    must_fail("boundary_recovery", fit,
              lambda d: rewrite(d / "boundary.csv", set_col("is_boundary", lambda r, h: "0")),
              lambda d: checks.boundary_recovery(d, inp))
    must_fail("effects_alpha_min", fit,
              lambda d: rewrite(d / "effects.csv", set_col(
                  "alpha_min", lambda r, h: repr(float(r[h.index("alpha_min")]) * 1.001))),
              lambda d: checks.effects_alpha_min(d, inp))
    must_fail("dic_identity", fit,
              lambda d: rewrite(d / "dic.csv", set_col(
                  "dic", lambda r, h: repr(float(r[h.index("dic")]) + 1e-6))),
              checks.dic_identity)
    must_fail("moran_I", diag,
              lambda d: rewrite(d / "moran.csv", set_col(
                  "I", lambda r, h: repr(float(r[h.index("I")]) + 1e-6))),
              lambda d: checks.moran(d, fit, inp, 999))
    must_fail("moran_p_value", diag,
              lambda d: rewrite(d / "moran.csv", set_col(
                  "p_value", lambda r, h: repr(float(r[h.index("p_value")]) + 1e-4))),
              lambda d: checks.moran(d, fit, inp, 999))

    def swap_flag(d):
        def edit(header, rows):
            ib, iv = header.index("rule_b"), header.index("blv")
            order = sorted(range(len(rows)), key=lambda i: -float(rows[i][iv]))
            top = order[0]
            low = order[-1]
            rows[top][ib], rows[low][ib] = "0", "1"
        rewrite(d / "blv.csv", edit)
    must_fail("blv_rule_b_order", blv, swap_flag, lambda d: checks.blv_rule_b(d, 10, inp))
    must_fail("blv_rule_b_count", blv,
              lambda d: rewrite(d / "blv.csv", set_col("rule_b", lambda r, h: "1")),
              lambda d: checks.blv_rule_b(d, 10, inp))
    must_fail("scorecard_mean", sim,
              lambda d: rewrite(d / "scorecard.csv", set_col(
                  "ba", lambda r, h: repr(float(r[h.index("ba")]) - 0.5))),
              lambda d: checks.scorecard(d, 0.4, 3))
    must_fail("scorecard_low", sim,
              lambda d: [rewrite(f, set_col("ba", lambda r, h: "50.0"))
                         for f in (d / "scorecard.csv", d / "replicates_k1_0.4_k2_3.csv")],
              lambda d: checks.scorecard(d, 0.4, 3))
    must_fail("same_bytes", fit,
              lambda d: (d / "risk.csv").write_bytes((d / "risk.csv").read_bytes() + b"\n"),
              lambda d: checks.same_bytes(fit, d))
    sample["log_det"] *= 1.0 + 1e-7
    try:
        checks.log_det(sample)
    except checks.CheckFailed as exc:
        print(f"  log_det: fails as it should ({exc})")
    else:
        raise SystemExit("check log_det passed on a corrupted value")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
