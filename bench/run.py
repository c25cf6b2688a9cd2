"""Benchmark of the womble CLI: end-to-end timings, or per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; womble is imported from `src/`.
Inputs are generated from --seed (bench/gen.py); every output is checked
(bench/checks.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--trace 0 repeats rounds of fresh-process commands until S seconds have
passed, and at least MIN_ROUNDS times: a set-up probe (the main command at
two retained draws), the main command, and `womble diagnose`. Each end-to-end
metric is the median over rounds. --trace 1 runs the main command once in a
fresh process for its wall time, then once in-process with tracing
(bench/traced.py) for the per-layer metrics. Scratch files go to `.bench_work/` in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREADS)   # before numpy is imported, here and in children

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKERS = 2
MIN_ROUNDS = 3
TIMEOUT_S = 170

# Protocols. Burn-in and kept draws are per chain; n_perm is the diagnose
# permutation count.
WORKLOADS = {
    "fit16-q1": dict(kind="fit", size=16, metrics="m_inf", chains=2,
                     burnin=2000, keep=2000, n_perm=10000),
    "fit64-q2": dict(kind="fit", size=64, metrics="m_inf,m_noise", chains=2,
                     burnin=500, keep=500, n_perm=2000),
    "blv64": dict(kind="blv", size=64, c2=10.0, chains=2,
                  burnin=500, keep=500, n_perm=2000),
    "sim32": dict(kind="simulate", size=32, k1=0.4, k2=3.0, replicates=8,
                  chains=2, burnin=250, keep=250, n_perm=10000),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "diagnose_s": "s", "diagnose_peak_rss_mb": "MB"}


def _unit(name):
    if name.startswith("ess_per_s."):
        return "1/s"
    if name.startswith("mcmc.ess."):
        return "draws"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_us") or name.endswith("_us_per_iter"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.startswith("mcmc.accept.") or name.endswith("_per_factorization"):
        return "ratio"
    return "count"


PER_LAYER_NAMES = [
    "io.read_s", "io.write_s",
    "graph.build_s", "graph.incidence_s", "graph.coloring_s",
    "graph.border_metrics_s", "graph.evaluate_w_calls", "graph.evaluate_w_us",
    "car.factorizations", "car.distinct_assignments",
    "car.distinct_per_factorization", "car.factorization_us",
    "car.factorization_s", "car.quadform_calls", "car.quadform_us",
    "mcmc.phi_us_per_iter", "mcmc.mu_us_per_iter", "mcmc.tau2_us_per_iter",
    "mcmc.alpha_us_per_iter", "mcmc.alpha_self_us_per_iter",
    "mcmc.loop_self_us_per_iter", "mcmc.alpha_proposals",
    "mcmc.alpha_out_of_support", "mcmc.alpha_same_w",
    "mcmc.accept.phi", "mcmc.accept.tau2", "mcmc.accept.alpha",
    "mcmc.ess.mu", "mcmc.ess.tau2", "mcmc.ess.alpha", "mcmc.ess.boundaries",
    "ess_per_s.mu", "ess_per_s.tau2", "ess_per_s.alpha", "ess_per_s.boundaries",
    "mcmc.dic_s", "boundary.classify_s",
    "diagnostics.moran_s", "diagnostics.perm_bytes",
    "simulate.calibrate_s", "simulate.surface_s", "simulate.task_bytes",
    "simulate.replicate_s", "cli.import_s", "trace.overhead_s",
]
PER_LAYER = {name: _unit(name) for name in PER_LAYER_NAMES}


class Run:
    """One benchmark invocation: its work directory and operation counts."""

    def __init__(self, workload, seed):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.inputs = gen.generate(self.dir / "inputs", self.w["size"], self.w["size"], seed)

    def spawn(self, argv, log):
        """Run a child to completion in its own session; return (wall s, code).

        The wait blocks in waitpid: Popen.wait(timeout=...) polls, which would
        round every wall time up to its 50 ms polling step. A timer kills the
        child's session after TIMEOUT_S instead."""
        with open(self.dir / f"{log}.log", "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *map(str, argv)], cwd=ROOT,
                                    env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            watchdog = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        return wall, code

    def command(self, argv, log):
        """One womble command in a fresh process: (wall s, peak RSS MB)."""
        self.attempted += 1
        report = self.dir / f"{log}.json"
        wall, code = self.spawn([HERE / "launch.py", report, *argv], log)
        if code != 0:
            self.failed += 1
            raise checks.CheckFailed(f"{argv[0]} exited {code}; see {log}.log")
        with open(report) as fh:
            return wall, json.load(fh)["maxrss_kb"] / 1024.0

    # womble argument lists -------------------------------------------------

    def chain_flags(self, seed, workers, probe):
        w = self.w
        if probe and w["kind"] == "simulate":
            return ["--chains", 1, "--burnin", 0, "--keep", 2, "--seed", seed,
                    "--workers", workers]
        burnin, keep = (0, 1) if probe else (w["burnin"], w["keep"])
        return ["--chains", w["chains"], "--burnin", burnin, "--keep", keep,
                "--seed", seed, "--workers", workers]

    def round_seed(self, r):
        """womble --seed of round r: rounds differ in their chains, not inputs."""
        return self.seed * 100 + r

    def main_argv(self, out, seed, workers=WORKERS, probe=False):
        w, inp = self.w, self.inputs
        files = ["--areas", inp / "areas.csv", "--adjacency", inp / "adjacency.csv"]
        if w["kind"] == "fit":
            head = ["fit", *files, "--metrics", w["metrics"]]
        elif w["kind"] == "blv":
            head = ["blv", *files, "--c2", w["c2"]]
        else:
            n = w["size"]
            head = ["simulate", "--k1", w["k1"], "--k2", w["k2"], "--nrows", n,
                    "--ncols", n, "--replicates", 2 if probe else w["replicates"]]
        return [str(a) for a in [*head, *self.chain_flags(seed, workers, probe), "--out", out]]

    def residual_dir(self, main_out):
        """Fits write residuals.csv; for blv and simulate, which do not, the
        residuals of the generated counts at the generated true risk."""
        if self.w["kind"] == "fit":
            return main_out
        out = self.dir / "truth_residuals"
        if not out.exists():
            out.mkdir()
            ids, _, _ = checks.read_inputs(self.inputs)
            t = np.load(self.inputs / "truth.npz")
            mean = t["E"] * t["risk"]
            resid = (t["y"] - mean) / np.sqrt(mean)
            with open(out / "residuals.csv", "w") as fh:
                fh.write("area_id,y,E,R_median,residual\n")
                for k, a in enumerate(ids):
                    row = (float(t["E"][k]), float(t["risk"][k]), float(resid[k]))
                    fh.write(f"{a},{int(t['y'][k])},{row[0]!r},{row[1]!r},{row[2]!r}\n")
        return out

    def diag_argv(self, main_out, out, seed):
        return [str(a) for a in ["diagnose", "--fit-dir", self.residual_dir(main_out),
                                 "--adjacency", self.inputs / "adjacency.csv",
                                 "--n-perm", self.w["n_perm"], "--seed", seed,
                                 "--out", out]]

    # checks ------------------------------------------------------------------

    def check_main(self, out):
        w = self.w
        if w["kind"] == "fit":
            checks.boundary_recovery(out, self.inputs)
            checks.effects_alpha_min(out, self.inputs)
            checks.dic_identity(out)
        elif w["kind"] == "blv":
            checks.blv_rule_b(out, w["c2"], self.inputs)
        else:
            checks.scorecard(out, w["k1"], w["k2"])

    def check_diagnose(self, main_out, diag_out):
        checks.moran(diag_out, self.residual_dir(main_out), self.inputs, self.w["n_perm"])

    # the two kinds of run ------------------------------------------------------

    def warm(self):
        """Import once, so that the first timed command does not pay for cold
        file caches (or for byte-compiling, where that is enabled)."""
        self.spawn(["-c", "import womble.cli"], "warm")

    def timed(self, seconds):
        """Rounds of set-up probe, main command and diagnose. The probe keeps
        one womble seed, so its outputs must repeat byte for byte; the main
        command and diagnose take a new seed each round, so that the median
        is over several chain paths."""
        samples = {k: [] for k in END_TO_END}
        start = time.perf_counter()
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
            setup, main, diag = (self.dir / f"{k}{r}" for k in ("setup", "main", "diag"))
            seed = self.round_seed(r)
            samples["setup_s"].append(
                self.command(self.main_argv(setup, self.seed, probe=True), f"setup{r}")[0])
            wall, rss = self.command(self.main_argv(main, seed), f"main{r}")
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            wall, rss = self.command(self.diag_argv(main, diag, seed), f"diag{r}")
            samples["diagnose_s"].append(wall)
            samples["diagnose_peak_rss_mb"].append(rss)
            self.check_main(main)
            self.check_diagnose(main, diag)
            if r:
                checks.same_bytes(self.dir / "setup0", setup)
            r += 1
        print("rounds: " + json.dumps({k: [round(x, 4) for x in v] for k, v in samples.items()}),
              file=sys.stderr)
        return {k: (statistics.median(v), END_TO_END[k]) for k, v in samples.items()}

    def traced(self):
        seed = self.round_seed(0)
        ref = self.dir / "main_ref"
        wall, _ = self.command(self.main_argv(ref, seed), "main_ref")
        plain, traced, diag = self.dir / "main_plain", self.dir / "main_traced", self.dir / "diag_traced"
        spec = {"warm": self.main_argv(self.dir / "warm", self.seed, workers=1, probe=True),
                "plain": self.main_argv(plain, seed, workers=1),
                "traced": self.main_argv(traced, seed, workers=1),
                "diagnose": self.diag_argv(traced, diag, seed),
                "result": str(self.dir / "layers.json"),
                "spans": str(self.dir / "spans.json")}
        with open(self.dir / "traced_spec.json", "w") as fh:
            json.dump(spec, fh)
        self.attempted += 4
        _, code = self.spawn([HERE / "traced.py", self.dir / "traced_spec.json"], "traced")
        try:
            with open(spec["result"]) as fh:
                m = json.load(fh)
        except FileNotFoundError:
            m = {"codes": [code] * 4}
        self.failed += sum(1 for c in m["codes"] if c != 0)
        if code != 0:
            raise checks.CheckFailed(f"traced run exited {code}; see traced.log")
        self.check_main(traced)
        self.check_diagnose(traced, diag)
        checks.same_bytes(ref, traced)
        checks.same_bytes(plain, traced)
        for sample in m["logdets"]:
            checks.log_det(sample)
        if m["missing"]:
            print("missing spans: " + ", ".join(m["missing"]), file=sys.stderr)
        n, b = self.w["size"] ** 2, 2 * self.w["size"] * (self.w["size"] - 1)
        m["diagnostics.perm_bytes"] = 8 * self.w["n_perm"] * (3 * n + 2 * b)
        for k in ("mu", "tau2", "alpha", "boundaries"):
            m["ess_per_s." + k] = m["mcmc.ess." + k] / wall
        return {k: (m[k], unit) for k, unit in PER_LAYER.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "womble" / "cli.py").is_file():
        print(f"no womble source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    run.warm()
    correct, metrics = True, {}
    try:
        metrics = run.traced() if args.trace else run.timed(args.seconds)
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
