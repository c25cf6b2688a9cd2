"""Traced in-process run of one workload, for the per-layer metrics.

    python3 bench/traced.py SPEC.json

SPEC holds `warm`, `plain` and `traced` (womble argument lists; `warm` is
the set-up probe, the other two the same command with different output
directories), `diagnose` (arguments or null), `result` and `spans` (paths to
write). The run imports womble.cli (timed as `cli.import_s`), runs `warm` so
that first-call costs fall outside both timings, runs `plain` without
tracing, then wraps the functions in PATCHES and runs `traced` and
`diagnose`. Nothing in womble is changed: each
wrapper is installed in the module that looks the name up (mcmc calls
`build_precision` and `evaluate_w` through its own imports, so they are
patched in `womble.mcmc`), and records a span (name, start, end, parent).

Spans of a function that no longer exists are listed under `missing`.
"""

import importlib
import json
import pickle
import sys
import time
from functools import wraps

import numpy as np

from ess import ess

# (module, attribute, span name); a dotted attribute patches a class member
PATCHES = [
    ("womble.io", "read_areas_csv", "io.read"),
    ("womble.io", "read_adjacency", "io.read"),
    ("womble.io", "read_geojson_polygons", "io.read"),
    ("womble.io", "read_residuals_csv", "io.read"),
    ("womble.io", "write_posterior_summary", "io.write"),
    ("womble.io", "write_risk_csv", "io.write"),
    ("womble.io", "write_boundary_csv", "io.write"),
    ("womble.io", "write_effects_csv", "io.write"),
    ("womble.io", "write_dic_csv", "io.write"),
    ("womble.io", "write_residuals_csv", "io.write"),
    ("womble.io", "write_moran_csv", "io.write"),
    ("womble.io", "write_blv_csv", "io.write"),
    ("womble.io", "write_scorecard_csv", "io.write"),
    ("womble.io", "write_replicates_csv", "io.write"),
    ("womble.io", "write_boundary_geojson", "io.write"),
    ("womble.cli", "build_graph", "graph.build"),
    ("womble.cli", "lattice_graph", "graph.build"),
    ("womble.graph", "AreaGraph.incidence", "graph.incidence"),
    ("womble.graph", "AreaGraph.coloring", "graph.coloring"),
    ("womble.cli", "compute_border_metrics", "graph.border_metrics"),
    ("womble.graph", "DissimilarityData.from_border_values", "graph.border_metrics"),
    ("womble.mcmc", "evaluate_w", "graph.evaluate_w"),
    ("womble.mcmc", "build_precision", "car.factorize"),
    ("womble.mcmc", "precision_quadform", "car.quadform"),
    ("womble.cli", "run_chains", "mcmc.run_chains"),
    ("womble.simulate", "run_chains", "mcmc.run_chains"),
    ("womble.mcmc", "_run_chain", "mcmc.chain"),
    ("womble.mcmc", "update_phi", "mcmc.phi"),
    ("womble.mcmc", "update_mu", "mcmc.mu"),
    ("womble.mcmc", "update_tau2", "mcmc.tau2"),
    ("womble.mcmc", "update_alpha", "mcmc.alpha"),
    ("womble.cli", "dic", "mcmc.dic"),
    ("womble.cli", "classify_boundaries", "boundary.classify"),
    ("womble.simulate", "classify_boundaries", "boundary.classify"),
    ("womble.cli", "moran_permutation_test", "diagnostics.moran"),
    ("womble.cli", "run_study", "simulate.study"),
    ("womble.simulate", "calibrate_range", "simulate.calibrate"),
    ("womble.simulate", "_prepare", "simulate.prepare"),
    ("womble.simulate", "_replicate_result", "simulate.replicate"),
]

LOGDET_SAMPLES = 8       # factorizations kept for the independent log|Q| check
LOGDET_STRIDE = 397     # prime, so the samples fall at different points of a chain


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.after = {}        # span name -> hook(args, kwargs, result, span index)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = self.after.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, sid)
            return result
        return wrapper

    def install(self):
        """Patch every target; return the names of targets that are missing."""
        missing = []
        for modname, attr, name in PATCHES:
            mod = importlib.import_module(modname)
            owner, _, member = attr.rpartition(".")
            target = getattr(mod, owner, None) if owner else mod
            raw = None if target is None else (
                target.__dict__.get(member) if owner else getattr(target, member, None))
            if raw is None:
                missing.append(f"{modname}.{attr}")
            elif owner and hasattr(raw, "func") and hasattr(raw, "attrname"):
                raw.func = self.wrap(name, raw.func)          # cached_property
            elif owner and isinstance(raw, staticmethod):
                setattr(target, member, staticmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(target, member, self.wrap(name, raw))
        return missing


class Recorder:
    """Counts and samples taken at span boundaries."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.assignments = {}      # chain span index -> set of w digests
        self.factorizations = 0
        self.logdets = []
        self.draws = []            # per run_chains call: dict of arrays
        self.task_bytes = 0
        tracer.after.update({"car.factorize": self.on_factorize,
                             "mcmc.run_chains": self.on_samples,
                             "simulate.study": self.on_study})

    def _chain_of(self, sid):
        spans = self.tracer.spans
        while sid >= 0 and spans[sid][0] != "mcmc.chain":
            sid = spans[sid][3]
        return sid

    def on_factorize(self, args, kwargs, prec, sid):
        w = prec.adj.w
        self.assignments.setdefault(self._chain_of(sid), set()).add(w.tobytes())
        if (self.factorizations % LOGDET_STRIDE == 0
                and len(self.logdets) < LOGDET_SAMPLES):
            graph = prec.adj.graph
            self.logdets.append({"n": graph.n, "borders": graph.borders.tolist(),
                                 "w": w.tolist(), "rho": prec.rho,
                                 "log_det": prec.log_det})
        self.factorizations += 1

    def on_samples(self, args, kwargs, samples, sid):
        self.draws.append({
            "mu": samples.mu, "tau2": samples.tau2, "alpha": samples.alpha,
            "boundaries": (samples.w == 0).sum(axis=2),
            "accept_phi": float(np.mean(samples.acceptance["phi"])),
            "accept_tau2": float(np.mean(samples.acceptance["tau2"])),
            "accept_alpha": (float(np.mean(samples.acceptance["alpha"]))
                             if samples.acceptance["alpha"].size else 0.0),
        })

    def on_study(self, args, kwargs, score, sid):
        config, chain_config = args[0], args[1]
        self.task_bytes = len(pickle.dumps((config, chain_config, 0)))


def _by_name(spans):
    out = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        out.setdefault(name, []).append(i)
    return out


def layer_metrics(spans, rec, missing):
    names = _by_name(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def total(name):
        return sum(dur[i] for i in names.get(name, ()))

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in names.get(name, ()))

    def count(name, parent=None):
        ids = names.get(name, ())
        if parent is None:
            return len(ids)
        return sum(1 for i in ids if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent)

    def per_call_us(name):
        c = count(name)
        return 1e6 * total(name) / c if c else 0.0

    iters = count("mcmc.phi")
    per_iter = lambda t: 1e6 * t / iters if iters else 0.0
    blocks = ("mcmc.phi", "mcmc.mu", "mcmc.tau2", "mcmc.alpha")
    factorizations = count("car.factorize")
    distinct = sum(len(v) for v in rec.assignments.values())
    q = int(rec.draws[0]["alpha"].shape[2]) if rec.draws else 0
    proposals = count("mcmc.alpha") * q
    w_evals = count("graph.evaluate_w", parent="mcmc.alpha")

    m = {
        "io.read_s": total("io.read"),
        "io.write_s": total("io.write"),
        "graph.build_s": total("graph.build"),
        "graph.incidence_s": total("graph.incidence"),
        "graph.coloring_s": self_time("graph.coloring"),
        "graph.border_metrics_s": total("graph.border_metrics"),
        "graph.evaluate_w_calls": count("graph.evaluate_w"),
        "graph.evaluate_w_us": per_call_us("graph.evaluate_w"),
        "car.factorizations": factorizations,
        "car.distinct_assignments": distinct,
        "car.distinct_per_factorization": distinct / factorizations if factorizations else 0.0,
        "car.factorization_us": per_call_us("car.factorize"),
        "car.factorization_s": total("car.factorize"),
        "car.quadform_calls": count("car.quadform"),
        "car.quadform_us": per_call_us("car.quadform"),
        "mcmc.phi_us_per_iter": per_iter(total("mcmc.phi")),
        "mcmc.mu_us_per_iter": per_iter(total("mcmc.mu")),
        "mcmc.tau2_us_per_iter": per_iter(total("mcmc.tau2")),
        "mcmc.alpha_us_per_iter": per_iter(total("mcmc.alpha")),
        "mcmc.alpha_self_us_per_iter": per_iter(self_time("mcmc.alpha")),
        "mcmc.loop_self_us_per_iter": per_iter(
            total("mcmc.chain") - sum(total(b) for b in blocks)),
        "mcmc.alpha_proposals": proposals,
        "mcmc.alpha_out_of_support": proposals - w_evals,
        "mcmc.alpha_same_w": w_evals - count("car.factorize", parent="mcmc.alpha"),
        "mcmc.dic_s": total("mcmc.dic"),
        "boundary.classify_s": total("boundary.classify"),
        "simulate.calibrate_s": total("simulate.calibrate"),
        "simulate.surface_s": self_time("simulate.prepare"),
        "simulate.task_bytes": rec.task_bytes,
        "simulate.replicate_s": (total("simulate.replicate") / count("simulate.replicate")
                                 if count("simulate.replicate") else 0.0),
    }
    for key in ("accept_phi", "accept_tau2", "accept_alpha"):
        vals = [d[key] for d in rec.draws]
        m["mcmc.accept." + key[7:]] = float(np.mean(vals)) if vals else 0.0
    # ESS summed over run_chains calls (one per fit, one per replicate)
    ess_sum = {"mu": 0.0, "tau2": 0.0, "alpha": 0.0, "boundaries": 0.0}
    for d in rec.draws:
        ess_sum["mu"] += ess(d["mu"])
        ess_sum["tau2"] += ess(d["tau2"])
        a = d["alpha"]
        ess_sum["alpha"] += (min(ess(a[:, :, i]) for i in range(a.shape[2]))
                             if a.shape[2] else float(a.shape[0] * a.shape[1]))
        ess_sum["boundaries"] += ess(d["boundaries"])
    for k, v in ess_sum.items():
        m["mcmc.ess." + k] = v
    m["missing"] = missing
    return m


def run(spec):
    t0 = time.perf_counter()
    from womble import cli
    import_s = time.perf_counter() - t0

    codes = [cli.main(spec["warm"])]
    t0 = time.perf_counter()
    codes.append(cli.main(spec["plain"]))
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    rec = Recorder(tracer)
    missing = tracer.install()
    t0 = time.perf_counter()
    codes.append(cli.main(spec["traced"]))
    traced_s = time.perf_counter() - t0
    main_end = len(tracer.spans)
    if spec.get("diagnose"):
        codes.append(cli.main(spec["diagnose"]))

    # layers of the main command only; the Moran test from the diagnose run
    m = layer_metrics(tracer.spans[:main_end], rec, missing)
    m["diagnostics.moran_s"] = sum(t1 - t0 for name, t0, t1, _ in tracer.spans[main_end:]
                                   if name == "diagnostics.moran")
    m["cli.import_s"] = import_s
    m["trace.overhead_s"] = traced_s - plain_s
    m["codes"] = codes
    m["logdets"] = rec.logdets
    with open(spec["result"], "w") as fh:
        json.dump(m, fh)
    with open(spec["spans"], "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        sys.exit(run(json.load(fh)))
