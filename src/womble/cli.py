"""Command-line pipeline: fit, simulate, diagnose, blv.

Exit codes: 0 success, 2 validation, 3 I/O, 4 numeric failure. Errors are
reported on stderr as a single line `CLASS: message`. A failed command
removes the directories of `--out` that it created, while they hold no file.

Every flag, required ones too, can also be supplied through `--config FILE`
holding `key=value` lines (keys are the long flag names, dashes or
underscores); explicit flags override the file. A key that no subcommand has,
or a required flag that neither gives, is a validation error; a key that only
another subcommand has is ignored, so one file can serve several.
"""

import argparse
import contextlib
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io, simulate
from .boundary import (blv, blv_rule_a, blv_rule_b, check_rule_b,
                       classify_boundaries, classify_effect)
from .diagnostics import moran_permutation_test, pearson_residuals
from .errors import NumericError, ValidationError
from .graph import alpha_min, build_graph, compute_border_metrics
from .mcmc import (ChainConfig, ObservedData, alpha_upper_bounds, dic,
                   median_interval, run_chains)
from .simulate import SimConfig, five_block_partition, lattice_graph, run_study


def _add_chain_flags(p):
    p.add_argument("--chains", type=int, default=5, help="number of MCMC chains")
    p.add_argument("--burnin", type=int, default=40000, dest="burnin",
                   help="burn-in iterations per chain")
    p.add_argument("--keep", type=int, default=10000,
                   help="post-burn-in iterations per chain")
    p.add_argument("--thin", type=int, default=1, help="thinning interval")
    p.add_argument("--seed", type=int, default=0, help="top-level seed")
    p.add_argument("--max-boundary-fraction", type=float, default=0.5,
                   help="prior cap on the classifiable boundary fraction")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width (results are identical either way)")
    p.add_argument("--verbose", action="store_true",
                   help="echo resolved settings and every file written")


def _add_common_io(p):
    p.add_argument("--areas", required=True, help="areas CSV: area_id,y,E,<metrics...>")
    p.add_argument("--adjacency", required=True,
                   help="border pair list or 0/1 matrix CSV")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="womble",
        description="Boundary detection in areal disease-risk surfaces")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the boundary model to observed data")
    _add_common_io(fit)
    fit.add_argument("--geojson", default=None,
                     help="optional FeatureCollection keyed by area_id")
    fit.add_argument("--metrics", default=None,
                     help="comma-separated dissimilarity columns (default: all)")
    _add_chain_flags(fit)
    fit.add_argument("--baseline-blv", default=None, metavar="RULES",
                     help="also fit the all-borders baseline and write blv.csv; "
                          "RULES like 'c2=10' or 'c1=0.5,c2=20'")

    sim = sub.add_parser("simulate", help="run the simulation-study scorecard")
    sim.add_argument("--k1", default="0.4", help="comma list of mean offsets")
    sim.add_argument("--k2", default="3", help="comma list of metric separations")
    sim.add_argument("--nrows", type=int, default=16)
    sim.add_argument("--ncols", type=int, default=16)
    sim.add_argument("--replicates", type=int, default=20)
    sim.add_argument("--expected", type=float, default=100.0,
                     help="constant expected count per area")
    sim.add_argument("--expected-csv", default=None,
                     help="per-area expected counts: CSV `area_id,E` keyed by "
                          "the lattice ids (overrides --expected)")
    sim.add_argument("--field-sd", type=float, default=0.2,
                     help="marginal SD of the Gaussian log-risk field")
    sim.add_argument("--target-median-corr", type=float, default=0.5)
    sim.add_argument("--kappa", type=float, default=2.5)
    sim.add_argument("--out", required=True)
    _add_chain_flags(sim)

    diag = sub.add_parser("diagnose", help="Moran's I permutation test on a fit")
    diag.add_argument("--fit-dir", required=True,
                      help="output directory of a completed fit")
    diag.add_argument("--adjacency", required=True)
    diag.add_argument("--n-perm", type=int, default=10000)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--out", default=None,
                      help="output directory (default: the fit directory)")

    blv_p = sub.add_parser("blv", help="BLV baseline with rule (a)/(b) flags")
    _add_common_io(blv_p)
    blv_p.add_argument("--c1", type=float, default=None, help="rule (a) cutoff")
    blv_p.add_argument("--c2", type=float, default=None, help="rule (b) top percent")
    _add_chain_flags(blv_p)
    # argparse would not count a --config file's defaults, so main checks the
    # required flags once they apply; each usage still marks them
    parser.required_flags = {}
    for name, p in sub.choices.items():
        p.usage = p.format_usage().removeprefix("usage: ").rstrip()
        parser.required_flags[name] = [a for a in p._actions if a.required]
        for action in parser.required_flags[name]:
            action.required = False
    return parser


def _apply_config_file(argv, parser):
    """Fold --config key=value defaults into the parse."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    overrides = {}
    with open(known.config) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{known.config}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            overrides[key.strip().replace("-", "_")] = value.strip()
    commands = parser._subparsers._group_actions[0].choices.values()
    unknown = sorted(set(overrides) - {a.dest for action in commands
                                       for a in action._actions} - {"help"})
    if unknown:
        raise ValidationError(f"{known.config}: unknown key(s) "
                              f"{', '.join(unknown)}: no subcommand has such a flag")
    # inject as defaults on every subparser that knows the key
    for command in commands:
        usable = {}
        for act in command._actions:
            k, v = act.dest, overrides.get(act.dest)
            if v is None:
                continue
            if act.type:
                usable[k] = _number(act.type, v, f"{known.config}: {k}")
            elif isinstance(act.const, bool):
                if v.lower() not in ("true", "false", "1", "0"):
                    raise ValidationError(f"{known.config}: {k} must be true/false")
                usable[k] = v.lower() in ("true", "1")
            else:
                usable[k] = v
        command.set_defaults(**usable)


def _chain_config(args) -> ChainConfig:
    return ChainConfig(
        n_chains=args.chains, burn_in=args.burnin, keep=args.keep,
        thin=args.thin, seed=args.seed,
        max_boundary_fraction=args.max_boundary_fraction,
        workers=args.workers)


def _load_graph(args, area_ids):
    return build_graph(io.read_adjacency(args.adjacency, area_ids), area_ids=area_ids)


def _fit_outputs(out, samples, data, graph, dis, polygons):
    # phi is read back before the first write, so a failed read leaves no file
    risk = samples.risk_summary()
    io.write_posterior_summary(samples, out / "posterior_summary.csv")
    io.write_risk_csv(graph.area_ids, risk.median, risk.lo, risk.hi, out / "risk.csv")
    bset = classify_boundaries(samples)
    io.write_boundary_csv(bset, blv(risk.median, graph).values, out / "boundary.csv")
    if dis is not None:
        # (metric, median, lo, hi, alpha_min, verdict) per metric
        alpha = samples.pooled("alpha").T
        mins = [alpha_min(dis, i) for i in range(dis.q)]
        verdicts = [classify_effect(a, m) for a, m in zip(alpha, mins)]
        io.write_effects_csv(zip(dis.metric_names, *median_interval(alpha), mins,
                                 verdicts), out / "effects.csv")
    io.write_dic_csv(dic(samples.pooled("deviance"), risk.mean, data), out / "dic.csv")
    resid = pearson_residuals(data.y, data.E, risk.median)
    io.write_residuals_csv(graph.area_ids, data.y, data.E, risk.median, resid,
                           out / "residuals.csv")
    if polygons is not None:
        io.write_boundary_geojson(graph, polygons, bset, out / "boundary_overlay.geojson")
    return bset


def cmd_fit(args) -> int:
    config = _chain_config(args)
    rules = _parse_rules(args.baseline_blv) if args.baseline_blv else None
    metric_cols = None
    if args.metrics is not None:
        metric_cols = [c for c in args.metrics.split(",") if c]
    ids, y, E, metrics = io.read_areas_csv(args.areas, metric_cols)
    graph = _load_graph(args, ids)
    polygons = io.read_geojson_polygons(args.geojson, ids) if args.geojson else None
    data = ObservedData(y=y, E=E)
    dis = None
    if metrics:
        cov = np.column_stack([metrics[c] for c in metrics])
        dis = compute_border_metrics(graph, cov, metric_names=list(metrics))
        alpha_upper_bounds(dis, config.max_boundary_fraction)   # a zero bound exits 2 here
    if dis is not None and config.n_chains * (config.keep // config.thin) < 2:
        # checked before sampling: the effect verdicts need two pooled draws
        raise ValidationError("metric effect verdicts need at least 2 retained "
                              "draws in total (chains x keep // thin): raise "
                              "--keep or --chains")
    out = io.ensure_outdir(args.out)
    if args.verbose:
        print(f"fit: {config.n_chains} chains x ({config.burn_in} burn-in "
              f"+ {config.keep} keep), seed={config.seed}, "
              f"metrics={list(metrics) or None}")
    samples = run_chains(data, graph, dis, config, deviance=True)
    bset = _fit_outputs(out, samples, data, graph, dis, polygons)
    if args.verbose:
        for name in sorted(p.name for p in out.iterdir()):
            print(f"fit: wrote {out / name}")
    print(f"fit: n={graph.n} borders={graph.n_borders} "
          f"components={graph.n_components} boundaries={bset.boundary_count}")
    if rules:
        _run_blv_baseline(out, data, graph, config, rules)
    return 0


def _parse_rules(rules_text: str) -> dict:
    rules = {}
    for part in rules_text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValidationError(f"bad rule {part!r}: expected c1=... or c2=...")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("c1", "c2"):
            raise ValidationError(f"unknown BLV rule {key!r}")
        rules[key] = _number(float, value.strip(), f"--baseline-blv {key}")
    return _check_blv_rules(rules, "--baseline-blv {}")


def _check_blv_rules(rules: dict, flag: str) -> dict:
    """The BLV rules {c1, c2} given by `flag` (a format for the rule's name):
    at least one, a finite rule (a) cutoff, a rule (b) percentage in (0, 100]."""
    if not rules:
        raise ValidationError(f"no BLV rule given: set {flag.format('c1')}, "
                              f"{flag.format('c2')} or both")
    if "c1" in rules and not math.isfinite(rules["c1"]):
        raise ValidationError(f"{flag.format('c1')} must be finite")
    if "c2" in rules:
        check_rule_b(rules["c2"])
    return rules


def _number(kind, text: str, name: str):
    """kind(text), or a ValidationError naming the key or flag."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{name}: {text!r} is not a valid "
                              f"{kind.__name__}") from None


def _run_blv_baseline(out, data, graph, config, rules):
    # baseline smoother: without metrics the model keeps every border
    samples = run_chains(data, graph, None, config)
    res = blv(samples.risk_summary().median, graph)
    fa = blv_rule_a(res, rules["c1"]) if "c1" in rules else None
    fb = blv_rule_b(res, rules["c2"]) if "c2" in rules else None
    io.write_blv_csv(res, out / "blv.csv", rule_a_flags=fa, rule_b_flags=fb)
    flagged = [int(f.sum()) for f in (fa, fb) if f is not None]
    print(f"blv: baseline computed, flags={flagged}")


def cmd_simulate(args) -> int:
    chain_cfg = _chain_config(args)
    k1s = [_number(float, v, "--k1") for v in str(args.k1).split(",") if v != ""]
    k2s = [_number(float, v, "--k2") for v in str(args.k2).split(",") if v != ""]
    if not k1s or not k2s:
        raise ValidationError("--k1 and --k2 must list at least one value")
    graph = lattice_graph(args.nrows, args.ncols)
    labels = five_block_partition(args.nrows, args.ncols)
    expected = _expected_counts(args, graph)
    # every cell is checked before the first one runs
    configs = [SimConfig(graph=graph, true_partition=labels, k1=k1, k2=k2,
                         kappa=args.kappa,
                         target_median_correlation=args.target_median_corr,
                         field_sd=args.field_sd, E=expected,
                         replicates=args.replicates)
               for k1, k2 in itertools.product(k1s, k2s)]
    cells = {}   # detail file name -> (k1, k2); :g keeps 6 significant digits
    for k1, k2 in itertools.product(k1s, k2s):
        detail = f"replicates_k1_{k1:g}_k2_{k2:g}.csv"
        if detail in cells:
            raise ValidationError(f"cells (k1, k2) = {cells[detail]} and "
                                  f"{(k1, k2)} would both write {detail}")
        cells[detail] = k1, k2
    # every cell shares one surface; set up here, a NumericError exits
    # before --out exists. It goes through the module so that a wrapper on
    # simulate._prepare (bench/traced.py) times the set-up.
    surface = simulate._prepare(configs[0])
    out = io.ensure_outdir(args.out)
    scores = []
    for detail, config in zip(cells, configs):
        k1, k2 = config.k1, config.k2
        if args.verbose:
            print(f"simulate: cell k1={k1:g} k2={k2:g} "
                  f"lattice={args.nrows}x{args.ncols} reps={args.replicates}")
        score = run_study(config, chain_cfg, surface=surface)
        scores.append(score)
        io.write_replicates_csv(score, out / detail)
        if args.verbose:
            print(f"simulate: wrote {out / detail}")
        print(f"simulate: k1={k1:g} k2={k2:g} BA={score.ba:.2f} NBA={score.nba:.2f}")
    io.write_scorecard_csv(scores, out / "scorecard.csv")
    return 0


def _expected_counts(args, graph):
    if not getattr(args, "expected_csv", None):
        return args.expected
    path = args.expected_csv
    header, rows = io.read_table(path)
    if header != ["area_id", "E"]:
        raise ValidationError(f"{path}: expected header area_id,E")
    known = set(graph.area_ids)
    by_id = {}
    for i, row in enumerate(rows):
        if "E" not in row:
            raise ValidationError(f"{path}: row {i + 2} has fewer than 2 fields")
        area = row["area_id"]
        if area not in known or area in by_id:
            problem = "duplicate" if area in by_id else "unknown"
            raise ValidationError(f"{path}: {problem} area_id {area!r} (row {i + 2})")
        e = _number(float, row["E"], f"{path}: E in row {i + 2}")
        if not 0 < e < np.inf:
            raise ValidationError(f"{path}: E must be finite and positive (row {i + 2})")
        by_id[area] = e
    try:
        values = np.array([by_id[a] for a in graph.area_ids])
    except KeyError as exc:
        raise ValidationError(
            f"{path}: missing E for area {exc.args[0]!r}") from None
    return values


def cmd_diagnose(args) -> int:
    fit_dir = Path(args.fit_dir)
    ids, y, E, r_med, resid = io.read_residuals_csv(fit_dir / "residuals.csv")
    graph = _load_graph(args, ids)
    result = moran_permutation_test(resid, graph, n_perm=args.n_perm,
                                    seed=args.seed)
    out = io.ensure_outdir(args.out) if args.out else fit_dir
    io.write_moran_csv(result, out / "moran.csv")
    print(f"diagnose: I={result.I:.4f} p={result.p_value:.4f}")
    return 0


def cmd_blv(args) -> int:
    config = _chain_config(args)
    rules = _check_blv_rules({k: getattr(args, k) for k in ("c1", "c2")
                              if getattr(args, k) is not None}, "--{}")
    ids, y, E, _ = io.read_areas_csv(args.areas, metric_columns=[])
    graph = _load_graph(args, ids)
    data = ObservedData(y=y, E=E)
    _run_blv_baseline(io.ensure_outdir(args.out), data, graph, config, rules)
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "diagnose": cmd_diagnose,
    "blv": cmd_blv,
}


def _absent_dirs(out) -> list:
    """`out` and those of its parents that do not exist yet, deepest first."""
    path = Path(out or ".")
    return list(itertools.takewhile(lambda p: not os.path.exists(p),
                                    [path, *path.parents]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    code, absent = None, []
    try:
        _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        missing = [a.option_strings[0] for a in parser.required_flags[args.command]
                   if getattr(args, a.dest) is None]
        if missing:
            raise ValidationError(f"missing required flag(s): {', '.join(missing)}")
        absent = _absent_dirs(args.out)
        code = _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"VALIDATION: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"IO: {exc}", file=sys.stderr)
        code = 3
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"NUMERIC: {exc}", file=sys.stderr)
        code = 4
    finally:
        if code != 0:
            for path in absent:
                with contextlib.suppress(OSError):
                    path.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
