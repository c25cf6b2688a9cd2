"""File formats: areas/adjacency CSV input, GeoJSON geometry, result writers.

Numeric output uses repr() of Python floats: full double precision, '.'
decimal separator, locale-independent, and byte-stable across reruns. The
writers turn whole columns into Python values (bools become ints), which
csv formats with str(), the same as repr() for a float.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

from .boundary import BoundarySet, boundary_segments
from .errors import ValidationError
from .graph import AreaGraph
from .mcmc import DicResult, PosteriorSamples, effective_sample_size


def _py(a):
    """An array, or a scalar, as Python ints (from bools and integers) or
    floats: a list, or one value."""
    a = np.asarray(a)
    return a.astype(np.int64 if a.dtype.kind in "biu" else float).tolist()


def _write_rows(path, header, rows):
    """Write `rows` (an iterable of rows of str, int and float cells)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _border_ids(graph: AreaGraph):
    """The two area ids of each border, as two lists."""
    ids = graph.area_ids
    return ([ids[k] for k in graph.borders[:, 0].tolist()],
            [ids[j] for j in graph.borders[:, 1].tolist()])


def read_table(path):
    """Generic CSV re-parser: (header, list of row dicts with string values)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


def read_areas_csv(path, metric_columns=None):
    """Read the areas file: header `area_id,y,E,<metric columns...>`.

    Returns (area_ids, y, E, metrics) with metrics an ordered dict of
    column name -> float array. `metric_columns` selects and orders a subset;
    a missing selected column is a validation error.
    """
    header, rows = read_table(path)
    if len(header) < 3 or header[:3] != ["area_id", "y", "E"]:
        raise ValidationError(f"{path}: header must start with area_id,y,E")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    available = header[3:]
    if metric_columns is None:
        selected = list(available)
    else:
        selected = list(metric_columns)
        for c in selected:
            if c not in available:
                raise ValidationError(f"{path}: metric column {c!r} not present")
    ids, y, E = [], [], []
    metrics = {c: [] for c in selected}
    for i, row in enumerate(rows):
        if any(row.get(c, "") == "" for c in ["area_id", "y", "E"] + selected):
            raise ValidationError(f"{path}: missing value in row {i + 2}")
        ids.append(row["area_id"])
        try:
            yv = float(row["y"])
            ev = float(row["E"])
            for c in selected:
                metrics[c].append(float(row[c]))
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric value in row {i + 2}: {exc}") from None
        # comparisons with nan are false, and inf is not an integer
        if not (yv >= 0 and yv.is_integer()):
            raise ValidationError(f"{path}: y must be non-negative integer (row {i + 2})")
        if not (0 < ev < math.inf):
            raise ValidationError(f"{path}: E must be finite and positive (row {i + 2})")
        y.append(int(yv))
        E.append(ev)
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate area_id")
    return (ids, np.array(y, dtype=float), np.array(E, dtype=float),
            {c: np.array(v, dtype=float) for c, v in metrics.items()})


def read_adjacency(path, area_ids):
    """Read a border-pair list or square 0/1 matrix; auto-detected by shape.

    A file with exactly n rows of n fields, all 0/1, is a matrix (rows in
    areas-file order); anything else is a pair list of area ids with an
    optional `area_id_1,area_id_2` header. Returns input for build_graph.
    """
    n = len(area_ids)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise ValidationError(f"{path}: empty adjacency file")
    stripped = [[c.strip() for c in row] for row in rows]
    if (len(stripped) == n and all(len(r) == n for r in stripped)
            and all(c in ("0", "1") for r in stripped for c in r)):
        return np.array([[int(c) for c in r] for r in stripped], dtype=np.int64)
    body = stripped
    if body and [c.lower() for c in body[0]] == ["area_id_1", "area_id_2"]:
        body = body[1:]
    index = {a: i for i, a in enumerate(area_ids)}
    pairs = []
    for i, row in enumerate(body):
        if len(row) != 2:
            raise ValidationError(f"{path}: pair row {i + 1} must have two fields")
        try:
            pairs.append((index[row[0]], index[row[1]]))
        except KeyError as exc:
            raise ValidationError(f"{path}: unknown area_id {exc.args[0]!r}") from None
    if not pairs:
        raise ValidationError(f"{path}: no border pairs")
    return np.array(pairs, dtype=np.int64)


def read_geojson_polygons(path, area_ids):
    """Polygon rings per area from a FeatureCollection keyed by `area_id`.

    Areas without a feature get None and are skipped by the overlay writer.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ValidationError(f"{path}: expected a GeoJSON FeatureCollection")
    by_id = {}
    for i, feat in enumerate(doc.get("features", [])):
        try:
            aid = (feat.get("properties") or {}).get("area_id")
            geom = feat.get("geometry") or {}
            gtype, coords = geom.get("type"), geom.get("coordinates")
            if gtype == "Polygon":
                rings = list(coords)
            elif gtype == "MultiPolygon":
                rings = [ring for poly in coords for ring in poly]
        except (AttributeError, TypeError):
            raise ValidationError(
                f"{path}: feature {i} is malformed: expected an object whose "
                "geometry holds coordinates") from None
        if aid is None:
            raise ValidationError(f"{path}: feature {i} has no properties.area_id")
        if gtype not in ("Polygon", "MultiPolygon"):
            raise ValidationError(
                f"{path}: feature {i} has unsupported geometry type {gtype!r}")
        by_id[str(aid)] = rings
    return [by_id.get(a) for a in area_ids]


# ---------------------------------------------------------------------------
# result writers

def write_posterior_summary(samples: PosteriorSamples, path):
    """`param,chain,median,mean,ci2.5,ci97.5,ess`, per chain plus pooled."""
    names = ["mu", "tau2"]
    series = [samples.mu, samples.tau2]
    if samples.dis is not None:
        for i, mname in enumerate(samples.dis.metric_names):
            names.append(f"alpha_{mname}")
            series.append(samples.alpha[:, :, i])
    names.append("deviance")
    series.append(samples.deviance)
    rows = []
    for name, arr in zip(names, series):
        for c in range(arr.shape[0]):
            x = arr[c]
            rows.append([name, str(c), *map(_py, (
                np.median(x), x.mean(), np.percentile(x, 2.5),
                np.percentile(x, 97.5), effective_sample_size(x[None, :])))])
        pooled = arr.reshape(-1)
        rows.append([name, "all", *map(_py, (
            np.median(pooled), pooled.mean(), np.percentile(pooled, 2.5),
            np.percentile(pooled, 97.5), effective_sample_size(arr)))])
    _write_rows(path, ["param", "chain", "median", "mean", "ci2.5", "ci97.5", "ess"],
                rows)


def write_risk_csv(area_ids, med, lo, hi, path):
    _write_rows(path, ["area_id", "R_median", "R_ci2.5", "R_ci97.5"],
                zip(area_ids, _py(med), _py(lo), _py(hi)))


def write_boundary_csv(bset: BoundarySet, blv_values, path):
    _write_rows(path, ["area_id_1", "area_id_2", "w_median", "w_mean",
                       "is_boundary", "blv"],
                zip(*_border_ids(bset.graph), _py(bset.w_median),
                    _py(bset.w_mean), _py(bset.is_boundary),
                    _py(blv_values)))


def write_effects_csv(rows, path):
    """rows: (metric, estimate, lo, hi, alpha_min, verdict)."""
    _write_rows(path, ["metric", "estimate", "ci2.5", "ci97.5", "alpha_min",
                       "verdict"],
                [[m, *map(_py, (e, lo, hi, am)), v]
                 for m, e, lo, hi, am, v in rows])


def write_dic_csv(res: DicResult, path):
    _write_rows(path, ["dic", "p_d", "mean_deviance"],
                [list(map(_py, (res.dic, res.p_d, res.mean_deviance)))])


def write_residuals_csv(area_ids, y, E, r_median, residuals, path):
    _write_rows(path, ["area_id", "y", "E", "R_median", "residual"],
                zip(area_ids, _py(np.asarray(y).astype(np.int64)), _py(E),
                    _py(r_median), _py(residuals)))


def read_residuals_csv(path):
    header, rows = read_table(path)
    expected = ["area_id", "y", "E", "R_median", "residual"]
    if header != expected:
        raise ValidationError(f"{path}: expected header {','.join(expected)}")
    values = []
    for i, row in enumerate(rows):
        try:
            values.append([float(row[c]) for c in expected[1:]])
        except KeyError:
            raise ValidationError(f"{path}: row {i + 2} has fewer than "
                                  f"{len(expected)} fields") from None
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric value in row {i + 2}: {exc}") from None
        if not np.isfinite(values[-1]).all():
            raise ValidationError(f"{path}: non-finite value in row {i + 2}")
    y, E, r_median, resid = np.array(values).reshape(-1, 4).T.copy()
    return [r["area_id"] for r in rows], y, E, r_median, resid


def write_moran_csv(result, path):
    _write_rows(path, ["I", "p_value", "n_permutations", "residual_type"],
                [[_py(result.I), _py(result.p_value),
                  int(result.n_permutations), "pearson"]])


def write_blv_csv(res, path, rule_a_flags=None, rule_b_flags=None):
    header = ["area_id_1", "area_id_2", "blv"]
    columns = [*_border_ids(res.graph), _py(res.values)]
    for name, flags in (("rule_a", rule_a_flags), ("rule_b", rule_b_flags)):
        if flags is not None:
            header.append(name)
            columns.append(_py(np.asarray(flags, dtype=bool)))
    _write_rows(path, header, zip(*columns))


def write_scorecard_csv(scores, path):
    header = ["k1", "k2", "replicates", "ba", "nba", "bias_pct", "rmse_pct",
              "ba_se", "nba_se", "bias_se", "rmse_se"]
    rows = [[_py(s.k1), _py(s.k2), int(s.replicates),
             *map(_py, (s.ba, s.nba, s.bias_pct, s.rmse_pct,
                        s.ba_se, s.nba_se, s.bias_se, s.rmse_se))]
            for s in scores]
    _write_rows(path, header, rows)


def write_replicates_csv(score, path):
    per = score.per_replicate
    header = ["replicate", "ba", "nba", "bias_pct", "rmse_pct", "boundary_count"]
    _write_rows(path, header, zip(
        _py(np.asarray(per["replicate"]).astype(np.int64)),
        *(_py(per[k]) for k in ("ba", "nba", "bias_pct", "rmse_pct")),
        _py(np.asarray(per["boundary_count"]).astype(np.int64))))


def write_boundary_geojson(graph: AreaGraph, bset: BoundarySet, path):
    """LineString overlay of the boundary borders' shared polygon edges."""
    idx = np.where(bset.is_boundary)[0]
    features = []
    for b, lines in boundary_segments(graph, idx):
        k, j = graph.borders[b]
        for line in lines:
            features.append({
                "type": "Feature",
                "properties": {
                    "area_id_1": graph.area_ids[k],
                    "area_id_2": graph.area_ids[j],
                    "w_mean": float(bset.w_mean[b]),
                },
                "geometry": {"type": "LineString", "coordinates": line},
            })
    doc = {"type": "FeatureCollection", "features": features}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def ensure_outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out
