"""Command-line interface: pivot tables, simulations, data generation, analysis.

Subcommands
-----------
quantiles   Monte-Carlo pivot quantile cache generation.
simulate    Rejection-probability experiments driven by a JSON config file.
generate    Synthetic daily-series CSV files from the built-in data models.
analyze     Change-point and relevance analysis of a daily-series CSV file.

The daily CSV format has the header ``date,value`` with ISO-8601 dates and
one reading per day; missing readings are empty value fields.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from .changepoint import estimate_changepoint
from .covkern import SplitSample, sequential_kernel
from .datagen import DGPSpec, generate
from .eigensys import eigendecompose
from .funcspace import CoeffSeries, fourier_basis, project
from .harness import ExperimentConfig, epsilon_sweep, run_experiment
from .selfnorm import (
    DEFAULT_K,
    DEFAULT_PIVOT_REPLICATES,
    DEFAULT_PIVOT_SEED,
    NuMeasure,
    PivotDistribution,
    decide,
    default_pivot,
    eigenfunction_diff_path,
    eigenvalue_diff_path,
    self_normalizer,
    sequential_eigensystem_paths,
    simulate_pivot,
)

__all__ = [
    "IngestResult",
    "ingest_daily",
    "write_daily_csv",
    "run_analysis",
    "load_experiment_config",
    "main",
]

DAYS_PER_YEAR = 365
DEFAULT_MIN_DAYS = 360
DEFAULT_ANGLES = (math.pi / 16, math.pi / 8, math.pi / 4, 2 * math.pi / 5)
DEFAULT_DIVISORS = (50, 100, 200)
DEFAULT_ALPHAS = (0.10, 0.05, 0.01)

OUT_DIR_ENV = "EIGENBREAK_OUT_DIR"

_PI_EXPR = re.compile(r"^\s*(\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$")


def parse_float_or_pi(text: str) -> float:
    """Parse '0.39', 'pi/16' or '2pi/5' into a float."""
    match = _PI_EXPR.match(text)
    if match:
        coef = float(match.group(1)) if match.group(1) else 1.0
        div = float(match.group(2)) if match.group(2) else 1.0
        return coef * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither a number nor a pi expression like 'pi/16'"
        ) from None


# ---------------------------------------------------------------------------
# daily CSV ingestion and export


@dataclass(frozen=True)
class IngestResult:
    """Yearly coefficient rows recovered from a daily-series file."""

    series: CoeffSeries
    years: tuple[int, ...]
    excluded: tuple[tuple[int, int], ...]


def _day_index(date: datetime.date) -> int | None:
    """Day position on the fixed 365-day grid; None for Feb 29."""
    if date.month == 2 and date.day == 29:
        return None
    day = date.timetuple().tm_yday
    leap = date.year % 4 == 0 and (date.year % 100 != 0 or date.year % 400 == 0)
    if leap and (date.month, date.day) > (2, 29):
        day -= 1
    return day


def ingest_daily(csv_path, order: int, min_days: int = DEFAULT_MIN_DAYS) -> IngestResult:
    """Read a daily-series CSV and project each year onto a Fourier basis.

    Rows are grouped by calendar year; Feb 29 readings are dropped so every
    year lives on the same 365-node grid, with day d mapped to the position
    (d - 1/2) / 365.  Years with fewer than ``min_days`` valid readings are
    excluded and reported.

    Parameters
    ----------
    csv_path : path
        File with header ``date,value``; empty values mark missing readings.
    order : int
        Fourier basis order for the least-squares fit of each year.
    min_days : int
        Minimum number of valid readings a year needs to be retained.

    Returns
    -------
    IngestResult
        Coefficient rows in ascending year order, the retained years, and
        the excluded (year, reading count) pairs.
    """
    per_year: dict[int, dict[int, float]] = {}
    bad_lines: list[str] = []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "value"]:
            raise ValueError(f"{csv_path}: expected header 'date,value', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                bad_lines.append(f"line {lineno}: expected 2 fields, got {len(row)}")
                continue
            raw_date, raw_value = row[0].strip(), row[1].strip()
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError:
                bad_lines.append(f"line {lineno}: unparseable date {raw_date!r}")
                continue
            if not raw_value:
                continue  # missing reading
            try:
                value = float(raw_value)
            except ValueError:
                bad_lines.append(f"line {lineno}: unparseable value {raw_value!r}")
                continue
            if not math.isfinite(value):
                bad_lines.append(f"line {lineno}: non-finite value {raw_value!r}")
                continue
            day = _day_index(date)
            if day is None:
                continue  # Feb 29 dropped
            readings = per_year.setdefault(date.year, {})
            if day in readings:
                bad_lines.append(f"line {lineno}: duplicate reading for {raw_date}")
                continue
            readings[day] = value
    if bad_lines:
        shown = "; ".join(bad_lines[:5])
        more = f" (+{len(bad_lines) - 5} more)" if len(bad_lines) > 5 else ""
        raise ValueError(f"{csv_path}: {shown}{more}")

    basis = fourier_basis(order, DAYS_PER_YEAR)
    rows = []
    years = []
    excluded = []
    for year in sorted(per_year):
        readings = per_year[year]
        if len(readings) < min_days:
            excluded.append((year, len(readings)))
            continue
        days = np.array(sorted(readings))
        values = np.array([readings[d] for d in days])
        positions = (days - 0.5) / DAYS_PER_YEAR
        rows.append(project(values, positions, basis))
        years.append(year)
    if not rows:
        raise ValueError(f"{csv_path}: no year has at least {min_days} valid readings")
    return IngestResult(
        series=CoeffSeries(np.vstack(rows), basis),
        years=tuple(years),
        excluded=tuple(excluded),
    )


def _year_dates(year: int) -> list[datetime.date]:
    date = datetime.date(year, 1, 1)
    out = []
    while date.year == year:
        if not (date.month == 2 and date.day == 29):
            out.append(date)
        date += datetime.timedelta(days=1)
    return out


def write_daily_csv(series: CoeffSeries, start_year: int, path) -> None:
    """Render coefficient rows as one synthetic daily-series year each."""
    positions = (np.arange(1, DAYS_PER_YEAR + 1) - 0.5) / DAYS_PER_YEAR
    design = series.basis.evaluate(positions)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,value\n")
        for offset, row in enumerate(series.coeffs):
            values = design @ row
            for date, value in zip(_year_dates(start_year + offset), values):
                fh.write(f"{date.isoformat()},{float(value)!r}\n")


# ---------------------------------------------------------------------------
# analysis pipeline


def _classify(rejections: dict[float, bool], alphas) -> str:
    """Table cell from the per-level decisions: retain, or the strongest rejection."""
    rejecting = [a for a in alphas if rejections[a]]
    if not rejecting:
        return "TRUE"
    strongest = min(rejecting)
    return f"FALSE>{round((1.0 - strongest) * 100)}%"


def _resolve_pivot(K: int, cache_path) -> PivotDistribution:
    if cache_path:
        if os.path.exists(cache_path):
            pivot = PivotDistribution.load(cache_path)
            if pivot.K != K:
                raise ValueError(
                    f"quantile cache {cache_path} was built for K={pivot.K}, need K={K}"
                )
            return pivot
        default_pivot(K).save(cache_path)
    return default_pivot(K)


def run_analysis(csv_path, out_dir, *, order: int = 41, epsilon: float = 0.01,
                 angles=DEFAULT_ANGLES, j_fun: int = 5, j_val: int = 12,
                 divisors=DEFAULT_DIVISORS, alphas=DEFAULT_ALPHAS,
                 K: int = DEFAULT_K, min_days: int = DEFAULT_MIN_DAYS,
                 center_cusum: bool = False,
                 pivot: PivotDistribution | None = None) -> dict:
    """Change-point estimation plus relevance matrices for a daily-series file.

    The sample is split at the CUSUM argmax (boundary trim ``epsilon``), the
    segment kernels are mean-corrected, and two relevance matrices are
    tested: eigenfunction changes against thresholds 2 - 2*cos(angle) for
    each angle, and eigenvalue changes against thresholds tau_j / divisor
    where tau_j is the j-th pre-segment eigenvalue.  Cells report the
    strongest level in ``alphas`` at which the no-relevant-change null is
    rejected.

    Returns the report dictionary; files are written when ``out_dir`` is set.
    """
    if any(d <= 0 for d in divisors):
        raise ValueError(f"eigenvalue threshold divisors must be positive, got {list(divisors)}")
    alphas = tuple(sorted(alphas, reverse=True))
    ingest = ingest_daily(csv_path, order, min_days)
    n_years = ingest.series.n_obs
    if n_years < 8:
        raise ValueError(f"analysis needs at least 8 retained years, got {n_years}")
    if pivot is None:
        pivot = default_pivot(K)
    coeffs = ingest.series.coeffs
    cusum_input = coeffs - coeffs.mean(axis=0) if center_cusum else coeffs
    estimate = estimate_changepoint(cusum_input, epsilon)
    split = SplitSample.at_index(coeffs, estimate.k_hat)
    nu = NuMeasure(K)

    pre_kernel = sequential_kernel(split.pre, 1.0, center=True)
    post_kernel = sequential_kernel(split.post, 1.0, center=True)
    pre_system = eigendecompose(pre_kernel, pre_kernel.dim)
    post_system = eigendecompose(post_kernel, post_kernel.dim)

    p_need = min(order, max(j_fun, j_val))
    paths = sequential_eigensystem_paths(split, p_need, nu, center=True, with_functions=True)

    def run_tests(path, deltas_by_label):
        norm = self_normalizer(path, nu)
        cells = []
        for label, delta in deltas_by_label:
            results = {a: decide(path, norm, delta, pivot, a, "relevant") for a in alphas}
            rejections = {a: results[a].decision == "reject" for a in alphas}
            base = results[alphas[0]]
            cells.append(
                {
                    "j": path.j,
                    "threshold_label": label,
                    "delta": delta,
                    "statistic": base.statistic,
                    "normalizer": base.normalizer,
                    "ratio": base.ratio,
                    "p_value": base.p_value,
                    "cell": _classify(rejections, alphas),
                    "warnings": list(base.warnings),
                }
            )
        return cells

    eigenfunction_cells = []
    for j in range(1, j_fun + 1):
        path = eigenfunction_diff_path(paths, j)
        deltas = [(f"angle={angle!r}", 2.0 - 2.0 * math.cos(angle)) for angle in angles]
        eigenfunction_cells.extend(run_tests(path, deltas))

    eigenvalue_cells = []
    for j in range(1, j_val + 1):
        path = eigenvalue_diff_path(paths, j)
        tau_pre = float(pre_system.eigenvalues[j - 1])
        deltas = [(f"divisor={d}", tau_pre / d) for d in divisors]
        eigenvalue_cells.extend(run_tests(path, deltas))

    report = {
        "settings": {
            "csv_path": str(csv_path),
            "order": order,
            "epsilon": epsilon,
            "angles": [float(a) for a in angles],
            "j_fun": j_fun,
            "j_val": j_val,
            "divisors": [int(d) for d in divisors],
            "alphas": [float(a) for a in alphas],
            "K": K,
            "min_days": min_days,
            "center_cusum": center_cusum,
            "pivot": {"K": pivot.K, "R": pivot.R, "seed": pivot.seed},
        },
        "n_years": n_years,
        "years": list(ingest.years),
        "excluded_years": [list(item) for item in ingest.excluded],
        "k_hat": estimate.k_hat,
        "theta_hat": estimate.theta_hat,
        "last_pre_year": ingest.years[estimate.k_hat - 1],
        "first_post_year": ingest.years[estimate.k_hat],
        "eigenvalues": {
            "pre": [float(v) for v in pre_system.eigenvalues],
            "post": [float(v) for v in post_system.eigenvalues],
        },
        "eigenfunction_tests": eigenfunction_cells,
        "eigenvalue_tests": eigenvalue_cells,
    }

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        _write_matrix_csv(
            os.path.join(out_dir, "eigenfunction_table.csv"),
            eigenfunction_cells, "angle", [f"angle={a!r}" for a in angles], j_fun,
        )
        _write_matrix_csv(
            os.path.join(out_dir, "eigenvalue_table.csv"),
            eigenvalue_cells, "divisor", [f"divisor={d}" for d in divisors], j_val,
        )
        _write_segment_eigendata(out_dir, ingest.series.basis, pre_system, post_system)
    return report


def _write_matrix_csv(path, cells, row_name, row_labels, j_max) -> None:
    lookup = {(cell["threshold_label"], cell["j"]): cell["cell"] for cell in cells}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(row_name + "," + ",".join(f"j={j}" for j in range(1, j_max + 1)) + "\n")
        for label in row_labels:
            value = label.split("=", 1)[1]
            cells_row = [lookup[(label, j)] for j in range(1, j_max + 1)]
            fh.write(value + "," + ",".join(cells_row) + "\n")


def _write_segment_eigendata(out_dir, basis, pre_system, post_system) -> None:
    with open(os.path.join(out_dir, "eigenvalues.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("segment,j,eigenvalue\n")
        for name, system in (("pre", pre_system), ("post", post_system)):
            for j, value in enumerate(system.eigenvalues, start=1):
                fh.write(f"{name},{j},{float(value)!r}\n")
    nodes = basis.nodes
    with open(os.path.join(out_dir, "eigenfunctions.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("segment,j,t,value\n")
        for name, system in (("pre", pre_system), ("post", post_system)):
            for j, row in enumerate(system.eigenfunctions[:5], start=1):
                values = basis.eval_matrix @ row if system.mode == "coeff" else row
                for t, value in zip(nodes, values):
                    fh.write(f"{name},{j},{float(t)!r},{float(value)!r}\n")


# ---------------------------------------------------------------------------
# experiment config files


def _read_json_object(path, known, label: str) -> dict:
    """Parse a JSON config file that must hold an object with keys from ``known``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"{path}: unknown {label} fields {unknown}; valid fields are {sorted(known)}"
        )
    return data


def load_experiment_config(path, overrides: dict | None = None) -> tuple[ExperimentConfig, list[float] | None]:
    """Read a JSON experiment config; returns (config, epsilons or None).

    The file holds the fields of ExperimentConfig; an optional extra key
    ``epsilons`` requests a boundary-trim sweep.  Unknown keys and invalid
    values are reported by name.
    """
    data = _read_json_object(path, {f.name for f in fields(ExperimentConfig)} | {"epsilons"},
                             "config")
    epsilons = data.pop("epsilons", None)
    if epsilons is not None and (
        not isinstance(epsilons, list) or not epsilons
        or not all(isinstance(e, (int, float)) for e in epsilons)
    ):
        raise ValueError(f"{path}: field 'epsilons' must be a nonempty list of numbers")
    for name in ("magnitudes", "n_list", "tau"):
        if name in data and isinstance(data[name], list):
            data[name] = tuple(data[name])
    if overrides:
        data.update(overrides)
    try:
        config = ExperimentConfig(**data)
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return config, epsilons


def _shipped_config_path(name: str):
    from importlib import resources

    candidate = resources.files("eigenbreak").joinpath("configs", f"{name}.json")
    return candidate if candidate.is_file() else None


#: analyze settings: name -> (type of a config file value, default); list
#: settings have no declared type, and the parser sets the ``out_dir``
#: default from $EIGENBREAK_OUT_DIR (else ".")
ANALYZE_SETTINGS = {
    "csv": (str, None),
    "T": (int, 41),
    "epsilon": (float, 0.01),
    "angles": (None, DEFAULT_ANGLES),
    "j_fun": (int, 5),
    "j_val": (int, 12),
    "divisors": (None, DEFAULT_DIVISORS),
    "alphas": (None, DEFAULT_ALPHAS),
    "K": (int, DEFAULT_K),
    "min_days": (int, DEFAULT_MIN_DAYS),
    "center_cusum": (bool, False),
    "quantile_cache": (str, None),
    "out_dir": (str, None),
}


def apply_analyze_config(args, defaults: dict) -> None:
    """Fill the analyze settings left off the command line.

    Explicit flags win, then the JSON file named by ``--config``, then
    ``defaults``.  Flags left unset are absent from ``args``.
    """
    settings = dict(defaults)
    if getattr(args, "config", None):
        settings.update(_read_analyze_config(args.config))
    for key, value in settings.items():
        if not hasattr(args, key):
            setattr(args, key, value)


def _read_analyze_config(path) -> dict:
    data = _read_json_object(path, ANALYZE_SETTINGS, "analyze")
    for key, value in data.items():
        kind = ANALYZE_SETTINGS[key][0]
        if kind is None:
            continue
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ValueError(
                f"{path}: analyze field {key!r} must be of type {kind.__name__}, got {value!r}"
            )
    if "angles" in data:
        data["angles"] = [parse_float_or_pi(str(v)) for v in data["angles"]]
    return data


# ---------------------------------------------------------------------------
# subcommands


def _cmd_quantiles(args) -> int:
    pivot = simulate_pivot(args.K, args.R, args.seed)
    pivot.save(args.out)
    for alpha in (0.01, 0.05, 0.10):
        print(f"q_{1 - alpha:.2f} = {pivot.quantile(1 - alpha):.3f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    config_path = args.config
    if not os.path.exists(config_path):
        shipped = _shipped_config_path(str(config_path))
        if shipped is None:
            raise ValueError(f"config file {config_path} not found")
        config_path = shipped
    overrides = {}
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.seed is not None:
        overrides["seed"] = args.seed
    config, epsilons = load_experiment_config(config_path, overrides)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if epsilons is None:
        table = run_experiment(config, workers=args.workers)
        table.to_csv(os.path.join(out_dir, "results.csv"))
        table.to_json(os.path.join(out_dir, "results.json"))
        print(f"wrote {out_dir}/results.csv and results.json")
    else:
        sweep = epsilon_sweep(config, epsilons, workers=args.workers)
        for eps, table in sweep.tables:
            tag = repr(eps).replace(".", "p")
            table.to_csv(os.path.join(out_dir, f"results_eps{tag}.csv"))
            table.to_json(os.path.join(out_dir, f"results_eps{tag}.json"))
        sweep.histograms_to_csv(os.path.join(out_dir, "histograms.csv"))
        print(f"wrote per-epsilon tables and histograms.csv to {out_dir}")
    return 0


def _cmd_generate(args) -> int:
    spec = DGPSpec(
        N=args.years,
        T=args.T,
        theta0=args.theta0,
        dependence=args.dependence,
        break_kind=args.break_kind,
        magnitude=args.magnitude,
        seed=args.seed,
    )
    series = generate(spec)
    write_daily_csv(series, args.start_year, args.out)
    print(f"wrote {args.years} synthetic years to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    apply_analyze_config(args, args.analyze_defaults)
    if not args.csv:
        raise ValueError("analyze needs --csv (or a config file providing 'csv')")
    pivot = _resolve_pivot(args.K, args.quantile_cache)
    report = run_analysis(
        args.csv,
        args.out_dir,
        order=args.T,
        epsilon=args.epsilon,
        angles=tuple(args.angles),
        j_fun=args.j_fun,
        j_val=args.j_val,
        divisors=tuple(args.divisors),
        alphas=tuple(args.alphas),
        K=args.K,
        min_days=args.min_days,
        center_cusum=args.center_cusum,
        pivot=pivot,
    )
    print(
        f"{report['n_years']} years; split after {report['last_pre_year']} "
        f"(k={report['k_hat']}, theta={report['theta_hat']:.4f})"
    )
    if report["excluded_years"]:
        skipped = ", ".join(f"{y} ({c} readings)" for y, c in report["excluded_years"])
        print(f"excluded years: {skipped}")
    print(f"report written to {args.out_dir}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _angle_list(text: str) -> list[float]:
    return [parse_float_or_pi(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenbreak",
        description="Relevant-change tests for eigensystems of functional time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get(OUT_DIR_ENV, ".")

    q = sub.add_parser("quantiles", help="write a pivot quantile cache")
    q.add_argument("--K", type=int, default=DEFAULT_K)
    q.add_argument("--R", type=int, default=DEFAULT_PIVOT_REPLICATES)
    q.add_argument("--seed", type=int, default=DEFAULT_PIVOT_SEED)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_quantiles)

    s = sub.add_parser("simulate", help="run a rejection-probability experiment")
    s.add_argument("--config", required=True,
                   help="JSON config path or the name of a shipped config (e.g. figure1)")
    s.add_argument("--out-dir", default=default_out)
    s.add_argument("--workers", type=int, default=None)
    s.add_argument("--replicates", type=int, default=None,
                   help="override the config's replicate count")
    s.add_argument("--seed", type=int, default=None, help="override the config's seed")
    s.set_defaults(func=_cmd_simulate)

    g = sub.add_parser("generate", help="write a synthetic daily-series CSV")
    g.add_argument("--years", type=int, required=True)
    g.add_argument("--T", type=int, default=21)
    g.add_argument("--theta0", type=float, default=0.5)
    g.add_argument("--dependence", choices=("iid", "fma1"), default="iid")
    g.add_argument("--break-kind", choices=("none", "eigenvalue_shift", "rotation"),
                   default="none", dest="break_kind")
    g.add_argument("--magnitude", type=parse_float_or_pi, default=0.0,
                   help="break size: E for eigenvalue_shift, angle for rotation (pi/3 allowed)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--start-year", type=int, default=1900)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    # analyze flags left unset stay absent from the namespace, so that
    # apply_analyze_config can tell them from explicit ones
    a = sub.add_parser("analyze", help="analyze a daily-series CSV file",
                       argument_default=argparse.SUPPRESS)
    a.add_argument("--csv")
    a.add_argument("--config", help="JSON file providing any analyze setting; explicit flags win")
    a.add_argument("--T", type=int)
    a.add_argument("--epsilon", type=float)
    a.add_argument("--angles", type=_angle_list,
                   help="comma-separated angles, pi expressions allowed (default pi/16,pi/8,pi/4,2pi/5)")
    a.add_argument("--j-fun", type=int, dest="j_fun")
    a.add_argument("--j-val", type=int, dest="j_val")
    a.add_argument("--divisors", type=_int_list)
    a.add_argument("--alphas", type=_float_list)
    a.add_argument("--K", type=int)
    a.add_argument("--min-days", type=int, dest="min_days")
    a.add_argument("--center-cusum", action="store_true", dest="center_cusum",
                   help="subtract the global mean before the change-point scan")
    a.add_argument("--quantile-cache", dest="quantile_cache")
    a.add_argument("--out-dir")
    analyze_defaults = {key: default for key, (_, default) in ANALYZE_SETTINGS.items()}
    analyze_defaults["out_dir"] = default_out
    a.set_defaults(func=_cmd_analyze, analyze_defaults=analyze_defaults)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
