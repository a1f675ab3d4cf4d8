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
import types
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .changepoint import estimate_changepoint, search_range
from .covkern import SplitSample, prefix_moments
from .datagen import BREAK_KINDS, DEPENDENCES, DGPSpec, generate
from .eigensys import eigendecompose
from .funcspace import CoeffSeries, _least_squares, fourier_basis
from .harness import (
    ExperimentConfig,
    _resolve_workers,
    _sweep_configs,
    epsilon_sweep,
    run_experiment,
)
from .selfnorm import (
    DEFAULT_K,
    DEFAULT_PIVOT_REPLICATES,
    DEFAULT_PIVOT_SEED,
    NuMeasure,
    PivotDistribution,
    _CACHE_GRID,
    cached_pivot,
    decide,
    self_normalizer,
    sequential_eigensystem_paths,
    simulate_pivot,
)

__all__ = [
    "IngestResult",
    "ingest_daily",
    "write_daily_csv",
    "AnalysisConfig",
    "run_analysis",
    "load_experiment_config",
    "main",
]

DAYS_PER_YEAR = 365
DEFAULT_MIN_DAYS = 360
MIN_YEARS = 8

OUT_DIR_ENV = "EIGENBREAK_OUT_DIR"

_PI_EXPR = re.compile(r"^\s*(\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$")


def parse_float_or_pi(text: str) -> float:
    """Parse '0.39', 'pi/16' or '2pi/5' into a float."""
    match = _PI_EXPR.match(text)
    try:
        if not match:
            return float(text)
        coef = float(match.group(1)) if match.group(1) else 1.0
        div = float(match.group(2)) if match.group(2) else 1.0
        return coef * math.pi / div
    except (ValueError, ZeroDivisionError):
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


#: days before each month in a year without Feb 29
_DAYS_BEFORE_MONTH = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)


def ingest_daily(csv_path, order: int, min_days: int = DEFAULT_MIN_DAYS) -> IngestResult:
    """Read a daily-series CSV and project each year onto a Fourier basis.

    Rows are grouped by calendar year; Feb 29 readings are dropped so every
    year lives on the same 365-node grid, with day d mapped to the position
    (d - 1/2) / 365.  Years with fewer than ``min_days`` valid readings are
    excluded and reported.  The complete years, those with all 365 readings,
    share one design and so one least-squares solve; each other year is
    solved on its own days.  Either way a year's fit equals its own solve up
    to rounding.

    The file is read by :mod:`csv` (so fields may be quoted and lines may
    end in ``\\r\\n``), and whitespace around each field is ignored.  A date
    is any text ``datetime.date.fromisoformat`` accepts, a value any text
    ``float`` accepts that gives a finite number, and an empty value marks
    a missing reading; blank rows are skipped.  A row with a wrong field
    count, an unparseable date or value, a non-finite value or a second
    reading for one day is an error, and a row is reported by the first of
    these it has: the ``ValueError`` names the first five such lines in line
    order and counts the rest.  A Feb 29 row's value is checked before the
    day is dropped.

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
    # each row gives its first fault or its reading: grid key, value, line, date text
    faults, keys, values, lines, dates = [], [], [], [], []
    with open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "value"]:
            raise ValueError(f"{csv_path}: expected header 'date,value', got {header}")
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                if len(row) > 1 or (row and row[0].strip()):
                    faults.append((line, f"expected 2 fields, got {len(row)}"))
                continue  # blank rows are skipped
            date_text, value_text = row[0].strip(), row[1].strip()
            try:
                date = datetime.date.fromisoformat(date_text)
            except ValueError:
                faults.append((line, f"unparseable date {date_text!r}"))
                continue
            if not value_text:
                continue  # a missing reading
            try:
                value = float(value_text)
            except ValueError:
                faults.append((line, f"unparseable value {value_text!r}"))
                continue
            if not math.isfinite(value):
                faults.append((line, f"non-finite value {value_text!r}"))
            elif date.month != 2 or date.day != 29:  # Feb 29 is dropped
                keys.append(date.year * 366 + _DAYS_BEFORE_MONTH[date.month - 1] + date.day)
                values.append(value)
                lines.append(line)
                dates.append(date_text)
    # readings sorted by (year, day), in line order within one day; a later
    # copy of a day is a duplicate
    keys = np.array(keys, np.int64)
    by_day = np.argsort(keys, kind="stable")
    keys, values = keys[by_day], np.array(values)[by_day]
    repeat = by_day[1:][keys[1:] == keys[:-1]]
    faults += [(lines[i], f"duplicate reading for {dates[i]}") for i in repeat.tolist()]
    del lines, dates
    if faults:
        faults.sort()
        shown = "; ".join(f"line {line}: {text}" for line, text in faults[:5])
        more = f" (+{len(faults) - 5} more)" if len(faults) > 5 else ""
        raise ValueError(f"{csv_path}: {shown}{more}")

    basis = fourier_basis(order, DAYS_PER_YEAR)
    sorted_year, days = np.divmod(keys, 366)
    first = np.ones(keys.size, bool)
    first[1:] = sorted_year[1:] != sorted_year[:-1]
    year_starts = np.flatnonzero(first)
    year_counts = np.diff(year_starts, append=keys.size)
    years = sorted_year[year_starts]
    kept = year_counts >= min_days
    if not kept.any():
        raise ValueError(f"{csv_path}: no year has at least {min_days} valid readings")
    starts, counts = year_starts[kept], year_counts[kept]
    # a complete year is a day-ordered run of all 365 readings: one shared design
    complete = counts == DAYS_PER_YEAR
    coeffs = np.empty((starts.size, order))
    if complete.any():
        runs = starts[complete, None] + np.arange(DAYS_PER_YEAR)
        coeffs[complete] = _least_squares(basis.eval_matrix, values[runs].T).T
    for i in np.flatnonzero(~complete).tolist():
        rows = slice(starts[i], starts[i] + counts[i])
        coeffs[i] = _least_squares(basis.eval_matrix[days[rows] - 1], values[rows])
    return IngestResult(
        series=CoeffSeries(coeffs, basis),
        years=tuple(years[kept].tolist()),
        excluded=tuple(zip(years[~kept].tolist(), year_counts[~kept].tolist())),
    )


#: the "-MM-DD" date suffixes of the 365 grid days, those of a year without Feb 29
_GRID_MONTH_DAYS = tuple(
    (datetime.date(2001, 1, 1) + datetime.timedelta(days=d)).strftime("-%m-%d")
    for d in range(DAYS_PER_YEAR)
)


def write_daily_csv(series: CoeffSeries, start_year: int, path) -> None:
    """Render coefficient rows as one synthetic daily-series year each."""
    for year in (start_year, start_year + series.n_obs - 1):
        if not datetime.MINYEAR <= year <= datetime.MAXYEAR:
            raise ValueError(f"year {year} is out of range")
    design = fourier_basis(series.basis.order, DAYS_PER_YEAR).eval_matrix
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,value\n")
        for year, row in enumerate(series.coeffs, start=start_year):
            fh.write("".join(
                f"{year:04d}{month_day},{value!r}\n"
                for month_day, value in zip(_GRID_MONTH_DAYS, (design @ row).tolist())
            ))


# ---------------------------------------------------------------------------
# analysis pipeline


def _resolve_pivot(config: AnalysisConfig, pivot) -> PivotDistribution:
    """The pivot an analysis with ``config`` decides from.

    ``pivot`` is a PivotDistribution, the path of an existing quantile cache,
    or None for the default pivot's quantile summary, which holds the numbers
    a default cache from ``eigenbreak quantiles`` holds.  Only that command
    writes caches: a missing one is refused, as is a pivot for another ``K``
    or one with fewer than ten values above the smallest level's quantile.
    A cache holds at most 10,000 quantiles, however many draws made it, so
    none serves a level below 0.001.
    """
    K, alpha = config.K, min(config.alphas)
    source = "the pivot"
    if pivot is None:
        pivot = cached_pivot(K).summary()
    elif not isinstance(pivot, PivotDistribution):
        source = f"quantile cache {pivot}"
        try:
            pivot = PivotDistribution.load(pivot)
        except FileNotFoundError:
            raise ValueError(f"quantile cache {pivot} does not exist; write it with "
                             f"'eigenbreak quantiles --K {K} --out {pivot}'") from None
    if pivot.K != K:
        raise ValueError(f"{source} was built for K={pivot.K}, need K={K}")
    size = pivot.sample.size
    if size * alpha < 10:
        held = "draws" if size == pivot.R else "quantiles"
        if _CACHE_GRID * alpha < 10:
            remedy = f"no quantile cache serves a level below {10 / _CACHE_GRID:g}"
        else:
            remedy = (f"write a larger one with "
                      f"'eigenbreak quantiles --K {K} --R {math.ceil(10 / alpha)}'")
        raise ValueError(f"{source} holds {size} {held}, fewer than 10 above its "
                         f"{1 - alpha:.4g} quantile at level {alpha!r}; {remedy}")
    return pivot


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings of one analysis; every rule is checked on construction.

    ``T`` is the Fourier basis order of each year's fit, ``epsilon`` the
    boundary trim of the change-point scan, ``angles`` the eigenfunction
    thresholds (numbers, or pi expressions such as ``"pi/16"``), ``j_fun``
    and ``j_val`` the largest eigen indices tested, ``divisors`` the
    eigenvalue threshold divisors, ``alphas`` the significance levels
    (kept in descending order), ``K`` the pivot grid, ``min_days`` the
    readings a year needs to be retained, and ``center_cusum`` whether the
    scan sees the rows minus their global mean.
    """

    T: int = 41
    epsilon: float = 0.01
    angles: tuple[float | str, ...] = (math.pi / 16, math.pi / 8, math.pi / 4, 2 * math.pi / 5)
    j_fun: int = 5
    j_val: int = 12
    divisors: tuple[int, ...] = (50, 100, 200)
    alphas: tuple[float, ...] = (0.10, 0.05, 0.01)
    K: int = DEFAULT_K
    min_days: int = DEFAULT_MIN_DAYS
    center_cusum: bool = False

    def __post_init__(self):
        # the basis order on the daily grid, the trim and the pivot grid are
        # ruled by fourier_basis, search_range and NuMeasure
        fourier_basis(self.T, DAYS_PER_YEAR)
        try:
            angles = tuple(parse_float_or_pi(a) if isinstance(a, str) else float(a)
                           for a in self.angles)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"setting 'angles': {exc}") from None
        if not all(map(math.isfinite, angles)):
            raise ValueError(f"setting 'angles' must hold finite numbers, got {list(angles)}")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "divisors", tuple(self.divisors))
        object.__setattr__(self, "alphas", tuple(sorted(map(float, self.alphas), reverse=True)))
        for name in ("angles", "divisors", "alphas"):
            if not getattr(self, name):
                raise ValueError(f"setting {name!r} must not be empty")
        if any(d <= 0 for d in self.divisors):
            raise ValueError(
                f"eigenvalue threshold divisors must be positive, got {list(self.divisors)}"
            )
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise ValueError(
                f"significance levels 'alphas' must lie in (0,1), got {list(self.alphas)}"
            )
        if self.min_days > DAYS_PER_YEAR:
            raise ValueError(f"min_days must be at most the {DAYS_PER_YEAR} grid days of a "
                             f"year, got {self.min_days}")
        # a retained year needs at least T readings for its least-squares fit
        if self.min_days < self.T:
            raise ValueError(f"min_days must be at least the basis order T={self.T}, "
                             f"got {self.min_days}")
        for name in ("j_fun", "j_val"):
            j = getattr(self, name)
            if not 1 <= j <= self.T:
                raise ValueError(f"eigen index {name} must lie in 1..T={self.T}, got {j}")
        search_range(MIN_YEARS, self.epsilon)
        NuMeasure(self.K)


def run_analysis(csv_path, out_dir, config: AnalysisConfig = AnalysisConfig(),
                 pivot: PivotDistribution | str | os.PathLike | None = None) -> dict:
    """Change-point estimation plus relevance matrices for a daily-series file.

    The sample is split at the CUSUM argmax (boundary trim ``epsilon``),
    each segment is centred by its own mean, and two relevance matrices are
    tested: eigenfunction changes against thresholds 2 - 2*cos(angle) for
    each angle, and eigenvalue changes against thresholds tau_j / divisor
    where tau_j is the j-th pre-segment eigenvalue.  Cells report the
    strongest level in ``alphas`` at which the no-relevant-change null is
    rejected.  ``pivot`` is a PivotDistribution on the grid ``K``, the path
    of an existing quantile cache, or None for the default pivot's quantile
    summary, which decides as a default cache from ``eigenbreak quantiles``
    does; it must hold at least 10 / min(alphas) draws.  It is resolved only
    after the file yields enough years, and no file is written outside
    ``out_dir``.  Both matrices' test paths come from one set of sequential
    eigen paths through ``EigenPaths.diff``.

    Returns the report dictionary; files are written when ``out_dir`` is set.
    """
    ingest = ingest_daily(csv_path, config.T, config.min_days)
    n_years = ingest.series.n_obs
    if n_years < MIN_YEARS:
        raise ValueError(f"analysis needs at least {MIN_YEARS} retained years, got {n_years}")
    pivot = _resolve_pivot(config, pivot)
    coeffs = ingest.series.coeffs
    cusum_input = coeffs - coeffs.mean(axis=0) if config.center_cusum else coeffs
    estimate = estimate_changepoint(cusum_input, config.epsilon)
    pre, post = coeffs[:estimate.k_hat], coeffs[estimate.k_hat:]
    # every estimate below sees each segment minus its own full-segment mean
    split = SplitSample(pre - pre.mean(axis=0), post - post.mean(axis=0))
    nu = NuMeasure(config.K)

    # each segment's full spectrum, from its one moment matrix
    (pre_values, pre_functions), (post_values, post_functions) = (
        eigendecompose(prefix_moments(seg, [len(seg)])[0], 1.0, config.T)
        for seg in (split.pre, split.post))

    paths = sequential_eigensystem_paths(split, max(config.j_fun, config.j_val), nu,
                                         functions=config.j_fun)

    def run_tests(path, deltas_by_label):
        norm = self_normalizer(path, nu)
        cells = []
        for label, delta in deltas_by_label:
            results = [decide(path, norm, delta, pivot, a) for a in config.alphas]
            # alphas descend, so the last rejecting level is the strongest
            rejecting = [a for a, r in zip(config.alphas, results) if r.decision == "reject"]
            base = results[0]
            cells.append(
                {
                    "j": path.j,
                    "threshold_label": label,
                    "delta": delta,
                    "statistic": base.statistic,
                    "normalizer": base.normalizer,
                    "ratio": base.ratio,
                    "p_value": base.p_value,
                    "cell": (f"FALSE>{100 * (1 - rejecting[-1]):.10g}%"
                             if rejecting else "TRUE"),
                    "warnings": list(base.warnings),
                }
            )
        return cells

    eigenfunction_cells = []
    for j in range(1, config.j_fun + 1):
        path = paths.diff(j, "eigenfunction")
        deltas = [(f"angle={angle!r}", 2.0 - 2.0 * math.cos(angle)) for angle in config.angles]
        eigenfunction_cells.extend(run_tests(path, deltas))

    eigenvalue_cells = []
    for j in range(1, config.j_val + 1):
        path = paths.diff(j, "eigenvalue")
        # the kernel is PSD: past the pre-segment's rank, tau_j is round-off
        tau_pre = max(0.0, float(pre_values[j - 1]))
        deltas = [(f"divisor={d}", tau_pre / d) for d in config.divisors]
        eigenvalue_cells.extend(run_tests(path, deltas))

    settings = asdict(config)
    settings["order"] = settings.pop("T")
    report = {
        "settings": {
            **settings,
            "csv_path": str(csv_path),
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
            "pre": [float(v) for v in pre_values],
            "post": [float(v) for v in post_values],
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
        _write_matrix_csv(os.path.join(out_dir, "eigenfunction_table.csv"), eigenfunction_cells,
                          "angle", [repr(a) for a in config.angles], config.j_fun)
        _write_matrix_csv(os.path.join(out_dir, "eigenvalue_table.csv"), eigenvalue_cells,
                          "divisor", [str(d) for d in config.divisors], config.j_val)
        _write_segment_eigendata(out_dir, ingest.series.basis, (pre_values, pre_functions),
                                 (post_values, post_functions))
    return report


def _write_matrix_csv(path, cells, row_name, row_values, j_max) -> None:
    """One row per threshold and one column per j; ``cells`` list the thresholds within each j."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(row_name + "," + ",".join(f"j={j}" for j in range(1, j_max + 1)) + "\n")
        for i, value in enumerate(row_values):
            grades = [cell["cell"] for cell in cells[i::len(row_values)]]
            fh.write(value + "," + ",".join(grades) + "\n")


def _write_segment_eigendata(out_dir, basis, pre, post) -> None:
    """Write the eigenvalues and first five eigenfunctions of ``(values, functions)`` pairs."""
    with open(os.path.join(out_dir, "eigenvalues.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("segment,j,eigenvalue\n")
        for name, (values, _) in (("pre", pre), ("post", post)):
            for j, value in enumerate(values, start=1):
                fh.write(f"{name},{j},{float(value)!r}\n")
    nodes = [repr(t) for t in basis.nodes.tolist()]
    with open(os.path.join(out_dir, "eigenfunctions.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("segment,j,t,value\n")
        for name, (_, functions) in (("pre", pre), ("post", post)):
            for j, row in enumerate(functions[:5], start=1):
                fh.writelines(f"{name},{j},{t},{value!r}\n"
                              for t, value in zip(nodes, (basis.eval_matrix @ row).tolist()))


# ---------------------------------------------------------------------------
# experiment config files


def _is_of_type(value, kind) -> bool:
    """JSON value check: an int counts as a float, bools count only as bools.

    A JSON array stands for a ``list[X]`` or ``tuple[X, ...]`` setting, and
    ``X | None`` also takes null.
    """
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        return any(_is_of_type(value, arg) for arg in args)
    if origin in (list, tuple):
        return isinstance(value, list) and all(_is_of_type(item, args[0]) for item in value)
    accepted = (int, float) if kind is float else kind
    return isinstance(value, bool) == (kind is bool) and isinstance(value, accepted)


def _read_json_object(path, kinds: dict, label: str) -> dict:
    """Parse a JSON config file holding an object; ``kinds`` maps each key to its type."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ValueError(
            f"{path}: unknown {label} fields {unknown}; valid fields are {sorted(kinds)}"
        )
    for key, value in data.items():
        kind = kinds[key]
        if not _is_of_type(value, kind):
            name = kind.__name__ if typing.get_origin(kind) is None else str(kind)
            raise ValueError(f"{path}: {label} field {key!r} must be of type {name}, got {value!r}")
    return data


def _load_config(cls, path, overrides: dict, extras: dict, label: str):
    """Build the config dataclass ``cls`` from a JSON file; returns (config, extras found).

    The file holds fields of ``cls`` and keys of ``extras``, which maps each
    key that is not a field to its type.  Every value must have its JSON
    type; ``overrides`` (which skip the type check) then replace file
    values, and the fields left out take ``cls``'s defaults.  A refused
    value is reported with ``path``.
    """
    data = _read_json_object(path, {**typing.get_type_hints(cls), **extras}, label)
    found = {key: data.pop(key) for key in extras if key in data}
    try:
        return cls(**{**data, **overrides}), found
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_experiment_config(path, overrides: dict | None = None) -> tuple[ExperimentConfig, list[float] | None]:
    """Read a JSON experiment config; returns (config, epsilons or None).

    The file holds the fields of ExperimentConfig; an optional extra key
    ``epsilons`` requests a boundary-trim sweep.  Each value must have its
    field's JSON type: an integer for an ``int`` field, any number for a
    ``float`` field, and an array for ``n_list``, ``magnitudes``, ``tau``
    and ``epsilons``.  The values, ``overrides`` (which skip the type
    check) and every sweep trim must then pass ExperimentConfig's rules;
    a sweep needs at least one trim and may not repeat one.  Unknown keys
    and invalid values are reported by name before any replicate runs.
    """
    config, extras = _load_config(ExperimentConfig, path, overrides or {},
                                  {"epsilons": list[float]}, "config")
    epsilons = extras.get("epsilons")
    try:
        if epsilons is not None:
            _sweep_configs(config, epsilons)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return config, epsilons


def _shipped_config_path(name: str):
    from importlib import resources

    candidate = resources.files("eigenbreak").joinpath("configs", f"{name}.json")
    return candidate if candidate.is_file() else None


#: analyze settings that name files rather than shape the analysis
_ANALYZE_PATHS = {"csv": str, "quantile_cache": str, "out_dir": str}


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
    workers = _resolve_workers(args.workers)  # refused before the directory is made
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if epsilons is None:
        table = run_experiment(config, workers=workers)
        table.to_csv(os.path.join(out_dir, "results.csv"))
        table.to_json(os.path.join(out_dir, "results.json"))
        print(f"wrote {out_dir}/results.csv and results.json")
    else:
        sweep = epsilon_sweep(config, epsilons, workers=workers)
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
    # flags left unset are absent from args: explicit flags win, then the
    # config file, then AnalysisConfig's defaults
    given = vars(args)
    flags = {f.name: given[f.name] for f in fields(AnalysisConfig) if f.name in given}
    paths = {key: given[key] for key in _ANALYZE_PATHS if key in given}
    if "config" in given:
        config, in_file = _load_config(AnalysisConfig, args.config, flags, _ANALYZE_PATHS,
                                       "analyze")
        paths = {**in_file, **paths}
    else:
        config = AnalysisConfig(**flags)
    if not paths.get("csv"):
        raise ValueError("analyze needs --csv (or a config file providing 'csv')")
    out_dir = paths.get("out_dir", os.environ.get(OUT_DIR_ENV, "."))
    report = run_analysis(paths["csv"], out_dir, config, paths.get("quantile_cache") or None)
    print(
        f"{report['n_years']} years; split after {report['last_pre_year']} "
        f"(k={report['k_hat']}, theta={report['theta_hat']:.4f})"
    )
    if report["excluded_years"]:
        skipped = ", ".join(f"{y} ({c} readings)" for y, c in report["excluded_years"])
        print(f"excluded years: {skipped}")
    print(f"report written to {out_dir}")
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
    g.add_argument("--dependence", choices=DEPENDENCES, default="iid")
    g.add_argument("--break-kind", choices=BREAK_KINDS, default="none", dest="break_kind")
    g.add_argument("--magnitude", type=parse_float_or_pi, default=0.0,
                   help="break size: E for eigenvalue_shift, angle for rotation (pi/3 allowed)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--start-year", type=int, default=1900)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    # analyze flags left unset stay absent from the namespace, so that
    # _cmd_analyze can tell them from explicit ones
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
    a.set_defaults(func=_cmd_analyze)

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
