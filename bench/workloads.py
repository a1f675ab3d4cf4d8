"""The four benchmark workloads.

Each workload makes its inputs from the seed in :meth:`Workload.setup`,
then runs one *call* of a public entry point per :meth:`Workload.call`:
one ``run_experiment`` table, one ``eigenbreak analyze`` run or one
grid-mode pipeline pass.  Outputs are checked and digested outside the
timed region.  The package is imported by the runner before this module.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

import eigenbreak as eb
from eigenbreak import cli

def derived_seed(seed: int, *keys: int) -> int:
    """Independent 32-bit seed for one input of a run."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _quiet(fn, *args):
    """Call with stdout captured, so the runner's last line stays its result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Workload:
    """Inputs, one timed call, and the checks of one workload."""

    name = ""
    #: worker processes of a timed call; the traced run always uses one
    workers = 1
    #: every call sees the same input, so every call must give the same digest
    repeats_input = False
    #: calls go through ``run_experiment`` (one operation per replicate)
    experiment = False

    def __init__(self, seed: int, work_dir: Path, smoke: bool, nproc: int):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.nproc = nproc

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, index: int, workers: int):
        raise NotImplementedError

    def ops(self, index: int) -> int:
        return 1

    def output_bytes(self, index: int, result) -> bytes:
        raise NotImplementedError

    def check(self, index: int, result) -> list[str]:
        raise NotImplementedError

    def digest(self, index: int, result) -> str:
        return hashlib.sha256(self.output_bytes(index, result)).hexdigest()


class _Simulation(Workload):
    """``run_experiment`` on one shipped figure config with a few overrides."""

    experiment = True
    figure = ""

    def __init__(self, *args):
        super().__init__(*args)
        self._configs: dict = {}

    def overrides(self) -> dict:
        raise NotImplementedError

    def config(self, index: int):
        """Experiment of call ``index``: the figure config, resized, with its own seed."""
        if index not in self._configs:
            path = resources.files("eigenbreak").joinpath("configs", f"{self.figure}.json")
            overrides = {**self.overrides(), "seed": derived_seed(self.seed, index)}
            self._configs[index], _ = cli.load_experiment_config(path, overrides)
        return self._configs[index]

    def call(self, index: int, workers: int):
        return eb.run_experiment(self.config(index), workers=workers)

    def ops(self, index: int) -> int:
        config = self.config(index)
        return config.replicates * len(config.magnitudes) * len(config.n_list)

    def output_bytes(self, index: int, result) -> bytes:
        path = self.work_dir / "results.csv"
        result.to_csv(path)
        return path.read_bytes()

    def check(self, index: int, result) -> list[str]:
        config = self.config(index)
        cells = [(n, m) for n in config.n_list for m in config.magnitudes]
        got = [(row.n_obs, row.magnitude) for row in result.rows]
        if got != cells:
            return [f"table cells {got} differ from the config grid {cells}"]
        errors = []
        for row in result.rows:
            where = f"cell N={row.n_obs} magnitude={row.magnitude!r}"
            if not 0.0 <= row.rate <= 1.0:
                errors.append(f"{where}: rate {row.rate} outside [0,1]")
            if row.replicates != config.replicates:
                errors.append(f"{where}: {row.replicates} replicates, config has {config.replicates}")
            rejections = row.rate * config.replicates
            if abs(rejections - round(rejections)) > 1e-6:
                errors.append(f"{where}: rate {row.rate} is not a count over {config.replicates}")
            if not 0.0 < row.mean_theta_hat < 1.0:
                errors.append(f"{where}: mean theta_hat {row.mean_theta_hat} outside (0,1)")
            if row.master_seed != config.seed:
                errors.append(f"{where}: master seed {row.master_seed}, config has {config.seed}")
        return errors


class SimEigvalN2000(_Simulation):
    """Serial eigenvalue-test experiment at N=2000: the CUSUM scan dominates."""

    name = "sim-eigval-n2000"
    figure = "figure1"

    def overrides(self) -> dict:
        if self.smoke:
            return {"n_list": (100,), "magnitudes": (0.1,), "replicates": 2}
        return {"n_list": (2000,), "magnitudes": (0.05, 0.1, 0.15), "replicates": 10}

    def setup(self) -> None:
        # builds the pivot in this process, as a serial ``simulate`` run does
        eb.run_experiment(dataclasses.replace(self.config(0), replicates=2), workers=1)


class SimEigfunPool(_Simulation):
    """Eigenfunction-test experiment (figure 3 settings) fanned out to a process pool."""

    name = "sim-eigfun-pool"
    figure = "figure3"

    def __init__(self, *args):
        super().__init__(*args)
        self.workers = self.nproc

    def overrides(self) -> dict:
        path = resources.files("eigenbreak").joinpath("configs", f"{self.figure}.json")
        magnitudes = json.loads(path.read_text())["magnitudes"]
        # 251 is the fewest replicates that give a cell two pool jobs
        if self.smoke:
            return {"n_list": (100,), "magnitudes": tuple(magnitudes[2:3]), "replicates": 251}
        # squared eigenfunction distances 0.05, 0.10, 0.15, 0.20 around delta = 0.1
        return {"n_list": (200,), "magnitudes": tuple(magnitudes[1:5]), "replicates": 500}

    def setup(self) -> None:
        # warm the parent's numpy paths without building a pivot: the
        # parent of ``eigenbreak simulate`` holds none when its pools fork
        config = self.config(0)
        spec = eb.DGPSpec(N=config.n_list[0], break_kind=config.break_kind,
                          magnitude=config.magnitudes[0], seed=self.seed)
        series = eb.generate(spec)
        estimate = eb.estimate_changepoint(series.coeffs, config.epsilon)
        split = eb.SplitSample.at_index(series.coeffs, estimate.k_hat)
        nu = eb.NuMeasure(config.K)
        eb.self_normalizer(eb.diff_path(split, config.j, nu, config.test_kind), nu)

    def warm_serial(self) -> None:
        """Build the pivot in this process (for serial comparison runs only)."""
        config = self.config(0)
        warm = dataclasses.replace(config, replicates=1, magnitudes=config.magnitudes[:1])
        eb.run_experiment(warm, workers=1)


class Analyze123y(Workload):
    """``eigenbreak analyze`` on a generated 123-year daily CSV, as documented."""

    name = "analyze-123y"
    repeats_input = True
    start_year = 1896
    theta0 = 0.7479674796747967  # break after year 92 of 123
    valid_cells = {"TRUE", "FALSE>90%", "FALSE>95%", "FALSE>99%"}

    def setup(self) -> None:
        self.years = 30 if self.smoke else 123
        self.csv = self.work_dir / "daily.csv"
        self.cache = self.work_dir / "pivot_k20.csv"
        self.out_dir = self.work_dir / "analysis"
        data_seed = derived_seed(self.seed, 0)
        _quiet(cli.main, [
            "generate", "--years", str(self.years), "--break-kind", "rotation",
            "--magnitude", "pi/3", "--theta0", repr(self.theta0), "--seed", str(data_seed),
            "--start-year", str(self.start_year), "--out", str(self.csv),
        ])
        pivot_args = ["--R", "20000"] if self.smoke else []
        _quiet(cli.main, ["quantiles", "--K", "20", *pivot_args, "--out", str(self.cache)])
        # reference split: the CUSUM argmax on the generated coefficients
        # themselves, without the CSV round trip and the order-41 projection
        spec = eb.DGPSpec(N=self.years, theta0=self.theta0, break_kind="rotation",
                          magnitude=math.pi / 3, seed=data_seed)
        self.k_reference = eb.estimate_changepoint(eb.generate(spec).coeffs, 0.01).k_hat
        with self.csv.open() as fh:
            self.rows = sum(1 for _ in fh) - 1
        self.call(0, 1)

    def call(self, index: int, workers: int):
        code = _quiet(cli.main, [
            "analyze", "--csv", str(self.csv), "--T", "41", "--epsilon", "0.01",
            "--quantile-cache", str(self.cache), "--out-dir", str(self.out_dir),
        ])
        if code != 0:
            raise RuntimeError(f"analyze exited with code {code}")
        return json.loads((self.out_dir / "report.json").read_text())

    def output_bytes(self, index: int, result) -> bytes:
        report = {**result, "settings": {k: v for k, v in result["settings"].items()
                                         if k != "csv_path"}}
        parts = [json.dumps(report, sort_keys=True).encode()]
        for name in ("eigenfunction_table.csv", "eigenvalue_table.csv",
                     "eigenvalues.csv", "eigenfunctions.csv"):
            parts.append((self.out_dir / name).read_bytes())
        return b"\n".join(parts)

    def check(self, index: int, result) -> list[str]:
        errors = []
        years = list(range(self.start_year, self.start_year + self.years))
        k_hat = result["k_hat"]
        if result["years"] != years:
            errors.append("retained years are not the generated years")
        if k_hat != self.k_reference:
            errors.append(f"split k={k_hat}, the generated coefficients give k={self.k_reference}")
        if result["last_pre_year"] != self.start_year + k_hat - 1:
            errors.append(f"last pre-break year {result['last_pre_year']} does not match k={k_hat}")
        tests = result["eigenfunction_tests"] + result["eigenvalue_tests"]
        if len(result["eigenfunction_tests"]) != 5 * 4 or len(result["eigenvalue_tests"]) != 12 * 3:
            errors.append("report does not hold 5x4 eigenfunction and 12x3 eigenvalue cells")
        for cell in tests:
            if cell["cell"] not in self.valid_cells:
                errors.append(f"cell value {cell['cell']!r} is not a table entry")
            p = cell["p_value"]
            if p is not None and not 0.0 <= p <= 1.0:
                errors.append(f"p-value {p} outside [0,1]")
        pre = result["eigenvalues"]["pre"]
        if any(a < b for a, b in zip(pre, pre[1:])):
            errors.append("pre-break eigenvalues are not descending")
        return errors

    def planted_year(self) -> int:
        return self.start_year + math.floor(self.years * self.theta0 + 1e-9) - 1


class ScanGridM200(Workload):
    """Grid-mode library pipeline on N=400 functions on M=200 nodes."""

    name = "scan-grid-m200"
    repeats_input = True
    theta0 = 0.5
    epsilon = 0.05
    delta = 0.1
    alpha = 0.05
    #: |k_hat - N*theta0| allowed; 2000 seeds gave at most 34 at N=400
    tolerance_frac = 0.15

    def setup(self) -> None:
        self.n, grid = (100, 50) if self.smoke else (400, 200)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        spec = eb.DGPSpec(N=self.n, theta0=self.theta0, break_kind="rotation",
                          magnitude=math.pi / 2, grid_size=grid)
        series = eb.generate(spec, rng)
        self.sample = np.vstack([eb.synthesize(row, series.basis).values
                                 for row in series.coeffs])
        self.nu = eb.NuMeasure(20)
        self.pivot = eb.simulate_pivot(20, 20000) if self.smoke else eb.simulate_pivot(20)
        self.call(0, 1)

    def call(self, index: int, workers: int):
        estimate = eb.estimate_changepoint(self.sample, self.epsilon, mode="grid")
        split = eb.SplitSample.at_index(self.sample, estimate.k_hat, mode="grid")
        path = eb.diff_path(split, 1, self.nu, "eigenfunction")
        normalizer = eb.self_normalizer(path, self.nu)
        result = eb.decide(path, normalizer, self.delta, self.pivot, self.alpha)
        return estimate, path, result

    def output_bytes(self, index: int, result) -> bytes:
        estimate, path, decision = result
        fields = (estimate.k_hat, estimate.theta_hat, path.values.tolist(), decision.normalizer,
                  decision.ratio, decision.p_value, decision.decision)
        return repr(fields).encode()

    def check(self, index: int, result) -> list[str]:
        estimate, _, decision = result
        errors = []
        target = self.n * self.theta0
        if abs(estimate.k_hat - target) > self.tolerance_frac * self.n:
            errors.append(f"k_hat={estimate.k_hat} is not within {self.tolerance_frac:g}*N of {target:g}")
        if decision.decision not in ("reject", "retain"):
            errors.append(f"decision {decision.decision!r}")
        if decision.p_value is not None and not 0.0 <= decision.p_value <= 1.0:
            errors.append(f"p-value {decision.p_value} outside [0,1]")
        return errors


WORKLOADS = {w.name: w for w in (SimEigvalN2000, SimEigfunPool, Analyze123y, ScanGridM200)}
