"""Release acceptance suite.

Every test prints one line ``[criterion N] PASS/FAIL ...`` so the whole
gate can be read off ``pytest tests/test_acceptance.py -s``.  The Monte
Carlo criteria (4, 5, 7) run thousands of replicates and take several
minutes; everything else is fast.

Criteria 2b and 2c check the rotation-pair kernel distance against its
closed form 2 (tau1 - tau2)^2 sin(phi)^2 by two independent routes: 2b by
grid quadrature of the Fourier-synthesized kernels, 2c by coefficient-space
Frobenius norms.  The acceptance target states 5(1 - cos phi)/2 instead,
which cannot hold: at phi = pi the rotation only flips the signs of the two
leading eigenfunctions, so the kernels coincide and their distance is 0,
while the stated form gives 5.  2b keeps printing the stated value and its
gap so the discrepancy stays on record.
"""

import math
import time

import numpy as np
import pytest

from eigenbreak.changepoint import (
    estimate_changepoint,
    objective_curve,
    search_range,
)
from eigenbreak.datagen import DGPSpec, generate
from eigenbreak.eigensys import aligned_distance_sq, eigendecompose
from eigenbreak.funcspace import fourier_basis
from eigenbreak.harness import ExperimentConfig, cell_outcomes, run_experiment
from eigenbreak.selfnorm import (
    DiffPath,
    NuMeasure,
    cached_pivot,
    decide,
    self_normalizer,
    simulate_pivot,
)
from eigenbreak.cli import AnalysisConfig, run_analysis, write_daily_csv
from reference import (
    angle_for_distance_sq,
    cusum_objective,
    kernel_distance_sq,
    population_kernels,
    rate_at,
)

pytestmark = pytest.mark.acceptance

TAU21 = 1.0 / np.arange(1, 22) ** 2

PIVOT_TABLE = {
    20: {0.99: 16.479, 0.95: 9.895, 0.90: 7.097},
    30: {0.99: 16.248, 0.95: 9.925, 0.90: 7.149},
}

DIST_GRID = (0.0, 0.01, 0.1, 0.2, 0.3, 0.4)


def verdict(num: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def pivot_k20():
    return simulate_pivot(20, 500_000, 271828)


@pytest.fixture(scope="module")
def eigenvalue_table():
    config = ExperimentConfig(
        test_kind="eigenvalue",
        j=1,
        delta=0.1,
        break_kind="eigenvalue_shift",
        magnitudes=DIST_GRID,
        n_list=(600,),
        replicates=4000,
        alpha=0.05,
        epsilon=0.05,
        K=20,
        seed=101,
    )
    return run_experiment(config, workers=None)


@pytest.fixture(scope="module")
def eigenfunction_table():
    config = ExperimentConfig(
        test_kind="eigenfunction",
        j=1,
        delta=0.1,
        break_kind="rotation",
        magnitudes=tuple(angle_for_distance_sq(d) for d in DIST_GRID),
        n_list=(600,),
        replicates=4000,
        alpha=0.05,
        epsilon=0.05,
        K=20,
        seed=202,
    )
    return run_experiment(config, workers=None)


# ---------------------------------------------------------------------------


def test_criterion_1_pivot_quantiles(pivot_k20):
    start = time.time()
    details = []
    ok = True
    for K, targets in PIVOT_TABLE.items():
        pivot = pivot_k20 if K == 20 else simulate_pivot(K, 500_000, 271828)
        for level, target in targets.items():
            q = pivot.quantile(level)
            rel = abs(q - target) / target
            ok &= rel <= 0.02
            details.append(f"K={K} q{level:.2f}={q:.3f} ({rel * 100:.2f}%)")
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    assert verdict("1", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2a_eigenvalue_shift_distance():
    constant = float(np.sum(TAU21[:4] ** 2))
    ok = abs(constant - 1.07875) <= 5e-6  # reference constant, 5 decimals
    details = [f"sum tau_k^2 = {constant:.10f}"]
    for magnitude in (0.1, 0.5, 1.0):
        c1, c2 = population_kernels(
            DGPSpec(N=10, break_kind="eigenvalue_shift", magnitude=magnitude)
        )
        dist = kernel_distance_sq(c1, c2, 1.0)
        rel = abs(dist - constant * magnitude) / (constant * magnitude)
        ok &= rel <= 1e-6
        details.append(f"E={magnitude}: rel {rel:.2e}")
    assert verdict("2a", ok, "; ".join(details))


def test_criterion_2b_rotation_distance_as_stated():
    # grid quadrature of the rotation pair against the closed form; the
    # stated 5(1 - cos phi)/2 is reported only, see the module docstring
    f = fourier_basis(21, 200).eval_matrix
    ok = True
    details = []
    for phi in (np.pi / 8, np.pi / 4, np.pi):
        c1, c2 = population_kernels(DGPSpec(N=10, break_kind="rotation", magnitude=phi))
        dist = kernel_distance_sq(f @ c1 @ f.T, f @ c2 @ f.T, 1.0 / 200)
        target = 2.0 * (TAU21[0] - TAU21[1]) ** 2 * np.sin(phi) ** 2
        stated = 5.0 * (1.0 - np.cos(phi)) / 2.0
        err = abs(dist - target)
        # sin(pi)^2 is ~1e-32, so the sign-flip case gets an absolute bound
        ok &= err <= (1e-12 if phi == np.pi else 1e-9 * target)
        details.append(
            f"phi={phi:.4f}: dist {dist:.6g} vs closed form {target:.6g} (err {err:.2e}); "
            f"stated {stated:.6f} (rel gap {abs(dist - stated) / stated:.2e})"
        )
    assert verdict("2b", ok, "grid quadrature: " + "; ".join(details))


def test_criterion_2c_rotation_distance_corrected():
    ok = True
    details = []
    for phi in (np.pi / 8, np.pi / 4):
        c1, c2 = population_kernels(DGPSpec(N=10, break_kind="rotation", magnitude=phi))
        dist = kernel_distance_sq(c1, c2, 1.0)
        target = 2.0 * (TAU21[0] - TAU21[1]) ** 2 * np.sin(phi) ** 2
        rel = abs(dist - target) / target
        ok &= rel <= 1e-9
        details.append(f"phi={phi:.4f}: rel {rel:.2e}")
    assert verdict("2c", ok, "corrected closed form 2(tau1-tau2)^2 sin^2: " + "; ".join(details))


def test_criterion_3_eigen_oracle():
    coeff_values, _ = eigendecompose(np.diag(TAU21), 1.0, 21)
    coeff_err = np.abs(coeff_values - TAU21).max()

    basis = fourier_basis(21, 200)
    f = basis.eval_matrix
    grid_values, grid_functions = eigendecompose(f @ np.diag(TAU21) @ f.T, 1.0 / 200, 21)
    grid_err = np.abs(grid_values - TAU21).max()
    fun_err = max(
        np.sqrt(aligned_distance_sq(grid_functions[k], f[:, k], weight=1.0 / 200))
        for k in range(21)
    )
    ok = coeff_err <= 1e-8 and grid_err <= 1e-6 and fun_err <= 1e-6
    assert verdict(
        "3",
        ok,
        f"coeff eigenvalue err {coeff_err:.2e}; grid eigenvalue err {grid_err:.2e}; "
        f"eigenfunction err {fun_err:.2e}",
    )


def test_criterion_4_boundary_level(eigenvalue_table):
    rate = rate_at(eigenvalue_table, 600, 0.1)
    ok = 0.03 <= rate <= 0.07
    assert verdict("4", ok, f"eigenvalue test at the boundary (E=0.1): rate {rate:.4f}")


def _monotone_within_slack(rows):
    rows = sorted(rows, key=lambda r: r.magnitude)
    for prev, nxt in zip(rows, rows[1:]):
        slack = 2.0 * math.sqrt(prev.se**2 + nxt.se**2)
        if nxt.rate < prev.rate - slack:
            return False
    return True


def test_criterion_5_interior_null_and_power_shape(eigenvalue_table, eigenfunction_table):
    bound = 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / 4000)
    val_interior = rate_at(eigenvalue_table, 600, 0.01)
    val_monotone = _monotone_within_slack(eigenvalue_table.rows)

    fun_rows = {
        round(2.0 - 2.0 * math.cos(row.magnitude), 6): row
        for row in eigenfunction_table.rows
    }
    fun_interior = fun_rows[0.01].rate
    fun_boundary = fun_rows[0.1].rate
    fun_monotone = _monotone_within_slack(eigenfunction_table.rows)

    ok = (
        val_interior <= bound
        and val_monotone
        and fun_interior <= bound
        and 0.03 <= fun_boundary <= 0.07
        and fun_monotone
    )
    rates_val = [round(r.rate, 4) for r in sorted(eigenvalue_table.rows, key=lambda r: r.magnitude)]
    rates_fun = [round(r.rate, 4) for r in sorted(eigenfunction_table.rows, key=lambda r: r.magnitude)]
    assert verdict(
        "5",
        ok,
        f"interior rates {val_interior:.4f}/{fun_interior:.4f} <= {bound:.4f}; "
        f"eigenfunction boundary {fun_boundary:.4f}; "
        f"power curves {rates_val} and {rates_fun}",
    )


def test_criterion_6_changepoint_rate():
    medians = {}
    for n in (200, 800):
        errors = []
        for rep in range(500):
            rng = np.random.default_rng(np.random.SeedSequence((4242, n, rep)))
            series = generate(
                DGPSpec(N=n, break_kind="eigenvalue_shift", magnitude=0.5), rng
            )
            est = estimate_changepoint(series.coeffs, 0.05)
            errors.append(abs(est.theta_hat - 0.5))
        medians[n] = float(np.median(errors))
    ok = medians[800] <= 0.02 and medians[800] < medians[200]
    assert verdict(
        "6", ok, f"median |theta_hat - 0.5|: N=200 -> {medians[200]:.4f}, N=800 -> {medians[800]:.4f}"
    )


def test_criterion_7_epsilon_sensitivity():
    reps = 10_000
    boundary_hits = 0
    trimmed_inside = True
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((711, rep)))
        series = generate(DGPSpec(N=400, break_kind="none"), rng)
        curve = objective_curve(series.coeffs)
        for eps in (0.0, 0.05):
            lo, hi = search_range(400, eps)
            k_hat = lo + int(np.argmax(curve[lo - 1 : hi]))
            theta = k_hat / 400
            if eps == 0.0 and (theta < 0.05 or theta > 0.95):
                boundary_hits += 1
            if eps == 0.05 and not 0.05 <= theta <= 0.95:
                trimmed_inside = False
    boundary_rate = boundary_hits / reps

    phi = angle_for_distance_sq(1.0)
    powers = {}
    for eps in (0.0, 0.05):
        config = ExperimentConfig(
            test_kind="eigenfunction",
            j=1,
            delta=0.1,
            break_kind="rotation",
            magnitudes=(phi,),
            n_list=(400,),
            replicates=1000,
            epsilon=eps,
            seed=42,
        )
        rejects, _ = cell_outcomes(config, 400, phi, workers=None)
        powers[eps] = float(rejects.mean())
    se_diff = math.sqrt(sum(p * (1.0 - p) / 1000 for p in powers.values()))
    power_gap = abs(powers[0.0] - powers[0.05])
    ok = boundary_rate > 0.10 and trimmed_inside and power_gap < 3.0 * se_diff
    assert verdict(
        "7",
        ok,
        f"no-break boundary mass at eps=0: {boundary_rate:.3f} (> 0.10); trimmed in range: "
        f"{trimmed_inside}; power {powers[0.0]:.4f} vs {powers[0.05]:.4f} "
        f"(gap {power_gap:.4f} < {3 * se_diff:.4f})",
    )


def test_criterion_8_brute_force_oracles(pivot_k20):
    rng = np.random.default_rng(88)
    curve_err = 0.0
    for n in range(4, 21):
        values = rng.standard_normal((n, 3))
        curve = objective_curve(values)
        for k in range(1, n):
            curve_err = max(curve_err, abs(curve[k - 1] - cusum_objective(values, k)))

    nu = NuMeasure(20)
    lambdas = np.append(nu.points, 1.0)
    path_values = rng.uniform(0.0, 2.0, 20)
    path = DiffPath(lambdas=lambdas, values=path_values, j=1, kind="eigenvalue")
    direct = 0.0
    for l in range(1, 20):
        direct += (1.0 / 19) * (l / 20) ** 4 * (path_values[l - 1] - path_values[-1]) ** 2
    norm_err = abs(self_normalizer(path, nu) - math.sqrt(direct))

    decisions_ok = True
    for alpha, q_reference in ((0.01, 16.479), (0.05, 9.895), (0.10, 7.097)):
        for factor, expected in ((1.05, "reject"), (0.95, "retain")):
            ratio = factor * q_reference
            flat = DiffPath(lambdas=lambdas, values=np.full(20, ratio), j=1, kind="eigenvalue")
            result = decide(flat, 1.0, 0.0, pivot_k20, alpha)
            decisions_ok &= result.decision == expected

    ok = curve_err <= 1e-10 and norm_err <= 1e-12 and decisions_ok
    assert verdict(
        "8",
        ok,
        f"objective streaming vs loops err {curve_err:.2e}; normalizer err {norm_err:.2e}; "
        f"decisions at reference quantiles ok: {decisions_ok}",
    )


def _analyze_synthetic(spec: DGPSpec, tmp_path, start_year: int, out_dir=None, **kwargs):
    series = generate(spec)
    csv_path = tmp_path / "series.csv"
    write_daily_csv(series, start_year, csv_path)
    return run_analysis(csv_path, out_dir, AnalysisConfig(**kwargs), cached_pivot(20))


def test_criterion_9a_planted_rotation_pipeline(tmp_path):
    planted = 2.0 - 2.0 * math.cos(math.pi / 3)  # = 1.0
    flags = {}
    shapes_ok = True
    for seed in range(20):
        out_dir = tmp_path / "report" if seed == 0 else None
        report = _analyze_synthetic(
            DGPSpec(N=123, T=21, theta0=92 / 123, break_kind="rotation",
                    magnitude=math.pi / 3, seed=seed),
            tmp_path,
            1896,
            out_dir=out_dir,
        )
        shapes_ok &= len(report["eigenfunction_tests"]) == 4 * 5
        shapes_ok &= len(report["eigenvalue_tests"]) == 3 * 12
        for cell in report["eigenfunction_tests"]:
            if cell["j"] != 1 or cell["delta"] >= planted:
                continue
            key = round(cell["delta"], 4)
            flags[key] = flags.get(key, 0) + (cell["cell"] != "TRUE")
    table = (tmp_path / "report" / "eigenfunction_table.csv").read_text().splitlines()
    shapes_ok &= len(table) == 1 + 4 and table[0].count(",") == 5
    majorities = {k: v > 10 for k, v in flags.items()}
    ok = shapes_ok and len(flags) == 3 and all(majorities.values())
    assert verdict(
        "9a",
        ok,
        f"planted rotation flagged per sub-threshold angle (of 20 runs): {flags}; "
        f"matrix shapes ok: {shapes_ok}",
    )


def test_criterion_9b_no_break_level(tmp_path):
    tau = 4.0 ** -(np.arange(21, dtype=float))
    reject_counts: dict = {}
    cells_per_run = None
    for seed in range(20):
        report = _analyze_synthetic(
            DGPSpec(N=800, T=21, tau=tau, break_kind="none", seed=seed),
            tmp_path,
            1200,
            epsilon=0.05,
        )
        cells = report["eigenfunction_tests"] + report["eigenvalue_tests"]
        cells_per_run = len(cells)
        for cell in cells:
            key = (cell["threshold_label"], cell["j"])
            reject_counts[key] = reject_counts.get(key, 0) + (cell["cell"] != "TRUE")
    worst = max(reject_counts.values()) if reject_counts else 0
    # every cell must retain in at least 90% of the 20 runs
    ok = cells_per_run == 56 and worst <= 2
    offenders = {k: v for k, v in reject_counts.items() if v > 0}
    assert verdict(
        "9b",
        ok,
        f"{cells_per_run} cells; worst per-cell rejections {worst}/20 (<= 2); "
        f"nonzero cells: {offenders}",
    )
