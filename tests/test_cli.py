import argparse
import hashlib
import json
import math
from importlib import resources

import numpy as np
import pytest

from eigenbreak import cli, harness, selfnorm
from eigenbreak.cli import (
    AnalysisConfig,
    build_parser,
    ingest_daily,
    load_experiment_config,
    main,
    parse_float_or_pi,
    run_analysis,
    write_daily_csv,
)
from eigenbreak.covkern import SplitSample
from eigenbreak.datagen import DGPSpec, generate
from eigenbreak.funcspace import CoeffSeries, fourier_basis
from eigenbreak.selfnorm import (
    NuMeasure,
    self_normalizer,
    sequential_eigensystem_paths,
    simulate_pivot,
)
from reference import write_eigenfunctions


def test_parse_float_or_pi():
    assert parse_float_or_pi("0.5") == 0.5
    assert parse_float_or_pi("pi/16") == pytest.approx(math.pi / 16)
    assert parse_float_or_pi("2pi/5") == pytest.approx(2 * math.pi / 5)
    assert parse_float_or_pi("pi") == pytest.approx(math.pi)
    for text in ("two pi", "pi/0"):
        with pytest.raises(argparse.ArgumentTypeError, match="neither a number"):
            parse_float_or_pi(text)


# ---------------------------------------------------------------------------
# quantile cache


def test_quantiles_command_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["quantiles", "--K", "20", "--R", "20000", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[1]
    assert "K=20" in header and "R=20000" in header and "seed=7" in header


# ---------------------------------------------------------------------------
# synthetic data generation and ingestion


def test_generate_roundtrip(tmp_path):
    out = tmp_path / "series.csv"
    rc = main(
        ["generate", "--years", "4", "--T", "5", "--seed", "9", "--start-year", "1999",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "date,value"
    assert len(lines) == 1 + 4 * 365
    # 2000 is a leap year but synthetic series always carry 365 readings
    assert sum(line.startswith("2000-") for line in lines) == 365
    assert not any("-02-29," in line for line in lines)

    ingest = ingest_daily(out, order=5, min_days=360)
    series = generate(DGPSpec(N=4, T=5, seed=9))
    np.testing.assert_allclose(ingest.series.coeffs, series.coeffs, atol=1e-10)
    assert ingest.years == (1999, 2000, 2001, 2002)


def test_ingest_recovers_basis_function(tmp_path):
    values = fourier_basis(41, 365).eval_matrix[:, 2]  # day d at (d - 1/2) / 365
    path = tmp_path / "one_year.csv"
    with open(path, "w") as fh:
        fh.write("date,value\n")
        import datetime

        day = datetime.date(2001, 1, 1)
        for v in values:
            fh.write(f"{day.isoformat()},{float(v)!r}\n")
            day += datetime.timedelta(days=1)
    ingest = ingest_daily(path, order=41, min_days=360)
    expected = np.zeros(41)
    expected[2] = 1.0
    np.testing.assert_allclose(ingest.series.coeffs[0], expected, atol=1e-6)


def test_ingest_excludes_sparse_years(tmp_path):
    series = generate(DGPSpec(N=4, T=5, seed=1))
    path = tmp_path / "series.csv"
    write_daily_csv(series, 1990, path)
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    # keep only 200 readings of 1991
    kept = [r for r in rows if not r.startswith("1991-")] + \
        [r for r in rows if r.startswith("1991-")][:200]
    path.write_text("\n".join([header] + kept) + "\n")
    ingest = ingest_daily(path, order=5, min_days=360)
    assert ingest.years == (1990, 1992, 1993)
    assert ingest.excluded == ((1991, 200),)


def test_ingest_with_no_retained_years(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("date,value\n2001-01-01,1.0\n2001-01-02,2.0\n")
    with pytest.raises(ValueError, match="no year"):
        ingest_daily(path, order=3, min_days=360)


def test_ingest_skips_leap_day_and_missing(tmp_path):
    path = tmp_path / "leap.csv"
    values = 2.0 * fourier_basis(3, 365).eval_matrix[:, 0]
    import datetime

    with open(path, "w") as fh:
        fh.write("date,value\n")
        fh.write("2000-02-29,99.0\n")  # dropped
        day = datetime.date(2000, 1, 1)
        written = 0
        while day.year == 2000:
            if not (day.month == 2 and day.day == 29):
                if written == 100:
                    fh.write(f"{day.isoformat()},\n")  # missing reading
                else:
                    fh.write(f"{day.isoformat()},{float(values[written])!r}\n")
                written += 1
            day += datetime.timedelta(days=1)
    ingest = ingest_daily(path, order=3, min_days=360)
    np.testing.assert_allclose(ingest.series.coeffs[0], [2.0, 0.0, 0.0], atol=1e-8)


def test_ingest_is_order_insensitive(tmp_path):
    series = generate(DGPSpec(N=4, T=5, seed=4))
    path = tmp_path / "series.csv"
    write_daily_csv(series, 1990, path)
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    rng = np.random.default_rng(0)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    path2 = tmp_path / "shuffled.csv"
    path2.write_text("\n".join([header] + shuffled) + "\n")
    a = ingest_daily(path, order=5)
    b = ingest_daily(path2, order=5)
    np.testing.assert_array_equal(a.series.coeffs, b.series.coeffs)


def test_ingest_error_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,value\n2001-01-01,1.0\nnot-a-date,2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_daily(path, order=3)


def test_ingest_rejects_duplicate_dates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("date,value\n2001-01-01,1.0\n2001-01-01,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        ingest_daily(path, order=3)


def test_ingest_rejects_bad_header(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("day,temp\n2001-01-01,1.0\n")
    with pytest.raises(ValueError, match="header"):
        ingest_daily(path, order=3)


def test_ingest_accepts_a_byte_order_mark(tmp_path):
    # spreadsheet exports often start with the UTF-8 BOM
    path = tmp_path / "series.csv"
    write_daily_csv(generate(DGPSpec(N=4, T=5, seed=3)), 1990, path)
    # a sparse last year, so that a year is excluded too
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-100]))
    plain = ingest_daily(path, order=5)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with_bom = ingest_daily(marked, order=5)
    assert with_bom.series.coeffs.tobytes() == plain.series.coeffs.tobytes()
    assert with_bom.years == plain.years == (1990, 1991, 1992)
    assert with_bom.excluded == plain.excluded


# ---------------------------------------------------------------------------
# simulate command and config files


def test_simulate_shipped_config_shape(tmp_path):
    out_dir = tmp_path / "out"
    rc = main(
        ["simulate", "--config", "figure1", "--out-dir", str(out_dir),
         "--replicates", "2", "--workers", "1"]
    )
    assert rc == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 9 * 3  # header + 9 magnitudes x 3 sample sizes
    payload = json.loads((out_dir / "results.json").read_text())
    assert payload["config"]["replicates"] == 2
    assert len(payload["rows"]) == 27


def test_simulate_sweep_writes_the_tables_of_epsilon_sweep(tmp_path):
    fields = {"test_kind": "eigenvalue", "j": 1, "delta": 0.1, "break_kind": "eigenvalue_shift",
              "magnitudes": [0.1], "n_list": [60], "replicates": 8, "seed": 5}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**fields, "epsilons": [0, 0.05]}))
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir), "--workers", "1"])
    assert rc == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "histograms.csv", "results_eps0p0.csv", "results_eps0p0.json",
        "results_eps0p05.csv", "results_eps0p05.json"]
    sweep = harness.epsilon_sweep(*load_experiment_config(cfg), workers=1)
    for (eps, table), name in zip(sweep.tables, ("results_eps0p0.csv", "results_eps0p05.csv")):
        table.to_csv(tmp_path / "expected.csv")
        assert (out_dir / name).read_bytes() == (tmp_path / "expected.csv").read_bytes(), eps
    sweep.histograms_to_csv(tmp_path / "expected.csv")
    assert (out_dir / "histograms.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_simulate_rejects_empty_magnitudes(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "test_kind": "eigenvalue", "j": 1, "delta": 0.1,
        "break_kind": "eigenvalue_shift", "magnitudes": [], "n_list": [50],
    }))
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "magnitude grid" in capsys.readouterr().err


def test_simulate_rejects_unknown_test_kind(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "test_kind": "variance", "j": 1, "delta": 0.1,
        "break_kind": "eigenvalue_shift", "magnitudes": [0.1], "n_list": [50],
    }))
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "test kind" in err and "eigenvalue" in err and "eigenfunction" in err


def test_config_rejects_unknown_fields(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "test_kind": "eigenvalue", "j": 1, "delta": 0.1,
        "break_kind": "eigenvalue_shift", "magnitudes": [0.1], "n_list": [50],
        "replicattes": 7,
    }))
    with pytest.raises(ValueError, match="replicattes"):
        load_experiment_config(cfg)


#: one-field edits of figure1.json, each with a text its refusal must show
_BAD_EXPERIMENT_FIELDS = [
    # silently ran another experiment before types were checked
    ({"n_list": [200.5]}, "'n_list'"),
    ({"center": "no"}, "'center'"),
    # a dropped field at its old default ran every replicate
    ({"center": False}, "'center'"),
    ({"replicates": True}, "'replicates'"),
    # failed in replicate 0 with a RuntimeError traceback
    ({"K": 1}, "K >= 2"),
    ({"K": 20.5}, "'K'"),
    ({"T": 4}, "basis order"),
    ({"j": 30}, "eigen index j"),
    ({"theta0": 1.5}, "break fraction"),
    ({"tau": [1, 2, 3]}, "tau must have length"),
    ({"n_list": [3]}, "sample size must be at least 4"),
    ({"magnitudes": [1.5]}, "eigenvalue-shift magnitude"),
    ({"epsilon": 0.7}, "boundary trim epsilon"),
    ({"epsilon": "0.1"}, "'epsilon'"),
    ({"seed": "x"}, "'seed'"),
    ({"seed": -1}, "seed must be nonnegative"),
    # decided from a 3-draw pivot and exited 0
    ({"pivot_replicates": 3}, "'pivot_replicates'"),
    ({"epsilons": [True]}, "'epsilons'"),
    ({"epsilons": [0.05, 0.7]}, "boundary trim epsilon"),
    # made the out dir, then failed with a message that named no file
    ({"epsilons": []}, "'epsilons'"),
    # ran the repeated trim's experiment twice and wrote its table twice
    ({"epsilons": [0, 0.05, 1e-05, 0.05]}, "boundary trim 0.05 is repeated"),
    # exited 1 with a message that named nothing
    ({"magnitudes": "0.1"}, "'magnitudes'"),
    ({"replicates": "10"}, "'replicates'"),
    ({"tau": 3}, "'tau'"),
    ({"alpha": None}, "'alpha'"),
    # JSON numbers may be NaN: exited 0 with rate 0.0, or failed in replicate 0
    ({"delta": float("nan")}, "relevance threshold"),
    ({"break_kind": "rotation", "magnitudes": [float("nan")]}, "break magnitude"),
]


def _figure1_with(tmp_path, field):
    shipped = resources.files("eigenbreak").joinpath("configs", "figure1.json")
    cfg = tmp_path / "figure1.json"
    cfg.write_text(json.dumps({**json.loads(shipped.read_text()), **field}))
    return cfg


@pytest.mark.parametrize("field, message", _BAD_EXPERIMENT_FIELDS,
                         ids=[json.dumps(field) for field, _ in _BAD_EXPERIMENT_FIELDS])
def test_simulate_refuses_invalid_config_before_any_replicate(tmp_path, capsys, monkeypatch,
                                                              field, message):
    def fail(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "run_replicate", fail)
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(_figure1_with(tmp_path, field)),
               "--out-dir", str(out_dir), "--workers", "1"])
    assert rc == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert message in err and "figure1.json" in err


@pytest.mark.parametrize("field", [{"magnitudes": [0, 1]}, {"tau": None}, {}],
                         ids=["int-magnitudes", "null-tau", "unchanged"])
def test_experiment_config_accepts_valid_json_types(tmp_path, field):
    config, epsilons = load_experiment_config(_figure1_with(tmp_path, field))
    assert epsilons is None
    if "magnitudes" in field:
        assert config.magnitudes == (0.0, 1.0)
        assert all(type(m) is float for m in config.magnitudes)


@pytest.mark.parametrize("name", ["figure1", "figure3"])
def test_shipped_configs_load(name):
    path = resources.files("eigenbreak").joinpath("configs", f"{name}.json")
    config, epsilons = load_experiment_config(path)
    assert epsilons is None and config.n_list == (200, 400, 600)


def test_simulate_refuses_a_negative_worker_count_before_the_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", "figure1", "--replicates", "1", "--workers", "-1",
               "--out-dir", str(out_dir)])
    assert rc == 1
    assert "worker count must be nonnegative" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze command


@pytest.fixture(scope="module")
def small_pivot():
    return simulate_pivot(20, 20_000, 3)


def test_analysis_finds_planted_rotation(tmp_path, small_pivot):
    series = generate(
        DGPSpec(N=40, T=9, theta0=0.5, break_kind="rotation", magnitude=math.pi / 2, seed=0)
    )
    csv_path = tmp_path / "rotated.csv"
    write_daily_csv(series, 1950, csv_path)
    report = run_analysis(
        csv_path, tmp_path / "report", AnalysisConfig(T=9, epsilon=0.05, j_fun=2, j_val=3),
        small_pivot,
    )
    assert abs(report["theta_hat"] - 0.5) <= 0.15
    assert report["last_pre_year"] == 1950 + report["k_hat"] - 1
    j1 = [c for c in report["eigenfunction_tests"] if c["j"] == 1]
    small_angle = [c for c in j1 if c["delta"] < 1.9][0]
    assert small_angle["cell"].startswith("FALSE")

    report_dir = tmp_path / "report"
    assert (report_dir / "report.json").is_file()
    table = (report_dir / "eigenfunction_table.csv").read_text().splitlines()
    assert table[0] == "angle,j=1,j=2"
    assert len(table) == 1 + 4  # default four angles
    values = (report_dir / "eigenvalue_table.csv").read_text().splitlines()
    assert values[0] == "divisor,j=1,j=2,j=3"
    assert len(values) == 1 + 3
    eigen_lines = (report_dir / "eigenvalues.csv").read_text().splitlines()
    assert eigen_lines[0] == "segment,j,eigenvalue"
    assert len(eigen_lines) == 1 + 2 * 9


def test_eigenfunction_bytes_match_the_line_by_line_writer(tmp_path):
    # six functions, so the cut at five shows, and values from 0 to 1e8
    basis = fourier_basis(41, cli.DAYS_PER_YEAR)
    rng = np.random.default_rng(3)
    pre = (rng.standard_normal(41) ** 2, rng.standard_normal((6, 41)))
    post = (np.array([1.0, 1e-300, 0.0]),
            np.vstack([np.zeros(41), rng.standard_normal((2, 41)) * 1e8]))
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    cli._write_segment_eigendata(tmp_path / "new", basis, pre, post)
    write_eigenfunctions(tmp_path / "old", basis, pre, post)
    assert (tmp_path / "new" / "eigenfunctions.csv").read_bytes() == \
        (tmp_path / "old" / "eigenfunctions.csv").read_bytes()


def _report_digests(out_dir):
    """sha256 of report.json, less the CSV path, and of the four CSV tables."""
    report = json.loads((out_dir / "report.json").read_text())
    del report["settings"]["csv_path"]
    digests = {"report.json": hashlib.sha256(
        json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest()}
    for name in ("eigenfunction_table.csv", "eigenvalue_table.csv",
                 "eigenvalues.csv", "eigenfunctions.csv"):
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return digests


def test_analysis_bytes_are_golden(tmp_path, small_pivot):
    # report.json re-recorded when kernels below 32 dimensions took their
    # eigenfunctions from shifted solves and pairs at round-off got zero
    # functions: the eigenfunction normalizers of j = 2..5 moved, and no grade;
    # report.json and both eigen CSVs re-recorded when complete years began to
    # share one least-squares solve: the coefficients moved by rounding, and
    # both grade tables kept their bytes
    series = generate(DGPSpec(N=40, T=9, break_kind="rotation", magnitude=math.pi / 2, seed=0))
    csv_path = tmp_path / "rotated.csv"
    write_daily_csv(series, 1950, csv_path)
    out_dir = tmp_path / "report"
    run_analysis(csv_path, out_dir, AnalysisConfig(T=9, j_fun=5, j_val=9), small_pivot)
    assert _report_digests(out_dir) == {
        "report.json": (
            "da84a810b918763cfc746f8d3715901c223ad3e5b13c37d1d7c72d0e0aa7fed4"),
        "eigenfunction_table.csv": (
            "5eb1e0cf039e18f6f57e02e55f07eea03b6c0ad250f6a223a0970b5be3a4a2a2"),
        "eigenvalue_table.csv": (
            "9eb4614572eb85321247499ee1b8eb620fbf171404d036df1b7e18e1d639249e"),
        "eigenvalues.csv": (
            "658b65634d90de694af38f32871cac0ed2bb9c7c63c76e4408e2fcf8e1469ca6"),
        "eigenfunctions.csv": (
            "3455fd70293432b48e1f48dc49a15736b99913be7c5fe2b9abfb1d18b6994599"),
    }


#: digests of 60 generated years analysed at the default order 41: years of
#: order 21 give rank-21 rows, whose prefixes take one d x d stack in the
#: row space; years of order 41 give full-rank segments shorter than 41,
#: whose prefixes take Gram blocks; report.json and both eigen CSVs were
#: re-recorded with the coefficients' rounding when complete years began to
#: share one least-squares solve
_DEFAULT_ORDER_DIGESTS = {
    21: {
        "report.json": (
            "8180fece36d87cd7bed35a70bef96bbbb0c084b88e6a97177e8be32b76993f96"),
        "eigenfunction_table.csv": (
            "d17cce790c0fdbce18e8bedd4c48ae774f27eed4c38859535241d7d7a9385942"),
        "eigenvalue_table.csv": (
            "6e46ed25de0cefa073a9cee3fa117b360a056573d3b43bb7ba960e34cdf91caf"),
        "eigenvalues.csv": (
            "e527fc923d2ddb344251602383d6d75572167295a87103f5a44fb34d8ceb58f6"),
        "eigenfunctions.csv": (
            "db78a9024fecece658598ee1591542dc847864b9418c500a23c32ec8abc369de"),
    },
    41: {
        "report.json": (
            "85d250c19fb9d57745f70f3b6efdf2304bcf76b930a555832a1c032bc0b1d14c"),
        "eigenfunction_table.csv": (
            "b448354cea3f4db3d82c2eced2a9c6664fecd929c1c0dc9a06e07729c3f68d47"),
        "eigenvalue_table.csv": (
            "a7a2a052c9c6626aa58e45ece5254af20fff3c9ed9e5c9041f12ab25a7eaf91e"),
        "eigenvalues.csv": (
            "6c28dcd2e64de90aeb4f71f76b328feef99be6d457905167ef9d233eb8bc9c4d"),
        "eigenfunctions.csv": (
            "970f040bd1cd10434f5be4f0268bda8d6367db1f0041eb4aca61718849eaf968"),
    },
}


@pytest.mark.parametrize("order", sorted(_DEFAULT_ORDER_DIGESTS))
def test_analysis_bytes_at_the_default_order_are_golden(tmp_path, small_pivot, order):
    series = generate(DGPSpec(N=60, T=order, break_kind="rotation", magnitude=math.pi / 2,
                              seed=5))
    csv_path = tmp_path / "years.csv"
    write_daily_csv(series, 1950, csv_path)
    out_dir = tmp_path / "report"
    run_analysis(csv_path, out_dir, AnalysisConfig(), small_pivot)
    assert _report_digests(out_dir) == _DEFAULT_ORDER_DIGESTS[order]


def test_centred_analysis_ignores_the_level_of_the_data(tmp_path, small_pivot):
    # the centred scan and the mean-corrected kernels see no constant shift
    # of every year, so readings in degrees C and in K split and grade alike
    series = generate(DGPSpec(N=40, T=9, break_kind="rotation", magnitude=math.pi / 2, seed=0))
    shifted = series.coeffs.copy()
    shifted[:, 0] += 10.0  # the first basis function is the constant one
    config = AnalysisConfig(T=9, j_fun=5, j_val=9, center_cusum=True)
    reports = []
    for name, coeffs in (("plain", series.coeffs), ("shifted", shifted)):
        csv_path = tmp_path / f"{name}.csv"
        write_daily_csv(CoeffSeries(coeffs, series.basis), 1950, csv_path)
        reports.append(run_analysis(csv_path, None, config, small_pivot))
    plain, moved = reports
    assert moved["k_hat"] == plain["k_hat"]
    for kind in ("eigenfunction_tests", "eigenvalue_tests"):
        assert [c["cell"] for c in moved[kind]] == [c["cell"] for c in plain[kind]]
        np.testing.assert_allclose([c["statistic"] for c in moved[kind]],
                                   [c["statistic"] for c in plain[kind]], rtol=1e-10)


def test_analysis_centres_each_segment_by_its_full_mean(tmp_path, small_pivot):
    # every lambda-prefix kernel of a segment subtracts the mean of the
    # whole segment, not of its own prefix
    series = generate(DGPSpec(N=40, T=9, break_kind="rotation", magnitude=math.pi / 2, seed=0))
    csv_path = tmp_path / "rotated.csv"
    write_daily_csv(series, 1950, csv_path)
    config = AnalysisConfig(T=9, j_fun=5, j_val=9)
    report = run_analysis(csv_path, None, config, small_pivot)
    coeffs, k, nu = ingest_daily(csv_path, 9).series.coeffs, report["k_hat"], NuMeasure(20)
    pre, post = coeffs[:k], coeffs[k:]
    for split, same in ((SplitSample(pre - pre.mean(axis=0), post - post.mean(axis=0)), True),
                        (SplitSample(pre, post), False)):
        paths = sequential_eigensystem_paths(split, 9, nu, functions=5)
        for kind, j_max in (("eigenfunction", 5), ("eigenvalue", 9)):
            normalizers = {(j, self_normalizer(paths.diff(j, kind), nu))
                           for j in range(1, j_max + 1)}
            cells = {(c["j"], c["normalizer"]) for c in report[f"{kind}_tests"]}
            assert (cells == normalizers) is same, kind


def test_analysis_report_matrix_shapes(tmp_path, small_pivot):
    series = generate(DGPSpec(N=20, T=5, seed=2))
    csv_path = tmp_path / "plain.csv"
    write_daily_csv(series, 1900, csv_path)
    config = AnalysisConfig(T=5, epsilon=0.05, angles=(math.pi / 8, math.pi / 4),
                            j_fun=2, j_val=4, divisors=(50, 100))
    report = run_analysis(csv_path, None, config, small_pivot)
    assert len(report["eigenfunction_tests"]) == 2 * 2
    assert len(report["eigenvalue_tests"]) == 4 * 2
    assert report["settings"]["order"] == 5
    pre = report["eigenvalues"]["pre"]
    assert pre == sorted(pre, reverse=True)


@pytest.mark.parametrize("alphas, label", [((0.1, 0.005, 0.001), "FALSE>99.5%"),
                                           ((0.1, 0.035), "FALSE>96.5%")])
def test_grade_labels_keep_the_level_digits(tmp_path, small_pivot, alphas, label):
    # a strong eigenvalue shift: j=1 rejects at 0.005 (p_value about 0.998) but
    # not at 0.001, and its label names the exact confidence, not a rounded one
    series = generate(DGPSpec(N=200, T=9, break_kind="eigenvalue_shift", magnitude=0.9, seed=3))
    csv_path = tmp_path / "shift.csv"
    write_daily_csv(series, 1900, csv_path)
    config = AnalysisConfig(T=9, epsilon=0.05, j_fun=2, j_val=3, alphas=alphas)
    report = run_analysis(csv_path, tmp_path / "report", config, small_pivot)
    assert [c["cell"] for c in report["eigenvalue_tests"] if c["j"] == 1] == [label] * 3
    table = (tmp_path / "report" / "eigenvalue_table.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in table[1:]] == [label] * 3


def test_analysis_solves_only_for_the_tested_eigenfunctions(tmp_path, monkeypatch, small_pivot):
    # below 32 dimensions the prefix kernels' eigenfunctions come from
    # shifted solves: a batch holds at most one system per lambda and tested
    # index, (K + 1) * j_fun = 105 with the defaults, none for j_fun < j <= j_val
    series = generate(DGPSpec(N=60, T=21, seed=4))
    csv_path = tmp_path / "order21.csv"
    write_daily_csv(series, 1900, csv_path)
    config = AnalysisConfig(T=21)
    batches = []

    def solve(a, b, _solve=np.linalg.solve):
        batches.append(int(np.prod(np.shape(a)[:-2])))
        return _solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    run_analysis(csv_path, None, config, small_pivot)
    assert batches and max(batches) <= (config.K + 1) * config.j_fun, batches


def test_analysis_needs_eight_years(tmp_path, small_pivot):
    series = generate(DGPSpec(N=5, T=5, seed=2))
    csv_path = tmp_path / "short.csv"
    write_daily_csv(series, 1900, csv_path)
    with pytest.raises(ValueError, match="at least 8 retained years"):
        run_analysis(csv_path, None, AnalysisConfig(T=5, j_val=5), small_pivot)


def test_analyze_command_with_quantile_cache(tmp_path):
    cache = tmp_path / "cache.csv"
    assert main(["quantiles", "--K", "20", "--R", "20000", "--seed", "3",
                 "--out", str(cache)]) == 0
    series = generate(DGPSpec(N=24, T=5, seed=6, break_kind="rotation",
                              magnitude=math.pi / 2))
    csv_path = tmp_path / "data.csv"
    write_daily_csv(series, 1980, csv_path)
    out_dir = tmp_path / "out"
    rc = main([
        "analyze", "--csv", str(csv_path), "--T", "5", "--epsilon", "0.05",
        "--j-fun", "2", "--j-val", "2", "--angles", "pi/8,pi/4",
        "--quantile-cache", str(cache), "--out-dir", str(out_dir),
    ])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["settings"]["pivot"]["R"] == 20000
    table = (out_dir / "eigenfunction_table.csv").read_text().splitlines()
    assert len(table) == 1 + 2


def test_analyze_config_file(tmp_path):
    cache = tmp_path / "cache.csv"
    assert main(["quantiles", "--K", "20", "--R", "20000", "--seed", "3",
                 "--out", str(cache)]) == 0
    series = generate(DGPSpec(N=24, T=5, seed=6, break_kind="rotation",
                              magnitude=math.pi / 2))
    csv_path = tmp_path / "data.csv"
    write_daily_csv(series, 1980, csv_path)
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({
        "csv": str(csv_path),
        "T": 5,
        "epsilon": 0.05,
        "j_fun": 2,
        "j_val": 3,
        "angles": ["pi/8", "pi/4"],
        "quantile_cache": str(cache),
        "out_dir": str(tmp_path / "cfg_out"),
    }))
    # explicit flags override the config values, also when a flag repeats
    # its parser default (--j-fun 5); settings left unset come from the file
    rc = main(["analyze", "--config", str(cfg), "--j-val", "2", "--j-fun", "5"])
    assert rc == 0
    report = json.loads((tmp_path / "cfg_out" / "report.json").read_text())
    assert report["settings"]["order"] == 5
    assert report["settings"]["j_fun"] == 5
    assert report["settings"]["j_val"] == 2
    assert report["settings"]["angles"] == pytest.approx([math.pi / 8, math.pi / 4])


def test_analyze_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"csv": "x.csv", "angle_grid": [1.0]}))
    rc = main(["analyze", "--config", str(cfg)])
    assert rc == 1
    assert "angle_grid" in capsys.readouterr().err


@pytest.mark.parametrize("field", [{"K": "20"}, {"T": "41"}, {"epsilon": "0.01"},
                                   {"j_fun": 2.0}, {"center_cusum": 1}, {"min_days": True},
                                   {"out_dir": None},
                                   # list settings take a JSON array of numbers
                                   {"angles": ["two pi"]}, {"angles": 5}, {"angles": [True]},
                                   {"divisors": "50"}, {"divisors": [50.5]},
                                   {"alphas": ["x"]}, {"alphas": None},
                                   # a zero divisor, and a number that is not finite
                                   {"angles": ["pi/0"]}, {"angles": [float("nan")]}])
def test_analyze_config_rejects_wrongly_typed_values(tmp_path, capsys, field):
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"csv": "x.csv", **field}))
    rc = main(["analyze", "--config", str(cfg)])
    assert rc == 1
    (key,) = field
    assert repr(key) in capsys.readouterr().err


def test_analyze_config_accepts_an_int_for_a_float(tmp_path):
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"csv": "x.csv", "epsilon": 0, "center_cusum": True,
                               "angles": [1, "pi/4"], "alphas": [0.05, 0.5]}))
    config, paths = cli._load_config(AnalysisConfig, cfg, {}, cli._ANALYZE_PATHS, "analyze")
    assert paths == {"csv": "x.csv"}
    assert config.epsilon == 0 and config.center_cusum is True and config.K == 20
    assert config.angles == (1.0, math.pi / 4) and isinstance(config.angles[0], float)
    assert config.alphas == (0.5, 0.05)


@pytest.fixture(scope="module")
def ten_year_csv(tmp_path_factory):
    """A 10-year daily CSV of order 5 and a K=20 quantile cache for it."""
    root = tmp_path_factory.mktemp("ten_years")
    cache = root / "cache.csv"
    assert main(["quantiles", "--K", "20", "--R", "2000", "--out", str(cache)]) == 0
    csv_path = root / "data.csv"
    write_daily_csv(generate(DGPSpec(N=10, T=5, seed=1)), 1980, csv_path)
    return csv_path, cache


def test_analyze_rejects_empty_alphas_config(tmp_path, capsys, ten_year_csv):
    csv_path, cache = ten_year_csv
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"csv": str(csv_path), "T": 5, "alphas": [],
                               "quantile_cache": str(cache), "out_dir": str(tmp_path / "out")}))
    rc = main(["analyze", "--config", str(cfg)])
    assert rc == 1
    assert "'alphas' must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("flags, setting", [
    (["--T", "5"], "j_val"),  # the default --j-val 12 exceeds T
    (["--T", "5", "--j-fun", "6", "--j-val", "3"], "j_fun"),
    (["--j-fun", "0"], "j_fun"),
    (["--j-val", "-1"], "j_val"),
    (["--epsilon", "0.5"], "epsilon"),
])
def test_analyze_refuses_bad_settings_before_ingestion(tmp_path, capsys, monkeypatch,
                                                       ten_year_csv, flags, setting):
    def fail(*args):
        raise AssertionError("the file was ingested")

    monkeypatch.setattr(cli, "ingest_daily", fail)
    csv_path, cache = ten_year_csv
    out_dir = tmp_path / "out"
    rc = main(["analyze", "--csv", str(csv_path), *flags, "--quantile-cache", str(cache),
               "--out-dir", str(out_dir)])
    assert rc == 1
    assert setting in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags, message", [
    (["--T", "4", "--j-fun", "2", "--j-val", "2"], "basis order"),
    (["--T", "-3"], "basis order"),
    (["--divisors", "0"], "divisors"),
    (["--alphas", ","], "'alphas'"),
    (["--j-fun", "0"], "j_fun"),
    (["--j-val", "50"], "j_val"),
    (["--epsilon", "0.5"], "epsilon"),
    (["--K", "1"], "K >= 2"),
    (["--alphas", "0,0.5"], "'alphas'"),
    (["--alphas", "1.5"], "'alphas'"),
    (["--min-days", "400"], "min_days"),
    (["--min-days", "3"], "min_days"),  # fewer than the T=5 readings a fit needs
    (["--angles", ","], "'angles' must not be empty"),
    (["--divisors", ","], "'divisors' must not be empty"),
    (["--divisors", "0,100"], "divisors must be positive"),
    (["--alphas", ""], "'alphas' must not be empty"),
    (["--angles", "nan"], "'angles' must hold finite numbers"),
    (["--angles", "pi/8,inf"], "'angles' must hold finite numbers"),
])
def test_analyze_refuses_bad_settings_before_the_pivot(tmp_path, capsys, monkeypatch,
                                                       ten_year_csv, flags, message):
    def fail(*args):
        raise AssertionError("a pivot was simulated")

    # an empty process cache: a resolved pivot would have to be simulated
    monkeypatch.setattr(selfnorm, "_PIVOT", None)
    monkeypatch.setattr(selfnorm, "simulate_pivot", fail)
    csv_path, _ = ten_year_csv
    cache = tmp_path / "fresh.csv"
    rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--j-val", "5", *flags,
               "--quantile-cache", str(cache), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not cache.exists()


def test_eigenvalue_threshold_past_the_rank_is_zero(tmp_path, ten_year_csv):
    # the order-5 pre-segment kernel of 4 years has rank 3: its 4th and 5th
    # eigenvalues are round-off, one of them negative
    csv_path, cache = ten_year_csv
    out_dir = tmp_path / "out"
    rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--j-val", "5",
               "--quantile-cache", str(cache), "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert min(report["eigenvalues"]["pre"]) < 0.0
    deltas = {cell["j"]: cell["delta"] for cell in report["eigenvalue_tests"]}
    assert all(delta >= 0.0 for delta in deltas.values())
    assert deltas[5] == 0.0


def test_a_default_quantile_cache_decides_as_no_cache(tmp_path, ten_year_csv):
    # a run without a cache decides from the default pivot's quantile
    # summary, which is what a default cache from `quantiles` holds
    csv_path, _ = ten_year_csv
    cache = tmp_path / "default.csv"
    assert main(["quantiles", "--K", "20", "--out", str(cache)]) == 0
    reports = []
    for run, cached in (("cached", ["--quantile-cache", str(cache)]), ("no-cache", [])):
        out_dir = tmp_path / run
        rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--j-val", "5", *cached,
                   "--out-dir", str(out_dir)])
        assert rc == 0
        reports.append((out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_analyze_refuses_a_missing_quantile_cache(tmp_path, capsys, monkeypatch, ten_year_csv):
    def fail(*args):
        raise AssertionError("a pivot was simulated")

    monkeypatch.setattr(selfnorm, "_PIVOT", None)
    monkeypatch.setattr(selfnorm, "simulate_pivot", fail)
    cache = tmp_path / "missing.csv"
    rc = main(["analyze", "--csv", str(ten_year_csv[0]), "--T", "5", "--j-val", "5",
               "--quantile-cache", str(cache), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(cache) in err and "eigenbreak quantiles" in err
    assert not cache.exists()


@pytest.mark.parametrize("draws, alphas, refused", [
    ("3", "0.1,0.05,0.01", True),
    ("99", "0.1", True),  # 9.9 draws above the 0.9 quantile
    ("100", "0.1", False),
    # the default cache: it was told to write one with --R 20000, which holds
    # 10k quantiles too, as every cache holds at most 10k
    ("500000", "0.1,0.0005", True),
])
def test_analyze_refuses_a_coarse_quantile_cache(tmp_path, capsys, ten_year_csv,
                                                 draws, alphas, refused):
    cache = tmp_path / "coarse.csv"
    assert main(["quantiles", "--K", "20", "--R", draws, "--out", str(cache)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    rc = main(["analyze", "--csv", str(ten_year_csv[0]), "--T", "5", "--j-val", "5",
               "--alphas", alphas, "--quantile-cache", str(cache), "--out-dir", str(out_dir)])
    if not refused:
        assert rc == 0
        return
    assert rc == 1
    err = capsys.readouterr().err
    level = alphas.split(",")[-1]
    assert f"level {level}" in err
    if float(level) < 0.001:
        assert "holds 10000 quantiles" in err
        assert "no quantile cache serves a level below 0.001" in err and "--R" not in err
    else:
        assert f"holds {draws} draws" in err
        assert "eigenbreak quantiles --K 20 --R" in err
    assert not out_dir.exists()


def _quantile(text):
    def corrupt(lines):
        mid = len(lines) // 2
        return [*lines[:mid], lines[mid].partition(",")[0] + f",{text}\n", *lines[mid + 1:]]
    return corrupt


@pytest.mark.parametrize("corrupt, detail", [
    (_quantile("nan"), ""),  # decided every cell TRUE from a nan quantile
    (lambda lines: lines[:3] + lines[3:][::-1], ""),  # read p-values from unsorted quantiles
    # refused by a parse message that named no file
    (lambda lines: [lines[0], lines[1].replace("R=2000", "R=abc"), *lines[2:]], ""),
    # named loadtxt's row 998 instead of the file's line: 3 header lines + 2000 rows
    (_quantile("x"), ": line 1002: could not convert string 'x'"),
    (lambda lines: ["one line of text\n"], ""),
], ids=["nan", "reversed", "header-R", "quantile-x", "one-line"])
def test_analyze_refuses_a_corrupt_quantile_cache(tmp_path, capsys, ten_year_csv, corrupt,
                                                  detail):
    _, cache = ten_year_csv
    bad = tmp_path / "corrupt.csv"
    bad.write_text("".join(corrupt(cache.read_text().splitlines(keepends=True))))
    out_dir = tmp_path / "out"
    rc = main(["analyze", "--csv", str(ten_year_csv[0]), "--T", "5", "--j-val", "5",
               "--quantile-cache", str(bad), "--out-dir", str(out_dir)])
    assert rc == 1
    assert f"{bad} is not a pivot quantile cache{detail}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_analyze_refuses_a_trim_that_leaves_no_split(tmp_path, capsys, ten_year_csv):
    csv_path = tmp_path / "nine.csv"
    write_daily_csv(generate(DGPSpec(N=9, T=5, seed=1)), 1980, csv_path)
    out_dir = tmp_path / "out"
    rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--j-val", "5", "--epsilon", "0.49",
               "--quantile-cache", str(ten_year_csv[1]), "--out-dir", str(out_dir)])
    assert rc == 1
    assert "epsilon=0.49 leaves no split of N=9 observations" in capsys.readouterr().err
    assert not out_dir.exists()


def _write_short_csv(path, csv_path):
    write_daily_csv(generate(DGPSpec(N=5, T=5, seed=2)), 1900, path)


def _write_bad_date_csv(path, csv_path):
    path.write_text(csv_path.read_text() + "1990-02-30,1.0\n")


@pytest.mark.parametrize("write, message", [
    (None, "No such file"),
    (_write_short_csv, "at least 8 retained years"),
    (_write_bad_date_csv, "unparseable date '1990-02-30'"),
])
def test_analyze_reads_the_csv_before_writing_a_cache(tmp_path, capsys, monkeypatch,
                                                      ten_year_csv, write, message):
    def fail(*args):
        raise AssertionError("a pivot was simulated")

    monkeypatch.setattr(selfnorm, "_PIVOT", None)
    monkeypatch.setattr(selfnorm, "simulate_pivot", fail)
    csv_path = tmp_path / "data.csv"
    if write is not None:
        write(csv_path, ten_year_csv[0])
    cache = tmp_path / "fresh.csv"
    rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--j-val", "5",
               "--quantile-cache", str(cache), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not cache.exists()


def test_run_analysis_refuses_a_pivot_of_another_grid(ten_year_csv, small_pivot):
    with pytest.raises(ValueError, match="built for K=20, need K=10"):
        run_analysis(ten_year_csv[0], None, AnalysisConfig(T=5, j_val=5, K=10), small_pivot)


def test_experiment_config_file_accepts_tau(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "test_kind": "eigenvalue", "j": 1, "delta": 0.1,
        "break_kind": "eigenvalue_shift", "magnitudes": [0.1], "n_list": [50],
        "T": 5, "tau": [1.0, 0.5, 0.25, 0.125, 0.0625], "replicates": 2,
    }))
    config, epsilons = load_experiment_config(cfg)
    assert epsilons is None
    assert config.tau == (1.0, 0.5, 0.25, 0.125, 0.0625)


def test_analyze_rejects_mismatched_cache(tmp_path, capsys, ten_year_csv):
    cache = tmp_path / "cache.csv"
    assert main(["quantiles", "--K", "30", "--R", "20000", "--seed", "3",
                 "--out", str(cache)]) == 0
    csv_path, _ = ten_year_csv
    rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--j-val", "5", "--K", "20",
               "--quantile-cache", str(cache), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "K=30" in capsys.readouterr().err


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("EIGENBREAK_OUT_DIR", str(tmp_path / "env_out"))
    parser = build_parser()
    args = parser.parse_args(["simulate", "--config", "x"])
    assert args.out_dir == str(tmp_path / "env_out")
