import hashlib
import json
import math

import numpy as np
import pytest

from eigenbreak.cli import (
    apply_analyze_config,
    build_parser,
    ingest_daily,
    load_experiment_config,
    main,
    parse_float_or_pi,
    run_analysis,
    write_daily_csv,
)
from eigenbreak.datagen import DGPSpec, generate
from eigenbreak.funcspace import fourier_basis
from eigenbreak.selfnorm import simulate_pivot


def test_parse_float_or_pi():
    assert parse_float_or_pi("0.5") == 0.5
    assert parse_float_or_pi("pi/16") == pytest.approx(math.pi / 16)
    assert parse_float_or_pi("2pi/5") == pytest.approx(2 * math.pi / 5)
    assert parse_float_or_pi("pi") == pytest.approx(math.pi)
    with pytest.raises(Exception):
        parse_float_or_pi("two pi")


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
    basis = fourier_basis(41, 365)
    positions = (np.arange(1, 366) - 0.5) / 365
    values = basis.evaluate(positions)[:, 2]
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
    basis = fourier_basis(3, 365)
    positions = (np.arange(1, 366) - 0.5) / 365
    values = 2.0 * basis.evaluate(positions)[:, 0]
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
        csv_path, tmp_path / "report", order=9, epsilon=0.05, j_fun=2, j_val=3,
        pivot=small_pivot,
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


def test_analysis_bytes_are_golden(tmp_path, small_pivot):
    # digests recorded before the segment eigen paths shared the covkern
    # accumulator and the eigensys eigen step
    series = generate(DGPSpec(N=40, T=9, break_kind="rotation", magnitude=math.pi / 2, seed=0))
    csv_path = tmp_path / "rotated.csv"
    write_daily_csv(series, 1950, csv_path)
    out_dir = tmp_path / "report"
    run_analysis(csv_path, out_dir, order=9, j_fun=5, j_val=9, pivot=small_pivot)
    report = json.loads((out_dir / "report.json").read_text())
    del report["settings"]["csv_path"]
    digests = {"report.json": hashlib.sha256(
        json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest()}
    for name in ("eigenfunction_table.csv", "eigenvalue_table.csv",
                 "eigenvalues.csv", "eigenfunctions.csv"):
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    assert digests == {
        "report.json": (
            "a3ef0766f9c659770dd7e6fef942c0a78f31eee710891546c4ea3afe61580b2a"),
        "eigenfunction_table.csv": (
            "5eb1e0cf039e18f6f57e02e55f07eea03b6c0ad250f6a223a0970b5be3a4a2a2"),
        "eigenvalue_table.csv": (
            "9eb4614572eb85321247499ee1b8eb620fbf171404d036df1b7e18e1d639249e"),
        "eigenvalues.csv": (
            "b9bb446ef36000cf7ae53f664334e145e094d1ba1c0573b5ea8beb9ca2b3716c"),
        "eigenfunctions.csv": (
            "8d7724ad784f399583025afe4830213f0f09cea24a7fd6c0702295bc5e727e85"),
    }


def test_analysis_report_matrix_shapes(tmp_path, small_pivot):
    series = generate(DGPSpec(N=20, T=5, seed=2))
    csv_path = tmp_path / "plain.csv"
    write_daily_csv(series, 1900, csv_path)
    report = run_analysis(
        csv_path, None, order=5, epsilon=0.05,
        angles=(math.pi / 8, math.pi / 4), j_fun=2, j_val=4, divisors=(50, 100),
        pivot=small_pivot,
    )
    assert len(report["eigenfunction_tests"]) == 2 * 2
    assert len(report["eigenvalue_tests"]) == 4 * 2
    assert report["settings"]["order"] == 5
    pre = report["eigenvalues"]["pre"]
    assert pre == sorted(pre, reverse=True)


def test_analysis_needs_eight_years(tmp_path, small_pivot):
    series = generate(DGPSpec(N=5, T=5, seed=2))
    csv_path = tmp_path / "short.csv"
    write_daily_csv(series, 1900, csv_path)
    with pytest.raises(ValueError, match="8"):
        run_analysis(csv_path, None, order=5, pivot=small_pivot)


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
                                   {"alphas": ["x"]}, {"alphas": None}])
def test_analyze_config_rejects_wrongly_typed_values(tmp_path, capsys, field):
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"csv": "x.csv", **field}))
    rc = main(["analyze", "--config", str(cfg)])
    assert rc == 1
    (key,) = field
    assert repr(key) in capsys.readouterr().err


def test_analyze_config_accepts_an_int_for_a_float(tmp_path):
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"epsilon": 0, "center_cusum": True, "angles": [1, "pi/4"],
                               "alphas": [0, 0.5]}))
    args = build_parser().parse_args(["analyze", "--config", str(cfg)])
    apply_analyze_config(args, args.analyze_defaults)
    assert args.epsilon == 0 and args.center_cusum is True and args.K == 20
    assert args.angles == [1.0, math.pi / 4] and isinstance(args.angles[0], float)
    assert args.alphas == [0, 0.5]


@pytest.fixture(scope="module")
def ten_year_csv(tmp_path_factory):
    """A 10-year daily CSV of order 5 and a K=20 quantile cache for it."""
    root = tmp_path_factory.mktemp("ten_years")
    cache = root / "cache.csv"
    assert main(["quantiles", "--K", "20", "--R", "2000", "--out", str(cache)]) == 0
    csv_path = root / "data.csv"
    write_daily_csv(generate(DGPSpec(N=10, T=5, seed=1)), 1980, csv_path)
    return csv_path, cache


def test_analyze_rejects_nonpositive_divisors(tmp_path, capsys, ten_year_csv):
    csv_path, cache = ten_year_csv
    rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--divisors", "0,100",
               "--quantile-cache", str(cache), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "divisors must be positive" in capsys.readouterr().err


def test_analyze_rejects_empty_alphas_flag(tmp_path, capsys, ten_year_csv):
    csv_path, cache = ten_year_csv
    rc = main(["analyze", "--csv", str(csv_path), "--T", "5", "--alphas", ",",
               "--quantile-cache", str(cache), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "'alphas' must not be empty" in capsys.readouterr().err


def test_analyze_rejects_empty_alphas_config(tmp_path, capsys, ten_year_csv):
    csv_path, cache = ten_year_csv
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"csv": str(csv_path), "T": 5, "alphas": [],
                               "quantile_cache": str(cache), "out_dir": str(tmp_path / "out")}))
    rc = main(["analyze", "--config", str(cfg)])
    assert rc == 1
    assert "'alphas' must not be empty" in capsys.readouterr().err


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


def test_analyze_rejects_mismatched_cache(tmp_path, capsys):
    cache = tmp_path / "cache.csv"
    assert main(["quantiles", "--K", "30", "--R", "20000", "--seed", "3",
                 "--out", str(cache)]) == 0
    rc = main(["analyze", "--csv", str(tmp_path / "none.csv"), "--K", "20",
               "--quantile-cache", str(cache), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "K=30" in capsys.readouterr().err


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("EIGENBREAK_OUT_DIR", str(tmp_path / "env_out"))
    parser = build_parser()
    args = parser.parse_args(["simulate", "--config", "x"])
    assert args.out_dir == str(tmp_path / "env_out")
