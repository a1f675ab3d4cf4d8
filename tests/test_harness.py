import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from eigenbreak import harness, selfnorm
from eigenbreak.harness import (
    ExperimentConfig,
    cell_outcomes,
    epsilon_sweep,
    run_experiment,
)
from reference import angle_for_distance_sq

SMALL = dict(
    test_kind="eigenvalue",
    j=1,
    delta=0.1,
    break_kind="eigenvalue_shift",
    magnitudes=(0.1,),
    n_list=(60,),
    replicates=24,
    seed=5,
)


def test_config_validation():
    with pytest.raises(ValueError, match="test kind"):
        ExperimentConfig(**{**SMALL, "test_kind": "trace"})
    with pytest.raises(ValueError, match="magnitude grid"):
        ExperimentConfig(**{**SMALL, "magnitudes": ()})
    with pytest.raises(ValueError, match="replicate"):
        ExperimentConfig(**{**SMALL, "replicates": 0})
    with pytest.raises(ValueError, match="break kind"):
        ExperimentConfig(**{**SMALL, "break_kind": "jump"})


@pytest.mark.parametrize("field, message", [
    ({"n_list": (3,)}, "sample size must be at least 4"),
    ({"n_list": (60, 3)}, "sample size must be at least 4"),
    ({"dependence": "ar1"}, "dependence"),
    ({"magnitudes": (0.1, 1.5)}, "eigenvalue-shift magnitude"),
    ({"T": 4}, "basis order"),
    ({"j": 22}, "eigen index j"),
    ({"j": 0}, "eigen index j"),
    ({"K": 1}, "K >= 2"),
    ({"epsilon": 0.5}, "boundary trim epsilon"),
    ({"n_list": (8, 9), "epsilon": 0.49}, "leaves no split"),
    ({"delta": np.nan}, "relevance threshold"),
    ({"delta": np.inf}, "relevance threshold"),
    ({"break_kind": "rotation", "magnitudes": (0.1, np.inf)}, "break magnitude"),
    ({"tau": (1.0, np.nan) + (0.5,) * 19}, "tau must be finite"),
    ({"seed": -1}, "seed must be nonnegative"),
])
def test_config_refuses_every_invalid_cell(field, message):
    # the data model's, the measure's and the trim's rules apply at
    # construction, not in replicate 0 of the first bad cell
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{**SMALL, **field})


def test_epsilon_sweep_checks_every_trim_first(monkeypatch):
    def fail(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "run_replicate", fail)
    config = ExperimentConfig(**SMALL)
    with pytest.raises(ValueError, match="boundary trim epsilon"):
        epsilon_sweep(config, [0.05, 0.7], workers=1)
    with pytest.raises(ValueError, match="at least one boundary trim"):
        epsilon_sweep(config, [], workers=1)
    with pytest.raises(ValueError, match="boundary trim 0.05 is repeated"):
        epsilon_sweep(config, [0, 0.05, 1e-05, 0.05], workers=1)


def test_angle_distance_roundtrip():
    for dist_sq in (0.0, 0.1, 1.0, 2.0):
        phi = angle_for_distance_sq(dist_sq)
        assert 2.0 - 2.0 * np.cos(phi) == pytest.approx(dist_sq, abs=1e-12)


def test_experiment_is_reproducible():
    config = ExperimentConfig(**SMALL)
    table1 = run_experiment(config, workers=1)
    table2 = run_experiment(config, workers=1)
    assert table1.rows == table2.rows
    row = table1.rows[0]
    assert row.replicates == 24
    assert row.config_hash == config.config_hash()
    assert 0.0 <= row.rate <= 1.0
    assert row.se == pytest.approx(np.sqrt(row.rate * (1 - row.rate) / 24))


def test_worker_count_does_not_change_results():
    config = ExperimentConfig(**{**SMALL, "replicates": 300})
    serial_rejects, serial_thetas = cell_outcomes(config, 60, 0.1, workers=1)
    pooled_rejects, pooled_thetas = cell_outcomes(config, 60, 0.1, workers=2)
    np.testing.assert_array_equal(serial_rejects, pooled_rejects)
    np.testing.assert_array_equal(serial_thetas, pooled_thetas)


def test_pool_holds_at_most_one_worker_per_chunk(monkeypatch):
    # the fork start method forks every max_workers process at the first
    # submit; a fake pool records the size and maps in this process
    sizes = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness, "_CHUNK", 12)
    config = ExperimentConfig(**SMALL)
    pooled = cell_outcomes(config, 60, 0.1, workers=64)
    assert sizes == [2]
    serial = cell_outcomes(config, 60, 0.1, workers=1)
    np.testing.assert_array_equal(pooled[0], serial[0])
    np.testing.assert_array_equal(pooled[1], serial[1])


def test_custom_spectrum_flows_through():
    tau = tuple(2.0 ** -k for k in range(5))
    config = ExperimentConfig(**{**SMALL, "T": 5, "tau": tau, "replicates": 4})
    assert config.tau == tau
    assert config.config_hash() != ExperimentConfig(**{**SMALL, "T": 5, "replicates": 4}).config_hash()
    rejects, thetas = cell_outcomes(config, 60, 0.1, workers=1)
    assert rejects.shape == (4,) and np.all((thetas > 0) & (thetas < 1))


def test_deep_null_rarely_rejects():
    config = ExperimentConfig(
        **{**SMALL, "magnitudes": (0.0,), "n_list": (200,), "replicates": 120}
    )
    table = run_experiment(config, workers=2)
    rate = table.rows[0].rate
    assert rate <= 0.05 + 2.0 * np.sqrt(0.05 * 0.95 / 120)


def test_table_export(tmp_path):
    config = ExperimentConfig(**SMALL)
    table = run_experiment(config, workers=1)
    csv_path = tmp_path / "rates.csv"
    json_path = tmp_path / "rates.json"
    table.to_csv(csv_path)
    table.to_json(json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,magnitude,rate,se,mean_theta_hat,replicates"
    assert len(lines) == 2
    import json

    payload = json.loads(json_path.read_text())
    assert payload["config"]["seed"] == 5
    assert payload["rows"][0]["master_seed"] == 5
    assert payload["rows"][0]["config_hash"] == config.config_hash()


def test_epsilon_sweep_histograms(tmp_path):
    config = ExperimentConfig(
        **{**SMALL, "break_kind": "none", "magnitudes": (0.0,), "replicates": 60,
           "n_list": (60,)}
    )
    sweep = epsilon_sweep(config, [0.0, 0.05], workers=2)
    assert [eps for eps, _ in sweep.tables] == [0.0, 0.05]
    for hist in sweep.histograms:
        assert hist.counts.sum() == 60
        assert hist.edges[0] == 0.0 and hist.edges[-1] == 1.0
        assert len(hist.counts) == 20
    trimmed = [h for h in sweep.histograms if h.epsilon == 0.05][0]
    # the trimmed estimator cannot land below 0.05 (the last bin [0.95, 1]
    # may hold estimates exactly at the upper bound)
    assert trimmed.counts[0] == 0
    out = tmp_path / "hist.csv"
    sweep.histograms_to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,N,magnitude,bin_left,bin_right,count"
    assert len(lines) == 1 + 2 * 20


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_table_and_sweep_bytes_are_golden(tmp_path):
    # digests recorded before run_experiment and epsilon_sweep shared one cell loop
    config = ExperimentConfig(**{**SMALL, "magnitudes": (0.1, 0.4), "n_list": (60, 120),
                                 "replicates": 16, "seed": 11})
    table = run_experiment(config, workers=1)
    table.to_csv(tmp_path / "table.csv")
    table.to_json(tmp_path / "table.json")
    sweep = epsilon_sweep(config, [0.0, 0.05], workers=1)
    sweep.histograms_to_csv(tmp_path / "histograms.csv")
    for eps, eps_table in sweep.tables:
        eps_table.to_csv(tmp_path / f"sweep_{eps}.csv")
    assert sha256(tmp_path / "table.csv") == (
        "f1801946670ee6ac3547d8ab60f28e0ab208d04b58d72ae50226537d78a68778")
    # re-recorded when the config echo lost its two pivot fields, then "center":
    # rows unchanged but for the config_hash they carry
    assert sha256(tmp_path / "table.json") == (
        "eea83fbde5e90e57c745b97bebbaa0c7cab49f850e38acc20fec7b7a4d46e74e")
    assert sha256(tmp_path / "histograms.csv") == (
        "e7b6aaff02087e26be10894a2d4e07814c2044038db4a7a7cc8e3fbbbb9ffda4")
    assert sha256(tmp_path / "sweep_0.0.csv") == (
        "a19e9c4ccfc957303c5f93b2448cc69e6aca41383618b3543a84e797019930ca")
    assert sha256(tmp_path / "sweep_0.05.csv") == sha256(tmp_path / "table.csv")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the counting wrapper")
def test_pool_workers_reuse_the_parent_pivot(tmp_path, monkeypatch):
    builds = tmp_path / "builds.txt"
    simulate = selfnorm.simulate_pivot

    def counting_simulate(*args, **kwargs):
        with open(builds, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return simulate(*args, **kwargs)

    monkeypatch.setattr(selfnorm, "simulate_pivot", counting_simulate)
    monkeypatch.setattr(selfnorm, "_PIVOT", None)
    # two chunks per cell, so each cell starts a pool
    monkeypatch.setattr(harness, "_CHUNK", 4)
    config = ExperimentConfig(**{**SMALL, "magnitudes": (0.1, 0.4), "replicates": 8})
    pooled = run_experiment(config, workers=2)
    assert builds.read_text().split() == [str(os.getpid())]
    assert run_experiment(config, workers=1).rows == pooled.rows
