import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from qlesim import default_config, run_scenario
from qlesim.config import default_config as make_config
from qlesim.errors import DomainError
from qlesim.noise import nuclear_t1_vs_field
from qlesim.rng import rng_stream
from qlesim.runner import _decay_curve, _qle_trace, _qlr_means
from qlesim.state import (INITIAL_POPULATIONS, apply_cnot_e_given_n, apply_optical_pulse,
                          apply_swap, from_populations, initial_state, sensing_map,
                          swap_map)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def file_bytes(out_dir, manifest):
    return {entry["name"]: (out_dir / entry["name"]).read_bytes()
            for entry in manifest.files}


# ------------------------------------------------------------ smoke + schema

def test_qle_snr_scenario_matches_summation_oracle(tmp_path):
    config = default_config("qle_snr_vs_n", seed=1)
    manifest = run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "qle_snr_vs_n.csv")
    assert header == ["n", "a_n", "sigma_n", "snr", "enhancement"]
    assert len(rows) == 2000
    decay = config.sensor.t_qlr / nuclear_t1_vs_field(config.nuclear_t1,
                                                      config.sensor.bias_field)
    oracle = math.sqrt(sum(math.exp(-2 * n * decay) for n in range(1, 2001)))
    assert float(rows[-1][4]) == pytest.approx(oracle, rel=1e-12)
    assert manifest.extras["enhancement_final"] == pytest.approx(23.6, abs=0.1)
    enhancements = [float(r[4]) for r in rows]
    assert all(b >= a for a, b in zip(enhancements, enhancements[1:]))


def test_qle_snr_scenario_runs_1e5_readouts_against_fsum_oracle(tmp_path):
    """The estimators are O(N) in the readout count, so 10^5 readouts stay cheap."""
    config = default_config("qle_snr_vs_n", seed=0, n_readouts=100_000)
    manifest = run_scenario(config, out_dir=tmp_path)
    decay = config.sensor.t_qlr / nuclear_t1_vs_field(config.nuclear_t1,
                                                      config.sensor.bias_field)
    oracle = math.sqrt(math.fsum(math.exp(-2 * n * decay) for n in range(1, 100_001)))
    assert manifest.extras["enhancement_final"] == pytest.approx(oracle, rel=1e-9)


def test_odmr_scenario_shows_transfer(tmp_path):
    manifest = run_scenario(default_config("odmr_swap", seed=2), out_dir=tmp_path)
    assert manifest.extras["nuclear_polarization_with_swap"] == pytest.approx(0.93, abs=1e-9)
    header, rows = read_csv(tmp_path / "odmr_swap.csv")
    assert header == ["detuning_hz", "series", "contrast"]
    series = {r[1] for r in rows}
    assert series == {"no_swap", "swap"}
    # without the swap both hyperfine dips are deep; with it they collapse
    def dip(name):
        values = [float(r[2]) for r in rows if r[1] == name]
        return max(values)
    assert dip("no_swap") > 5 * dip("swap")


def test_field_sweep_recovers_exponent(tmp_path):
    config = default_config("nuclear_t1_field_sweep", seed=3)
    manifest = run_scenario(config, out_dir=tmp_path)
    assert manifest.extras["field_exponent_fit"] == pytest.approx(2.0, abs=0.15)
    header, _ = read_csv(tmp_path / "nuclear_t1_field_sweep_fits.csv")
    assert header[:3] == ["field_gauss", "t1_model_s", "t1_fit_s"]
    doc = json.loads((tmp_path / "nuclear_t1_field_power_law.json").read_text())
    assert doc["field_exponent"] == pytest.approx(2.0, abs=0.15)


def test_laser_sweep_recovers_power_function(tmp_path):
    config = default_config("nuclear_t1_laser_sweep", seed=4)
    manifest = run_scenario(config, out_dir=tmp_path)
    assert manifest.extras["laser_b_fit"] == pytest.approx(0.5154, abs=0.03)
    doc = json.loads((tmp_path / "nuclear_t1_laser_power_function.json").read_text())
    assert doc["c"] == pytest.approx(111.0, rel=0.25)


def test_correlation_scenario_resolves_three_tones(tmp_path):
    config = default_config("correlation_threetone", seed=5, n_readouts=200)
    manifest = run_scenario(config, out_dir=tmp_path)
    extras = manifest.extras
    df = extras["frequency_resolution_hz"]
    for tone, peak in zip(extras["tone_frequencies_hz"], extras["peak_frequencies_hz"]):
        assert abs(peak - tone) <= df
    assert extras["min_peak_power"] > 10 * extras["median_noise_power"]
    header, rows = read_csv(tmp_path / "correlation_spectrum.csv")
    assert header == ["frequency_hz", "readout", "power"]
    assert {r[1] for r in rows} == {"qle", "conventional"}


def test_sensitivity_scenario_droid_wins_beyond_24us(tmp_path):
    manifest = run_scenario(default_config("sensitivity_vs_duration", seed=6),
                            out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "sensitivity_vs_duration.csv")
    assert header == ["family", "repetitions", "n_pulses", "t_sense_s", "t2_s",
                      "sensitivity_t_per_sqrt_hz"]
    table = {(r[0], float(r[3])): float(r[5]) for r in rows}
    # directly comparable durations: XY8 8k tau vs DROID 48k tau
    common = sorted(t for f, t in table if f == "XY8" and ("DROID60", t) in table)
    assert common, "expected overlapping durations between the families"
    for t_sense in common:
        if t_sense > 24e-6:
            assert table[("DROID60", t_sense)] < table[("XY8", t_sense)]
    best = manifest.extras["optimal"]
    assert best["DROID60"]["sensitivity_t_per_sqrt_hz"] < best["XY8"]["sensitivity_t_per_sqrt_hz"]


def test_eta_map_scenario(tmp_path):
    config = default_config("eta_map", seed=7, n_points=20, t_points=20)
    manifest = run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "eta_map.csv")
    assert header == ["t_sense_s", "n_readouts", "eta"]
    assert len(rows) == 20 * 20
    by_t = {}
    for r in rows:
        by_t.setdefault(float(r[0]), []).append(float(r[2]))
    for t_sense, etas in by_t.items():
        if t_sense > 16.5e-6:
            assert max(etas) > 1.0
    assert manifest.extras["eta_max"] > 1.0


def test_density_projection_scenario(tmp_path):
    run_scenario(default_config("density_projection", seed=8), out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "density_projection.csv")
    assert header == ["n_density_ppm", "t2_scale", "t2_hahn_s", "t2_xy8_sat_s",
                      "optimal_xy8_t_sense_s"]
    row = {float(r[0]): r for r in rows}[0.8]
    assert float(row[1]) == pytest.approx(17.5, rel=1e-12)
    assert float(row[4]) == pytest.approx(24e-6 * 17.5, rel=1e-12)


# ------------------------------------------------------------- determinism

def small_sweep_config(seed=11):
    return make_config("nuclear_t1_field_sweep", seed=seed,
                       fields=[1000.0, 1600.0, 2200.0, 3000.0, 3700.0],
                       n_durations=10, averages=50)


def test_identical_runs_are_byte_identical(tmp_path):
    a = run_scenario(small_sweep_config(), out_dir=tmp_path / "a")
    b = run_scenario(small_sweep_config(), out_dir=tmp_path / "b")
    assert file_bytes(tmp_path / "a", a) == file_bytes(tmp_path / "b", b)
    assert [f["sha256"] for f in a.files] == [f["sha256"] for f in b.files]


def test_worker_count_does_not_change_outputs(tmp_path):
    a = run_scenario(small_sweep_config(), out_dir=tmp_path / "a", threads=1)
    b = run_scenario(small_sweep_config(), out_dir=tmp_path / "b", threads=4)
    assert file_bytes(tmp_path / "a", a) == file_bytes(tmp_path / "b", b)


def test_changed_seed_changes_data_but_not_schema(tmp_path):
    a = run_scenario(small_sweep_config(seed=11), out_dir=tmp_path / "a")
    b = run_scenario(small_sweep_config(seed=12), out_dir=tmp_path / "b")
    bytes_a, bytes_b = file_bytes(tmp_path / "a", a), file_bytes(tmp_path / "b", b)
    assert set(bytes_a) == set(bytes_b)
    assert bytes_a["nuclear_t1_field_sweep_curves.csv"] != bytes_b["nuclear_t1_field_sweep_curves.csv"]
    header_a, _ = read_csv(tmp_path / "a" / "nuclear_t1_field_sweep_curves.csv")
    header_b, _ = read_csv(tmp_path / "b" / "nuclear_t1_field_sweep_curves.csv")
    assert header_a == header_b


def test_manifest_lists_exactly_the_written_files(tmp_path):
    manifest = run_scenario(small_sweep_config(), out_dir=tmp_path)
    listed = {entry["name"] for entry in manifest.files}
    on_disk = {p.name for p in tmp_path.iterdir()}
    assert on_disk == listed | {"nuclear_t1_field_sweep_manifest.json"}
    doc = json.loads((tmp_path / "nuclear_t1_field_sweep_manifest.json").read_text())
    assert doc["scenario"] == "nuclear_t1_field_sweep"
    assert doc["seed"] == 11
    assert doc["config_sha256"] == manifest.config_sha256
    assert {f["name"] for f in doc["files"]} == listed


def test_partial_outputs_removed_on_failure(tmp_path, monkeypatch):
    import qlesim.runner as runner_module

    def boom(*args, **kwargs):
        raise DomainError("injected failure")

    monkeypatch.setattr(runner_module, "fit_power_function", boom)
    with pytest.raises(DomainError):
        run_scenario(small_sweep_config(), out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_json_format_outputs(tmp_path):
    config = make_config("density_projection", seed=1)
    config.file_format = "json"
    manifest = run_scenario(config, out_dir=tmp_path)
    assert manifest.files[0]["name"] == "density_projection.json"
    doc = json.loads((tmp_path / "density_projection.json").read_text())
    assert doc["columns"][0] == "n_density_ppm"
    assert len(doc["rows"]) == 7


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("QLESIM_OUT_DIR", str(tmp_path / "from-env"))
    run_scenario(default_config("density_projection", seed=1))
    assert (tmp_path / "from-env" / "density_projection.csv").exists()


# ---------------------------------------------- vectorized readout fidelity

def test_vectorized_qlr_matches_op_by_op_loop():
    config = default_config("correlation_threetone", seed=0)
    sensor = config.sensor
    t1 = nuclear_t1_vs_field(config.nuclear_t1, sensor.bias_field)
    beta = config.nuclear_t1.stretch_beta
    gate = math.sqrt(sensor.swap_fidelity)
    starts = [np.array([0.1, 0.2, 0.3, 0.4]),
              np.array([0.5, 0.0, 0.5, 0.0]),
              np.array([0.25, 0.25, 0.25, 0.25])]
    n_cycles = 25
    fast = _qlr_means(config, starts, n_cycles, t1)
    for row, start in zip(fast, starts):
        state = from_populations(start)
        for k in range(n_cycles):
            state = apply_cnot_e_given_n(state, gate)
            mean = sensor.contrast_c0 * state.electron_excess()
            assert row[k] == pytest.approx(mean, abs=1e-14)
            state = apply_optical_pulse(state, sensor.t_op, sensor, t1, beta)


class _Noiseless:
    def standard_normal(self, size):
        return np.zeros(size)


def test_batched_decay_curve_matches_op_by_op_loop():
    config = default_config("nuclear_t1_field_sweep", seed=0)
    sensor = config.sensor
    t1 = nuclear_t1_vs_field(config.nuclear_t1, 1179.0)
    beta = config.nuclear_t1.stretch_beta
    gate = math.sqrt(sensor.swap_fidelity)
    durations = np.linspace(0.0, 3.0 * t1, 20)
    fast = _decay_curve(config, t1, durations, _Noiseless(), averages=1)

    def contrast(duration):
        state = apply_optical_pulse(prepared, duration, sensor, t1, beta)
        return sensor.contrast_c0 * apply_cnot_e_given_n(state, gate).electron_excess()

    prepared = apply_optical_pulse(apply_swap(initial_state(), sensor),
                                   5.0 * sensor.t_op, sensor, t1, beta)
    baseline = contrast(60.0 * t1)
    for duration, value in zip(durations, fast):
        assert value == pytest.approx(contrast(duration) - baseline, abs=1e-15)


# ------------------------------------------ correlation readout, two orbits

def test_qle_trace_matches_the_per_train_batched_readout():
    n_points, n_readouts = 64, 50
    config = default_config("correlation_threetone", seed=3, n_points=n_points,
                            n_readouts=n_readouts)
    sensor = config.sensor
    t1 = nuclear_t1_vs_field(config.nuclear_t1, sensor.bias_field)
    excess = np.random.default_rng(0).uniform(-1.0, 1.0, n_points)
    trace = _qle_trace(config, excess, t1, rng_stream(3, "correlation_threetone", "qle"))
    # every train through the readout maps from its own start state, with the
    # two reference orbits appended for the offsets and the cycle amplitudes
    stored = np.append(excess, [0.0, 1.0])
    starts = swap_map(sensor) @ sensing_map(stored) @ INITIAL_POPULATIONS
    means = _qlr_means(config, starts, n_readouts, t1)
    offsets, cycle_amplitude = means[-2], means[-1] - means[-2]
    sigma = sensor.readout_sigma
    rng = rng_stream(3, "correlation_threetone", "qle")
    samples = means[:-2] + sigma * rng.standard_normal((n_points, n_readouts))
    weights = cycle_amplitude / sigma ** 2
    batched = (samples - offsets) @ weights / np.sum(weights)
    np.testing.assert_allclose(trace, batched, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rows", [1, 7, 600])
def test_correlation_trace_does_not_depend_on_the_noise_chunk(tmp_path, monkeypatch, rows):
    import qlesim.runner as runner_module

    config = default_config("correlation_threetone", seed=4, n_points=600, n_readouts=20)
    run_scenario(config, out_dir=tmp_path / "default")
    monkeypatch.setattr(runner_module, "_NOISE_ROWS", rows)
    run_scenario(config, out_dir=tmp_path / "patched")
    name = "correlation_trace.csv"
    assert (tmp_path / "patched" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_correlation_memory_stays_below_one_readout_array(tmp_path):
    """The readout noise is drawn and reduced in chunks of trains, so the run
    never holds an (n_points, n_readouts) array of float64."""
    n_points, n_readouts = 4096, 2000
    config = default_config("correlation_threetone", seed=1, n_points=n_points,
                            n_readouts=n_readouts)
    tracemalloc.start()
    try:
        run_scenario(config, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n_points * n_readouts
