import json

import pytest

from qlesim.cli import main


def test_scenario_subcommand_runs(tmp_path, capsys):
    code = main(["density-projection", "--seed", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "density_projection.csv").exists()
    assert (tmp_path / "density_projection_manifest.json").exists()
    out = capsys.readouterr().out
    assert "density_projection" in out


def test_run_subcommand_with_config_file(tmp_path, capsys):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        "scenario: qle_snr_vs_n\n"
        "seed: 9\n"
        "options: {n_readouts: 50}\n", encoding="utf-8")
    code = main(["run", str(config_path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "qle_snr_vs_n.csv").read_text().splitlines()
    assert len(lines) == 51


def test_seed_flag_overrides_config(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text("scenario: density_projection\nseed: 1\n", encoding="utf-8")
    main(["run", str(config_path), "--seed", "99", "--out-dir", str(tmp_path / "out")])
    doc = json.loads((tmp_path / "out" / "density_projection_manifest.json").read_text())
    assert doc["seed"] == 99


def test_format_flag(tmp_path):
    code = main(["density-projection", "--out-dir", str(tmp_path), "--format", "json"])
    assert code == 0
    assert (tmp_path / "density_projection.json").exists()


def test_bad_config_exits_2_with_error_json(tmp_path, capsys):
    config_path = tmp_path / "config.yaml"
    config_path.write_text("scenario: bogus\n", encoding="utf-8")
    code = main(["run", str(config_path)])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["type"] == "ConfigError"
    assert "bogus" in payload["error"]["message"]


def test_missing_config_file_exits_nonzero(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.yaml")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert "error" in payload


def test_threads_flag_accepted(tmp_path):
    code = main(["nuclear-t1-field-sweep", "--out-dir", str(tmp_path),
                 "--threads", "4", "--seed", "2"])
    assert code == 0
    assert (tmp_path / "nuclear_t1_field_sweep_fits.csv").exists()


@pytest.mark.parametrize("scenario, section", [
    ("eta_map", "sensor: {t_qlr: .nan}"),
    ("density_projection", "sensor: {bias_field: .inf}"),
    ("density_projection", "sensor: {bias_field: -.inf}"),
    ("odmr_swap", "sensor: {photons_per_readout: .nan}"),
    ("correlation_threetone", "sensor: {t_op: .nan}"),
    ("nuclear_t1_field_sweep", "options: {averages: 0}"),
    ("odmr_swap", "options: {averages: 0}"),
])
def test_bad_inputs_exit_2_with_config_error(tmp_path, capsys, scenario, section):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(f"scenario: {scenario}\n{section}\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["run", str(config_path), "--out-dir", str(out_dir)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["type"] == "ConfigError"
    assert not out_dir.exists() or not any(out_dir.iterdir())
