import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlesim.cli import build_parser, main
from qlesim.config import SCENARIOS


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
    ("correlation_threetone", "options: {n_points: 1}"),
    ("correlation_threetone", "options: {n_readouts: 0}"),
    ("correlation_threetone", "options: {tau: -1 us}"),
    ("qle_snr_vs_n", "options: {n_readouts: 0}"),
    ("nuclear_t1_field_sweep", "options: {fields: []}"),
    ("nuclear_t1_field_sweep", "options: {fields: [500, 900, -3, 2000, 3700]}"),
    ("nuclear_t1_field_sweep", "options: {fields: [500, 500, 500, 500, 500]}"),
    ("nuclear_t1_laser_sweep", "options: {n_durations: 2}"),
    ("sensitivity_vs_duration", "options: {max_repetitions: 0}"),
    ("sensitivity_vs_duration", "options: {families: []}"),
    ("odmr_swap", "options: {n_freq: 0}"),
    ("density_projection", "options: {densities_ppm: []}"),
    ("eta_map", "options: {n_points: 0}"),
    ("eta_map", "options: {n_min: 0}"),
    ("eta_map", "options: {n_min: 100, n_max: 10}"),
    ("eta_map", "options: {t_sense_min: 1 ms, t_sense_max: 10 us}"),
    ("sensitivity_vs_duration", "constants: {g: .nan}"),
    ("qle_snr_vs_n", "options: {amplitude_scale: .nan}"),
    ("eta_map", "options: {base_ratio: .inf}"),
    ("odmr_swap", "options: {freq_span: .nan}"),
    ("density_projection", "options: {densities_ppm: [.inf]}"),
    ("correlation_threetone", "signal: {tones: [{amplitude: .nan, frequency: 1 MHz}]}"),
    ("density_projection", "sensor: {t2_hahn: 14.5 us}"),
    ("nuclear_t1_laser_sweep", "sensor: {laser_power: 130 mW}"),
    ("correlation_threetone", "options: {tau: 1.2.3 us}"),
    ("correlation_threetone", "options: {tau: e us}"),
    ("density_projection", 'sensor: {bias_field: "- G"}'),
    ("correlation_threetone", "signal: {tones: 5}"),
    ("correlation_threetone", "signal: {tones: null}"),
    ("correlation_threetone", "signal: {tones: []}"),
    ("[density_projection]", ""),
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


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exit_2_with_config_error(tmp_path, capsys, threads):
    out_dir = tmp_path / "out"
    code = main(["density-projection", "--out-dir", str(out_dir), "--threads", threads])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["type"] == "ConfigError"
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_subcommands_are_the_registered_scenarios():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) - {"run"} == {name.replace("_", "-") for name in SCENARIOS}


# ------------------------------------------------- option bounds, property test

SIZE_CAP = 16   # largest integer option a draw keeps, so a run stays fast
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _scalars(option):
    """(valid, invalid) strategies for one value of an option's kind: valid
    values sit at and just above the bound (floats on the option's own
    scale), invalid ones below it or non-finite."""
    if option.kind == "str":
        return st.sampled_from(option.choices), st.just("bogus")
    if option.kind == "int":
        return (st.integers(option.low, option.low + 6),
                st.integers(option.low - 2, option.low - 1) | NON_FINITE)
    values = option.default if option.min_len is not None else (option.default,)
    return (st.floats(min(values) / 4, max(values) * 4),
            st.sampled_from([option.low, -max(values)]) | NON_FINITE)


def _valid(option):
    valid, _ = _scalars(option)
    if option.min_len is None:
        return valid
    return st.lists(valid, min_size=option.min_len, max_size=option.min_len + 2, unique=True)


def _invalid(option):
    valid, invalid = _scalars(option)
    if option.min_len is None:
        return invalid
    one_bad = st.tuples(st.lists(valid, min_size=option.min_len - 1,
                                 max_size=option.min_len - 1, unique=True), invalid)
    lists = [st.lists(valid, max_size=option.min_len - 1),
             one_bad.map(lambda pair: pair[0] + [pair[1]])]
    if option.min_len > 1:   # long enough, but too few distinct entries
        lists.append(valid.map(lambda v: [v] * option.min_len))
    return st.one_of(lists)


def _at_bound(option):
    """The smallest valid value of an int or list option."""
    if option.min_len is not None:
        return list(option.default[:option.min_len])
    return option.low


def _small_defaults(schema):
    return {name: min(option.default, SIZE_CAP) if option.kind == "int"
            else (list(option.default) if option.min_len is not None else option.default)
            for name, option in schema.items()}


def _assert_finite_nonempty_outputs(out_dir):
    def reject(token):
        raise AssertionError(f"non-finite JSON value {token}")

    for path in out_dir.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=reject)
            continue
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert rows, f"{path.name} has no data rows"
        for cell in (c for row in rows for c in row):
            try:
                number = float(cell)
            except ValueError:
                continue
            assert math.isfinite(number), f"{path.name} holds {cell}"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_drawn_options_run_or_exit_2(scenario):
    """Valid options (around their bounds) run and write finite, nonempty
    tables; one invalid option, or a valid one below the option it may not
    be below, exits 2 with a ConfigError and no files."""
    schema = SCENARIOS[scenario].options
    valid = st.fixed_dictionaries({}, optional={n: _valid(o) for n, o in schema.items()})
    one_invalid = st.sampled_from(sorted(schema)).flatmap(
        lambda name: st.tuples(st.just(name), _invalid(schema[name])))

    def check(options, bad):
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "config.yaml"
            out_dir = Path(tmp) / "out"
            options = {**_small_defaults(schema), **options, **dict([bad] if bad else [])}
            invalid = bad is not None or any(
                option.not_below is not None and options[name] < options[option.not_below]
                for name, option in schema.items())
            doc = {"scenario": scenario, "options": options}
            config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", str(config_path), "--out-dir", str(out_dir)])
            if not invalid and code == 1:
                # a sweep too narrow for its power-law fit to converge
                assert json.loads(err.getvalue())["error"]["type"] == "FitError"
                assert not any(out_dir.iterdir())
            elif not invalid:
                assert code == 0, err.getvalue()
                _assert_finite_nonempty_outputs(out_dir)
            else:
                assert code == 2, err.getvalue()
                assert json.loads(err.getvalue())["error"]["type"] == "ConfigError"
                assert not out_dir.exists() or not any(out_dir.iterdir())

    check = given(valid, st.none() | one_invalid)(check)
    for name, option in schema.items():
        if option.kind == "int" or option.min_len is not None:
            check = example({name: _at_bound(option)}, None)(check)
    settings(max_examples=25)(check)()
