import pytest

from qlesim import parse_config
from qlesim.config import SCENARIOS, config_from_dict, default_config, parse_quantity
from qlesim.errors import ConfigError


def test_minimal_config_echoes_protocol_defaults():
    config = parse_config("scenario: qle_snr_vs_n\nseed: 7\n")
    assert config.scenario == "qle_snr_vs_n"
    assert config.seed == 7
    assert config.sensor.t_swap == 16.5e-6
    assert config.sensor.t_qlr == 3e-6
    assert config.options["n_readouts"] == 2000
    assert config.file_format == "csv"


def test_unknown_scenario_lists_valid_names():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("scenario: bogus\n")
    message = str(excinfo.value)
    for name in SCENARIOS:
        assert name in message


def test_unit_suffixed_strings_are_normalized():
    config = parse_config(
        "scenario: qle_snr_vs_n\n"
        "sensor:\n"
        "  t_swap: 16.5 us\n"
        "  t_qlr: '3 us'\n"
        "  bias_field: 0.37 T\n"
        "  hyperfine_splitting: 3.03 MHz\n")
    assert config.sensor.t_swap == pytest.approx(16.5e-6)
    assert config.sensor.t_qlr == pytest.approx(3e-6)
    assert config.sensor.bias_field == pytest.approx(3700.0)
    assert config.sensor.hyperfine_splitting == pytest.approx(3.03e6)
    sweep = parse_config("scenario: nuclear_t1_laser_sweep\n"
                         "options: {powers: [0.13 W, 20 mW, 50 mW, 90 mW, 164.3]}\n")
    assert sweep.options["powers"][0] == pytest.approx(130.0)


def test_t_qlr_invariant_enforced_at_parse_time():
    parse_config("scenario: qle_snr_vs_n\nsensor: {t_qlr: 3 ms, t_op: 3 us}\n")
    with pytest.raises(ConfigError):
        parse_config("scenario: qle_snr_vs_n\nsensor: {t_qlr: 1 us, t_op: 3 us}\n")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config("scenario: qle_snr_vs_n\nsensor: {t_swp: 16.5 us}\n")
    with pytest.raises(ConfigError):
        parse_config("scenario: qle_snr_vs_n\nbogus_section: {}\n")
    with pytest.raises(ConfigError):
        parse_config("scenario: qle_snr_vs_n\noptions: {nope: 1}\n")


def test_unit_mismatch_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("scenario: qle_snr_vs_n\nsensor: {t_qlr: 3 G}\n")
    assert "time" in str(excinfo.value)
    with pytest.raises(ConfigError):
        parse_config("scenario: qle_snr_vs_n\nsensor: {swap_fidelity: 0.9 us}\n")


def test_parse_quantity_forms():
    assert parse_quantity(5e-6, "time", "x") == 5e-6
    assert parse_quantity("5 us", "time", "x") == pytest.approx(5e-6)
    assert parse_quantity("5us", "time", "x") == pytest.approx(5e-6)
    assert parse_quantity("1.0e6", None, "x") == 1.0e6  # YAML 1.1 string form
    assert parse_quantity("1.5 ms", "time", "x") == pytest.approx(1.5e-3)
    assert parse_quantity("0.3891 uT", "tesla", "x") == pytest.approx(0.3891e-6)
    assert parse_quantity("200 G", "gauss", "x") == 200.0
    with pytest.raises(ConfigError):
        parse_quantity("5 parsec", "time", "x")
    with pytest.raises(ConfigError):
        parse_quantity(True, "time", "x")


def test_signal_section():
    config = parse_config(
        "scenario: correlation_threetone\n"
        "signal:\n"
        "  tones:\n"
        "    - {amplitude: 0.15 uT, frequency: 0.998 MHz, phase: 1.5708}\n"
        "    - {amplitude: 0.15 uT, frequency: 1.002 MHz}\n")
    assert len(config.signal.tones) == 2
    assert config.signal.tones[0][0] == pytest.approx(0.15e-6)
    assert config.signal.tones[1][1] == pytest.approx(1.002e6)
    assert config.signal.tones[1][2] == 0.0
    with pytest.raises(ConfigError):
        parse_config("scenario: correlation_threetone\nsignal: {tones: [{frequency: 1 MHz}]}\n")


def test_scenario_options_are_validated_per_scenario():
    config = parse_config(
        "scenario: eta_map\noptions: {n_max: 500, t_sense_max: 0.8 ms}\n")
    assert config.options["n_max"] == 500
    assert config.options["t_sense_max"] == pytest.approx(0.8e-3)
    with pytest.raises(ConfigError):
        parse_config("scenario: eta_map\noptions: {n_max: 12.5}\n")


def test_t2_is_set_in_the_electron_t2_section():
    config = parse_config("scenario: density_projection\n"
                          "electron_t2: {t2_hahn: 10 us, t2_xy8_sat: 20 us}\n")
    assert config.electron_t2.t2_hahn == pytest.approx(10e-6)
    assert config.electron_t2.t2_xy8_sat == pytest.approx(20e-6)
    with pytest.raises(ConfigError, match="unknown key 'sensor.t2_hahn'"):
        parse_config("scenario: density_projection\nsensor: {t2_hahn: 10 us}\n")


def test_constants_section():
    config = parse_config("scenario: qle_snr_vs_n\nconstants: {g: 2.003}\n")
    assert config.constants.g == 2.003


def test_json_documents_are_accepted():
    config = parse_config('{"scenario": "density_projection", "seed": 3}')
    assert config.scenario == "density_projection"
    assert config.options["densities_ppm"][0] == 14.0


def test_default_config_override_validation():
    config = default_config("qle_snr_vs_n", seed=5, n_readouts=100)
    assert config.options["n_readouts"] == 100
    with pytest.raises(ConfigError):
        default_config("qle_snr_vs_n", nope=1)


def test_config_to_dict_is_stable():
    one = default_config("qle_snr_vs_n", seed=5).to_dict()
    two = default_config("qle_snr_vs_n", seed=5).to_dict()
    assert one == two
    assert one["sensor"]["t_swap"] == 16.5e-6
    # the manifest's config re-parses to the same config, for every scenario
    configs = [default_config(name, seed=5) for name in SCENARIOS]
    configs.append(parse_config(
        "scenario: correlation_threetone\n"
        "nuclear_t1: {t1_ref: 2 ms, field_exponent: 1.8}\n"
        "signal:\n"
        "  tones:\n"
        "    - {amplitude: 0.15 uT, frequency: 0.998 MHz, phase: 1.5708}\n"
        "    - {amplitude: 0.15 uT, frequency: 1.002 MHz}\n"))
    for config in configs:
        assert config_from_dict(config.to_dict()) == config
