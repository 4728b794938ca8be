"""Experiment configuration: a YAML (or JSON) document with unit-suffixed values.

Every quantity may be given either as a bare number in the field's native unit
or as a string like ``"16.5 us"`` / ``"3700 G"``; units are validated against
the field's dimension and normalized at parse time.
"""

import math
import re
from dataclasses import asdict, dataclass, field

import yaml

from .errors import ConfigError, DomainError
from .noise import ElectronCoherenceModel, NuclearT1Model
from .params import PhysicalConstants, SensorEnsembleParams
from .runner import SCENARIOS
from .sequences import ACSignal

FORMATS = ("csv", "json")

# unit tables per dimension; lookups are case-insensitive
_UNITS = {
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9},
    "frequency": {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9},
    "tesla": {"t": 1.0, "mt": 1e-3, "ut": 1e-6, "µt": 1e-6, "nt": 1e-9,
              "g": 1e-4, "gauss": 1e-4},
    "gauss": {"g": 1.0, "gauss": 1.0, "t": 1e4, "mt": 10.0, "ut": 1e-2},
    "milliwatt": {"mw": 1.0, "w": 1e3, "uw": 1e-3},
    "volt": {"v": 1.0, "mv": 1e-3},
}

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]+)\s*$")


def parse_quantity(value, dimension, field_name):
    """Normalize a finite number or unit-suffixed string to the dimension's base unit."""
    number = _to_base_unit(value, dimension, field_name)
    if not math.isfinite(number):
        raise ConfigError(f"{field_name} must be finite, got {value!r}")
    return number


def _to_base_unit(value, dimension, field_name):
    if isinstance(value, bool):
        raise ConfigError(f"{field_name}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            # covers scientific notation YAML 1.1 leaves as a string (1.0e6)
            return float(value)
        except ValueError:
            pass
        match = _QUANTITY_RE.match(value)
        if not match:
            raise ConfigError(f"{field_name}: cannot parse quantity {value!r}")
        magnitude, unit = float(match.group(1)), match.group(2)
        if dimension is None:
            raise ConfigError(f"{field_name} is dimensionless; drop the unit {unit!r}")
        factors = _UNITS[dimension]
        factor = factors.get(unit.lower())
        if factor is None:
            expected = ", ".join(sorted(factors))
            raise ConfigError(f"{field_name}: unit {unit!r} is not a {dimension} "
                              f"unit (expected one of: {expected})")
        return magnitude * factor
    raise ConfigError(f"{field_name}: expected a number or quantity string, "
                      f"got {type(value).__name__}")


def _parse_int(value, field_name):
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{field_name}: expected an integer, got {value!r}")
    return value


def _parse_bool(value, field_name):
    if not isinstance(value, bool):
        raise ConfigError(f"{field_name}: expected true/false, got {value!r}")
    return value


_SENSOR_FIELDS = {
    "bias_field": "gauss",
    "contrast_c0": None,
    "photons_per_readout": None,
    "swap_fidelity": None,
    "repolarization_fraction": None,
    "t_op": "time",
    "t_swap": "time",
    "t_qlr": "time",
    "t2_star": "time",
    "n_density_ppm": None,
    "hyperfine_splitting": "frequency",
}

_CONSTANTS_FIELDS = {"g": None, "mu_b": None, "hbar": None}

_NUCLEAR_T1_FIELDS = {
    "t1_ref": "time",
    "field_ref": "gauss",
    "field_exponent": None,
    "laser_a": None,
    "laser_b": None,
    "laser_c": None,
    "stretch_beta": None,
}

_ELECTRON_T2_FIELDS = {
    "t2_hahn": "time",
    "t2_xy8_sat": "time",
    "scaling_exponent": None,
    "droid_unbounded": "bool",
    "decay_stretch": None,
}

@dataclass
class ExperimentConfig:
    scenario: str
    seed: int = 0
    out_dir: str | None = None
    file_format: str = "csv"
    sensor: SensorEnsembleParams = field(default_factory=SensorEnsembleParams)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    nuclear_t1: NuclearT1Model = field(default_factory=NuclearT1Model)
    electron_t2: ElectronCoherenceModel = field(default_factory=ElectronCoherenceModel)
    signal: ACSignal | None = None
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "format": self.file_format,
            "sensor": asdict(self.sensor),
            "constants": asdict(self.constants),
            "nuclear_t1": asdict(self.nuclear_t1),
            "electron_t2": asdict(self.electron_t2),
            "signal": None if self.signal is None else
                      {"tones": [dict(zip(("amplitude", "frequency", "phase"), t))
                                 for t in self.signal.tones]},
            "options": dict(self.options),
        }


def _parse_section(raw, schema, section):
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    parsed = {}
    for key, value in raw.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"unknown key '{section}.{key}' (known keys: {known})")
        dimension = schema[key]
        if dimension == "bool":
            parsed[key] = _parse_bool(value, f"{section}.{key}")
        else:
            parsed[key] = parse_quantity(value, dimension, f"{section}.{key}")
    return parsed


def _parse_option(value, option, field_name):
    """Parse one option value and check it against the option's bounds."""
    if option.min_len is not None:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{field_name}: expected a list, got {value!r}")
        values = [_parse_scalar(v, option, f"{field_name}[{i}]") for i, v in enumerate(value)]
        if len(set(values)) < option.min_len:
            raise ConfigError(f"{field_name} needs at least {option.min_len} distinct "
                              f"entries, got {len(set(values))}")
        return values
    return _parse_scalar(value, option, field_name)


def _parse_scalar(value, option, field_name):
    if option.kind == "str":
        if value not in option.choices:
            raise ConfigError(f"{field_name}: expected one of {list(option.choices)}, "
                              f"got {value!r}")
        return value
    if option.kind == "int":
        number = _parse_int(value, field_name)
        if number < option.low:
            raise ConfigError(f"{field_name} must be at least {option.low}, got {number}")
        return number
    dimension = None if option.kind == "float" else option.kind
    number = parse_quantity(value, dimension, field_name)
    if not number > option.low:
        raise ConfigError(f"{field_name} must be greater than {option.low:g}, got {number:g}")
    return number


def _parse_options(raw, scenario):
    schema = SCENARIOS[scenario].options
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError("section 'options' must be a mapping")
    for key in raw:
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"unknown option '{key}' for scenario '{scenario}' "
                              f"(known options: {known})")
    options = {name: _parse_option(raw.get(name, option.default), option, f"options.{name}")
               for name, option in schema.items()}
    for name, option in schema.items():
        other = option.not_below
        if other is not None and options[name] < options[other]:
            raise ConfigError(f"options.{name} must not be below options.{other} "
                              f"({options[other]:g}), got {options[name]:g}")
    return options


def _parse_signal(raw):
    if raw is None:
        return None
    if not isinstance(raw, dict) or set(raw) != {"tones"}:
        raise ConfigError("section 'signal' must be a mapping with a 'tones' list")
    tones = []
    for i, tone in enumerate(raw["tones"]):
        if not isinstance(tone, dict):
            raise ConfigError(f"signal.tones[{i}] must be a mapping")
        unknown = set(tone) - {"amplitude", "frequency", "phase"}
        if unknown:
            raise ConfigError(f"signal.tones[{i}]: unknown keys {sorted(unknown)}")
        if "amplitude" not in tone or "frequency" not in tone:
            raise ConfigError(f"signal.tones[{i}] needs 'amplitude' and 'frequency'")
        tones.append((
            parse_quantity(tone["amplitude"], "tesla", f"signal.tones[{i}].amplitude"),
            parse_quantity(tone["frequency"], "frequency", f"signal.tones[{i}].frequency"),
            parse_quantity(tone.get("phase", 0.0), None, f"signal.tones[{i}].phase"),
        ))
    try:
        return ACSignal(tuple(tones))
    except DomainError as exc:
        raise ConfigError(f"signal: {exc}") from exc


_TOP_KEYS = {"scenario", "seed", "out_dir", "format", "sensor", "constants",
             "nuclear_t1", "electron_t2", "signal", "options"}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a mapping")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    scenario = raw.get("scenario")
    if scenario is None:
        raise ConfigError("config needs a 'scenario' key")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; valid scenarios: "
                          + ", ".join(SCENARIOS))
    seed = _parse_int(raw.get("seed", 0), "seed")
    file_format = raw.get("format", "csv")
    if file_format not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {file_format!r}")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string path")

    sensor_kw = _parse_section(raw.get("sensor"), _SENSOR_FIELDS, "sensor")
    try:
        sensor = SensorEnsembleParams(**sensor_kw)
    except DomainError as exc:
        raise ConfigError(f"sensor: {exc}") from exc

    constants_kw = _parse_section(raw.get("constants"), _CONSTANTS_FIELDS, "constants")
    try:
        constants = PhysicalConstants(**constants_kw)
    except DomainError as exc:
        raise ConfigError(f"constants: {exc}") from exc

    nuclear_kw = _parse_section(raw.get("nuclear_t1"), _NUCLEAR_T1_FIELDS, "nuclear_t1")
    try:
        nuclear = NuclearT1Model(**nuclear_kw)
    except DomainError as exc:
        raise ConfigError(f"nuclear_t1: {exc}") from exc

    electron_kw = _parse_section(raw.get("electron_t2"), _ELECTRON_T2_FIELDS, "electron_t2")
    try:
        electron = ElectronCoherenceModel(**electron_kw)
    except DomainError as exc:
        raise ConfigError(f"electron_t2: {exc}") from exc

    return ExperimentConfig(
        scenario=scenario,
        seed=seed,
        out_dir=out_dir,
        file_format=file_format,
        sensor=sensor,
        constants=constants,
        nuclear_t1=nuclear,
        electron_t2=electron,
        signal=_parse_signal(raw.get("signal")),
        options=_parse_options(raw.get("options"), scenario),
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML/JSON config document into a validated ExperimentConfig."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return config_from_dict(raw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def default_config(scenario: str, seed: int = 0, **overrides) -> ExperimentConfig:
    """Config with all defaults for a scenario; ``overrides`` patch options."""
    return config_from_dict({"scenario": scenario, "seed": seed, "options": overrides})
