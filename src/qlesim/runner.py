"""Config-driven scenario runner.

Each scenario composes the state, sequence, noise and analysis modules into a
desk-scale version of one experiment, writes tidy long-format tables plus a
JSON manifest, and is bit-reproducible for a fixed (config, seed) regardless
of the worker count.
"""

import hashlib
import json
import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (ReadoutSeries, ac_sensitivity, dominant_peaks, eta_map,
                       exponential_snr_curve, optimal_snr, periodogram, snr_enhancement)
from .errors import ConfigError, DomainError, FitError
from .fitting import fit_power_function, fit_stretched_exponential
from .noise import (decoherence_factor, electron_t2, nuclear_t1_vs_field,
                    nuclear_t1_vs_laser, project_t2_for_density)
from .output import emit_csv, emit_json_table, file_sha256, write_json, write_json_atomic
from .rng import rng_stream
from .sequences import (ACSignal, DROID60, XY8, accumulated_phase, build_droid60,
                        build_xy8, toggling_function)
from .state import (ELECTRON_EXCESS, INITIAL_POPULATIONS, apply_swap,
                    cnot_e_given_n_map, initial_state, optical_map, sensing_map,
                    swap_map)

DEFAULT_OUT_DIR_ENV = "QLESIM_OUT_DIR"

# default three-tone test signal: amplitudes chosen for ~0.4 rad of phase per
# tone through an XY8:6 window, spacing resolvable over a 1.5 ms record
DEFAULT_THREE_TONE = ACSignal(tuple(
    (0.15e-6, f, math.pi / 2) for f in (0.998e6, 1.0e6, 1.002e6)))


@dataclass
class RunManifest:
    scenario: str
    seed: int
    toolkit_version: str
    config_sha256: str
    config: dict
    files: list
    wall_clock_s: float
    extras: dict


class _OutputWriter:
    """Writes tables in the configured format and tracks files for cleanup."""

    def __init__(self, out_dir: Path, file_format: str):
        self.out_dir = out_dir
        self.file_format = file_format
        self.paths = []

    def table(self, name: str, table: dict) -> Path:
        if self.file_format == "json":
            path = emit_json_table(table, self.out_dir / f"{name}.json")
        else:
            path = emit_csv(table, self.out_dir / f"{name}.csv")
        self.paths.append(path)
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = write_json(payload, self.out_dir / f"{name}.json")
        self.paths.append(path)
        return path

    def describe(self) -> list:
        return [{"name": p.name, "sha256": file_sha256(p), "bytes": p.stat().st_size}
                for p in self.paths]

    def cleanup(self):
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def _configured(model, *args):
    """A model evaluated at configured inputs.  Every input comes from the
    config, so a value the model cannot give there (a lifetime that overflows
    or is not positive and finite, a sensing phase that overflows) is a
    ConfigError."""
    try:
        return model(*args)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _map_indexed(fn, items, threads):
    """Order-stable map over (index, item); parallel when threads > 1."""
    if threads <= 1:
        return [fn(i, item) for i, item in enumerate(items)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(len(items)), items))


# ----------------------------------------------------------------- scenarios

def _run_odmr_swap(config, writer, threads):
    """ODMR spectra of both hyperfine lines, with and without the memory swap."""
    sensor = config.sensor
    opts = config.options
    detuning = np.linspace(-opts["freq_span"] / 2, opts["freq_span"] / 2, opts["n_freq"])
    hwhm = 1.0 / (2.0 * math.pi * sensor.t2_star)
    lines = (-0.5 * sensor.hyperfine_splitting, +0.5 * sensor.hyperfine_splitting)
    try:
        # the largest Lorentzian denominator, at the span edge farthest from a line
        widest = hwhm ** 2 + (opts["freq_span"] / 2 + lines[1]) ** 2
    except OverflowError:
        widest = math.inf
    if not math.isfinite(widest):
        raise ConfigError("the ODMR line shape overflows: sensor.t2_star is too short "
                          "or options.freq_span too wide")
    swapped = apply_swap(initial_state(), sensor)
    states = {"no_swap": initial_state(), "swap": swapped}
    sigma = sensor.readout_sigma / math.sqrt(opts["averages"])

    def spectrum(name, state):
        p = state.populations()
        # each hyperfine line dips by the drivable population difference of
        # its nuclear manifold, with a T2*-limited Lorentzian profile
        depth = (p[0] - p[2], p[1] - p[3])
        profile = sum(d * hwhm ** 2 / ((detuning - f) ** 2 + hwhm ** 2)
                      for d, f in zip(depth, lines))
        rng = rng_stream(config.seed, "odmr_swap", name)
        return sensor.contrast_c0 * profile + sigma * rng.standard_normal(len(detuning))

    writer.table("odmr_swap", {
        "detuning_hz": np.tile(detuning, len(states)),
        "series": np.repeat(list(states), len(detuning)),
        "contrast": np.concatenate([spectrum(*item) for item in states.items()]),
    })
    return {"nuclear_polarization_with_swap": swapped.nuclear_polarization()}


def _decay_curve(config, t1, durations, rng, averages):
    """Measured memory-decay curve: polarize, encode, reset the electron,
    illuminate for a variable time, map the memory back, read out.  Returns
    baseline-subtracted contrast samples."""
    sensor = config.sensor
    beta = config.nuclear_t1.stretch_beta
    # 5 t_op of reset light leaves <0.1% residual electron polarization
    prepared = (optical_map(5.0 * sensor.t_op, sensor, t1, beta) @ swap_map(sensor)
                @ INITIAL_POPULATIONS)
    # every illumination time at once, with 60 T1 (memory gone) as the baseline
    probes = (cnot_e_given_n_map(math.sqrt(sensor.swap_fidelity))
              @ optical_map(np.append(durations, 60.0 * t1), sensor, t1, beta))
    means = sensor.contrast_c0 * ((probes @ prepared) @ ELECTRON_EXCESS)
    noise = sensor.readout_sigma / math.sqrt(averages)
    return means[:-1] - means[-1] + noise * rng.standard_normal(len(durations))


def _run_t1_sweep(config, writer, threads, axis_option, axis_name, t1_of):
    opts = config.options
    n_durations = opts["n_durations"]
    span = opts["duration_span_t1"]
    averages = opts["averages"]

    def one_point(i, value):
        t1 = _configured(t1_of, value)
        durations = np.linspace(0.0, span * t1, n_durations)
        rng = rng_stream(config.seed, config.scenario, i)
        contrast = _decay_curve(config, t1, durations, rng, averages)
        fit = _determined(fit_stretched_exponential, durations, contrast,
                          f"the decay curve at options.{axis_option}[{i}] = {value:g}")
        return (durations, contrast, value, t1, fit.params[1], fit.uncertainties[1],
                fit.params[2], fit.uncertainties[2], fit.iterations)

    axis_values = opts[axis_option]
    durations, contrasts, *fit_values = zip(*_map_indexed(one_point, axis_values, threads))
    writer.table(f"{config.scenario}_curves", {
        axis_name: np.repeat(axis_values, n_durations),
        "duration_s": np.concatenate(durations),
        "contrast": np.concatenate(contrasts),
    })
    fit_cols = dict(zip((axis_name, "t1_model_s", "t1_fit_s", "t1_err_s", "beta_fit",
                         "beta_err", "iterations"), fit_values))
    writer.table(f"{config.scenario}_fits", fit_cols)
    return fit_cols


def _determined(fit, x, y, what):
    """fit(x, y) on simulated sweep data.  Every input comes from the config,
    so data that leave the fit undetermined are a ConfigError naming ``what``:
    the search does not converge, a parameter or uncertainty is not finite,
    or the lifetime or exponent (parameter 1 of both models) is within three
    sigma of zero, where the model degenerates."""
    try:
        result = fit(np.asarray(x), np.asarray(y))
    except FitError as exc:
        raise ConfigError(f"the fit to {what} is undetermined: {exc}") from exc
    value, sigma = result.params[1], result.uncertainties[1]
    if not (abs(value) > 3.0 * sigma and np.all(np.isfinite(result.params))
            and np.all(np.isfinite(result.uncertainties))):
        raise ConfigError(f"the fit to {what} is undetermined: {result.model} "
                          f"parameter 1 is {value:.3g} +- {sigma:.3g}")
    return result


def _run_nuclear_t1_field_sweep(config, writer, threads):
    """Nuclear-memory T1 versus bias field, with a power-law fit of the exponent."""
    fields = config.options["fields"]
    fit_cols = _run_t1_sweep(
        config, writer, threads, "fields", "field_gauss",
        lambda b: nuclear_t1_vs_field(config.nuclear_t1, b))
    power_fit = _determined(fit_power_function, fields, fit_cols["t1_fit_s"],
                            "the T1 values over options.fields")
    exponent = -float(power_fit.params[1])
    writer.json("nuclear_t1_field_power_law", {
        "field_exponent": exponent,
        "field_exponent_err": float(power_fit.uncertainties[1]),
        "configured_exponent": config.nuclear_t1.field_exponent,
        "fit": power_fit.to_dict(),
    })
    return {"field_exponent_fit": exponent,
            "configured_exponent": config.nuclear_t1.field_exponent}


def _run_nuclear_t1_laser_sweep(config, writer, threads):
    """Nuclear-memory T1 versus laser power, with a power-function fit."""
    powers = config.options["powers"]
    fit_cols = _run_t1_sweep(
        config, writer, threads, "powers", "power_mw",
        lambda p: nuclear_t1_vs_laser(config.nuclear_t1, p))
    # fit on the native us/mW scale of the power-function parameters
    power_fit = _determined(fit_power_function, powers,
                            np.asarray(fit_cols["t1_fit_s"]) * 1e6,
                            "the T1 values over options.powers")
    a, b, c = (float(v) for v in power_fit.params)
    writer.json("nuclear_t1_laser_power_function", {
        "a": a, "b": b, "c": c,
        "uncertainties": [float(u) for u in power_fit.uncertainties],
        "configured": {"a": config.nuclear_t1.laser_a,
                       "b": config.nuclear_t1.laser_b,
                       "c": config.nuclear_t1.laser_c},
        "fit": power_fit.to_dict(),
    })
    return {"laser_b_fit": b, "configured_b": config.nuclear_t1.laser_b}


def _run_qle_snr_vs_n(config, writer, threads):
    """Optimal SNR and QLE enhancement versus the number of readouts."""
    sensor = config.sensor
    opts = config.options
    n_max = opts["n_readouts"]
    t1 = _configured(nuclear_t1_vs_field, config.nuclear_t1, sensor.bias_field)
    decay = sensor.t_qlr / t1
    n = np.arange(1, n_max + 1)
    ref_amplitude = sensor.contrast_c0 * opts["amplitude_scale"]
    sigma = sensor.readout_sigma
    amplitudes = ref_amplitude * np.exp(-n * decay)
    series = ReadoutSeries(amplitudes, np.full(n_max, sigma), ref_amplitude, sigma)
    snr = optimal_snr(series, n)
    enhancement = snr_enhancement(series, n)
    writer.table("qle_snr_vs_n", {
        "n": n, "a_n": amplitudes, "sigma_n": np.full(n_max, sigma),
        "snr": snr, "enhancement": enhancement,
    })
    return {"t1_s": t1, "enhancement_final": float(enhancement[-1])}


def _qlr_means(config, start_populations, n_cycles, t1):
    """Per-cycle readout means for a batch of start states (rows)."""
    sensor = config.sensor
    cnot = cnot_e_given_n_map(math.sqrt(sensor.swap_fidelity))
    optical = optical_map(sensor.t_op, sensor, t1, config.nuclear_t1.stretch_beta)
    populations = np.array(start_populations, dtype=float)
    means = np.empty((len(populations), n_cycles))
    for k in range(n_cycles):
        after_gate = populations @ cnot.T
        means[:, k] = sensor.contrast_c0 * (after_gate @ ELECTRON_EXCESS)
        populations = after_gate @ optical.T
    return means


# readout trains whose noise is drawn and reduced at a time, so that no
# (n_points, n_readouts) array is ever held
_NOISE_ROWS = 256


def _qle_trace(config, excess, t1, rng):
    """Weighted QLE estimate of each stored electron excess from its readout train.

    The start states are affine in the stored excess and the readout maps are
    linear, so two reference orbits (stored excess 0 and 1) give every train's
    per-cycle means, offsets + excess * cycle_amplitude.  With cycle weights
    w = cycle_amplitude / sigma^2 and unit normals xi, the offset-subtracted
    weighted mean of a train is then
    excess * (cycle_amplitude . w) / sum(w) + sigma * (xi . w) / sum(w).
    """
    sensor = config.sensor
    starts = swap_map(sensor) @ sensing_map(np.array([0.0, 1.0])) @ INITIAL_POPULATIONS
    offsets, excited = _qlr_means(config, starts, config.options["n_readouts"], t1)
    cycle_amplitude = excited - offsets
    sigma = sensor.readout_sigma
    weights = cycle_amplitude / sigma ** 2
    noise = np.empty(len(excess))
    xi = np.empty((min(_NOISE_ROWS, len(excess)), len(weights)))
    for start in range(0, len(excess), len(xi)):
        chunk = rng.standard_normal(out=xi[:len(excess) - start])
        # reduced row by row, so the values do not depend on the chunk size
        noise[start:start + len(chunk)] = np.einsum("ij,j->i", chunk, weights)
    total = np.sum(weights)
    return excess * (cycle_amplitude @ weights) / total + sigma * noise / total


def _run_correlation_threetone(config, writer, threads):
    """Correlation spectroscopy of a three-tone AC field with QLE readout."""
    sensor = config.sensor
    opts = config.options
    block = build_xy8(opts["repetitions"], opts["tau"])
    tf = toggling_function(block)
    signal = config.signal if config.signal is not None else DEFAULT_THREE_TONE

    n_points = opts["n_points"]
    dt = opts["t_corr_max"] / n_points
    t_corr = np.arange(n_points) * dt

    weight = _configured(decoherence_factor, config.electron_t2, block.family,
                         block.pi_pulse_count, block.total_duration)
    phi1 = _configured(accumulated_phase, tf, signal, config.constants)
    phi2 = _configured(accumulated_phase, tf, signal, config.constants,
                       block.total_duration + t_corr)
    # correlated readout: first block stored along z, second block read out
    excess = weight ** 2 * math.sin(phi1) * np.sin(phi2)

    t1 = _configured(nuclear_t1_vs_field, config.nuclear_t1, sensor.bias_field)
    qle_trace = _qle_trace(config, excess, t1,
                           rng_stream(config.seed, "correlation_threetone", "qle"))

    sigma = sensor.readout_sigma
    rng_ref = rng_stream(config.seed, "correlation_threetone", "reference")
    ref_trace = sensor.contrast_c0 * excess + sigma * rng_ref.standard_normal(n_points)

    writer.table("correlation_trace", {
        "t_corr_s": np.concatenate([t_corr, t_corr]),
        "readout": ["qle"] * n_points + ["conventional"] * n_points,
        "signal": np.concatenate([qle_trace, ref_trace]),
    })
    qle_spec = periodogram(qle_trace, dt)
    ref_spec = periodogram(ref_trace, dt)
    writer.table("correlation_spectrum", {
        "frequency_hz": np.concatenate([qle_spec.frequencies, ref_spec.frequencies]),
        "readout": ["qle"] * len(qle_spec.power) + ["conventional"] * len(ref_spec.power),
        "power": np.concatenate([qle_spec.power, ref_spec.power]),
    })
    # a short record may have no interior peak at all
    peak_freqs, peak_powers = dominant_peaks(qle_spec, 3)
    return {
        "tone_frequencies_hz": [t[1] for t in signal.tones],
        "peak_frequencies_hz": sorted(float(f) for f in peak_freqs),
        "min_peak_power": float(np.min(peak_powers)) if len(peak_powers) else None,
        "median_noise_power": float(np.median(qle_spec.power[1:])),
        "frequency_resolution_hz": qle_spec.df,
    }


_FAMILY_BUILDERS = {XY8: build_xy8, DROID60: build_droid60}


def _run_sensitivity_vs_duration(config, writer, threads):
    """AC sensitivity versus sensing duration for XY8 and DROID60 blocks."""
    sensor = config.sensor
    opts = config.options
    tau = opts["tau"]
    f0 = 1.0 / (2.0 * tau)

    def row(family, repetitions):
        seq = _FAMILY_BUILDERS[family](repetitions, tau)
        n, t_sense = seq.pi_pulse_count, seq.total_duration
        coherence = _configured(decoherence_factor, config.electron_t2, family, n, t_sense)
        # contrast slope at the zero crossing of the fringe
        slope = sensor.contrast_c0 * coherence * config.constants.gamma_e * n / (math.pi * f0)
        sigma_1s = sensor.readout_sigma * math.sqrt(t_sense + sensor.t_qlr)
        return (family, repetitions, n, t_sense, electron_t2(config.electron_t2, family, n),
                ac_sensitivity(sigma_1s, slope))

    rows = [row(family, repetitions) for family in opts["families"]
            for repetitions in range(1, opts["max_repetitions"] + 1)]
    writer.table("sensitivity_vs_duration", dict(zip(
        ("family", "repetitions", "n_pulses", "t_sense_s", "t2_s",
         "sensitivity_t_per_sqrt_hz"), zip(*rows))))
    best = {}
    for family in opts["families"]:
        top = min((r for r in rows if r[0] == family), key=lambda r: r[5])
        best[family] = {"t_sense_s": top[3], "sensitivity_t_per_sqrt_hz": top[5]}
    return {"optimal": best}


def _run_eta_map(config, writer, threads):
    """QLE efficiency eta over readout count and sensing duration."""
    sensor = config.sensor
    opts = config.options
    n_axis = np.unique(np.rint(np.linspace(opts["n_min"], opts["n_max"],
                                           opts["n_points"])).astype(int))
    t_axis = np.linspace(opts["t_sense_min"], opts["t_sense_max"], opts["t_points"])
    t1 = _configured(nuclear_t1_vs_field, config.nuclear_t1, sensor.bias_field)
    curve = exponential_snr_curve(t1, sensor.t_qlr, opts["base_ratio"])
    grid = eta_map(n_axis, t_axis, sensor.t_swap, sensor.t_qlr, snr_curve=curve)
    writer.table("eta_map", {
        "t_sense_s": np.repeat(grid.t_sense_axis, len(grid.n_axis)),
        "n_readouts": np.tile(grid.n_axis, len(grid.t_sense_axis)),
        "eta": grid.eta.ravel(),
    })
    i, j = np.unravel_index(int(np.argmax(grid.eta)), grid.eta.shape)
    return {"eta_max": float(grid.eta[i, j]),
            "eta_max_at": {"t_sense_s": grid.t_sense_axis[i], "n_readouts": grid.n_axis[j]},
            "t1_s": t1}


def _run_density_projection(config, writer, threads):
    """Electron T2 and the optimal XY8 window projected to other N densities."""
    t2 = config.electron_t2
    opts = config.options
    ref_density = config.sensor.n_density_ppm
    densities = np.asarray(opts["densities_ppm"])
    t2_sat = project_t2_for_density(t2.t2_xy8_sat, ref_density, densities)
    scale = t2_sat / t2.t2_xy8_sat
    writer.table("density_projection", {
        "n_density_ppm": densities,
        "t2_scale": scale,
        "t2_hahn_s": project_t2_for_density(t2.t2_hahn, ref_density, densities),
        "t2_xy8_sat_s": t2_sat,
        "optimal_xy8_t_sense_s": opts["xy8_optimal_ref"] * scale,
    })
    return {"reference_density_ppm": ref_density}


@dataclass(frozen=True)
class Option:
    """One scenario option: its kind, default and lower bound.

    ``kind`` is "int", "float", "str" or a unit dimension such as "time".  An
    int must be at least ``low``, a float or quantity must exceed it, and a
    str must be one of ``choices``.  A list option (``min_len`` set) needs at
    least ``min_len`` distinct entries, each bounded as above.  ``not_below``
    names another option of the scenario whose value this one may not be
    below, as an axis's end may not be below its start.
    """

    kind: str
    default: object
    low: float = 0.0
    min_len: int | None = None
    choices: tuple = ()
    not_below: str | None = None


@dataclass(frozen=True)
class Scenario:
    """A scenario's runner and option schema; the runner's docstring is its help."""

    run: Callable
    options: dict


# the fits need 5 points: 3 parameters plus 2 degrees of freedom
_MIN_FIT_POINTS = 5

_T1_SWEEP_OPTIONS = {
    "n_durations": Option("int", 20, _MIN_FIT_POINTS),
    "duration_span_t1": Option("float", 3.0),
    "averages": Option("int", 300, 1),
}

SCENARIOS = {
    "odmr_swap": Scenario(_run_odmr_swap, {
        "freq_span": Option("frequency", 8.0e6),
        "n_freq": Option("int", 401, 1),
        "averages": Option("int", 200, 1),
    }),
    "nuclear_t1_field_sweep": Scenario(_run_nuclear_t1_field_sweep, {
        "fields": Option("gauss", (500.0, 666.0, 886.0, 1179.0, 1569.0, 2088.0, 2779.0,
                                   3700.0), min_len=_MIN_FIT_POINTS),
        **_T1_SWEEP_OPTIONS,
    }),
    "nuclear_t1_laser_sweep": Scenario(_run_nuclear_t1_laser_sweep, {
        "powers": Option("milliwatt", (20.0, 27.0, 36.5, 49.3, 66.6, 90.0, 121.6, 164.3,
                                       222.0, 300.0), min_len=_MIN_FIT_POINTS),
        **_T1_SWEEP_OPTIONS,
    }),
    "qle_snr_vs_n": Scenario(_run_qle_snr_vs_n, {
        "n_readouts": Option("int", 2000, 1),
        "amplitude_scale": Option("float", 1.0),
    }),
    "correlation_threetone": Scenario(_run_correlation_threetone, {
        "repetitions": Option("int", 6, 1),
        "tau": Option("time", 0.5e-6),
        "t_corr_max": Option("time", 1.5e-3),
        "n_points": Option("int", 3072, 2),   # a spectrum needs two samples
        "n_readouts": Option("int", 500, 1),
    }),
    "sensitivity_vs_duration": Scenario(_run_sensitivity_vs_duration, {
        "tau": Option("time", 0.5e-6),
        "max_repetitions": Option("int", 12, 1),
        "families": Option("str", (XY8, DROID60), min_len=1,
                           choices=tuple(_FAMILY_BUILDERS)),
    }),
    "eta_map": Scenario(_run_eta_map, {
        "n_min": Option("int", 1, 1),
        "n_max": Option("int", 2000, 1, not_below="n_min"),
        "n_points": Option("int", 50, 1),
        "t_sense_min": Option("time", 10e-6),
        "t_sense_max": Option("time", 1.0e-3, not_below="t_sense_min"),
        "t_points": Option("int", 50, 1),
        "base_ratio": Option("float", 1.0),
    }),
    "density_projection": Scenario(_run_density_projection, {
        "densities_ppm": Option("float", (14.0, 7.0, 3.5, 2.0, 1.0, 0.8, 0.5), min_len=1),
        "xy8_optimal_ref": Option("time", 24e-6),
    }),
}


def run_scenario(config, out_dir=None, threads: int = 1) -> RunManifest:
    """Execute a configured scenario, write its outputs, and return the manifest.

    Output data files are bit-identical for identical (config, seed), whatever
    the worker count; partial outputs are removed if the run fails.  The
    manifest is written atomically after all outputs and records their hashes
    (its own wall-clock field varies run to run by nature).
    """
    start = time.perf_counter()
    if config.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {config.scenario!r}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    target = Path(out_dir if out_dir is not None
                  else config.out_dir if config.out_dir is not None
                  else os.environ.get(DEFAULT_OUT_DIR_ENV, "qlesim-out"))
    target.mkdir(parents=True, exist_ok=True)
    writer = _OutputWriter(target, config.file_format)
    try:
        extras = SCENARIOS[config.scenario].run(config, writer, threads)
    except BaseException:
        writer.cleanup()
        raise
    config_dict = config.to_dict()
    config_hash = hashlib.sha256(
        json.dumps(config_dict, sort_keys=True).encode()).hexdigest()
    manifest = RunManifest(
        scenario=config.scenario,
        seed=config.seed,
        toolkit_version=__version__,
        config_sha256=config_hash,
        config=config_dict,
        files=writer.describe(),
        wall_clock_s=time.perf_counter() - start,
        extras=extras,
    )
    write_json_atomic(asdict(manifest), target / f"{config.scenario}_manifest.json")
    return manifest
