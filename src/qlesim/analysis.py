"""Estimator mathematics for quantum-logic-enhanced readout.

Covers the optimally weighted SNR of a decaying readout series, the
time-overhead-corrected sensitivity-enhancement factor and its (N, T_sense)
map, the matched-reference accounting, test-coil field calibration, AC
sensitivity, and a variance-preserving periodogram.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .fitting import FitResult, fit_sinusoid
from .params import PhysicalConstants
from .sequences import b_ac_two_pi


@dataclass(frozen=True)
class ReadoutSeries:
    """Per-cycle signal amplitudes and noise levels from repetitive readout,
    plus the conventional single-readout reference."""

    amplitudes: np.ndarray
    sigmas: np.ndarray
    ref_amplitude: float
    ref_sigma: float

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        if amplitudes.ndim != 1 or amplitudes.shape != sigmas.shape:
            raise DomainError("amplitudes and sigmas must be 1-d arrays of equal length")
        if len(amplitudes) == 0:
            raise DomainError("readout series must not be empty")
        if np.any(sigmas <= 0):
            raise DomainError("all sigmas must be positive")
        if self.ref_sigma <= 0:
            raise DomainError("ref_sigma must be positive")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "sigmas", sigmas)

    def __len__(self):
        return len(self.amplitudes)


def _resolve_n(series: ReadoutSeries, up_to_n):
    """N as an int, or an int array of counts, each in [1, len(series)]."""
    if up_to_n is None:
        return len(series)
    n = np.asarray(up_to_n).astype(int) if np.ndim(up_to_n) else int(up_to_n)
    if np.size(n) == 0:
        raise DomainError("up_to_n must not be empty")
    if not np.all((1 <= n) & (n <= len(series))):
        raise DomainError(f"up_to_n must lie in [1, {len(series)}]")
    return n


def optimal_snr(series: ReadoutSeries, up_to_n=None):
    """Best achievable SNR after the first N readouts, sqrt(sum A_n^2/sigma_n^2).

    ``up_to_n`` is one count (float result) or an array of counts (array
    result); either way the sums are read off one running prefix sum, so an
    array costs O(len(series)) and equals the scalar calls bit for bit.
    """
    n = _resolve_n(series, up_to_n)
    top = int(np.max(n))
    ratio = series.amplitudes[:top] / series.sigmas[:top]
    snr = np.sqrt(np.cumsum(ratio * ratio)[n - 1])
    return float(snr) if np.ndim(snr) == 0 else snr


def weighted_snr(series: ReadoutSeries, weights, up_to_n=None) -> float:
    """SNR of the weighted combination, (sum w A) / sqrt(sum w^2 sigma^2).

    Equals optimal_snr exactly when w_n is proportional to A_n / sigma_n^2.
    """
    if np.ndim(up_to_n):
        raise DomainError("weighted_snr takes a single up_to_n")
    n = _resolve_n(series, up_to_n)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) < n:
        raise DomainError("need at least up_to_n weights")
    w = w[:n]
    if not np.any(w != 0.0):
        raise DomainError("weights must not all be zero")
    return float(np.sum(w * series.amplitudes[:n])
                 / np.sqrt(np.sum((w * series.sigmas[:n]) ** 2)))


def snr_enhancement(series: ReadoutSeries, up_to_n=None):
    """optimal_snr(N) relative to the conventional-readout reference SNR; an
    array of counts gives an array."""
    if series.ref_amplitude == 0:
        raise DomainError("reference amplitude must be nonzero")
    return optimal_snr(series, up_to_n) / (series.ref_amplitude / series.ref_sigma)


@dataclass(frozen=True)
class TimingBudget:
    """Protocol timing entering the enhancement accounting (durations in s).

    Fields may also be arrays that broadcast together, as in ``eta_map``; each
    check then holds for every entry.
    """

    t_sense: float
    t_swap: float
    t_qlr: float
    n_readouts: int

    def __post_init__(self):
        if np.any(self.t_sense <= 0) or np.any(self.t_qlr <= 0):
            raise DomainError("t_sense and t_qlr must be positive")
        if np.any(self.t_swap < 0):
            raise DomainError("t_swap must be nonnegative")
        if np.any(self.n_readouts < 1):
            raise DomainError("n_readouts must be at least 1")


def eta_qle(snr_ratio, budget: TimingBudget):
    """Sensitivity-enhancement factor: the SNR gain discounted by the extra
    readout time, snr_ratio * sqrt(T_sense + T_qlr) / sqrt(T_sense + T_swap +
    N * T_qlr).  Broadcasts over array ratios and budget fields."""
    if np.any(snr_ratio <= 0):
        raise DomainError("snr_ratio must be positive")
    return (snr_ratio * np.sqrt(budget.t_sense + budget.t_qlr)
            / np.sqrt(budget.t_sense + budget.t_swap
                      + budget.n_readouts * budget.t_qlr))


def exponential_snr_curve(t1: float, t_qlr: float,
                          base_ratio: float = 1.0) -> Callable:
    """SNR(N)/SNR(ref) for amplitudes decaying as exp(-n t_qlr / t1) at
    constant noise: base_ratio * sqrt(sum_{n=1..N} exp(-2 n t_qlr / t1))."""
    if t1 <= 0 or t_qlr <= 0:
        raise DomainError("t1 and t_qlr must be positive")
    if base_ratio <= 0:
        raise DomainError("base_ratio must be positive")
    x = math.exp(-2.0 * t_qlr / t1)

    def curve(n):
        n = np.asarray(n, dtype=float)
        if np.any(n < 1):
            raise DomainError("N must be at least 1")
        total = x * (1.0 - x ** n) / (1.0 - x) if x < 1.0 else n
        out = base_ratio * np.sqrt(total)
        return float(out) if np.ndim(out) == 0 else out

    return curve


@dataclass(frozen=True)
class EnhancementMap:
    n_axis: tuple
    t_sense_axis: tuple
    eta: np.ndarray

    def __post_init__(self):
        if np.asarray(self.eta).shape != (len(self.t_sense_axis), len(self.n_axis)):
            raise DomainError("eta must have shape (len(t_sense_axis), len(n_axis))")


def eta_map(n_axis, t_sense_axis, t_swap: float, t_qlr: float,
            snr_curve=None, t1: float = 3.44e-3) -> EnhancementMap:
    """Grid of eta_qle over readout count and sensing duration.

    ``snr_curve`` maps an array of N to SNR(N)/SNR(ref); the default is the
    exponential-decay optimal-SNR model with memory lifetime ``t1``.  The
    curve is evaluated once over the n axis and eta over the whole
    (t_sense, n) grid by broadcasting.
    """
    ns = tuple(int(n) for n in n_axis)
    ts = tuple(float(t) for t in t_sense_axis)
    if not ns or not ts:
        raise DomainError("axes must be nonempty")
    curve = snr_curve if snr_curve is not None else exponential_snr_curve(t1, t_qlr)
    n = np.array(ns)
    eta = eta_qle(np.asarray(curve(n), dtype=float),
                  TimingBudget(np.array(ts)[:, None], t_swap, t_qlr, n))
    return EnhancementMap(ns, ts, eta)


class MatchedReference(NamedTuple):
    count: int
    exact: float


def matched_reference_count(budget: TimingBudget) -> MatchedReference:
    """Number of conventional measurements whose total time matches one QLE
    acquisition: M (T_sense + T_qlr) = T_sense + T_swap + N T_qlr.

    ``count`` is the nearest integer >= 1; ``exact`` is the unrounded value
    for time accounting.
    """
    exact = ((budget.t_sense + budget.t_swap + budget.n_readouts * budget.t_qlr)
             / (budget.t_sense + budget.t_qlr))
    return MatchedReference(max(1, int(math.floor(exact + 0.5))), exact)


class FieldCalibration(NamedTuple):
    tesla_per_volt: float
    v_2pi: float
    fit: FitResult


def calibrate_field(voltages, contrasts, f0: float = 1.0e6, n_pulses: int = 288,
                    constants: PhysicalConstants | None = None) -> FieldCalibration:
    """Calibrate the test-coil field per volt from contrast oscillations.

    Fits contrast = C sin(2 pi v / V_2pi + phi0) + offset; one full oscillation
    corresponds to 2 pi of accumulated phase, so the calibration constant is
    the 2-pi field amplitude for (f0, n_pulses) divided by the fitted V_2pi.
    """
    v = np.asarray(voltages, dtype=float)
    c = np.asarray(contrasts, dtype=float)
    if len(v) < 8:
        raise DomainError("need at least 8 calibration points")
    fit = fit_sinusoid(v, c)
    v_2pi = 1.0 / float(fit.params[1])
    if float(v.max() - v.min()) < v_2pi:
        raise DomainError("calibration data spans less than one oscillation")
    if constants is None:
        constants = PhysicalConstants()
    return FieldCalibration(b_ac_two_pi(f0, n_pulses, constants) / v_2pi, v_2pi, fit)


def ac_sensitivity(sigma_1s: float, slope: float) -> float:
    """Field sensitivity sigma_1s / |dS/dB| in T / sqrt(Hz); sigma_1s is the
    contrast uncertainty after one second of averaging at the zero crossing."""
    if sigma_1s < 0:
        raise DomainError("sigma_1s must be nonnegative")
    if slope == 0:
        raise DomainError("operating point has zero field slope")
    return sigma_1s / abs(slope)


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectrum; integrating power over frequency gives the
    variance of the input samples."""

    frequencies: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if self.frequencies.shape != self.power.shape or self.frequencies.ndim != 1:
            raise DomainError("frequencies and power must be 1-d arrays of equal length")

    @property
    def df(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def total_power(self) -> float:
        return float(np.sum(self.power) * self.df)


def periodogram(samples, dt: float) -> Spectrum:
    """Variance-preserving one-sided periodogram of the mean-subtracted series."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DomainError("need at least two samples")
    if dt <= 0:
        raise DomainError("dt must be positive")
    m = len(x)
    spectrum = np.fft.rfft(x - np.mean(x))
    scale = np.full(len(spectrum), 2.0)
    scale[0] = 1.0
    if m % 2 == 0:
        scale[-1] = 1.0
    power = scale * np.abs(spectrum) ** 2 * dt / m
    return Spectrum(np.fft.rfftfreq(m, dt), power)


def dominant_peaks(spectrum: Spectrum, count: int = 1):
    """Strongest local maxima of the spectrum, DC bin excluded.

    Returns (frequencies, powers) ordered by descending power.
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    p = spectrum.power
    peaks = [i for i in range(1, len(p) - 1) if p[i] >= p[i - 1] and p[i] > p[i + 1]]
    peaks.sort(key=lambda i: p[i], reverse=True)
    chosen = peaks[:count]
    return spectrum.frequencies[chosen], p[chosen]
