import math

import numpy as np
import pytest

from qlesim import (PhysicalConstants, ReadoutSeries, TimingBudget, ac_sensitivity,
                    b_ac_two_pi, calibrate_field, dominant_peaks, eta_map, eta_qle,
                    exponential_snr_curve, matched_reference_count, optimal_snr,
                    periodogram, rng_stream, snr_enhancement, weighted_snr)
from qlesim.errors import DomainError
from qlesim.fitting import sinusoid_model


def decay_series(n_max=2000, t1=3.44e-3, t_qlr=3e-6, sigma=1.0, ref=1.0):
    n = np.arange(1, n_max + 1)
    return ReadoutSeries(ref * np.exp(-n * t_qlr / t1), np.full(n_max, sigma), ref, sigma)


# ------------------------------------------------------------------- SNR

def test_optimal_snr_single_readout():
    series = ReadoutSeries([2.0], [0.5], 2.0, 0.5)
    assert optimal_snr(series) == pytest.approx(4.0)


def test_optimal_snr_equal_weight_limit():
    series = ReadoutSeries(np.full(64, 3.0), np.full(64, 1.5), 3.0, 1.5)
    assert optimal_snr(series) == pytest.approx(math.sqrt(64) * 2.0, rel=1e-12)


def test_optimal_snr_matches_direct_summation_oracle():
    series = decay_series()
    total = 0.0
    for n in range(1, 2001):
        total += math.exp(-2 * n * 3e-6 / 3.44e-3)
    assert optimal_snr(series) == pytest.approx(math.sqrt(total), rel=1e-12)
    # enhancement over SNR(1) for the same decaying series
    assert optimal_snr(series) / optimal_snr(series, 1) == pytest.approx(23.6, abs=0.1)


def test_optimal_snr_recurrence():
    series = decay_series(50)
    for n in range(2, 51):
        previous = optimal_snr(series, n - 1) ** 2
        term = (series.amplitudes[n - 1] / series.sigmas[n - 1]) ** 2
        assert optimal_snr(series, n) ** 2 == pytest.approx(previous + term, rel=1e-12)


def test_weighted_snr_equality_at_matched_weights():
    rng = rng_stream(21, "weights")
    amplitudes = rng.normal(size=30)
    sigmas = rng.uniform(0.5, 2.0, size=30)
    series = ReadoutSeries(amplitudes, sigmas, 1.0, 1.0)
    matched = amplitudes / sigmas ** 2
    assert weighted_snr(series, matched) == pytest.approx(optimal_snr(series), rel=1e-12)


def test_weighted_snr_uniform_weights():
    series = ReadoutSeries(np.full(16, 2.0), np.full(16, 0.5), 2.0, 0.5)
    assert weighted_snr(series, np.ones(16)) == pytest.approx(4.0 * 4.0, rel=1e-12)


def test_weighted_never_beats_optimal():
    rng = rng_stream(22, "cauchy-schwarz")
    for _ in range(1000):
        length = int(rng.integers(1, 40))
        series = ReadoutSeries(rng.normal(size=length),
                               rng.uniform(0.1, 2.0, size=length), 1.0, 1.0)
        weights = rng.normal(size=length)
        if not np.any(weights != 0):
            continue
        assert weighted_snr(series, weights) <= optimal_snr(series) + 1e-12


def test_weighted_snr_rejects_zero_weights():
    series = ReadoutSeries([1.0, 2.0], [1.0, 1.0], 1.0, 1.0)
    with pytest.raises(DomainError):
        weighted_snr(series, [0.0, 0.0])
    with pytest.raises(DomainError):
        weighted_snr(series, [1.0, 1.0], [1, 2])


def test_snr_enhancement_reference_case():
    series = ReadoutSeries([2.0], [0.5], 2.0, 0.5)
    assert snr_enhancement(series, 1) == pytest.approx(1.0)


def test_snr_enhancement_monotone():
    series = decay_series(300)
    values = [snr_enhancement(series, n) for n in range(1, 301)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_readout_series_validation():
    with pytest.raises(DomainError):
        ReadoutSeries([], [], 1.0, 1.0)
    with pytest.raises(DomainError):
        ReadoutSeries([1.0], [0.0], 1.0, 1.0)
    with pytest.raises(DomainError):
        ReadoutSeries([1.0], [1.0], 1.0, 0.0)
    with pytest.raises(DomainError):
        optimal_snr(decay_series(10), 11)


def test_array_counts_equal_scalar_calls_bit_for_bit():
    series = decay_series()
    counts = np.arange(1, len(series) + 1)
    snr = optimal_snr(series, counts)
    enhancement = snr_enhancement(series, counts)
    assert snr.shape == enhancement.shape == counts.shape
    for k in counts:
        assert snr[k - 1] == optimal_snr(series, int(k))
        assert enhancement[k - 1] == snr_enhancement(series, int(k))
    # unordered and repeated counts read the same prefix sums
    picked = np.array([[7, 3], [2000, 3]])
    assert np.array_equal(optimal_snr(series, picked), snr[picked - 1])


def test_array_snr_matches_fsum_oracle_at_20000_readouts():
    n_max = 20000
    rng = rng_stream(23, "fsum-oracle")
    n = np.arange(1, n_max + 1)
    series = ReadoutSeries(np.exp(-n * 3e-6 / 3.44e-3), rng.uniform(0.5, 2.0, n_max),
                           1.0, 1.0)
    snr = optimal_snr(series, n)
    terms = ((series.amplitudes / series.sigmas) ** 2).tolist()
    for k in [*range(1, n_max, 97), n_max]:
        assert snr[k - 1] == pytest.approx(math.sqrt(math.fsum(terms[:k])), rel=1e-12)


@pytest.mark.parametrize("counts", [[], np.array([], dtype=int), [0, 5], [1, 11],
                                    np.array([[3], [-1]])])
def test_out_of_range_or_empty_count_arrays_raise(counts):
    series = decay_series(10)
    with pytest.raises(DomainError):
        optimal_snr(series, counts)
    with pytest.raises(DomainError):
        snr_enhancement(series, counts)


# ------------------------------------------------------------------- eta

def test_eta_equals_ratio_without_overhead():
    budget = TimingBudget(24e-6, 0.0, 3e-6, 1)
    assert eta_qle(7.7, budget) == 7.7  # exact


def test_eta_at_reference_operating_point():
    budget = TimingBudget(750e-6, 16.5e-6, 3e-6, 1000)
    oracle = 33.3 * math.sqrt(753e-6) / math.sqrt(3766.5e-6)
    assert eta_qle(33.3, budget) == pytest.approx(oracle, rel=1e-12)
    assert eta_qle(33.3, budget) == pytest.approx(14.9, abs=0.05)


def test_eta_monotonicity():
    ratios = np.linspace(1.0, 40.0, 15)
    etas = [eta_qle(r, TimingBudget(100e-6, 16.5e-6, 3e-6, 100)) for r in ratios]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    counts = [1, 5, 50, 500, 5000]
    etas = [eta_qle(10.0, TimingBudget(100e-6, 16.5e-6, 3e-6, n)) for n in counts]
    assert all(b < a for a, b in zip(etas, etas[1:]))


def test_eta_rejects_bad_inputs():
    with pytest.raises(DomainError):
        eta_qle(0.0, TimingBudget(1e-6, 0.0, 1e-6, 1))
    with pytest.raises(DomainError):
        TimingBudget(0.0, 0.0, 1e-6, 1)
    with pytest.raises(DomainError):
        TimingBudget(1e-6, 0.0, 1e-6, 0)


def test_exponential_snr_curve_matches_series():
    curve = exponential_snr_curve(3.44e-3, 3e-6)
    series = decay_series(500)
    for n in (1, 10, 250, 500):
        assert curve(n) == pytest.approx(snr_enhancement(series, n), rel=1e-12)


def test_eta_map_structure_and_limits():
    grid = eta_map([1, 10, 100], [50e-6, 500e-6], 16.5e-6, 3e-6)
    assert grid.eta.shape == (2, 3)
    # long sensing window at N=1 approaches the bare SNR ratio
    curve = exponential_snr_curve(3.44e-3, 3e-6)
    wide = eta_map([1], [10.0], 16.5e-6, 3e-6)
    assert wide.eta[0, 0] == pytest.approx(curve(1), rel=1e-3)


def test_eta_map_rows_fall_beyond_their_optimum():
    n_axis = np.unique(np.rint(np.linspace(1, 2000, 50)).astype(int))
    t_axis = np.linspace(200e-6, 600e-6, 9)
    grid = eta_map(n_axis, t_axis, 16.5e-6, 3e-6)
    for row in grid.eta:
        best = int(np.argmax(row))
        assert 0 < best < len(row) - 1
        assert np.all(np.diff(row[best:]) < 0)


def test_eta_map_equals_per_cell_formula_bit_for_bit():
    n_axis = np.unique(np.rint(np.linspace(1, 2000, 50)).astype(int))
    t_axis = np.linspace(10e-6, 1e-3, 50)
    curve = exponential_snr_curve(3.44e-3, 3e-6, 1.7)
    grid = eta_map(n_axis, t_axis, 16.5e-6, 3e-6, snr_curve=curve)
    for i, t_sense in enumerate(t_axis):
        for j, n in enumerate(n_axis):
            cell = (curve(int(n)) * math.sqrt(t_sense + 3e-6)
                    / math.sqrt(t_sense + 16.5e-6 + int(n) * 3e-6))
            assert grid.eta[i, j] == cell


def _ones(n):
    return np.ones(len(n))


@pytest.mark.parametrize("n_axis, t_axis, t_swap, t_qlr, curve", [
    ([], [1e-4], 16.5e-6, 3e-6, None),
    ([1, 10], [], 16.5e-6, 3e-6, None),
    ([1, 10], [1e-4, 0.0], 16.5e-6, 3e-6, None),
    ([1, 10], [1e-4], 16.5e-6, 0.0, _ones),
    ([1, 10], [1e-4], -1e-6, 3e-6, None),
    ([1, 0], [1e-4], 16.5e-6, 3e-6, _ones),
    ([1, 10], [1e-4], 16.5e-6, 3e-6, lambda n: 1.0 - np.log10(n)),
])
def test_eta_map_rejects_bad_axes_and_curves(n_axis, t_axis, t_swap, t_qlr, curve):
    with pytest.raises(DomainError):
        eta_map(n_axis, t_axis, t_swap, t_qlr, snr_curve=curve)


# ------------------------------------------------- matched reference count

def test_matched_reference_at_reference_point():
    m = matched_reference_count(TimingBudget(750e-6, 16.5e-6, 3e-6, 1000))
    assert m.count == 5
    assert m.exact == pytest.approx(5.002, abs=0.001)


def test_matched_reference_trivial_case():
    m = matched_reference_count(TimingBudget(1e-3, 0.0, 3e-6, 1))
    assert m.count == 1
    assert m.exact == pytest.approx(1.0)


def test_matched_reference_identity_within_rounding():
    rng = rng_stream(23, "matched")
    for _ in range(300):
        budget = TimingBudget(rng.uniform(10e-6, 2e-3), rng.uniform(0.0, 50e-6),
                              rng.uniform(1e-6, 10e-6), int(rng.integers(1, 5000)))
        m = matched_reference_count(budget)
        per_shot = budget.t_sense + budget.t_qlr
        rhs = budget.t_sense + budget.t_swap + budget.n_readouts * budget.t_qlr
        assert abs(m.count * per_shot - rhs) <= 0.5 * per_shot + 1e-15


# -------------------------------------------------------------- calibration

def test_calibration_noiseless_recovery():
    v = np.linspace(0.0, 0.15, 64)
    contrast = sinusoid_model(v, (0.01, 1.0 / 0.0670, 0.2, 0.001))
    result = calibrate_field(v, contrast, 1e6, 288)
    assert result.v_2pi == pytest.approx(0.0670, rel=1e-6)
    expected = b_ac_two_pi(1e6, 288, PhysicalConstants()) / 0.0670
    assert result.tesla_per_volt == pytest.approx(expected, rel=1e-6)


def test_calibration_against_reference_constant():
    v = np.linspace(0.0, 0.15, 64)
    clean = sinusoid_model(v, (0.01, 1.0 / 0.0670, 0.2, 0.001))
    rng = rng_stream(24, "calibration")
    noisy = clean + 0.01 * 0.01 * rng.standard_normal(len(v))
    result = calibrate_field(v, noisy, 1e6, 288, PhysicalConstants.nv_ensemble())
    assert result.tesla_per_volt == pytest.approx(5.806e-6, rel=0.005)


def test_calibration_scale_equivariance():
    v = np.linspace(0.0, 0.15, 64)
    contrast = sinusoid_model(v, (0.01, 1.0 / 0.0670, 0.2, 0.0))
    one = calibrate_field(v, contrast, 1e6, 288)
    two = calibrate_field(2.0 * v, contrast, 1e6, 288)
    assert two.v_2pi == pytest.approx(2.0 * one.v_2pi, rel=1e-6)
    assert two.tesla_per_volt == pytest.approx(0.5 * one.tesla_per_volt, rel=1e-6)


def test_calibration_preconditions():
    v = np.linspace(0.0, 0.15, 6)
    with pytest.raises(DomainError):
        calibrate_field(v, np.sin(v), 1e6, 288)
    v = np.linspace(0.0, 0.02, 32)  # less than one oscillation of V_2pi = 0.067
    contrast = sinusoid_model(v, (0.01, 1.0 / 0.0670, 0.2, 0.0))
    with pytest.raises(DomainError):
        calibrate_field(v, contrast, 1e6, 288)


# -------------------------------------------------------------- sensitivity

def test_ac_sensitivity_is_a_ratio():
    assert ac_sensitivity(1e-3, 1e3) == pytest.approx(1e-6)
    assert ac_sensitivity(1e-3 / math.sqrt(2), 1e3) == pytest.approx(
        ac_sensitivity(1e-3, 1e3) / math.sqrt(2))
    with pytest.raises(DomainError):
        ac_sensitivity(1e-3, 0.0)


# --------------------------------------------------------------- spectra

def test_periodogram_parseval():
    rng = rng_stream(25, "parseval")
    for n in (256, 255):
        x = rng.standard_normal(n)
        spectrum = periodogram(x, 0.5e-6)
        assert spectrum.total_power() == pytest.approx(float(np.var(x)), rel=1e-9)


def test_periodogram_bin_centered_tone():
    m, dt = 1024, 1e-6
    f = 40 / (m * dt)  # exactly at bin 40
    t = np.arange(m) * dt
    spectrum = periodogram(np.sin(2 * np.pi * f * t), dt)
    peak = int(np.argmax(spectrum.power))
    assert spectrum.frequencies[peak] == f
    assert spectrum.power[peak] >= 0.99 * np.sum(spectrum.power)
    freqs, _ = dominant_peaks(spectrum)
    assert freqs[0] == f


def test_periodogram_grid():
    spectrum = periodogram(np.arange(64.0), 2e-6)
    df = 1.0 / (64 * 2e-6)
    np.testing.assert_allclose(np.diff(spectrum.frequencies), df, rtol=1e-12)
    with pytest.raises(DomainError):
        periodogram([1.0], 1e-6)
    with pytest.raises(DomainError):
        periodogram([1.0, 2.0], 0.0)


def test_three_tone_resolution():
    m, dt = 3072, 0.48828125e-6
    t = np.arange(m) * dt
    tones = (0.998e6, 1.000e6, 1.002e6)
    rng = rng_stream(26, "three-tone")
    trace = sum(np.cos(2 * np.pi * f * t + 0.3 * i) for i, f in enumerate(tones))
    trace = trace + 0.05 * rng.standard_normal(m)
    spectrum = periodogram(trace, dt)
    freqs, powers = dominant_peaks(spectrum, 3)
    for f in tones:
        assert np.min(np.abs(np.sort(freqs) - f)) <= spectrum.df
    assert np.min(powers) > 10 * np.median(spectrum.power[1:])
