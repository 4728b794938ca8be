import math

import mpmath
import numpy as np
import pytest

from qlesim import (ACSignal, PhysicalConstants, accumulated_phase, b_ac_two_pi,
                    build_droid60, build_xy8, resonant_aligned_tone,
                    toggling_function)
from qlesim.errors import DomainError
from qlesim.sequences import DROID60, XY8, PulseSequence, TogglingFunction

CONSTANTS = PhysicalConstants()


# -------------------------------------------------------------- builders

def test_xy8_six_repetitions():
    seq = build_xy8(6, 0.5e-6)
    assert seq.pi_pulse_count == 48
    assert seq.total_duration == pytest.approx(24e-6, rel=1e-12)


def test_xy8_single_repetition():
    seq = build_xy8(1, 1e-6)
    assert seq.pi_pulse_count == 8
    assert seq.total_duration == pytest.approx(8e-6, rel=1e-12)


def test_xy8_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_xy8(0, 1e-6)
    with pytest.raises(DomainError):
        build_xy8(1, 0.0)


def test_droid60_durations():
    seq = build_droid60(6, 0.5e-6)
    assert seq.total_duration == pytest.approx(144e-6, rel=1e-12)
    assert seq.pi_pulse_count == 288  # 144 us / 0.5 us effective intervals
    assert build_droid60(1, 0.5e-6).total_duration == pytest.approx(24e-6, rel=1e-12)
    assert build_droid60(1, 0.5e-6).pi_pulse_count == 48
    with pytest.raises(DomainError):
        build_droid60(0, 0.5e-6)


# ------------------------------------------------------- toggling function

def test_toggling_switches_at_odd_half_multiples():
    tau = 1e-6
    tf = toggling_function(build_xy8(1, tau))
    expected = [(k + 0.5) * tau for k in range(8)]
    assert tf.switch_times == tuple(expected)
    assert (tf.window_start, tf.window_end) == (0.0, pytest.approx(8 * tau))


def test_single_pulse_toggles_at_midpoint():
    tf = toggling_function(PulseSequence(DROID60, 1, 10e-6))
    assert len(tf.switch_times) == 1
    assert tf.switch_times[0] == pytest.approx(5e-6)


@pytest.mark.parametrize("seq", [build_xy8(3, 0.7e-6), build_droid60(2, 0.4e-6),
                                 PulseSequence(DROID60, 1, 5e-6)])
def test_switch_count_equals_pi_pulse_count(seq):
    assert len(toggling_function(seq).switch_times) == seq.pi_pulse_count


def test_toggling_shift():
    tf = toggling_function(build_xy8(1, 1e-6)).shifted(5e-6)
    assert tf.window_start == pytest.approx(5e-6)
    assert tf.switch_times[0] == pytest.approx(5.5e-6)


# ------------------------------------------------------ phase accumulation

def test_zero_amplitude_gives_zero_phase():
    tf = toggling_function(build_xy8(2, 0.5e-6))
    assert accumulated_phase(tf, ACSignal.single(0.0, 1e6), CONSTANTS) == 0.0


@pytest.mark.parametrize("seq,n", [(build_xy8(6, 0.5e-6), 48),
                                   (build_droid60(6, 0.5e-6), 288),
                                   (build_xy8(1, 0.5e-6), 8)])
def test_resonant_tone_matches_closed_form(seq, n):
    f0 = 1.0 / (2 * 0.5e-6)
    b = 0.2e-6
    phi = accumulated_phase(toggling_function(seq), resonant_aligned_tone(b, f0), CONSTANTS)
    closed_form = CONSTANTS.gamma_e * b * n / (math.pi * f0)
    assert phi == pytest.approx(closed_form, rel=1e-9)


@pytest.mark.parametrize("n,seq", [(8, build_xy8(1, 0.5e-6)),
                                   (48, build_xy8(6, 0.5e-6)),
                                   (288, build_droid60(6, 0.5e-6))])
def test_two_pi_amplitude_accumulates_two_pi(n, seq):
    f0 = 1e6
    b = b_ac_two_pi(f0, n, CONSTANTS)
    phi = accumulated_phase(toggling_function(seq), resonant_aligned_tone(b, f0), CONSTANTS)
    assert phi == pytest.approx(2 * math.pi, rel=1e-9)


def test_phase_is_linear_in_amplitude():
    tf = toggling_function(build_xy8(4, 0.6e-6))
    signal = ACSignal.single(1e-7, 0.93e6, 0.4)
    scaled = ACSignal.single(3.7e-7, 0.93e6, 0.4)
    assert accumulated_phase(tf, scaled, CONSTANTS) == pytest.approx(
        3.7 * accumulated_phase(tf, signal, CONSTANTS), rel=1e-12)


def test_off_resonant_half_frequency_tone_is_rejected():
    tau = 0.5e-6
    tf = toggling_function(build_xy8(6, tau))  # N tau f = 12, integer
    reference = accumulated_phase(tf, resonant_aligned_tone(1e-7, 1.0 / (2 * tau)), CONSTANTS)
    for phase in (0.0, 0.7, math.pi / 2):
        off = accumulated_phase(tf, ACSignal(((1e-7, 1.0 / (4 * tau), phase),)), CONSTANTS)
        assert abs(off) < 1e-6 * abs(reference)


def test_phase_matches_dense_quadrature_oracle():
    tf = toggling_function(build_xy8(6, 0.5e-6))
    rng = np.random.default_rng(7)
    tones = tuple(
        (rng.uniform(0.2, 1.5) * 1e-7, rng.uniform(0.7e6, 1.3e6), rng.uniform(0, 2 * math.pi))
        for _ in range(3))
    phi = accumulated_phase(tf, ACSignal(tones), CONSTANTS)
    bounds = np.concatenate(([tf.window_start], np.asarray(tf.switch_times), [tf.window_end]))
    signs = (-1.0) ** np.arange(len(bounds) - 1)
    total = 0.0
    for j in range(len(bounds) - 1):
        t = np.linspace(bounds[j], bounds[j + 1], 8001)
        field = sum(a * np.sin(2 * math.pi * f * t + p) for a, f, p in tones)
        total += signs[j] * np.trapezoid(field, t)
    assert phi == pytest.approx(CONSTANTS.gamma_e * total, rel=1e-6)


def test_phase_accumulation_multi_tone_is_sum_of_tones():
    tf = toggling_function(build_xy8(2, 0.5e-6))
    tones = ((1e-7, 0.99e6, 0.1), (2e-7, 1.01e6, 1.2))
    combined = accumulated_phase(tf, ACSignal(tones), CONSTANTS)
    separate = sum(accumulated_phase(tf, ACSignal((t,)), CONSTANTS) for t in tones)
    assert combined == pytest.approx(separate, rel=1e-12)


# ------------------------------------------------ shifted windows, closed form

def _random_signal(rng, n_tones):
    """Tones inside the pass band of XY8 at tau = 0.5 us, ~0.5 rad each."""
    return ACSignal(tuple(
        (rng.uniform(1.0, 2.0) * 1e-7, rng.uniform(0.99e6, 1.01e6), rng.uniform(0, 2 * math.pi))
        for _ in range(n_tones)))


@pytest.mark.parametrize("n_tones", [1, 2, 3])
def test_shifted_phase_matches_the_shifted_window(n_tones):
    rng = np.random.default_rng(n_tones)
    tf = toggling_function(build_xy8(6, 0.5e-6))
    signal = _random_signal(rng, n_tones)
    shifts = np.append(rng.uniform(0.0, 1.5e-3, 63), 1.5e-3)
    closed = accumulated_phase(tf, signal, CONSTANTS, shift=shifts)
    windows = [accumulated_phase(tf.shifted(s), signal, CONSTANTS) for s in shifts]
    # largest phase the tones can give; rounding the shifted windows' ~1e4 rad
    # cosine arguments costs up to ~1e-12 of it
    scale = CONSTANTS.gamma_e * sum(a for a, _, _ in signal.tones) * tf.window_end
    np.testing.assert_allclose(closed, windows, rtol=0, atol=1e-11 * scale)


def test_array_shift_equals_its_scalar_calls():
    tf = toggling_function(build_xy8(6, 0.5e-6))
    signal = _random_signal(np.random.default_rng(5), 3)
    shifts = 24e-6 + np.linspace(0.0, 1.5e-3, 97)
    array = accumulated_phase(tf, signal, CONSTANTS, shift=shifts)
    scalars = [accumulated_phase(tf, signal, CONSTANTS, shift=float(s)) for s in shifts]
    assert array.shape == shifts.shape and all(type(s) is float for s in scalars)
    assert np.array_equal(array, scalars)
    unshifted = accumulated_phase(tf, signal, CONSTANTS)
    assert np.array_equal(accumulated_phase(tf, signal, CONSTANTS, shift=np.zeros(3)),
                          [unshifted] * 3)


def test_shifted_phase_matches_40_digit_oracle():
    """The turn e^{i w shift} is reduced modulo 2 pi exactly, so the phase
    stays at the rounding of the window's own ~150 rad arguments however long
    the shift.  Taking the turn as the rounded product w * shift would leave
    errors of ~1e-12 rad at 1.5 ms."""
    tf = toggling_function(build_xy8(6, 0.5e-6))
    rng = np.random.default_rng(11)
    signal = _random_signal(rng, 3)
    shifts = np.append(rng.uniform(0.0, 1.5e-3, 39), 1.5e-3)
    phases = accumulated_phase(tf, signal, CONSTANTS, shift=shifts)
    bounds = [tf.window_start, *tf.switch_times, tf.window_end]
    with mpmath.workdps(40):
        for shift, phase in zip(shifts, phases):
            total = mpmath.mpf(0)
            for amplitude, frequency, tone_phase in signal.tones:
                w = 2 * mpmath.pi * frequency
                ends = [mpmath.cos(w * (mpmath.mpf(b) + float(shift)) + tone_phase)
                        for b in bounds]
                total += amplitude * mpmath.fsum(
                    (-1) ** i * (ends[i] - ends[i + 1]) for i in range(len(ends) - 1)) / w
            assert abs(float(phase) - CONSTANTS.gamma_e * total) < 1e-13


# ----------------------------------------------------------- calibration

def test_b_ac_two_pi_reference_values():
    # oracle form: pi * h * f0 / (g mu_B N), h the (exact) Planck constant
    h = 6.62607015e-34
    oracle = math.pi * h * 1e6 / (2.0 * 9.2740100783e-24 * 48)
    assert b_ac_two_pi(1e6, 48, CONSTANTS) == pytest.approx(oracle, rel=1e-12)
    assert b_ac_two_pi(1e6, 48, CONSTANTS) == pytest.approx(2.338e-6, abs=0.5e-9)
    # NV g-factor constants land on the 0.3891 uT reference amplitude
    nv = PhysicalConstants.nv_ensemble()
    assert round(b_ac_two_pi(1e6, 288, nv) * 1e6, 4) == 0.3891


def test_b_ac_two_pi_scales_inversely_with_n():
    one = b_ac_two_pi(1e6, 144, CONSTANTS)
    two = b_ac_two_pi(1e6, 288, CONSTANTS)
    assert one == 2.0 * two
    with pytest.raises(DomainError):
        b_ac_two_pi(0.0, 8, CONSTANTS)
    with pytest.raises(DomainError):
        b_ac_two_pi(1e6, 0, CONSTANTS)


# ------------------------------------------------------------- validation

def test_sequence_validation():
    assert PulseSequence(XY8, 16, 1e-6).total_duration == 16 * 1e-6
    with pytest.raises(DomainError):
        PulseSequence("CPMG", 8, 1e-6)  # unknown family
    with pytest.raises(DomainError):
        PulseSequence(DROID60, 0, 1e-6)
    with pytest.raises(DomainError):
        PulseSequence(XY8, 12, 1e-6)  # not a multiple of 8
    for tau in (0.0, -1e-6):
        with pytest.raises(DomainError):
            PulseSequence(DROID60, 48, tau)


def test_toggling_function_validation():
    with pytest.raises(DomainError):
        TogglingFunction((1.5,), 0.0, 1.0)  # switch outside window
    with pytest.raises(DomainError):
        TogglingFunction((0.6, 0.4), 0.0, 1.0)  # not increasing


def test_acsignal_validation():
    with pytest.raises(DomainError):
        ACSignal(((-1e-7, 1e6, 0.0),))
    with pytest.raises(DomainError):
        ACSignal(((1e-7, 0.0, 0.0),))
