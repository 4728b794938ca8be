"""Pulse sequences as toggling skeletons, and AC phase accumulation.

A decoupling sequence enters the model only through the toggling function of
its sensing window: pi/2 at t = 0, N ideal (zero-duration) pi pulses spaced
tau apart with half spacing at the edges, pi/2 at t = N tau.  A sequence is
therefore just its family, its pi-pulse count and tau; the sign flips sit at
(i + 1/2) tau in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import PhysicalConstants

# sequence families
XY8 = "XY8"
DROID60 = "DROID60"


@dataclass(frozen=True)
class PulseSequence:
    """One sensing window of ``pi_pulse_count`` pi pulses spaced ``tau`` apart."""

    family: str
    pi_pulse_count: int
    tau: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown sequence family {self.family!r}")
        if self.pi_pulse_count < 1:
            raise DomainError("a sequence needs at least 1 pi pulse")
        if self.family == XY8 and self.pi_pulse_count % 8 != 0:
            raise DomainError("XY8 sequences need a multiple of 8 pi pulses")
        if not self.tau > 0:
            raise DomainError("tau must be positive")

    @property
    def total_duration(self) -> float:
        return self.pi_pulse_count * self.tau


@dataclass(frozen=True)
class ACSignal:
    """Multi-tone AC test field, B(t) = sum_i A_i sin(2 pi f_i t + phase_i)."""

    tones: tuple  # of (amplitude_tesla, frequency_hz, phase_rad)

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(tuple(map(float, t)) for t in self.tones))
        for amplitude, frequency, _phase in self.tones:
            if amplitude < 0:
                raise DomainError("tone amplitudes must be nonnegative")
            if frequency <= 0:
                raise DomainError("tone frequencies must be positive")

    @classmethod
    def single(cls, amplitude, frequency, phase=0.0) -> "ACSignal":
        return cls(((amplitude, frequency, phase),))


def resonant_aligned_tone(amplitude, f0) -> ACSignal:
    """Tone at the pass frequency f0 = 1/(2 tau), phased so its zero crossings
    sit on the pi pulses of a window that starts at t = 0.  This is the
    alignment under which the 2-pi calibration amplitude holds."""
    return ACSignal(((amplitude, f0, math.pi / 2),))


@dataclass(frozen=True)
class TogglingFunction:
    """Sign function of one sensing window: +1 from ``window_start`` and
    flipping at every switch time."""

    switch_times: tuple
    window_start: float
    window_end: float

    def __post_init__(self):
        object.__setattr__(self, "switch_times", tuple(float(t) for t in self.switch_times))
        if self.window_end <= self.window_start:
            raise DomainError("sensing window must have positive duration")
        previous = self.window_start
        for t in self.switch_times:
            if not previous < t < self.window_end:
                raise DomainError("switch times must increase strictly inside the window")
            previous = t

    def shifted(self, offset: float) -> "TogglingFunction":
        """Same toggling pattern displaced by ``offset`` in absolute time."""
        return TogglingFunction(
            tuple(t + offset for t in self.switch_times),
            self.window_start + offset,
            self.window_end + offset,
        )


def build_xy8(repetitions: int, tau: float) -> PulseSequence:
    """XY8 decoupling block: pi/2 - [8k pi pulses, spacing tau, half-spacing
    at the edges] - pi/2."""
    if repetitions < 1:
        raise DomainError("repetitions must be at least 1")
    return PulseSequence(XY8, 8 * repetitions, tau)


def build_droid60(repetitions: int, tau: float) -> PulseSequence:
    """Interaction-decoupling block reduced to its toggling skeleton.

    The block is represented by 48 effective pi-pulse intervals of spacing
    tau per repetition; the family tag selects the uncapped T2 model
    downstream.  A 6-repetition block spans 288 intervals, i.e. 144 us at
    tau = 0.5 us.
    """
    if repetitions < 1:
        raise DomainError("repetitions must be at least 1")
    return PulseSequence(DROID60, 48 * repetitions, tau)


# every family a PulseSequence accepts, with the builder of its repeated block
FAMILIES = {XY8: build_xy8, DROID60: build_droid60}


def toggling_function(seq: PulseSequence) -> TogglingFunction:
    """The +-1 toggling function of the sequence's sensing window: one sign
    flip at the centre of each pi pulse.  For a correlation measurement apply
    this to the block and shift it."""
    switches = tuple((i + 0.5) * seq.tau for i in range(seq.pi_pulse_count))
    return TogglingFunction(switches, 0.0, seq.total_duration)


def _split(x):
    """Veltkamp split of a double into two halves of at most 26 bits each."""
    scaled = 134217729.0 * x   # 2**27 + 1
    high = scaled - (scaled - x)
    return high, x - high


def _turns(frequency, shift):
    """frequency * shift modulo 1, as a signed fraction of a turn.

    The product is first formed exactly as high + low (Dekker's two-product),
    so dropping the whole turns loses nothing and the fraction is accurate to
    ~1e-17 however long the shift.
    """
    high = frequency * shift
    f_high, f_low = _split(frequency)
    s_high, s_low = _split(shift)
    low = ((f_high * s_high - high) + f_high * s_low + f_low * s_high) + f_low * s_low
    return (high - np.rint(high)) + low


def accumulated_phase(tf: TogglingFunction, signal: ACSignal,
                      constants: PhysicalConstants, shift=0.0):
    """Sensing phase gamma_e * integral of B(t) s(t - shift) dt over the window
    displaced by ``shift``.

    Each tone is integrated in closed form on every constant-sign interval
    (int sin(w t + p) dt = -cos(w t + p)/w).  Summed over the window this is
    the real part of the tone's filter coefficient
    Z = sum_i s_i (e^{i(w b_i + p)} - e^{i(w b_{i+1} + p)}) / w, computed
    once; a shift only turns it, to Re(Z e^{i w shift}), with the turn taken
    modulo 2 pi exactly.  ``shift`` may be a float (the result is a float) or
    an array (an array of the same shape); at shift 0 the result is exactly
    Re(Z).
    """
    bounds = np.concatenate((
        [tf.window_start], np.asarray(tf.switch_times, dtype=float), [tf.window_end]))
    signs = (-1.0) ** np.arange(len(bounds) - 1)
    shift = np.asarray(shift, dtype=float)
    integral = np.zeros(shift.shape)
    # an overflow anywhere leaves a non-finite phase, which is raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for amplitude, frequency, phase in signal.tones:
            w = 2.0 * math.pi * frequency
            cos_b, sin_b = np.cos(w * bounds + phase), np.sin(w * bounds + phase)
            z_re = np.sum(signs * (cos_b[:-1] - cos_b[1:]))
            z_im = np.sum(signs * (sin_b[:-1] - sin_b[1:]))
            turn = 2.0 * math.pi * _turns(frequency, shift)
            integral = integral + amplitude * (z_re * np.cos(turn) - z_im * np.sin(turn)) / w
        result = constants.gamma_e * integral
    if not np.all(np.isfinite(result)):
        raise DomainError("the sensing phase overflows; tone frequency or shift too large")
    return float(result) if result.ndim == 0 else result


def b_ac_two_pi(f0: float, n_pulses: int, constants: PhysicalConstants) -> float:
    """Field amplitude (tesla) of the aligned resonant tone that accumulates
    2 pi of phase over n_pulses intervals: 2 hbar pi^2 f0 / (g mu_B N)."""
    if f0 <= 0:
        raise DomainError("f0 must be positive")
    if n_pulses < 1:
        raise DomainError("n_pulses must be at least 1")
    return 2.0 * constants.hbar * math.pi ** 2 * f0 / (constants.g * constants.mu_b * n_pulses)
