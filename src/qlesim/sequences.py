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
HAHN = "HAHN"
FAMILIES = (XY8, DROID60, HAHN)


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


def build_hahn(tau: float) -> PulseSequence:
    """Hahn echo: pi/2 - tau/2 - pi - tau/2 - pi/2."""
    return PulseSequence(HAHN, 1, tau)


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


def toggling_function(seq: PulseSequence) -> TogglingFunction:
    """The +-1 toggling function of the sequence's sensing window: one sign
    flip at the centre of each pi pulse.  For a correlation measurement apply
    this to the block and shift it."""
    switches = tuple((i + 0.5) * seq.tau for i in range(seq.pi_pulse_count))
    return TogglingFunction(switches, 0.0, seq.total_duration)


def accumulated_phase(tf: TogglingFunction, signal: ACSignal,
                      constants: PhysicalConstants) -> float:
    """Sensing phase gamma_e * integral of B(t) s(t) dt over the window.

    Each tone is integrated in closed form on every constant-sign interval
    (int sin(w t + p) dt = -cos(w t + p)/w), so the only error left is
    floating-point rounding.
    """
    bounds = np.concatenate((
        [tf.window_start], np.asarray(tf.switch_times, dtype=float), [tf.window_end]))
    signs = (-1.0) ** np.arange(len(bounds) - 1)
    integral = 0.0
    for amplitude, frequency, phase in signal.tones:
        w = 2.0 * math.pi * frequency
        c = np.cos(w * bounds + phase)
        integral += amplitude * float(np.sum(signs * (c[:-1] - c[1:]))) / w
    return constants.gamma_e * integral


def b_ac_two_pi(f0: float, n_pulses: int, constants: PhysicalConstants) -> float:
    """Field amplitude (tesla) of the aligned resonant tone that accumulates
    2 pi of phase over n_pulses intervals: 2 hbar pi^2 f0 / (g mu_B N)."""
    if f0 <= 0:
        raise DomainError("f0 must be positive")
    if n_pulses < 1:
        raise DomainError("n_pulses must be at least 1")
    return 2.0 * constants.hbar * math.pi ** 2 * f0 / (constants.g * constants.mu_b * n_pulses)
