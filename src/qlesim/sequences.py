"""Pulse-sequence construction and AC phase accumulation.

Sequences are timed element lists.  Decoupling pi pulses are ideal
(zero duration), so the inter-pulse free evolution is implicit in the element
timing.
"""

import json
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

# element kinds
MW_PI_BROADBAND = "mw_pi_broadband"
MW_PI_HALF = "mw_pi_half"
KINDS = (MW_PI_BROADBAND, MW_PI_HALF)

# pi-pulse axes of one XY8 unit: X Y X Y Y X Y X
XY8_PHASES = (0.0, math.pi / 2, 0.0, math.pi / 2, math.pi / 2, 0.0, math.pi / 2, 0.0)


@dataclass(frozen=True)
class PulseElement:
    kind: str
    start_time: float
    duration: float = 0.0
    axis_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown pulse element kind {self.kind!r}")
        if self.start_time < 0:
            raise DomainError("element start_time must be nonnegative")
        if self.duration < 0:
            raise DomainError("element duration must be nonnegative")

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


@dataclass(frozen=True)
class PulseSequence:
    elements: tuple
    family: str
    pi_pulse_count: int
    total_duration: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown sequence family {self.family!r}")
        if not self.elements:
            raise DomainError("sequence must contain at least one element")
        if self.pi_pulse_count < 0:
            raise DomainError("pi_pulse_count must be nonnegative")
        if self.family == XY8 and self.pi_pulse_count % 8 != 0:
            raise DomainError("XY8 sequences need a multiple of 8 pi pulses")
        tol = 1e-12 * max(self.total_duration, 1e-12)
        previous_end = 0.0
        for element in self.elements:
            if element.start_time < previous_end - tol:
                raise DomainError("sequence elements overlap in time")
            previous_end = element.end_time
        last_end = max(e.end_time for e in self.elements)
        if abs(self.total_duration - last_end) > tol:
            raise DomainError("total_duration must equal the end time of the last element")

    def to_dict(self) -> dict:
        elements = [{"kind": e.kind, "start_time": e.start_time, "duration": e.duration,
                     "axis_phase": e.axis_phase} for e in self.elements]
        return {
            "family": self.family,
            "pi_pulse_count": self.pi_pulse_count,
            "total_duration": self.total_duration,
            "elements": elements,
        }

    def to_json(self, indent=None) -> str:
        """JSON document of the element list, times in seconds."""
        return json.dumps(self.to_dict(), indent=indent)


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
    """Sign function of one sensing window: starts at ``initial_sign`` at
    ``window_start`` and flips at every switch time."""

    switch_times: tuple
    window_start: float
    window_end: float
    initial_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "switch_times", tuple(float(t) for t in self.switch_times))
        if self.initial_sign not in (-1, 1):
            raise DomainError("initial_sign must be +1 or -1")
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
            self.initial_sign,
        )


def _dd_skeleton(n_pulses, tau, family, phases=None) -> PulseSequence:
    elements = [PulseElement(MW_PI_HALF, 0.0)]
    for i in range(n_pulses):
        phase = phases[i % len(phases)] if phases else 0.0
        elements.append(PulseElement(MW_PI_BROADBAND, (i + 0.5) * tau, axis_phase=phase))
    window = n_pulses * tau
    elements.append(PulseElement(MW_PI_HALF, window))
    return PulseSequence(tuple(elements), family, n_pulses, window)


def build_xy8(repetitions: int, tau: float) -> PulseSequence:
    """XY8 decoupling block: pi/2 - [8k pi pulses on X Y X Y Y X Y X axes,
    spacing tau, half-spacing at the edges] - pi/2."""
    if repetitions < 1:
        raise DomainError("repetitions must be at least 1")
    if tau <= 0:
        raise DomainError("tau must be positive")
    return _dd_skeleton(8 * repetitions, tau, XY8, XY8_PHASES)


def build_hahn(tau: float) -> PulseSequence:
    """Hahn echo: pi/2 - tau/2 - pi - tau/2 - pi/2."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    return _dd_skeleton(1, tau, HAHN)


def build_droid60(repetitions: int, tau: float, pulse_factor: float = 1.0) -> PulseSequence:
    """Interaction-decoupling block reduced to its toggling skeleton.

    The block is represented by round(48 * repetitions * pulse_factor)
    effective pi-pulse intervals of spacing tau; the family tag selects the
    uncapped T2 model downstream.  The default factor makes a 6-repetition
    block span 288 intervals, i.e. 144 us at tau = 0.5 us.
    """
    if repetitions < 1:
        raise DomainError("repetitions must be at least 1")
    if tau <= 0:
        raise DomainError("tau must be positive")
    n_pulses = round(48 * repetitions * pulse_factor)
    if n_pulses < 1:
        raise DomainError("pulse_factor too small: no effective pulses left")
    return _dd_skeleton(n_pulses, tau, DROID60)


def toggling_function(seq: PulseSequence) -> TogglingFunction:
    """Extract the +-1 toggling function of a single sensing window.

    The sequence must contain exactly two pi/2 markers; every broadband pi
    pulse between them contributes one sign flip at its center.  For a
    correlation measurement apply this to the block and shift it.
    """
    halves = [e for e in seq.elements if e.kind == MW_PI_HALF]
    if len(halves) != 2:
        raise DomainError("sequence does not contain a single sensing window "
                          "(need exactly two pi/2 pulses)")
    start, end = halves[0].start_time, halves[1].start_time
    if end <= start:
        raise DomainError("sensing window has nonpositive duration")
    switches = tuple(
        e.start_time + 0.5 * e.duration
        for e in seq.elements
        if e.kind == MW_PI_BROADBAND and start < e.start_time < end
    )
    if not switches:
        raise DomainError("sensing window contains no pi pulses")
    return TogglingFunction(switches, start, end)


def accumulated_phase(tf: TogglingFunction, signal: ACSignal,
                      constants: PhysicalConstants) -> float:
    """Sensing phase gamma_e * integral of B(t) s(t) dt over the window.

    Each tone is integrated in closed form on every constant-sign interval
    (int sin(w t + p) dt = -cos(w t + p)/w), so the only error left is
    floating-point rounding.
    """
    bounds = np.concatenate((
        [tf.window_start], np.asarray(tf.switch_times, dtype=float), [tf.window_end]))
    signs = tf.initial_sign * (-1.0) ** np.arange(len(bounds) - 1)
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
