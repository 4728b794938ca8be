"""Phenomenological relaxation and decoherence models."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sequences import DROID60, HAHN, XY8


def _lifetime(name, evaluate):
    """``evaluate()``, a lifetime (or the scale of one), checked to be
    positive and finite.

    Python raises OverflowError for a float power past ~1e308 and
    ZeroDivisionError for a quotient by an underflowed power; both count as an
    infinite lifetime, which is then a DomainError like a zero one.
    """
    try:
        value = evaluate()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} is {value:g}; it must be positive and finite")
    return value


def stretched_exp(t, t1, beta):
    """exp(-(t/t1)**beta).  ``t`` may be a scalar or an array."""
    if t1 <= 0:
        raise DomainError("t1 must be positive")
    if not 0.0 < beta <= 2.0:
        raise DomainError("beta must lie in (0, 2]")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("t must be nonnegative")
    out = np.exp(-((t / t1) ** beta))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NuclearT1Model:
    """Nuclear memory lifetime versus bias field and illumination power.

    T1(B) = t1_ref * (B / field_ref)**field_exponent   (B in gauss, result in s)
    T1(P) = (laser_a * P**-laser_b + laser_c) us       (P in mW)

    Decay curves under illumination follow exp(-(t/T1)**stretch_beta).
    """

    t1_ref: float = 3.44e-3
    field_ref: float = 3700.0
    field_exponent: float = 2.0
    laser_a: float = 4.003e4
    laser_b: float = 0.5154
    laser_c: float = 111.0
    stretch_beta: float = 1.0

    def __post_init__(self):
        if self.t1_ref <= 0 or self.field_ref <= 0:
            raise DomainError("anchor point must be positive")
        if self.field_exponent <= 0:
            raise DomainError("field_exponent must be positive")
        if self.laser_a <= 0 or self.laser_b <= 0 or self.laser_c < 0:
            raise DomainError("laser model parameters out of range")
        if not 0.0 < self.stretch_beta <= 2.0:
            raise DomainError("stretch_beta must lie in (0, 2]")
        self.field_prefactor  # raises unless positive and finite

    @property
    def field_prefactor(self) -> float:
        """T1 / B**field_exponent, so the power law passes through the anchor."""
        return _lifetime("t1_ref / field_ref**field_exponent",
                         lambda: self.t1_ref / self.field_ref ** self.field_exponent)


def nuclear_t1_vs_field(model: NuclearT1Model, b: float) -> float:
    """Memory lifetime at bias field ``b`` (gauss), in seconds."""
    if b <= 0:
        raise DomainError("bias field must be positive")
    return _lifetime(f"nuclear T1 at {b:g} G",
                     lambda: model.field_prefactor * b ** model.field_exponent)


def nuclear_t1_vs_laser(model: NuclearT1Model, power_mw: float) -> float:
    """Memory lifetime under illumination at ``power_mw`` (mW), in seconds."""
    if power_mw <= 0:
        raise DomainError("laser power must be positive")
    return _lifetime(f"nuclear T1 at {power_mw:g} mW",
                     lambda: (model.laser_a * power_mw ** (-model.laser_b) + model.laser_c) * 1e-6)


@dataclass(frozen=True)
class ElectronCoherenceModel:
    """Electron T2 versus decoupling family and pi-pulse count.

    T2 grows from the Hahn anchor as n**scaling_exponent.  XY8 is capped at
    t2_xy8_sat (like-spin interactions the sequence cannot decouple);
    DROID-type sequences are not, unless droid_unbounded is cleared.
    """

    t2_hahn: float = 14.5e-6
    t2_xy8_sat: float = 28e-6
    scaling_exponent: float = 2.0 / 3.0
    droid_unbounded: bool = True
    decay_stretch: float = 1.0   # stretch exponent of the coherence envelope

    def __post_init__(self):
        if not (0.0 < self.t2_hahn < math.inf and 0.0 < self.t2_xy8_sat < math.inf):
            raise DomainError("coherence times must be positive and finite")
        if self.scaling_exponent < 0:
            raise DomainError("scaling_exponent must be nonnegative")
        if not 0.0 < self.decay_stretch <= 2.0:
            raise DomainError("decay_stretch must lie in (0, 2]")


def electron_t2(model: ElectronCoherenceModel, family: str, n_pulses: int) -> float:
    """Electron coherence time for a decoupling family at a pi-pulse budget."""
    if n_pulses < 1:
        raise DomainError("n_pulses must be at least 1")
    if family == HAHN:
        return model.t2_hahn
    scaled = _lifetime(f"electron T2 at {n_pulses} pulses",
                       lambda: model.t2_hahn * n_pulses ** model.scaling_exponent)
    if family == XY8:
        return min(scaled, model.t2_xy8_sat)
    if family == DROID60:
        return scaled if model.droid_unbounded else min(scaled, model.t2_xy8_sat)
    raise DomainError(f"no coherence model for sequence family {family!r}")


def decoherence_factor(model: ElectronCoherenceModel, family: str,
                       n_pulses: int, t_sense: float) -> float:
    """Coherence left after a sensing window: exp(-(t_sense/T2)**decay_stretch)."""
    if t_sense < 0:
        raise DomainError("t_sense must be nonnegative")
    t2 = electron_t2(model, family, n_pulses)
    return stretched_exp(t_sense, t2, model.decay_stretch)


def project_t2_for_density(t2_ref: float, n_ppm_ref: float, n_ppm_new):
    """Scale a coherence time to a new nitrogen density, T2 proportional to 1/[N].
    Broadcasts over an array of new densities."""
    if t2_ref <= 0:
        raise DomainError("t2_ref must be positive")
    if n_ppm_ref <= 0 or np.any(np.asarray(n_ppm_new) <= 0):
        raise DomainError("densities must be positive")
    return t2_ref * (n_ppm_ref / n_ppm_new)
