"""Physical constants and the parameter set describing the NV ensemble sensor."""

import math
from dataclasses import dataclass, fields

from .errors import DomainError

# CODATA 2018
HBAR = 1.054571817e-34            # J s
BOHR_MAGNETON = 9.2740100783e-24  # J / T

# Electronic g-factor of the NV- ground state. The default constants use the
# free-spin value 2.0; field calibrations that should match the NV value can
# use PhysicalConstants.nv_ensemble() instead.
NV_G_FACTOR = 2.003

# 15N hyperfine splitting of the NV ground state, Hz. Literature value; it only
# places the ODMR line positions and is not anchored to any measurement that
# the rest of the model reproduces.
N15_HYPERFINE_HZ = 3.03e6


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the field-to-phase conversion."""

    g: float = 2.0
    mu_b: float = BOHR_MAGNETON
    hbar: float = HBAR

    def __post_init__(self):
        if self.g <= 0 or self.mu_b <= 0 or self.hbar <= 0:
            raise DomainError("physical constants must be positive")

    @property
    def gamma_e(self) -> float:
        """Electron gyromagnetic ratio g * mu_B / hbar, in rad s^-1 T^-1."""
        return self.g * self.mu_b / self.hbar

    @classmethod
    def nv_ensemble(cls) -> "PhysicalConstants":
        """Constants with the NV electronic g-factor instead of the free-spin 2.0."""
        return cls(g=NV_G_FACTOR)


@dataclass(frozen=True)
class SensorEnsembleParams:
    """Sample, timing and readout parameters of the two-qubit ensemble sensor.

    Durations are in seconds and ``bias_field`` is in gauss, matching how the
    relaxation models are parametrized.  The contrast and photon budget are
    free instrument parameters; everything else defaults to the operating
    point of the reference experiment.
    """

    bias_field: float = 3700.0            # G
    contrast_c0: float = 0.01             # peak fluorescence contrast
    photons_per_readout: float = 1.0e6    # expected photons per optical readout
    swap_fidelity: float = 0.93           # end-to-end polarization transfer
    repolarization_fraction: float = 0.75  # electron reset fraction per t_op of light
    t_op: float = 3.0e-6                  # optical pulse length
    t_swap: float = 16.5e-6               # CNOT pair encoding the memory
    t_qlr: float = 3.0e-6                 # one quantum-logic readout cycle
    t2_star: float = 600e-9
    n_density_ppm: float = 14.0
    hyperfine_splitting: float = N15_HYPERFINE_HZ  # Hz

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite")
        for name in ("t_op", "t_swap", "t_qlr", "t2_star"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        for name in ("swap_fidelity", "repolarization_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.contrast_c0 <= 1.0:
            raise DomainError("contrast_c0 must lie in (0, 1]")
        for name in ("bias_field", "photons_per_readout",
                     "n_density_ppm", "hyperfine_splitting"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.t_qlr < self.t_op:
            raise DomainError("t_qlr must be at least t_op "
                              "(a readout cycle contains its optical pulse)")

    @property
    def readout_sigma(self) -> float:
        """Shot-noise width of one readout's contrast, contrast_c0 / sqrt(photons)."""
        return self.contrast_c0 / math.sqrt(self.photons_per_readout)
