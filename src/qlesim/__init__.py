"""Quantum-logic-enhanced NV-ensemble sensing: simulator and analysis toolkit."""

__version__ = "0.1.0"

from . import errors
from .params import PhysicalConstants, SensorEnsembleParams
from .state import (QuantumState, apply_cnot_e_given_n, apply_cnot_n_given_e,
                    apply_optical_pulse, apply_sensing_phase, apply_swap,
                    from_populations, initial_state)
from .sequences import (ACSignal, PulseSequence, TogglingFunction, accumulated_phase,
                        b_ac_two_pi, build_droid60, build_xy8,
                        resonant_aligned_tone, toggling_function)
from .noise import (ElectronCoherenceModel, NuclearT1Model, decoherence_factor,
                    electron_t2, nuclear_t1_vs_field, nuclear_t1_vs_laser,
                    project_t2_for_density, stretched_exp)
from .fitting import (FitResult, fit_power_function, fit_sinusoid,
                      fit_stretched_exponential)
from .analysis import (EnhancementMap, ReadoutSeries, Spectrum, TimingBudget,
                       ac_sensitivity, calibrate_field, dominant_peaks, eta_map,
                       eta_qle, exponential_snr_curve, matched_reference_count,
                       optimal_snr, periodogram, snr_enhancement, weighted_snr)
from .rng import rng_stream
from .config import ExperimentConfig, default_config, load_config, parse_config
from .runner import RunManifest, run_scenario
