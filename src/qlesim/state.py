"""Four-level model of one electron-nuclear sensor pair.

Basis order is [|dn_e dn_n>, |dn_e up_n>, |up_e dn_n>, |up_e up_n>], i.e. the
electron qubit (two addressed ground-state sublevels) tensored with the
nuclear memory spin.

Every protocol op a scenario uses acts linearly on the four populations, so
each is defined once, as a column-stochastic 4x4 population map
(``cnot_e_given_n_map``, ``swap_map``, ``optical_map``, ``sensing_map``).
The maps broadcast over batches: ``optical_map`` and ``sensing_map`` take
arrays and return ``(..., 4, 4)`` stacks that act on ``(..., 4)`` population
arrays by matrix product.

``QuantumState`` is the validated boundary type: an immutable 4x4 density
matrix checked for Hermiticity, unit trace and positivity on construction.
The ``apply_*`` functions take and return ``QuantumState``s.  The optical
pulse and the sensing block are thin wrappers over their maps; the CNOTs and
the swap stay at the density-matrix level, because they keep coherences.
Inputs are never mutated.
"""

import math

import numpy as np

from .errors import DomainError, InvalidStateError
from .noise import stretched_exp
from .params import SensorEnsembleParams

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
MIN_EIGENVALUE = -1e-10

_DIM = 4

# populations of the optically polarized start: electron down, nucleus mixed
INITIAL_POPULATIONS = np.array([0.5, 0.5, 0.0, 0.0])
INITIAL_POPULATIONS.setflags(write=False)
# electron down-minus-up population difference as a linear form
ELECTRON_EXCESS = np.array([1.0, 1.0, -1.0, -1.0])
ELECTRON_EXCESS.setflags(write=False)


class QuantumState:
    """Validated, immutable 4x4 density matrix."""

    __slots__ = ("rho",)

    def __init__(self, rho):
        rho = np.array(rho, dtype=complex)
        if rho.shape != (_DIM, _DIM):
            raise InvalidStateError(f"density matrix must be 4x4, got shape {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) >= HERMITICITY_TOL:
            raise InvalidStateError("density matrix is not Hermitian")
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) >= TRACE_TOL:
            raise InvalidStateError(f"density matrix trace is {trace}, not 1")
        if float(np.linalg.eigvalsh(rho)[0]) <= MIN_EIGENVALUE:
            raise InvalidStateError("density matrix has a negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumState is immutable")

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho)).copy()

    def electron_excess(self) -> float:
        """Electron down-minus-up population difference."""
        return float(self.populations() @ ELECTRON_EXCESS)

    def nuclear_polarization(self) -> float:
        """Nuclear down-minus-up population difference."""
        p = self.populations()
        return float(p[0] + p[2] - p[1] - p[3])


def from_populations(populations) -> QuantumState:
    """Diagonal (coherence-free) state with the given populations."""
    return QuantumState(np.diag(np.asarray(populations, dtype=complex)))


def _as_state(state) -> QuantumState:
    return state if isinstance(state, QuantumState) else QuantumState(state)


def _swap_levels(i, j) -> np.ndarray:
    u = np.eye(_DIM, dtype=complex)
    u[[i, j]] = u[[j, i]]
    return u


# selective MW pi pulse: flips the electron within the nuclear-up manifold
_CNOT_E_GIVEN_N = _swap_levels(1, 3)
# RF pi pulse: flips the nucleus within the electron-up manifold
_CNOT_N_GIVEN_E = _swap_levels(2, 3)


def initial_state() -> QuantumState:
    """Optically polarized start: electron down, nucleus maximally mixed."""
    return from_populations(INITIAL_POPULATIONS)


def _check_fidelity(fidelity):
    if not 0.0 <= fidelity <= 1.0:
        raise DomainError("gate fidelity must lie in [0, 1]")


def _mixed_unitary(state: QuantumState, u: np.ndarray, fidelity: float) -> QuantumState:
    _check_fidelity(fidelity)
    rho = state.rho
    return QuantumState(fidelity * (u @ rho @ u.conj().T) + (1.0 - fidelity) * rho)


def _mixed_map(u: np.ndarray, fidelity: float) -> np.ndarray:
    """Population map of ``_mixed_unitary``: |u_ij|^2 mixed with the identity."""
    _check_fidelity(fidelity)
    return fidelity * np.abs(u) ** 2 + (1.0 - fidelity) * np.eye(_DIM)


def cnot_e_given_n_map(fidelity: float = 1.0) -> np.ndarray:
    """Population map of ``apply_cnot_e_given_n``."""
    return _mixed_map(_CNOT_E_GIVEN_N, fidelity)


def swap_map(params: SensorEnsembleParams) -> np.ndarray:
    """Population map of ``apply_swap``."""
    f = math.sqrt(params.swap_fidelity)
    return _mixed_map(_CNOT_N_GIVEN_E, f) @ _mixed_map(_CNOT_E_GIVEN_N, f)


def optical_map(duration, params: SensorEnsembleParams, t1_nuclear: float,
                stretch_beta: float = 1.0) -> np.ndarray:
    """Population map of optical pumping for ``duration`` seconds.

    The electron-up population decays toward down with survival
    (1 - repolarization_fraction)**(duration / t_op); then, within each
    electron manifold, the stored nuclear polarization shrinks by the
    stretched-exponential factor with lifetime ``t1_nuclear``.  ``duration``
    may be an array; the result then has shape ``duration.shape + (4, 4)``.
    """
    duration = np.asarray(duration, dtype=float)
    if not np.all(duration >= 0):
        raise DomainError("pulse duration must be nonnegative")
    if t1_nuclear <= 0:
        raise DomainError("t1_nuclear must be positive")
    survive = (1.0 - params.repolarization_fraction) ** (duration / params.t_op)
    keep = np.asarray(stretched_exp(duration, t1_nuclear, stretch_beta))
    reset = np.zeros(duration.shape + (_DIM, _DIM))
    reset[..., [0, 1], [0, 1]] = 1.0
    reset[..., [0, 1], [2, 3]] = (1.0 - survive)[..., None]
    reset[..., [2, 3], [2, 3]] = survive[..., None]
    memory = np.zeros(duration.shape + (_DIM, _DIM))
    memory[..., [0, 1, 2, 3], [0, 1, 2, 3]] = (0.5 + 0.5 * keep)[..., None]
    memory[..., [0, 1, 2, 3], [1, 0, 3, 2]] = (0.5 - 0.5 * keep)[..., None]
    return memory @ reset


def sensing_map(excess) -> np.ndarray:
    """Population map of an interferometry block that leaves the electron
    down-minus-up difference at ``excess`` and the nuclear marginal untouched.
    ``excess`` may be an array; the result then has shape
    ``excess.shape + (4, 4)``."""
    excess = np.asarray(excess, dtype=float)
    if not np.all(np.abs(excess) <= 1.0):
        raise DomainError("electron excess must lie in [-1, 1]")
    out = np.zeros(excess.shape + (_DIM, _DIM))
    out[..., [0, 0, 1, 1], [0, 2, 1, 3]] = (0.5 * (1.0 + excess))[..., None]
    out[..., [2, 2, 3, 3], [0, 2, 1, 3]] = (0.5 * (1.0 - excess))[..., None]
    return out


def apply_cnot_e_given_n(state, fidelity: float = 1.0) -> QuantumState:
    """CNOT on the electron conditioned on the nucleus: with probability
    ``fidelity`` swaps |dn_e up_n> and |up_e up_n>, otherwise acts as identity
    (convex mixture of unitary and identity)."""
    return _mixed_unitary(_as_state(state), _CNOT_E_GIVEN_N, fidelity)


def apply_cnot_n_given_e(state, fidelity: float = 1.0) -> QuantumState:
    """CNOT on the nucleus conditioned on the electron: swaps |up_e up_n> and
    |up_e dn_n> with probability ``fidelity``."""
    return _mixed_unitary(_as_state(state), _CNOT_N_GIVEN_E, fidelity)


def apply_swap(state, params: SensorEnsembleParams) -> QuantumState:
    """Encode the electron polarization onto the nuclear memory spin.

    Runs CNOT_e|n then CNOT_n|e at per-gate fidelity sqrt(swap_fidelity), which
    makes the end-to-end polarization transfer equal params.swap_fidelity.
    """
    f = math.sqrt(params.swap_fidelity)
    return apply_cnot_n_given_e(apply_cnot_e_given_n(state, f), f)


def apply_optical_pulse(state, duration: float, params: SensorEnsembleParams,
                        t1_nuclear: float, stretch_beta: float = 1.0) -> QuantumState:
    """Optical pumping for ``duration`` seconds (see ``optical_map``).

    Pumping is incoherent, so every coherence is destroyed; a zero duration
    returns the state unchanged.
    """
    state = _as_state(state)
    pump = optical_map(duration, params, t1_nuclear, stretch_beta)
    if duration == 0:
        return state
    return from_populations(pump @ state.populations())


def apply_sensing_phase(state, phi: float, decoherence_factor: float) -> QuantumState:
    """Collapse a full interferometry block into its population signal.

    After the closing pi/2 pulse the electron down-minus-up population
    difference is cos(phi) * decoherence_factor; the nuclear marginal is
    untouched and the output carries no coherences.
    """
    state = _as_state(state)
    if not 0.0 <= decoherence_factor <= 1.0:
        raise DomainError("decoherence_factor must lie in [0, 1]")
    block = sensing_map(math.cos(phi) * decoherence_factor)
    return from_populations(block @ state.populations())
