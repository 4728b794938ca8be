import math

import numpy as np
import pytest

from qlesim import (QuantumState, SensorEnsembleParams, apply_cnot_e_given_n,
                    apply_cnot_n_given_e, apply_optical_pulse, apply_sensing_phase,
                    apply_swap, from_populations, initial_state, rng_stream)
from qlesim.errors import DomainError, InvalidStateError

PARAMS = SensorEnsembleParams()


def assert_state_close(state, populations, tol=1e-12):
    np.testing.assert_allclose(state.populations(), populations, atol=tol)
    off_diag = state.rho - np.diag(np.diag(state.rho))
    assert np.max(np.abs(off_diag)) < tol


def test_initial_state_is_polarized_electron_mixed_nucleus():
    s = initial_state()
    assert_state_close(s, [0.5, 0.5, 0.0, 0.0])
    assert abs(np.trace(s.rho) - 1.0) < 1e-15
    p = s.populations()
    assert p[2] + p[3] == 0.0  # no electron-up population
    assert s.electron_excess() == pytest.approx(1.0)


def test_invalid_states_rejected():
    with pytest.raises(InvalidStateError):
        QuantumState(np.eye(4))  # trace 4
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(InvalidStateError):
        QuantumState(bad)
    with pytest.raises(InvalidStateError):
        QuantumState(np.diag([1.2, -0.2, 0.0, 0.0]))  # negative eigenvalue
    with pytest.raises(InvalidStateError):
        apply_cnot_e_given_n(bad, 1.0)


def test_cnot_e_given_n_population_exchange():
    out = apply_cnot_e_given_n(initial_state(), 1.0)
    assert_state_close(out, [0.5, 0.0, 0.0, 0.5])


def test_cnot_fidelity_zero_is_identity():
    rng = rng_stream(0, "state")
    p = rng.dirichlet(np.ones(4))
    s = from_populations(p)
    out = apply_cnot_e_given_n(s, 0.0)
    np.testing.assert_array_equal(out.rho, s.rho)


def test_cnot_e_given_n_convex_mixture():
    # by hand: 0.93 * diag(.5, 0, 0, .5) + 0.07 * diag(.5, .5, 0, 0)
    out = apply_cnot_e_given_n(initial_state(), 0.93)
    assert_state_close(out, [0.5, 0.035, 0.0, 0.465])


def test_cnot_n_given_e_population_exchange():
    s = from_populations([0.5, 0.0, 0.0, 0.5])
    assert_state_close(apply_cnot_n_given_e(s, 1.0), [0.5, 0.0, 0.5, 0.0])
    assert_state_close(apply_cnot_n_given_e(s, 0.93), [0.5, 0.0, 0.465, 0.035])


def test_cnot_n_given_e_ignores_electron_down_manifold():
    s = from_populations([0.3, 0.7, 0.0, 0.0])
    out = apply_cnot_n_given_e(s, 0.77)
    np.testing.assert_allclose(out.rho, s.rho, atol=1e-15)


def test_cnots_are_involutions_at_unit_fidelity():
    rng = rng_stream(1, "involution")
    for _ in range(5):
        s = from_populations(rng.dirichlet(np.ones(4)))
        twice_e = apply_cnot_e_given_n(apply_cnot_e_given_n(s, 1.0), 1.0)
        twice_n = apply_cnot_n_given_e(apply_cnot_n_given_e(s, 1.0), 1.0)
        np.testing.assert_allclose(twice_e.rho, s.rho, atol=1e-12)
        np.testing.assert_allclose(twice_n.rho, s.rho, atol=1e-12)


def test_gate_fidelity_out_of_range():
    with pytest.raises(DomainError):
        apply_cnot_e_given_n(initial_state(), 1.5)
    with pytest.raises(DomainError):
        apply_cnot_n_given_e(initial_state(), -0.2)


def test_perfect_swap_transfers_polarization():
    out = apply_swap(initial_state(), SensorEnsembleParams(swap_fidelity=1.0))
    assert_state_close(out, [0.5, 0.0, 0.5, 0.0])
    assert out.nuclear_polarization() == pytest.approx(1.0, abs=1e-12)


def test_swap_transfer_matches_configured_fidelity():
    before = initial_state().electron_excess()
    out = apply_swap(initial_state(), PARAMS)
    assert out.nuclear_polarization() == pytest.approx(0.93 * before, abs=1e-12)


def test_swap_then_reset_preserves_nuclear_polarization():
    swapped = apply_swap(initial_state(), SensorEnsembleParams(swap_fidelity=1.0))
    reset = apply_optical_pulse(swapped, 100 * PARAMS.t_op,
                                SensorEnsembleParams(swap_fidelity=1.0), t1_nuclear=1e9)
    assert reset.nuclear_polarization() == pytest.approx(1.0, abs=1e-9)
    assert reset.electron_excess() == pytest.approx(1.0, abs=1e-9)


def test_optical_pulse_zero_duration_is_identity():
    s = apply_swap(initial_state(), PARAMS)
    out = apply_optical_pulse(s, 0.0, PARAMS, 3.44e-3)
    np.testing.assert_array_equal(out.rho, s.rho)


def test_optical_pulse_reset_fraction():
    s = from_populations([0.0, 0.0, 0.5, 0.5])  # electron fully up
    out = apply_optical_pulse(s, PARAMS.t_op, PARAMS, t1_nuclear=1.0)
    p = out.populations()
    assert p[2] + p[3] == pytest.approx(0.25, abs=1e-12)


def test_optical_pulse_long_duration_resets_everything():
    s = apply_swap(initial_state(), PARAMS)
    out = apply_optical_pulse(s, 1.0, PARAMS, t1_nuclear=3.44e-3)
    np.testing.assert_allclose(out.rho, initial_state().rho, atol=1e-6)


def test_optical_pulse_destroys_coherences():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.1
    rho[0, 2] = 0.05
    rho[2, 0] = 0.05
    s = QuantumState(rho)
    out = apply_optical_pulse(s, 1e-6, PARAMS, t1_nuclear=3.44e-3)
    off_diag = out.rho - np.diag(np.diag(out.rho))
    assert np.max(np.abs(off_diag)) == 0.0


def test_optical_pulse_rejects_bad_arguments():
    with pytest.raises(DomainError):
        apply_optical_pulse(initial_state(), -1e-6, PARAMS, 1e-3)
    with pytest.raises(DomainError):
        apply_optical_pulse(initial_state(), 1e-6, PARAMS, 0.0)


def test_sensing_phase_limits():
    s = apply_sensing_phase(initial_state(), 0.0, 1.0)
    assert s.electron_excess() == pytest.approx(1.0)
    s = apply_sensing_phase(initial_state(), math.pi, 1.0)
    assert s.electron_excess() == pytest.approx(-1.0)
    s = apply_sensing_phase(initial_state(), math.pi / 2, 0.5)
    p = s.populations()
    assert p[0] + p[1] == pytest.approx(0.5, abs=1e-12)
    assert p[2] + p[3] == pytest.approx(0.5, abs=1e-12)


def test_sensing_phase_keeps_nuclear_marginal():
    s = from_populations([0.6, 0.2, 0.15, 0.05])  # nuclear down marginal 0.75
    out = apply_sensing_phase(s, 1.1, 0.8)
    p = out.populations()
    assert p[0] + p[2] == pytest.approx(0.75, abs=1e-12)
    assert out.electron_excess() == pytest.approx(math.cos(1.1) * 0.8, abs=1e-12)


def test_sensing_phase_rejects_bad_factor():
    with pytest.raises(DomainError):
        apply_sensing_phase(initial_state(), 0.1, 1.5)


def test_invariants_hold_through_random_op_sequence():
    rng = rng_stream(5, "fuzz-small")
    s = initial_state()
    for _ in range(2000):
        op = rng.integers(5)
        if op == 0:
            s = apply_cnot_e_given_n(s, rng.uniform())
        elif op == 1:
            s = apply_cnot_n_given_e(s, rng.uniform())
        elif op == 2:
            s = apply_swap(s, PARAMS)
        elif op == 3:
            s = apply_optical_pulse(s, rng.uniform(0, 10e-6), PARAMS, 3.44e-3)
        else:
            s = apply_sensing_phase(s, rng.uniform(-math.pi, math.pi), rng.uniform())
        assert np.max(np.abs(s.rho - s.rho.conj().T)) < 1e-12
        assert abs(np.trace(s.rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(s.rho)[0] > -1e-10
