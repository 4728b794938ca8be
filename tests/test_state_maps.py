"""The population maps against the QuantumState ops and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlesim import SensorEnsembleParams, rng_stream
from qlesim.errors import DomainError
from qlesim.noise import stretched_exp
from qlesim.state import (ELECTRON_EXCESS, INITIAL_POPULATIONS, apply_cnot_e_given_n,
                          apply_optical_pulse, apply_sensing_phase, apply_swap,
                          cnot_e_given_n_map, from_populations, initial_state,
                          optical_map, sensing_map, swap_map)

PARAMS = SensorEnsembleParams()
T1 = 3.44e-3
TOL = 1e-14


def random_cases(label, n=50):
    rng = rng_stream(21, label)
    for _ in range(n):
        yield rng, rng.dirichlet(np.ones(4))


def optical_oracle(p, duration, params, t1, beta):
    """Element-wise optical pumping: electron reset, then memory decay."""
    survive = (1.0 - params.repolarization_fraction) ** (duration / params.t_op)
    p = np.array([p[0] + (1.0 - survive) * p[2], p[1] + (1.0 - survive) * p[3],
                  survive * p[2], survive * p[3]])
    keep = stretched_exp(duration, t1, beta)
    for lo, hi in ((0, 1), (2, 3)):
        mean = 0.5 * (p[lo] + p[hi])
        p[lo], p[hi] = mean + keep * (p[lo] - mean), mean + keep * (p[hi] - mean)
    return p


def sensing_oracle(p, excess):
    nuclear_dn, nuclear_up = p[0] + p[2], p[1] + p[3]
    e_dn, e_up = 0.5 * (1.0 + excess), 0.5 * (1.0 - excess)
    return np.array([e_dn * nuclear_dn, e_dn * nuclear_up, e_up * nuclear_dn, e_up * nuclear_up])


def test_initial_populations_and_excess_form():
    np.testing.assert_array_equal(initial_state().populations(), INITIAL_POPULATIONS)
    assert INITIAL_POPULATIONS @ ELECTRON_EXCESS == 1.0


def test_cnot_map_matches_density_matrix_op():
    for rng, p in random_cases("cnot"):
        fidelity = rng.uniform()
        expected = apply_cnot_e_given_n(from_populations(p), fidelity).populations()
        np.testing.assert_allclose(cnot_e_given_n_map(fidelity) @ p, expected, rtol=0, atol=TOL)


def test_swap_map_matches_density_matrix_op():
    for rng, p in random_cases("swap"):
        params = SensorEnsembleParams(swap_fidelity=rng.uniform())
        expected = apply_swap(from_populations(p), params).populations()
        np.testing.assert_allclose(swap_map(params) @ p, expected, rtol=0, atol=TOL)


def test_optical_map_matches_op_and_elementwise_oracle():
    for rng, p in random_cases("optical"):
        duration = rng.uniform(0.0, 5e-3)
        beta = rng.uniform(0.3, 2.0)
        mapped = optical_map(duration, PARAMS, T1, beta) @ p
        op = apply_optical_pulse(from_populations(p), duration, PARAMS, T1, beta)
        np.testing.assert_allclose(mapped, op.populations(), rtol=0, atol=TOL)
        np.testing.assert_allclose(mapped, optical_oracle(p, duration, PARAMS, T1, beta),
                                   rtol=0, atol=TOL)


def test_sensing_map_matches_op_and_elementwise_oracle():
    for rng, p in random_cases("sensing"):
        phi, factor = rng.uniform(-math.pi, math.pi), rng.uniform()
        excess = math.cos(phi) * factor
        mapped = sensing_map(excess) @ p
        op = apply_sensing_phase(from_populations(p), phi, factor)
        np.testing.assert_allclose(mapped, op.populations(), rtol=0, atol=TOL)
        np.testing.assert_allclose(mapped, sensing_oracle(p, excess), rtol=0, atol=TOL)


def test_maps_broadcast_over_batches():
    rng = rng_stream(22, "batch")
    durations = rng.uniform(0.0, 5e-3, size=(3, 5))
    stack = optical_map(durations, PARAMS, T1)
    assert stack.shape == (3, 5, 4, 4)
    for index in np.ndindex(durations.shape):
        np.testing.assert_allclose(stack[index], optical_map(durations[index], PARAMS, T1),
                                   rtol=0, atol=TOL)
    excess = rng.uniform(-1.0, 1.0, size=7)
    stack = sensing_map(excess)
    assert stack.shape == (7, 4, 4)
    for i, x in enumerate(excess):
        np.testing.assert_allclose(stack[i], sensing_map(x), rtol=0, atol=TOL)


def test_maps_reject_arguments_outside_their_domain():
    with pytest.raises(DomainError):
        cnot_e_given_n_map(1.5)
    with pytest.raises(DomainError):
        optical_map(np.array([1e-6, -1e-6]), PARAMS, T1)
    with pytest.raises(DomainError):
        optical_map(math.nan, PARAMS, T1)
    with pytest.raises(DomainError):
        optical_map(1e-6, PARAMS, 0.0)
    with pytest.raises(DomainError):
        sensing_map(np.array([0.5, 1.2]))
    with pytest.raises(DomainError):
        sensing_map(math.nan)


def assert_column_stochastic(m):
    assert np.all(m >= 0.0)
    np.testing.assert_allclose(m.sum(axis=-2), 1.0, rtol=0, atol=1e-14)


unit = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(fidelity=unit, swap_fidelity=unit)
def test_gate_maps_are_column_stochastic(fidelity, swap_fidelity):
    assert_column_stochastic(cnot_e_given_n_map(fidelity))
    assert_column_stochastic(swap_map(SensorEnsembleParams(swap_fidelity=swap_fidelity)))


@settings(max_examples=200, deadline=None)
@given(durations=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=5),
       repolarization=unit,
       t_op=st.floats(1e-9, 1e-3),
       t1=st.floats(1e-6, 1e3),
       beta=st.floats(0.01, 2.0))
def test_optical_map_is_column_stochastic(durations, repolarization, t_op, t1, beta):
    params = SensorEnsembleParams(repolarization_fraction=repolarization, t_op=t_op,
                                  t_qlr=max(t_op, 3e-6))
    assert_column_stochastic(optical_map(np.array(durations), params, t1, beta))


@settings(max_examples=200, deadline=None)
@given(excess=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
def test_sensing_map_is_column_stochastic(excess):
    assert_column_stochastic(sensing_map(np.array(excess)))
