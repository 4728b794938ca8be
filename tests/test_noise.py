import math

import numpy as np
import pytest

from qlesim import (ElectronCoherenceModel, NuclearT1Model, decoherence_factor,
                    electron_t2, nuclear_t1_vs_field, nuclear_t1_vs_laser,
                    project_t2_for_density, stretched_exp)
from qlesim.errors import DomainError
from qlesim.sequences import DROID60, HAHN, XY8


def test_field_model_anchor():
    model = NuclearT1Model()
    assert nuclear_t1_vs_field(model, 3700.0) == pytest.approx(3.44e-3, rel=1e-12)


def test_field_model_quadratic_scaling():
    model = NuclearT1Model(field_exponent=2.0)
    assert nuclear_t1_vs_field(model, 2000.0) == pytest.approx(
        4.0 * nuclear_t1_vs_field(model, 1000.0), rel=1e-12)


def test_field_model_fitted_exponent():
    model = NuclearT1Model(field_exponent=1.8)
    oracle = 3.44e-3 * (1700.0 / 3700.0) ** 1.8  # 0.8484 ms
    assert nuclear_t1_vs_field(model, 1700.0) == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(0.8484e-3, abs=0.5e-6)


def test_field_model_rejects_nonpositive_field():
    model = NuclearT1Model()
    with pytest.raises(DomainError):
        nuclear_t1_vs_field(model, 0.0)


def test_exponent_choice_is_stable_near_anchor():
    quadratic = NuclearT1Model(field_exponent=2.0)
    fitted = NuclearT1Model(field_exponent=1.8)
    for b in np.linspace(3400.0, 4000.0, 25):
        t_quadratic = nuclear_t1_vs_field(quadratic, b)
        t_fitted = nuclear_t1_vs_field(fitted, b)
        assert abs(t_quadratic - t_fitted) / t_quadratic < 0.15


def test_laser_model_at_operating_power():
    model = NuclearT1Model()
    oracle_us = 4.003e4 * 130.0 ** (-0.5154) + 111.0
    value = nuclear_t1_vs_laser(model, 130.0)
    assert value == pytest.approx(oracle_us * 1e-6, rel=1e-12)
    assert value == pytest.approx(3.37e-3, rel=0.01)  # near the 3.44 ms operating point


def test_laser_model_asymptote_and_monotonicity():
    model = NuclearT1Model()
    assert nuclear_t1_vs_laser(model, 1e12) == pytest.approx(111.0e-6, rel=1e-3)
    powers = np.linspace(5.0, 500.0, 40)
    values = [nuclear_t1_vs_laser(model, p) for p in powers]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 111.0e-6 for v in values)
    with pytest.raises(DomainError):
        nuclear_t1_vs_laser(model, 0.0)


def test_stretched_exp_values():
    assert stretched_exp(0.0, 1.0, 0.7) == 1.0
    assert stretched_exp(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert stretched_exp(2.0, 1.0, 0.5) == pytest.approx(math.exp(-math.sqrt(2.0)), rel=1e-12)


def test_stretched_exp_monotone_and_validated():
    t = np.linspace(0.0, 5.0, 100)
    for beta in (0.5, 1.0, 1.7):
        y = stretched_exp(t, 1.3, beta)
        assert y[0] == 1.0
        assert np.all(np.diff(y) <= 0)
    with pytest.raises(DomainError):
        stretched_exp(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        stretched_exp(1.0, 1.0, 2.5)
    with pytest.raises(DomainError):
        stretched_exp(-1.0, 1.0, 1.0)


def test_electron_t2_families():
    model = ElectronCoherenceModel()
    assert electron_t2(model, HAHN, 1) == pytest.approx(14.5e-6)
    assert electron_t2(model, XY8, 10_000) == pytest.approx(28e-6)
    # the interaction-decoupled budget of a 6-repetition block beats the cap
    assert electron_t2(model, DROID60, 288) > 28e-6
    with pytest.raises(DomainError):
        electron_t2(model, "RAMSEY", 8)
    with pytest.raises(DomainError):
        electron_t2(model, XY8, 0)


def test_electron_t2_xy8_capped_and_nondecreasing():
    model = ElectronCoherenceModel()
    values = [electron_t2(model, XY8, n) for n in range(1, 400, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v <= 28e-6 for v in values)
    droid = [electron_t2(model, DROID60, n) for n in (48, 288, 2000, 20_000)]
    assert all(b > a for a, b in zip(droid, droid[1:]))  # unbounded growth


def test_droid_cap_flag():
    capped = ElectronCoherenceModel(droid_unbounded=False)
    assert electron_t2(capped, DROID60, 5000) == pytest.approx(28e-6)


def test_decoherence_factor_uses_stretched_exp():
    model = ElectronCoherenceModel()
    t2 = electron_t2(model, XY8, 48)
    assert decoherence_factor(model, XY8, 48, 24e-6) == pytest.approx(
        stretched_exp(24e-6, t2, model.decay_stretch), rel=1e-12)


def test_density_projection():
    assert project_t2_for_density(28e-6, 14.0, 0.8) == pytest.approx(28e-6 * 17.5, rel=1e-12)
    assert project_t2_for_density(28e-6, 14.0, 14.0) == 28e-6
    assert project_t2_for_density(28e-6, 14.0, 7.0) == pytest.approx(56e-6, rel=1e-12)
    assert 14.0 / 0.8 == pytest.approx(18.0, rel=0.03)  # the projected ~18-fold stretch
    with pytest.raises(DomainError):
        project_t2_for_density(28e-6, 0.0, 1.0)
    with pytest.raises(DomainError):
        project_t2_for_density(-1.0, 14.0, 1.0)


def test_model_validation():
    with pytest.raises(DomainError):
        NuclearT1Model(t1_ref=0.0)
    with pytest.raises(DomainError):
        NuclearT1Model(field_ref=-1.0)
    with pytest.raises(DomainError):
        NuclearT1Model(stretch_beta=3.0)
    with pytest.raises(DomainError):
        ElectronCoherenceModel(t2_hahn=0.0)
    with pytest.raises(DomainError):
        ElectronCoherenceModel(decay_stretch=0.0)
