import math
from dataclasses import fields

import pytest

from qlesim import ElectronCoherenceModel, PhysicalConstants, SensorEnsembleParams
from qlesim.errors import DomainError


def test_gamma_e_is_derived_exactly():
    c = PhysicalConstants()
    assert c.gamma_e == c.g * c.mu_b / c.hbar
    assert abs(c.gamma_e - c.g * c.mu_b / c.hbar) / c.gamma_e < 1e-12


@pytest.mark.parametrize("constants", [PhysicalConstants(), PhysicalConstants.nv_ensemble()])
def test_gamma_e_near_28_ghz_per_tesla(constants):
    ghz_per_tesla = constants.gamma_e / (2 * math.pi) / 1e9
    assert abs(ghz_per_tesla - 28.02) / 28.02 < 1e-3


def test_readout_sigma_is_the_shot_noise_width():
    p = SensorEnsembleParams(contrast_c0=0.02, photons_per_readout=1e4)
    assert p.readout_sigma == 0.02 / math.sqrt(1e4)


def test_nv_ensemble_g_factor():
    assert PhysicalConstants.nv_ensemble().g == pytest.approx(2.003)
    assert PhysicalConstants().g == 2.0


def test_default_sensor_params_match_operating_point():
    p = SensorEnsembleParams()
    assert p.t_swap == 16.5e-6
    assert p.t_qlr == 3e-6
    assert p.t_op == 3e-6
    assert p.swap_fidelity == 0.93
    assert p.t2_star == 600e-9
    t2 = ElectronCoherenceModel()
    assert t2.t2_hahn == 14.5e-6
    assert t2.t2_xy8_sat == 28e-6
    assert p.bias_field == 3700.0
    assert p.n_density_ppm == 14.0


@pytest.mark.parametrize("kwargs", [
    {"t_op": 0.0},
    {"t_swap": -1e-6},
    {"t_qlr": 0.0},
    {"swap_fidelity": 1.2},
    {"repolarization_fraction": -0.1},
    {"contrast_c0": 0.0},
    {"photons_per_readout": 0.0},
    {"t_qlr": 1e-6, "t_op": 3e-6},  # readout cycle must contain its optical pulse
])
def test_sensor_param_validation(kwargs):
    with pytest.raises(DomainError):
        SensorEnsembleParams(**kwargs)


def test_t_qlr_longer_than_t_op_is_fine():
    p = SensorEnsembleParams(t_qlr=3e-3, t_op=3e-6)
    assert p.t_qlr == 3e-3


# the sensor's T2 anchors live in its coherence model
SENSOR_FIELDS = ([(SensorEnsembleParams, f.name) for f in fields(SensorEnsembleParams)]
                 + [(ElectronCoherenceModel, "t2_hahn"), (ElectronCoherenceModel, "t2_xy8_sat")])


@pytest.mark.parametrize("model, name", SENSOR_FIELDS, ids=[name for _, name in SENSOR_FIELDS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sensor_params_must_be_finite(model, name, value):
    with pytest.raises(DomainError, match="finite"):
        model(**{name: value})
