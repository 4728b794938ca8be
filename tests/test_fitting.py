import csv
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qlesim import (default_config, fit_power_function, fit_sinusoid,
                    fit_stretched_exponential, rng_stream, run_scenario)
from qlesim.errors import DomainError, FitError
from qlesim.fitting import (power_function_model, sinusoid_model,
                            stretched_exp_model)


def test_stretched_exp_exact_recovery_on_noiseless_data():
    t = np.linspace(0.0, 12e-3, 40)
    truth = (0.85, 3.44e-3, 1.0)
    result = fit_stretched_exponential(t, stretched_exp_model(t, truth))
    assert result.converged
    np.testing.assert_allclose(result.params, truth, rtol=1e-6)
    assert result.residual_norm < 1e-10


def test_stretched_exp_recovers_sublinear_stretch():
    t = np.linspace(0.0, 10.0, 60)
    truth = (1.0, 2.0, 0.6)
    result = fit_stretched_exponential(t, stretched_exp_model(t, truth))
    np.testing.assert_allclose(result.params, truth, rtol=1e-6)


def test_sinusoid_exact_recovery_on_noiseless_data():
    x = np.linspace(0.0, 0.15, 64)
    truth = (0.012, 1.0 / 0.0670, 0.4, 0.002)
    result = fit_sinusoid(x, sinusoid_model(x, truth))
    assert result.converged
    np.testing.assert_allclose(result.params, truth, rtol=1e-6)


def test_sinusoid_exact_recovery_on_jittered_samples():
    # the frequency seed ranks k / span(x) by the projected cost, which needs
    # no uniform grid
    rng = rng_stream(15, "jittered-x")
    x = np.sort(np.linspace(0.0, 0.15, 64) + 0.8e-3 * rng.uniform(-1.0, 1.0, 64))
    truth = (0.012, 1.0 / 0.0670, 0.4, 0.002)
    result = fit_sinusoid(x, sinusoid_model(x, truth))
    assert result.converged
    np.testing.assert_allclose(result.params, truth, rtol=1e-6)


def test_sinusoid_canonical_parameters():
    x = np.linspace(0.0, 2.0, 80)
    y = sinusoid_model(x, (-0.7, 2.5, 0.9, 0.1))  # negative amplitude input
    result = fit_sinusoid(x, y)
    amplitude, frequency, phase, _ = result.params
    assert amplitude > 0
    assert frequency > 0
    assert 0.0 <= phase < 2 * math.pi
    np.testing.assert_allclose(sinusoid_model(x, result.params), y, atol=1e-9)


def test_power_function_exact_recovery_on_noiseless_data():
    x = np.geomspace(20.0, 300.0, 12)
    truth = (4.003e4, 0.5154, 111.0)
    result = fit_power_function(x, power_function_model(x, truth))
    assert result.converged
    np.testing.assert_allclose(result.params, truth, rtol=1e-6)


def test_power_function_recovers_growing_power_law():
    x = np.geomspace(500.0, 3700.0, 8)
    truth = (3.44e-3 / 3700.0 ** 2, -2.0, 0.0)  # negative b means growth
    result = fit_power_function(x, power_function_model(x, truth))
    assert -result.params[1] == pytest.approx(2.0, abs=1e-6)


def test_field_power_law_sits_at_the_profile_optimum():
    # the golden field sweep's T1 values; with a and c solved exactly, the
    # cost is a function of b alone, minimized here with 40 digits
    path = Path(__file__).parent / "golden/nuclear_t1_field_sweep/nuclear_t1_field_sweep_fits.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    fields = [row["field_gauss"] for row in rows]
    t1 = [row["t1_fit_s"] for row in rows]
    result = fit_power_function(np.array(fields, dtype=float), np.array(t1, dtype=float))
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in fields]
        y = [mpmath.mpf(v) for v in t1]
        y_dev = [v - sum(y) / len(y) for v in y]

        def cost(b):
            u = [v ** -b for v in x]
            u_dev = [v - sum(u) / len(u) for v in u]
            a = mpmath.fsum(p * q for p, q in zip(u_dev, y_dev)) / mpmath.fsum(p * p for p in u_dev)
            return mpmath.fsum((q - a * p) ** 2 for p, q in zip(u_dev, y_dev))

        optimum = mpmath.findroot(lambda b: mpmath.diff(cost, b), mpmath.mpf(result.params[1]))
        distance = float(abs(result.params[1] - optimum) / result.uncertainties[1])
    assert distance < 1e-6


@pytest.mark.parametrize("low, high", [(500.0, 540.0), (3000.0, 3400.0)])
def test_narrow_field_sweeps_find_the_exponent(tmp_path, low, high):
    # over an 8% or 13% span, a and c are nearly degenerate, but the profile
    # cost still has its minimum near the configured exponent
    config = default_config("nuclear_t1_field_sweep", seed=0,
                            fields=list(np.linspace(low, high, 5)))
    run_scenario(config, out_dir=tmp_path)
    doc = json.loads((tmp_path / "nuclear_t1_field_power_law.json").read_text(encoding="utf-8"))
    assert doc["fit"]["converged"]
    assert doc["field_exponent"] == pytest.approx(2.0, abs=0.15)


def test_power_function_monte_carlo_bias_is_small():
    x = np.geomspace(20.0, 300.0, 12)
    truth = (4.003e4, 0.5154, 111.0)
    clean = power_function_model(x, truth)
    estimates = []
    for trial in range(20):
        rng = rng_stream(11, "power-mc", trial)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(len(x)))
        estimates.append(fit_power_function(x, noisy).params[1])
    assert abs(np.mean(estimates) - truth[1]) < 0.03


def test_uncertainties_are_nonnegative_and_scale_with_noise():
    x = np.linspace(0.0, 10.0, 50)
    clean = stretched_exp_model(x, (1.0, 3.0, 1.0))
    rng = rng_stream(12, "sigma-check")
    noisy = clean + 0.01 * rng.standard_normal(len(x))
    result = fit_stretched_exponential(x, noisy)
    assert np.all(result.uncertainties >= 0)
    assert result.uncertainties[1] > 0
    # recovered lifetime is consistent with its quoted uncertainty
    assert abs(result.params[1] - 3.0) < 4 * result.uncertainties[1]


def test_uncertainties_do_not_depend_on_the_units_of_y():
    # T1 in seconds against field in gauss: the Jacobian columns span ~20
    # orders of magnitude, which must not shrink the exponent's uncertainty
    x = np.geomspace(500.0, 3700.0, 8)
    rng = rng_stream(14, "sigma-units")
    y = power_function_model(x, (2.5e-10, -2.0, 0.0)) * (1.0 + 1e-4 * rng.standard_normal(8))
    seconds = fit_power_function(x, y)
    micros = fit_power_function(x, y * 1e6)
    assert seconds.uncertainties[1] == pytest.approx(micros.uncertainties[1], rel=1e-3)
    np.testing.assert_allclose(seconds.uncertainties[[0, 2]] * 1e6,
                               micros.uncertainties[[0, 2]], rtol=1e-3)


def test_fit_error_carries_best_result():
    x = np.linspace(0.0, 10.0, 30)
    rng = rng_stream(13, "fit-error")
    y = stretched_exp_model(x, (1.0, 3.0, 1.0)) + 0.05 * rng.standard_normal(len(x))
    with pytest.raises(FitError) as excinfo:
        fit_stretched_exponential(x, y, max_iterations=1)
    result = excinfo.value.result
    assert result is not None
    assert not result.converged
    assert result.iterations == 1
    assert len(result.params) == 3


def test_point_count_preconditions():
    with pytest.raises(DomainError):
        fit_stretched_exponential([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
    with pytest.raises(DomainError):
        fit_sinusoid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        fit_power_function([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])


def test_fit_is_deterministic():
    x = np.linspace(0.0, 0.2, 48)
    rng = rng_stream(14, "deterministic")
    y = sinusoid_model(x, (0.01, 15.0, 1.0, 0.0)) + 1e-4 * rng.standard_normal(len(x))
    first = fit_sinusoid(x, y)
    second = fit_sinusoid(x, y)
    np.testing.assert_array_equal(first.params, second.params)
    assert first.iterations == second.iterations


def test_result_to_dict():
    x = np.linspace(0.0, 5.0, 30)
    result = fit_stretched_exponential(x, stretched_exp_model(x, (1.0, 2.0, 1.0)))
    doc = result.to_dict()
    assert doc["converged"] is True
    assert doc["model"] == "stretched_exponential"
    assert len(doc["params"]) == len(doc["uncertainties"]) == 3
