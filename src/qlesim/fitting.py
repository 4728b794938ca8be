"""Damped least-squares curve fitting with deterministic seeding.

The three model fits used by the analysis all run through one
Levenberg-Marquardt loop with finite-difference Jacobians.  Seeding is
derivative-free and deterministic, so identical inputs always produce
identical results.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FitError

MAX_ITERATIONS = 200
STEP_TOL = 1e-10   # relative parameter step
GRAD_TOL = 1e-12   # infinity norm of J^T r


@dataclass
class FitResult:
    params: np.ndarray
    uncertainties: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    model: str = ""

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": [float(p) for p in self.params],
            "uncertainties": [float(u) for u in self.uncertainties],
            "residual_norm": float(self.residual_norm),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
        }


def _jacobian(fn, x, p, f0):
    jac = np.empty((len(x), len(p)))
    for j in range(len(p)):
        step = 1e-7 * max(abs(p[j]), 1e-9)
        q = p.copy()
        q[j] += step
        jac[:, j] = (fn(x, q) - f0) / step
    return jac


def damped_least_squares(fn, x, y, p0, model_name="fit",
                         max_iterations=MAX_ITERATIONS) -> FitResult:
    """Minimize ||y - fn(x, p)|| by Levenberg-Marquardt.

    Converges when the relative parameter step drops below 1e-10 or the
    gradient infinity norm below 1e-12; otherwise raises FitError carrying the
    best result seen.  Parameter uncertainties come from the local curvature,
    sigma_i = sqrt(s^2 [ (J^T J)^-1 ]_ii) with s^2 the residual variance.
    The Jacobian columns are scaled to unit norm before the inversion, so
    parameters on very different scales do not lose their variance to the
    pseudo-inverse cutoff.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.array(p0, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d arrays of equal length")
    if len(y) < len(p) + 2:
        raise DomainError(f"need at least {len(p) + 2} points to fit {model_name}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("x and y must be finite")

    f = fn(x, p)
    r = y - f
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise DomainError("initial parameters produce non-finite residuals")

    lam = 1e-3
    converged = False
    iterations = 0
    while iterations < max_iterations and not converged:
        iterations += 1
        jac = _jacobian(fn, x, p, f)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        a = jac.T @ jac
        damping = np.clip(np.diag(a), 1e-300, None)
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(a + lam * np.diag(damping), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            f_try = fn(x, p_try)
            if np.all(np.isfinite(f_try)):
                r_try = y - f_try
                cost_try = float(r_try @ r_try)
            else:
                cost_try = math.inf
            if cost_try < cost:
                rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(p), 1e-300)))
                p, f, r, cost = p_try, f_try, r_try, cost_try
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if rel_step < STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        if not accepted and not converged:
            # no damping produced a lower cost: numerically at a minimum
            converged = True

    jac = _jacobian(fn, x, p, f)
    dof = max(len(y) - len(p), 1)
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0] = 1.0
    unit = jac / scale
    cov = (cost / dof) * np.linalg.pinv(unit.T @ unit) / np.outer(scale, scale)
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    result = FitResult(p, sigma, math.sqrt(cost), converged, iterations, model_name)
    if not converged:
        raise FitError(f"{model_name} fit did not converge within "
                       f"{max_iterations} iterations", result=result)
    return result


# ---------------------------------------------------------------- models

def sinusoid_model(x, p):
    a, freq, phase, offset = p
    return a * np.sin(2.0 * np.pi * freq * x + phase) + offset


def stretched_exp_model(x, p):
    a, t1, beta = p
    if t1 <= 0 or beta <= 0:
        return np.full_like(np.asarray(x, dtype=float), np.nan)
    return a * np.exp(-((np.asarray(x, dtype=float) / t1) ** beta))


def power_function_model(x, p):
    a, b, c = p
    return a * np.abs(x) ** (-b) + c


def _dominant_frequency(x, y):
    # seeding only; assumes a roughly uniform grid
    order = np.argsort(x)
    xs, ys = x[order], y[order] - np.mean(y)
    dt = float(np.median(np.diff(xs)))
    if dt <= 0:
        raise DomainError("x values must be distinct")
    spectrum = np.abs(np.fft.rfft(ys))
    spectrum[0] = 0.0
    peak = int(np.argmax(spectrum))
    if peak == 0:
        return 1.0 / (xs[-1] - xs[0])
    return peak / (len(xs) * dt)


def fit_sinusoid(x, y, max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = A sin(2 pi f x + phi) + c.

    Frequency is seeded from the dominant FFT bin and the phase from the best
    of eight equally spaced candidates.  The returned parameters are
    canonical: A >= 0, f > 0, phi in [0, 2 pi).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 6:
        raise DomainError("need at least 6 points to fit a sinusoid")
    f0 = _dominant_frequency(x, y)
    a0 = math.sqrt(2.0) * float(np.std(y))
    c0 = float(np.mean(y))
    if a0 == 0:
        raise DomainError("constant data cannot define a sinusoid")
    best_phase, best_cost = 0.0, math.inf
    for phase in np.arange(8) * (math.pi / 4.0):
        r = y - sinusoid_model(x, (a0, f0, phase, c0))
        cost = float(r @ r)
        if cost < best_cost:
            best_phase, best_cost = phase, cost
    result = damped_least_squares(sinusoid_model, x, y, (a0, f0, best_phase, c0),
                                  "sinusoid", max_iterations)
    a, freq, phase, offset = result.params
    if a < 0:
        a, phase = -a, phase + math.pi
    if freq < 0:
        freq, phase = -freq, math.pi - phase
    result.params = np.array([a, freq, phase % (2.0 * math.pi), offset])
    return result


def fit_stretched_exponential(t, y, max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = A exp(-(t/T1)**beta); T1 seeded from the 1/e crossing."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < 5:
        raise DomainError("need at least 5 points to fit a stretched exponential")
    if np.any(t < 0):
        raise DomainError("t must be nonnegative")
    order = np.argsort(t)
    ts, ys = t[order], y[order]
    a0 = float(ys[0]) if ys[0] != 0 else float(np.max(np.abs(ys)))
    target = a0 / math.e
    t1_0 = float(ts[-1]) / 2.0
    below = np.nonzero(ys <= target if a0 > 0 else ys >= target)[0]
    if len(below) and below[0] > 0:
        i = below[0]
        frac = (target - ys[i - 1]) / (ys[i] - ys[i - 1])
        t1_0 = float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))
    if t1_0 <= 0:
        t1_0 = float(ts[-1]) / 2.0
    return damped_least_squares(stretched_exp_model, t, y, (a0, t1_0, 1.0),
                                "stretched_exponential", max_iterations)


def fit_power_function(x, y, max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = a |x|^-b + c, seeded from the log-log slope with c = min(y)/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 5:
        raise DomainError("need at least 5 points to fit a power function")
    if np.any(x == 0):
        raise DomainError("x must be nonzero")
    c0 = float(np.min(y)) / 2.0
    z = y - c0
    mask = z > 0
    if mask.sum() < 2:
        c0 = float(np.min(y)) - 1.0
        z = y - c0
        mask = z > 0
    slope, intercept = np.polyfit(np.log(np.abs(x[mask])), np.log(z[mask]), 1)
    return damped_least_squares(power_function_model, x, y,
                                (math.exp(intercept), -slope, c0),
                                "power_function", max_iterations)
