"""Separable least-squares curve fitting with grid seeds.

Every model fitted here is linear in some of its parameters.  One
Levenberg-Marquardt loop with finite-difference Jacobians searches the
nonlinear parameters only, and at every evaluation the linear ones are solved
exactly (variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)).  A search starts from the best point of a fixed grid, ranked by the
projected cost, so identical inputs always produce identical results.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError

MAX_ITERATIONS = 200
STEP_TOL = 1e-10   # relative parameter step
COS_TOL = 1e-8     # cosine between the residual and a Jacobian column
# power-law exponent seeds; at b = 0 the amplitude and offset are one constant
EXPONENT_GRID = np.delete(np.linspace(-4.0, 4.0, 17), 8)


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


def _jacobian(fn, p, f0):
    jac = np.empty((len(f0), len(p)))
    for j in range(len(p)):
        step = 1e-7 * max(abs(p[j]), 1e-9)
        q = p.copy()
        q[j] += step
        jac[:, j] = (fn(q) - f0) / step
    return jac


def _checked(x, y, n_params, what):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d arrays of equal length")
    if len(y) < n_params + 2:
        raise DomainError(f"need at least {n_params + 2} points to fit {what}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("x and y must be finite")
    return x, y


def _fit(model, x, y, expand, seeds, name, max_iterations) -> FitResult:
    """Minimize ||y - model(x, p)|| by Levenberg-Marquardt over the search
    parameters theta, where p = expand(theta) adds the linear parameters that
    fit best at theta, starting from the seed of lowest cost.

    Converges when no Jacobian column has a cosine above 1e-8 with the
    residual, or when a rejected step is already below 1e-10 of the
    parameters; both tests are free of units.  Otherwise raises FitError
    carrying the best result seen.  Floating-point warnings are off: a point
    whose model overflows costs infinity, and a result that overflows is
    returned non-finite for the caller to judge.

    Uncertainties come from the full model's local curvature,
    sigma_i = sqrt(s^2 [ (J^T J)^-1 ]_ii) with s^2 the residual variance.  The
    Jacobian columns are scaled to a largest entry of 1 before the inversion,
    so parameters on very different scales do not lose their variance to the
    pseudo-inverse cutoff, and no column norm overflows.
    """
    def projected(theta):
        return model(x, expand(theta))

    def evaluate(theta):
        f = projected(theta)
        r = y - f
        cost = float(r @ r)
        return f, r, cost if math.isfinite(cost) else math.inf

    with np.errstate(all="ignore"):
        theta = np.array(min(seeds, key=lambda seed: evaluate(seed)[2]), dtype=float)
        f, r, cost = evaluate(theta)
        if cost == math.inf:
            raise DomainError("initial parameters produce non-finite residuals")
        lam = 1e-3
        converged = False
        iterations = 0
        while iterations < max_iterations and not converged:
            iterations += 1
            jac = _jacobian(projected, theta, f)
            grad = jac.T @ r
            if np.all(np.abs(grad) <= COS_TOL * math.sqrt(cost) * np.linalg.norm(jac, axis=0)):
                converged = True
                break
            a = jac.T @ jac
            damping = np.clip(np.diag(a), 1e-300, None)
            for _ in range(60):
                try:
                    step = np.linalg.solve(a + lam * np.diag(damping), grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                f_try, r_try, cost_try = evaluate(theta + step)
                if cost_try < cost:
                    theta, f, r, cost = theta + step, f_try, r_try, cost_try
                    lam = max(lam / 3.0, 1e-14)
                    break
                if np.max(np.abs(step) / np.maximum(np.abs(theta), 1e-300)) < STEP_TOL:
                    converged = True
                    break
                lam *= 10.0

        p = expand(theta)
        jac = _jacobian(lambda q: model(x, q), p, f)
        dof = max(len(y) - len(p), 1)
        scale = np.max(np.abs(jac), axis=0)
        scale[scale == 0] = 1.0
        unit = jac / scale
        cov = (cost / dof) * np.linalg.pinv(unit.T @ unit) / np.outer(scale, scale)
        sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    result = FitResult(p, sigma, math.sqrt(cost), converged, iterations, name)
    if not converged:
        raise FitError(f"{name} fit did not converge within "
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


def fit_sinusoid(x, y, max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = A sin(2 pi f x + phi) + c, searching f only.

    A sin(2 pi f x + phi) + c = alpha sin(2 pi f x) + beta cos(2 pi f x) + c,
    so amplitude, phase and offset are solved exactly at every f.  f is seeded
    from k / span(x), k = 1 .. n/2, by this projected cost (the floating-mean
    periodogram, which needs no uniform grid).  The returned parameters are
    canonical: A >= 0, f > 0, phi in [0, 2 pi).
    """
    x, y = _checked(x, y, 4, "a sinusoid")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DomainError("a sinusoid needs distinct x values and nonconstant y")

    def expand(theta):
        w = 2.0 * math.pi * theta[0]
        basis = np.column_stack((np.sin(w * x), np.cos(w * x), np.ones_like(x)))
        (alpha, beta, offset), *_ = np.linalg.lstsq(basis, y, rcond=None)
        return np.array([math.hypot(alpha, beta), theta[0], math.atan2(beta, alpha), offset])

    seeds = np.arange(1, len(x) // 2 + 1)[:, None] / np.ptp(x)
    result = _fit(sinusoid_model, x, y, expand, seeds, "sinusoid", max_iterations)
    a, freq, phase, offset = result.params
    if freq < 0:
        freq, phase = -freq, math.pi - phase
    result.params = np.array([a, freq, phase % (2.0 * math.pi), offset])
    return result


def fit_stretched_exponential(t, y, max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = A exp(-(t/T1)**beta); T1 seeded from the 1/e crossing."""
    t, y = _checked(t, y, 3, "a stretched exponential")
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
    return _fit(stretched_exp_model, t, y, np.asarray, [(a0, t1_0, 1.0)],
                "stretched_exponential", max_iterations)


def fit_power_function(x, y, max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = a |x|^-b + c, searching b only.

    a and c are solved exactly at every b; b is seeded from the best of
    EXPONENT_GRID by this projected cost.
    """
    x, y = _checked(x, y, 3, "a power function")
    if np.any(x == 0):
        raise DomainError("x must be nonzero")
    y_dev = y - np.mean(y)

    def expand(theta):
        u = np.abs(x) ** -theta[0]
        u_dev = u - np.mean(u)
        a = (u_dev @ y_dev) / (u_dev @ u_dev)
        return np.array([a, theta[0], np.mean(y) - a * np.mean(u)])

    return _fit(power_function_model, x, y, expand, EXPONENT_GRID[:, None],
                "power_function", max_iterations)
