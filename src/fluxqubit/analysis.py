"""Nonlinear least-squares fitting and Allan-deviation analysis.

Three fit models are provided:

* ``exp_decay``:      y = A * p**x + B            (params A, p, B)
* ``sinusoid``:       y = A * sin(2 pi f x + phi) + C   (params A, f, phi, C)
* ``cosine_fringe``:  y = A * cos(2 pi f x + phi) + C   (params A, f, phi, C)

Fits run a damped Gauss-Newton (Levenberg) iteration with analytic
Jacobians; steps that increase the residual are rejected and the damping
raised, so the residual norm is non-increasing over accepted iterations.
Initial guesses are automatic: frequencies come from a coarse discrete
spectrum evaluated by direct summation (no uniform-grid requirement),
amplitudes and phases from linear regression at the fixed frequency, and
exponential-decay parameters from a log-linear regression.

The spectrum's frequency grid and its exp(-2 pi i f x) kernel depend only
on the sample grid x, so they are built once per grid and kept in a
bounded cache (8 grids); each call is then one matrix-vector product and
an argmax.  A cache entry holds 16 bytes * n_freq * len(x), where n_freq
is about oversample / 2 * len(x), i.e. 4 * len(x) at the default
oversample of 8 on a uniform grid: 0.4 MB for an 81-point scan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import FitError

CONVERGENCE_RTOL = 1e-12
MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-14
DEGENERATE_CONDITION = 1e12


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with standard errors and solver diagnostics."""

    params: dict
    stderr: Optional[dict]
    residual_norm: float
    converged: bool
    iterations: int
    degenerate: bool
    history: tuple

    def __getitem__(self, name: str) -> float:
        return self.params[name]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _exp_decay(x, p):
    a, decay, b = p
    return a * np.power(decay, x) + b


def _exp_decay_jac(x, p):
    a, decay, b = p
    px = np.power(decay, x)
    return np.column_stack([px, a * x * np.power(decay, x - 1), np.ones_like(x)])


def _exp_decay_guess(x, y):
    n_tail = max(1, len(y) // 4)
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    b = float(np.mean(ys[-n_tail:]))
    a = float(np.mean(ys[:n_tail]) - b)
    dev = np.abs(ys - b)
    mask = dev > 1e-12 * max(1.0, np.max(dev))
    if mask.sum() >= 2:
        slope = np.polyfit(xs[mask], np.log(dev[mask]), 1)[0]
        decay = float(np.exp(slope))
        decay = min(max(decay, 1e-6), 2.0)
    else:
        decay = 1.0  # constant data: no decay is identifiable
    return np.array([a, decay, b])


def _sinusoid(x, p):
    a, f, phi, c = p
    return a * np.sin(2 * np.pi * f * x + phi) + c


def _sinusoid_jac(x, p):
    a, f, phi, c = p
    arg = 2 * np.pi * f * x + phi
    return np.column_stack(
        [np.sin(arg), a * 2 * np.pi * x * np.cos(arg), a * np.cos(arg), np.ones_like(x)]
    )


def _cosine_fringe(x, p):
    a, f, phi, c = p
    return a * np.cos(2 * np.pi * f * x + phi) + c


def _cosine_fringe_jac(x, p):
    a, f, phi, c = p
    arg = 2 * np.pi * f * x + phi
    return np.column_stack(
        [np.cos(arg), -a * 2 * np.pi * x * np.sin(arg), -a * np.sin(arg), np.ones_like(x)]
    )


@functools.lru_cache(maxsize=8)
def _spectrum_kernel(x_bytes: bytes, oversample: int):
    """(freqs, exp(-2 pi i f x)) for one float64 grid, both read-only.

    Keyed on the grid's bytes, so a caller that later changes its array
    cannot change a cached entry.  A zero-span grid raises every time:
    lru_cache does not store exceptions.
    """
    x = np.frombuffer(x_bytes, dtype=float)
    span = np.max(x) - np.min(x)
    if span <= 0:
        raise FitError("cannot estimate a frequency from zero time span")
    min_spacing = np.min(np.diff(np.sort(np.unique(x))))
    f_max = 0.5 / min_spacing
    f_min = 0.25 / span
    n_freq = max(16, int(oversample * span * f_max))
    freqs = np.linspace(f_min, f_max, n_freq)
    kernel = np.exp(-2j * np.pi * np.outer(freqs, x))
    freqs.flags.writeable = False
    kernel.flags.writeable = False
    return freqs, kernel


def coarse_spectrum_peak(x, y, oversample: int = 8) -> float:
    """Frequency of the largest discrete-spectrum component, by direct sums."""
    x = np.asarray(x, dtype=float)
    freqs, kernel = _spectrum_kernel(x.tobytes(), oversample)
    centered = y - np.mean(y)
    power = np.abs(kernel @ centered)
    return float(freqs[np.argmax(power)])


def _oscillation_guess(x, y, kind: str):
    c = float(np.mean(y))
    f = coarse_spectrum_peak(x, y)
    arg = 2 * np.pi * f * x
    design = np.column_stack([np.cos(arg), np.sin(arg)])
    coef, *_ = np.linalg.lstsq(design, y - c, rcond=None)
    a_cos, b_sin = coef
    amplitude = float(np.hypot(a_cos, b_sin))
    if kind == "sinusoid":
        phi = float(np.arctan2(a_cos, b_sin))
    else:
        phi = float(np.arctan2(-b_sin, a_cos))
    return np.array([amplitude, f, phi, c])


MODELS = {
    "exp_decay": (_exp_decay, _exp_decay_jac, _exp_decay_guess, ("A", "p", "B")),
    "sinusoid": (
        _sinusoid,
        _sinusoid_jac,
        lambda x, y: _oscillation_guess(x, y, "sinusoid"),
        ("A", "f", "phi", "C"),
    ),
    "cosine_fringe": (
        _cosine_fringe,
        _cosine_fringe_jac,
        lambda x, y: _oscillation_guess(x, y, "cosine"),
        ("A", "f", "phi", "C"),
    ),
}


# ---------------------------------------------------------------------------
# Damped Gauss-Newton (Levenberg) minimization
# ---------------------------------------------------------------------------

def levenberg_marquardt(residual_fn, jacobian_fn, p0, max_iterations=MAX_ITERATIONS,
                        rtol=CONVERGENCE_RTOL):
    """Minimize ||residual(p)||; returns (p, cov, iterations, converged, history).

    The damping factor multiplies the scaled diagonal of J^T J; rejected
    steps raise it, accepted steps lower it, so the recorded history of
    accepted residual norms is non-increasing.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    p = np.asarray(p0, dtype=float).copy()
    r = residual_fn(p)
    if not np.all(np.isfinite(r)):
        raise FitError("residual is not finite at the initial guess")
    cost = float(r @ r)
    history = [np.sqrt(cost)]
    mu = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        jac = jacobian_fn(p)
        if not np.all(np.isfinite(jac)):
            raise FitError("Jacobian is not finite")
        jtj = jac.T @ jac
        gradient = jac.T @ r
        scale = np.diag(jtj).copy()
        if np.max(scale) <= 0.0:
            raise FitError("singular Jacobian: all model derivatives vanish")
        scale[scale <= 0.0] = np.max(scale)
        if np.max(np.abs(gradient)) < GRADIENT_TOL:
            converged = True
            break
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(jtj + mu * np.diag(scale), -gradient)
            except np.linalg.LinAlgError as exc:
                raise FitError("singular Jacobian in Levenberg step") from exc
            trial = p + step
            r_trial = residual_fn(trial)
            cost_trial = float(r_trial @ r_trial) if np.all(np.isfinite(r_trial)) else np.inf
            if cost_trial <= cost:
                rel_change = (cost - cost_trial) / max(cost, 1e-300)
                p, r, cost = trial, r_trial, cost_trial
                history.append(np.sqrt(cost))
                mu = max(mu / 3.0, 1e-12)
                accepted = True
                if rel_change < rtol:
                    converged = True
                break
            mu *= 10.0
            if mu > 1e14:
                break
        if not accepted:
            converged = True  # no descent direction left: local optimum
            break
        if converged:
            break
    n, k = len(r), len(p)
    degenerate = bool(np.linalg.cond(jac.T @ jac) > DEGENERATE_CONDITION) if k else False
    cov = None
    if converged and n > k:
        sigma2 = cost / (n - k)
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
    return p, cov, iterations, converged, degenerate, tuple(history)


def fit_nlls(model: str, x, y, p0=None, max_iterations=MAX_ITERATIONS,
             rtol=CONVERGENCE_RTOL) -> FitResult:
    """Fit one of the named models; see the module docstring for the forms."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(MODELS)}")
    fn, jac_fn, guess_fn, names = MODELS[model]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional and the same length")
    if len(x) < len(names) + 1:
        raise ValueError(f"need at least {len(names) + 1} points to fit {model}")
    if p0 is None:
        start = guess_fn(x, y)
    elif isinstance(p0, dict):
        start = np.array([p0[n] for n in names], dtype=float)
    else:
        start = np.asarray(p0, dtype=float)
    params, cov, iterations, converged, degenerate, history = levenberg_marquardt(
        lambda p: y - fn(x, p), lambda p: -jac_fn(x, p), start,
        max_iterations=max_iterations, rtol=rtol,
    )
    stderr = None
    if converged and cov is not None:
        stderr = {n: float(np.sqrt(max(cov[i, i], 0.0))) for i, n in enumerate(names)}
    return FitResult(
        params={n: float(params[i]) for i, n in enumerate(names)},
        stderr=stderr,
        residual_norm=history[-1],
        converged=converged,
        iterations=iterations,
        degenerate=degenerate,
        history=history,
    )


# ---------------------------------------------------------------------------
# Allan deviation
# ---------------------------------------------------------------------------

def allan_deviation(times, values, taus) -> np.ndarray:
    """Overlapping Allan deviation of a uniformly sampled series.

    Returns an array of rows (tau, ad, ad_stderr).  Each tau must be an
    integer multiple of the base spacing and at most a third of the span.
    The standard error divides by the effective number of independent
    differences, (N - 2k + 1) / (2k) for averaging factor k.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or len(times) < 3:
        raise ValueError("need equal-length 1-d times and values, at least 3 samples")
    spacing = np.diff(times)
    dt = float(np.mean(spacing))
    if dt <= 0 or np.max(np.abs(spacing - dt)) > 0.01 * dt:
        raise ValueError("times must be uniformly spaced within 1%")
    span = times[-1] - times[0]
    n = len(values)
    rows = []
    for tau in np.atleast_1d(np.asarray(taus, dtype=float)):
        k = tau / dt
        k_int = int(round(k))
        if k_int < 1 or abs(k - k_int) > 1e-6 * max(1.0, k):
            raise ValueError(f"tau {tau} is not an integer multiple of the spacing {dt}")
        if tau > span / 3 + 1e-9 * span:
            raise ValueError(f"tau {tau} exceeds a third of the span {span}")
        if n - 2 * k_int + 1 < 1:
            raise ValueError(f"not enough samples for tau {tau}")
        bin_means = np.lib.stride_tricks.sliding_window_view(values, k_int).mean(axis=1)
        diffs = bin_means[k_int:] - bin_means[:-k_int]
        avar = 0.5 * np.mean(diffs**2)
        ad = float(np.sqrt(avar))
        n_eff = max(1.0, (n - 2 * k_int + 1) / (2 * k_int))
        rows.append((float(tau), ad, ad / np.sqrt(2 * n_eff)))
    return np.array(rows)


def percentile(values, q: float, exclude=None) -> float:
    """Linear-interpolation percentile after applying an exclusion mask."""
    values = np.asarray(values, dtype=float).ravel()
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=bool).ravel()
        if exclude.shape != values.shape:
            raise ValueError("exclusion mask must match the values")
        values = values[~exclude]
    if values.size == 0:
        raise ValueError("no values left after exclusion")
    return float(np.percentile(values, q))
