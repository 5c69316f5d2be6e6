"""Nonlinear least-squares fitting and Allan-deviation analysis.

Two fit models are provided:

* ``exp_decay``:      y = A * p**x + B            (params A, p, B)
* ``cosine_fringe``:  y = A * cos(2 pi f x + phi) + C   (params A, f, phi, C)

A sine is the cosine fringe with phi shifted by -pi/2.

Fits run a damped Gauss-Newton (Levenberg) iteration with analytic
Jacobians; steps that increase the residual are rejected and the damping
raised, so the residual norm is non-increasing over accepted iterations.

The iteration is row-batched: ``fit_nlls_rows`` fits a (k, n) stack of
series sharing one grid x in a single solve.  The rows run in lock step,
each with its own damping, acceptance and convergence, and a finished row is
frozen.  ``p0`` is one start for every row (a dict or a q-vector), a (k, q)
stack of starts, or None for each row's automatic guess.  A row that fails
(a failed guess, a non-finite residual at its start, a non-finite or
vanishing Jacobian, or a singular step) gets its FitError in its place and
leaves the other rows untouched.  ``fit_nlls`` is the one-row view and
raises that error instead.  Each ``fit_nlls_rows`` call logs one DEBUG
record: rows, failed rows and the largest iteration count.
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
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import FitError

_log = logging.getLogger(__name__)

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
# A model takes the sample grid x, shape (n,), and a (k, q) stack of
# parameter rows; it returns (k, n) values and a (k, n, q) Jacobian.

def _stack_columns(first, *rest):
    """(k, n, q) Jacobian from its q columns; later ones broadcast to the first."""
    jac = np.empty(first.shape + (1 + len(rest),))
    jac[..., 0] = first
    for j, column in enumerate(rest, 1):
        jac[..., j] = column
    return jac


def _exp_decay(x, p):
    a, decay, b = p.T[..., None]
    return a * np.power(decay, x) + b


def _exp_decay_jac(x, p):
    a, decay, b = p.T[..., None]
    px = np.power(decay, x)
    return _stack_columns(px, a * x * np.power(decay, x - 1), 1.0)


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


def _cosine_fringe(x, p):
    a, f, phi, c = p.T[..., None]
    return a * np.cos(2 * np.pi * f * x + phi) + c


def _cosine_fringe_jac(x, p):
    a, f, phi, c = p.T[..., None]
    arg = 2 * np.pi * f * x + phi
    sin = np.sin(arg)
    return _stack_columns(np.cos(arg), -a * 2 * np.pi * x * sin, -a * sin, 1.0)


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
    steps = np.diff(np.sort(x))
    min_spacing = np.min(steps[steps > 0])
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


def _oscillation_guess(x, y):
    c = float(np.mean(y))
    f = coarse_spectrum_peak(x, y)
    arg = 2 * np.pi * f * x
    design = np.column_stack([np.cos(arg), np.sin(arg)])
    coef, *_ = np.linalg.lstsq(design, y - c, rcond=None)
    a_cos, b_sin = coef
    amplitude = float(np.hypot(a_cos, b_sin))
    phi = float(np.arctan2(-b_sin, a_cos))
    return np.array([amplitude, f, phi, c])


MODELS = {
    "exp_decay": (_exp_decay, _exp_decay_jac, _exp_decay_guess, ("A", "p", "B")),
    "cosine_fringe": (_cosine_fringe, _cosine_fringe_jac, _oscillation_guess,
                      ("A", "f", "phi", "C")),
}


# ---------------------------------------------------------------------------
# Damped Gauss-Newton (Levenberg) minimization, one row per series
# ---------------------------------------------------------------------------

def _solve_rows(lhs, rhs):
    """Batched solve; a singular stack is solved again row by row.

    Returns the steps (NaN in singular rows) and {position: LinAlgError}.
    """
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        steps = np.full(rhs.shape, np.nan)
        singular = {}
        for i, (a, b) in enumerate(zip(lhs, rhs)):
            try:
                steps[i] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError as exc:
                singular[i] = exc
        return steps, singular


def _row_costs(r):
    """r . r of each row, computed as the 1-d product r @ r is."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0].tolist()


def levenberg_marquardt(residual_fn, jacobian_fn, p0):
    """Minimize ||residual|| for every row of the (k, q) start stack p0.

    residual_fn(P, rows) returns the (len(rows), n) residuals of the series
    numbered `rows` at parameter rows P; jacobian_fn(P) returns their
    (len(P), n, q) Jacobians.  The rows run in lock step: model calls,
    normal equations and damped solves are batched, while each row keeps its
    own damping factor, cost and history as Python floats.  The damping
    multiplies the scaled diagonal of J^T J; rejected steps raise it and
    accepted steps lower it, so each row's history of accepted residual
    norms is non-increasing.  A row stops, and is frozen, when its relative
    cost change falls below CONVERGENCE_RTOL, its gradient below GRADIENT_TOL,
    or no damping gives descent, within MAX_ITERATIONS iterations.

    Returns one entry per row: (p, cov, iterations, converged, degenerate,
    history), or the FitError that stopped that row alone.
    """
    p = np.array(p0, dtype=float, ndmin=2)
    k, q = p.shape
    idx = np.arange(k)  # series numbers of the running rows
    r = residual_fn(p, idx)
    n = r.shape[1]
    cost = _row_costs(r)
    history = [[math.sqrt(c)] for c in cost]
    mu = [1e-3] * k
    outcome = [None] * k
    final = [None] * k  # (p, cost, J^T J, iterations, converged) per finished row
    keep = np.isfinite(r).all(axis=1).tolist()
    for i, kept in enumerate(keep):
        if not kept:
            outcome[i] = FitError("residual is not finite at the initial guess")
    eye = np.eye(q)
    for iteration in range(1, MAX_ITERATIONS + 1):
        if not all(keep):  # drop the rows that finished or failed
            idx, p, r = idx[keep], p[keep], r[keep]
            cost = [c for c, kept in zip(cost, keep) if kept]
            mu = [m for m, kept in zip(mu, keep) if kept]
            if not cost:
                break
        active = len(cost)
        jac = jacobian_fn(p)
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        descent = -(jt @ r[:, :, None])[:, :, 0]
        scale = jtj.diagonal(0, 1, 2)
        top = scale.max(axis=1)
        # a vanishing derivative takes its row's largest scale
        scale = np.where(scale > 0.0, scale, top[:, None])
        damped = scale[:, :, None] * eye
        finite = np.isfinite(jac).all(axis=(1, 2))
        keep = (finite & (top > 0.0)).tolist()
        for j, kept in enumerate(keep):
            if not kept:
                outcome[idx[j]] = FitError(
                    "singular Jacobian: all model derivatives vanish" if finite[j]
                    else "Jacobian is not finite")
        small = (np.abs(descent).max(axis=1) < GRADIENT_TOL).tolist()
        converged = [kept and s for kept, s in zip(keep, small)]
        stepped = list(converged)
        searching = [j for j in range(active) if keep[j] and not small[j]]
        for _ in range(50):
            if not searching:
                break
            # a slice when every row searches: fancy indexing made a single fit 1.1x slower
            sub = slice(None) if len(searching) == active else searching
            lhs = jtj[sub] + np.array([mu[j] for j in searching])[:, None, None] * damped[sub]
            step, singular = _solve_rows(lhs, descent[sub])
            trial = p[sub] + step
            r_trial = residual_fn(trial, idx[sub])
            # a non-finite residual costs inf or NaN, which never beats a finite cost
            cost_trial = _row_costs(r_trial)
            won, won_trial, lost = [], [], []
            for t, j in enumerate(searching):
                if t in singular:
                    outcome[idx[j]] = FitError("singular Jacobian in Levenberg step")
                    outcome[idx[j]].__cause__ = singular[t]
                    keep[j] = False
                    continue
                c = cost_trial[t]
                if c <= cost[j]:
                    converged[j] = (cost[j] - c) / max(cost[j], 1e-300) < CONVERGENCE_RTOL
                    cost[j] = c
                    history[idx[j]].append(math.sqrt(c))
                    mu[j] = max(mu[j] / 3.0, 1e-12)
                    stepped[j] = True
                    won.append(j)
                    won_trial.append(t)
                else:
                    mu[j] *= 10.0
                    if mu[j] <= 1e14:
                        lost.append(j)
            if len(won) == active:  # every row stepped: take the trial arrays whole
                p, r = trial, r_trial
            else:
                p[won], r[won] = trial[won_trial], r_trial[won_trial]
            searching = lost
        for j in range(active):
            if keep[j] and (converged[j] or not stepped[j]):  # no descent: local optimum
                final[idx[j]] = (p[j], cost[j], jtj[j], iteration, True)
                keep[j] = False
    else:
        for j in np.flatnonzero(keep):  # out of iterations
            final[idx[j]] = (p[j], cost[j], jtj[j], MAX_ITERATIONS, False)
    solved = [i for i in range(k) if outcome[i] is None]
    if not solved:
        return outcome
    jtjs = np.array([final[i][2] for i in solved])
    degenerate = (np.linalg.cond(jtjs) > DEGENERATE_CONDITION).tolist()
    with_cov = [t for t, i in enumerate(solved) if final[i][4] and n > q]
    pinv = dict(zip(with_cov, np.linalg.pinv(jtjs[with_cov]))) if with_cov else {}
    for t, i in enumerate(solved):
        params, cost_i, _, iterations, converged_i = final[i]
        cov = cost_i / (n - q) * pinv[t] if t in pinv else None
        outcome[i] = (params, cov, iterations, converged_i, degenerate[t], tuple(history[i]))
    return outcome


def fit_nlls_rows(model: str, x, Y, p0=None) -> list:
    """Fit each row of Y against the shared grid x in one row-batched solve.

    p0 is one start for every row (a dict or a q-vector), a (k, q) stack of
    starts, or None for each row's automatic guess.  Returns one entry per
    row: its FitResult, or the FitError that stopped that row (returned,
    not raised).
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(MODELS)}")
    fn, jac_fn, guess_fn, names = MODELS[model]
    x = np.asarray(x, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if x.ndim != 1 or Y.ndim != 2 or Y.shape[1] != x.size:
        raise ValueError("x must be one-dimensional and Y a stack of rows of its length")
    if len(x) < len(names) + 1:
        raise ValueError(f"need at least {len(names) + 1} points to fit {model}")
    results = [None] * len(Y)
    if p0 is None:
        starts = []
        for i, y in enumerate(Y):
            try:
                starts.append(guess_fn(x, y))
            except FitError as exc:
                results[i] = exc
    else:
        if isinstance(p0, dict):
            p0 = [p0[name] for name in names]
        starts = np.empty((len(Y), len(names)))
        starts[:] = p0
    rows = [i for i, result in enumerate(results) if result is None]
    Y = Y[rows]
    if rows:
        fitted = levenberg_marquardt(lambda P, sub: Y[sub] - fn(x, P), lambda P: -jac_fn(x, P),
                                     starts)
        for i, entry in zip(rows, fitted):
            results[i] = entry if isinstance(entry, FitError) else _fit_result(names, *entry)
    if _log.isEnabledFor(logging.DEBUG):
        iterations = [r.iterations for r in results if isinstance(r, FitResult)]
        _log.debug("fit_nlls_rows %s: %d rows, %d failed, at most %d iterations", model,
                   len(results), len(results) - len(iterations), max(iterations, default=0))
    return results


def _fit_result(names, params, cov, iterations, converged, degenerate, history):
    stderr = None
    if cov is not None:
        stderr = {n: float(np.sqrt(max(cov[j, j], 0.0))) for j, n in enumerate(names)}
    return FitResult(
        params={n: float(params[j]) for j, n in enumerate(names)},
        stderr=stderr,
        residual_norm=history[-1],
        converged=converged,
        iterations=iterations,
        degenerate=degenerate,
        history=history,
    )


def fit_nlls(model: str, x, y, p0=None) -> FitResult:
    """Fit one of the named models to one series (one row of fit_nlls_rows)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional and the same length")
    (result,) = fit_nlls_rows(model, x, y[None], p0)
    if isinstance(result, FitError):
        raise result
    return result


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
