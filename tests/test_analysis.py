import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from fluxqubit import FitError
from fluxqubit import analysis as an
from fluxqubit import datafiles as df
from fluxqubit import demux as dx


def test_sinusoid_recovery_noiseless():
    # Rabi-style trace: 12.30 MHz = 0.01230 GHz on a ns time grid
    t = np.linspace(0, 300, 241)
    y = 0.5 - 0.5 * np.cos(2 * np.pi * 0.01230 * t)
    fit = an.fit_nlls("cosine_fringe", t, y)
    assert fit.converged
    assert abs(fit["f"] - 0.01230) < 1e-9
    assert fit.residual_norm < 1e-9


def test_cosine_fringe_recovery_noiseless():
    t = np.linspace(0, 60, 181)
    y = 0.45 * np.cos(2 * np.pi * 0.1010 * t + 0.35) + 0.5
    fit = an.fit_nlls("cosine_fringe", t, y)
    assert fit.converged
    assert abs(fit["f"] - 0.1010) < 1e-9
    assert abs(fit["phi"] - 0.35) < 1e-6
    assert abs(fit["A"] - 0.45) < 1e-9


def test_sinusoid_model_form():
    t = np.linspace(0, 10, 101)
    y = 0.8 * np.sin(2 * np.pi * 0.31 * t + 1.1) - 0.2
    fit = an.fit_nlls("sinusoid", t, y)
    assert fit.converged
    assert abs(fit["f"] - 0.31) < 1e-9
    assert abs(np.remainder(fit["phi"] - 1.1 + np.pi, 2 * np.pi) - np.pi) < 1e-6


def test_exp_decay_recovery_noiseless():
    m = np.unique(np.round(np.logspace(0, np.log10(5000), 28))).astype(float)
    y = 0.418 * 0.99857**m + 0.558
    fit = an.fit_nlls("exp_decay", m, y)
    assert fit.converged
    assert abs(fit["A"] - 0.418) < 1e-9
    assert abs(fit["p"] - 0.99857) < 1e-9
    assert abs(fit["B"] - 0.558) < 1e-9


def test_exp_decay_constant_data_is_degenerate():
    x = np.arange(10, dtype=float)
    y = np.full(10, 0.7)
    fit = an.fit_nlls("exp_decay", x, y)
    assert fit.converged
    assert fit.degenerate
    assert abs(fit["A"]) < 1e-9
    assert abs(fit["B"] - 0.7) < 1e-9


def test_residual_history_is_monotone():
    rng = np.random.default_rng(21)
    x = np.linspace(0, 50, 80)
    y = 0.4 * 0.95**x + 0.5 + rng.normal(scale=0.01, size=x.size)
    fit = an.fit_nlls("exp_decay", x, y, p0={"A": 1.0, "p": 0.8, "B": 0.0})
    assert fit.converged
    assert all(b <= a + 1e-15 for a, b in zip(fit.history, fit.history[1:]))


def test_noisy_recovery_within_three_stderr():
    rng = np.random.default_rng(22)
    true = {"A": 0.42, "p": 0.9986, "B": 0.56}
    m = np.unique(np.round(np.logspace(0, np.log10(3000), 20))).astype(float)
    hits = 0
    trials = 100
    for _ in range(trials):
        y = true["A"] * true["p"] ** m + true["B"]
        y = y + rng.normal(scale=np.ptp(y) / 40, size=m.size)  # SNR >= 20
        fit = an.fit_nlls("exp_decay", m, y)
        if not fit.converged or fit.stderr is None:
            continue
        if all(abs(fit[k] - true[k]) <= 3 * max(fit.stderr[k], 1e-12) for k in true):
            hits += 1
    assert hits >= 95


def test_agrees_with_scipy_curve_fit():
    rng = np.random.default_rng(23)
    x = np.linspace(0, 200, 120)
    y = 0.35 * 0.985**x + 0.51 + rng.normal(scale=0.004, size=x.size)
    fit = an.fit_nlls("exp_decay", x, y)
    popt, pcov = curve_fit(
        lambda x, a, p, b: a * p**x + b, x, y,
        p0=[fit["A"], fit["p"], fit["B"]],
    )
    assert abs(fit["A"] - popt[0]) < 1e-6
    assert abs(fit["p"] - popt[1]) < 1e-8
    assert abs(fit["B"] - popt[2]) < 1e-6
    perr = np.sqrt(np.diag(pcov))
    for name, ref in zip(("A", "p", "B"), perr):
        assert abs(fit.stderr[name] - ref) < 0.05 * ref


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        an.fit_nlls("nope", [1, 2, 3, 4], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        an.fit_nlls("exp_decay", [1, 2, 3], [1, 2, 3])


def test_allan_constant_series_is_zero():
    t = np.arange(100, dtype=float)
    result = an.allan_deviation(t, np.full(100, 3.3), [1, 2, 5, 10])
    assert np.all(result[:, 1] == 0.0)


def test_allan_tau_one_matches_brute_force_exactly():
    rng = np.random.default_rng(24)
    y = rng.normal(size=257)
    t = np.arange(257, dtype=float)
    result = an.allan_deviation(t, y, [1.0])
    brute = np.sqrt(0.5 * np.mean((y[1:] - y[:-1]) ** 2))
    assert result[0, 1] == brute


def test_allan_overlapping_equals_non_overlapping_at_base_spacing():
    rng = np.random.default_rng(25)
    y = rng.normal(size=128)
    t = np.arange(128, dtype=float)
    overlapping = an.allan_deviation(t, y, [1.0])[0, 1]
    diffs = y[1:] - y[:-1]
    non_overlapping = np.sqrt(0.5 * np.mean(diffs**2))
    assert overlapping == non_overlapping


def test_allan_white_noise_slope():
    rng = np.random.default_rng(26)
    n = 16384
    t = np.arange(n, dtype=float)
    y = rng.normal(size=n)
    taus = np.array([4, 8, 16, 32, 40], dtype=float)
    result = an.allan_deviation(t, y, taus)
    slope = np.polyfit(np.log(result[:, 0]), np.log(result[:, 1]), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_allan_drift_slope():
    n = 1000
    t = np.arange(n, dtype=float)
    y = 0.01 * t
    taus = np.array([2, 4, 8, 16, 20], dtype=float)
    result = an.allan_deviation(t, y, taus)
    slope = np.polyfit(np.log(result[:, 0]), np.log(result[:, 1]), 1)[0]
    assert abs(slope - 1.0) < 0.1
    # linear drift gives ad = c * tau / sqrt(2) exactly
    assert np.allclose(result[:, 1], 0.01 * taus / np.sqrt(2), rtol=1e-9)


def test_allan_rejects_bad_taus_and_spacing():
    t = np.arange(100, dtype=float)
    y = np.zeros(100)
    with pytest.raises(ValueError):
        an.allan_deviation(t, y, [1.5])
    with pytest.raises(ValueError):
        an.allan_deviation(t, y, [50.0])  # beyond span / 3
    bad_t = t.copy()
    bad_t[50] += 0.5
    with pytest.raises(ValueError):
        an.allan_deviation(bad_t, y, [1.0])


def test_percentile_basic_and_masked():
    values = np.arange(101, dtype=float)
    assert an.percentile(values, 90) == 90.0
    assert an.percentile([7.0], 25) == 7.0
    mask = values > 50
    assert an.percentile(values, 100, exclude=mask) == 50.0
    with pytest.raises(ValueError):
        an.percentile(values, 50, exclude=np.ones(101, dtype=bool))


def direct_spectrum_peak(x, y, oversample=8):
    """The uncached direct-sum spectrum peak, kept as the reference."""
    span = np.max(x) - np.min(x)
    if span <= 0:
        raise FitError("cannot estimate a frequency from zero time span")
    min_spacing = np.min(np.diff(np.sort(np.unique(x))))
    f_max = 0.5 / min_spacing
    f_min = 0.25 / span
    n_freq = max(16, int(oversample * span * f_max))
    freqs = np.linspace(f_min, f_max, n_freq)
    centered = y - np.mean(y)
    power = np.abs(np.exp(-2j * np.pi * np.outer(freqs, x)) @ centered)
    return float(freqs[np.argmax(power)])


@st.composite
def spectrum_grids(draw):
    """Uniform, jittered, unsorted and duplicated grids with a positive span.

    Equal ticks get equal jitter, so distinct samples stay at least 0.6 steps
    apart and the frequency count stays small.
    """
    start = draw(st.floats(-50.0, 50.0))
    step = draw(st.floats(0.01, 5.0))
    if draw(st.booleans()):
        ticks = np.arange(draw(st.integers(2, 40)), dtype=float)
    else:
        ticks = np.array(draw(
            st.lists(st.integers(0, 120), min_size=2, max_size=40)
            .filter(lambda t: len(set(t)) > 1)
        ), dtype=float)
    jitter = draw(st.floats(0.0, 0.4))
    return start + step * (ticks + jitter * np.remainder(ticks * 0.6180339887, 1.0))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(x=spectrum_grids(), oversample=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_cached_spectrum_peak_equals_the_direct_sum(x, oversample, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=x.size) + np.cos(2 * np.pi * rng.uniform(0, 0.5) * x / np.ptp(x))
    expected = direct_spectrum_peak(x, y, oversample)
    assert an.coarse_spectrum_peak(x, y, oversample) == expected
    assert an.coarse_spectrum_peak(x, y, oversample) == expected  # cache hit


def test_spectrum_kernel_is_cached_and_read_only():
    x = np.linspace(0.0, 10.0, 21)
    freqs, kernel = an._spectrum_kernel(x.tobytes(), 8)
    assert not freqs.flags.writeable
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0
    again = an._spectrum_kernel(x.copy().tobytes(), 8)
    assert again[0] is freqs and again[1] is kernel


def test_changing_the_grid_after_a_call_does_not_change_later_results():
    grid = np.linspace(0.0, 30.0, 61)
    y = np.cos(2 * np.pi * 0.2 * grid)
    x = grid.copy()
    first = an.coarse_spectrum_peak(x, y)
    x *= 2.0
    assert an.coarse_spectrum_peak(grid, y) == first == direct_spectrum_peak(grid, y)
    assert an.coarse_spectrum_peak(x, y) == direct_spectrum_peak(x, y)


def test_zero_span_raises_on_every_call():
    x = np.full(8, 3.0)
    for _ in range(2):
        with pytest.raises(FitError, match="zero time span"):
            an.coarse_spectrum_peak(x, np.arange(8.0))


def test_calibration_builds_one_kernel_per_scan_grid():
    # 25 + 21 + 21 chevron columns share the Rabi grid, as does the resonant
    # Rabi fit; the axis fringe has its own grid
    p = df.load_bundled_device("device_demux.cfg")
    before = an._spectrum_kernel.cache_info()
    dx.calibrate(p, drive_amplitude=0.7, rise_time=1.0)
    after = an._spectrum_kernel.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == 69
    assert after.misses - before.misses <= 2


@st.composite
def fit_rows(draw):
    """A model, its sample grid, and 1-6 rows of noisy model data."""
    model = draw(st.sampled_from(["exp_decay", "cosine_fringe"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    noise = draw(st.sampled_from([0.0, 1e-3, 2e-2]))
    if model == "exp_decay":
        x = np.unique(np.round(np.logspace(0, np.log10(rng.uniform(100, 3000)), 12)))
        p = rng.uniform(0.98, 0.9995, size=(k, 1))
        Y = rng.uniform(0.2, 0.5, size=(k, 1)) * p**x + rng.uniform(0.4, 0.6, size=(k, 1))
    else:
        x = np.linspace(0.0, rng.uniform(50.0, 200.0), 81)
        f = rng.uniform(0.01, 0.08, size=(k, 1))
        Y = (rng.uniform(0.1, 0.5, size=(k, 1)) * np.cos(2 * np.pi * f * x
             + rng.uniform(-3.0, 3.0, size=(k, 1))) + 0.5)
    return model, x, Y + noise * rng.normal(size=Y.shape)


def assert_same_fit(row, single):
    assert row.converged == single.converged
    assert row.iterations == single.iterations
    for name, value in single.params.items():
        assert abs(row[name] - value) <= 1e-12 * max(abs(value), 1e-300)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=fit_rows())
def test_each_row_of_a_batched_fit_matches_its_single_fit(case):
    model, x, Y = case
    for row, y in zip(an.fit_nlls_rows(model, x, Y), Y):
        assert_same_fit(row, an.fit_nlls(model, x, y))


def test_a_nan_row_fails_alone():
    x = np.arange(12.0)
    Y = np.array([0.4 * q**x + 0.5 for q in (0.9, 0.8, 0.95)])
    Y[1, 3] = np.nan
    results = an.fit_nlls_rows("exp_decay", x, Y)
    assert isinstance(results[1], FitError)
    assert "not finite" in str(results[1])
    for i in (0, 2):
        assert results[i] == an.fit_nlls("exp_decay", x, Y[i])
    assert [results[0], results[2]] == an.fit_nlls_rows("exp_decay", x, Y[[0, 2]])


def test_a_failed_guess_is_returned_per_row():
    x = np.full(8, 3.0)
    results = an.fit_nlls_rows("cosine_fringe", x, np.ones((2, 8)))
    assert all(isinstance(r, FitError) and "zero time span" in str(r) for r in results)
    with pytest.raises(FitError, match="zero time span"):
        an.fit_nlls("cosine_fringe", x, np.ones(8))


def test_a_non_finite_jacobian_stops_only_its_row():
    # 0 ** (x - 1) at x = 0 makes the p-derivative 0 * inf; the residual is finite
    x = np.arange(10.0)
    Y = np.array([0.4 * 0.9**x + 0.5, 0.4 * 0.8**x + 0.5])
    starts = np.array([[0.3, 0.85, 0.4], [1.0, 0.0, 0.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        results = an.fit_nlls_rows("exp_decay", x, Y, p0=starts)
        with pytest.raises(FitError, match="Jacobian is not finite"):
            an.fit_nlls("exp_decay", x, Y[1], p0=starts[1])
    assert isinstance(results[1], FitError)
    assert str(results[1]) == "Jacobian is not finite"
    assert results[0] == an.fit_nlls("exp_decay", x, Y[0], p0=starts[0])


def test_p0_forms_are_equivalent():
    x = np.linspace(0.0, 50.0, 40)
    Y = np.array([0.4 * q**x + 0.5 for q in (0.95, 0.9)])
    start = {"A": 0.3, "p": 0.92, "B": 0.45}
    vector = [0.3, 0.92, 0.45]
    by_dict = an.fit_nlls_rows("exp_decay", x, Y, p0=start)
    assert by_dict == an.fit_nlls_rows("exp_decay", x, Y, p0=vector)
    assert by_dict == an.fit_nlls_rows("exp_decay", x, Y, p0=[vector, vector])
    assert by_dict[1] == an.fit_nlls("exp_decay", x, Y[1], p0=start)
    with pytest.raises(ValueError):
        an.fit_nlls_rows("exp_decay", x, Y, p0=[vector] * 3)
    with pytest.raises(ValueError):
        an.fit_nlls_rows("exp_decay", x, Y[0])
    assert an.fit_nlls_rows("exp_decay", x, Y[:0]) == []


def test_singular_rows_are_found_in_a_batched_solve():
    lhs = np.array([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0], [4.0, 2.0]])
    steps, singular = an._solve_rows(lhs, rhs)
    assert list(singular) == [1]
    assert isinstance(singular[1], np.linalg.LinAlgError)
    assert steps[0].tolist() == [1.0, 2.0] and steps[2].tolist() == [2.0, 1.0]
    assert np.isnan(steps[1]).all()


def test_each_batched_fit_logs_one_debug_record(caplog):
    x = np.arange(12.0)
    Y = np.array([0.4 * 0.9**x + 0.5, np.full(12, np.nan)])
    with caplog.at_level("DEBUG", logger="fluxqubit.analysis"):
        results = an.fit_nlls_rows("exp_decay", x, Y)
    records = [r for r in caplog.records if r.name == "fluxqubit.analysis"]
    assert len(records) == 1
    assert records[0].getMessage() == (
        f"fit_nlls_rows exp_decay: 2 rows, 1 failed, at most {results[0].iterations} iterations")


def test_fits_run_without_numpy_2_only_functions(monkeypatch):
    # the package supports numpy >= 1.24, which has no np.vecdot
    x = np.arange(12.0)
    Y = np.array([0.4 * q**x + 0.5 for q in (0.9, 0.8)])
    expected = an.fit_nlls_rows("exp_decay", x, Y)
    monkeypatch.delattr(np, "vecdot", raising=False)
    assert an.fit_nlls_rows("exp_decay", x, Y) == expected
    assert an.fit_nlls("exp_decay", x, Y[0]) == expected[0]


def test_row_costs_equal_the_one_dimensional_products():
    r = np.random.default_rng(3).normal(size=(40, 81)) * np.logspace(-8, 2, 40)[:, None]
    assert an._row_costs(r) == [float(row @ row) for row in r]
