import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxqubit import ConsistencyError
from fluxqubit import analysis as an
from fluxqubit import benchmarking as rb
from fluxqubit import cliffords as cl
from fluxqubit import pulsesim as ps
from fluxqubit.qcore import bloch_rotation, phase_aligned_distance, ptm_product


def analytic_depolarizing_p(lam: float) -> float:
    """Mean per-element polarization factor E[(1 - lam)^pulses] over the table."""
    total = 0.0
    for options in cl.DECOMPOSITIONS:
        total += np.mean([(1 - lam) ** cl.microwave_pulse_count(o) for o in options])
    return total / 24


def synthetic_record(lengths, a, p, b, exponent_shift=0):
    values = [[a * p ** (m - exponent_shift) + b] for m in lengths]
    stamps = [[0.0] for _ in lengths]
    return rb.DecayRecord(tuple(lengths), values, stamps)


def test_config_validation():
    with pytest.raises(ValueError):
        rb.RBConfig(lengths=(5, 3, 10))
    with pytest.raises(ValueError):
        rb.RBConfig(lengths=(), sequences_per_length=5)
    with pytest.raises(ValueError):
        rb.RBConfig(lengths=(1, 2), sequences_per_length=0)
    with pytest.raises(ValueError):
        rb.RBConfig(lengths=(1, 2), shots=0)
    with pytest.raises(ValueError):
        rb.GateNoiseModel(depolarizing_prob=1.5)


@pytest.mark.parametrize("field, value", [
    ("shots", 2.5), ("shots", True), ("shots", "10"),
    ("sequences_per_length", 2.5), ("sequences_per_length", True),
    ("sequences_per_length", None),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        rb.RBConfig(lengths=(1, 2), **{field: value})


def test_config_accepts_numpy_integer_counts():
    config = rb.RBConfig(lengths=(1, 2), sequences_per_length=np.int64(3), shots=np.int32(5))
    assert config.sequences_per_length == 3 and config.shots == 5


@pytest.mark.parametrize("lengths", [(1.5, 2.7, 3.9), (True, 2), (1, 2.0), ("1", 2)])
def test_config_rejects_non_integer_lengths(lengths):
    with pytest.raises(ValueError, match="lengths"):
        rb.RBConfig(lengths=lengths)


def test_config_accepts_numpy_integer_lengths():
    config = rb.RBConfig(lengths=np.array([1, 4, 16]))
    assert config.lengths == (1, 4, 16)
    assert all(type(m) is int for m in config.lengths)


def test_log_spaced_lengths():
    lengths = rb.log_spaced_lengths(1, 5000, 28)
    assert lengths[0] == 1 and lengths[-1] == 5000
    assert all(b > a for a, b in zip(lengths, lengths[1:]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(start=st.integers(1, 60), extra=st.integers(0, 6000), count=st.integers(1, 120))
def test_log_spaced_lengths_equals_the_unique_form(start, extra, count):
    # count above stop - start + 1 forces repeated rounded points
    grid = np.unique(np.round(np.logspace(np.log10(start), np.log10(start + extra), count)))
    assert rb.log_spaced_lengths(start, start + extra, count) == tuple(int(m) for m in grid)


def test_grid_helpers_do_not_import_numpy_ma():
    # numpy.ma costs about 16 ms and 1.3 MiB at start-up; np.unique pulls it in
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from fluxqubit import analysis, benchmarking, demux\n"
        "benchmarking.log_spaced_lengths(1, 400, 12)\n"
        "x = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 5.0])\n"
        "analysis.coarse_spectrum_peak(x, np.cos(x))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rb.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("start, stop, count, name", [
    (0, 10, 5, "start"), (-3, 10, 4, "start"), (1.5, 10, 3, "start"), (math.nan, 10, 3, "start"),
    (5, 1, 3, "stop"), (1, 10.5, 3, "stop"),
    (1, 10, 0, "count"), (1, 10, -2, "count"), (1, 10, 3.0, "count"), (1, 10, True, "count"),
])
def test_log_spaced_lengths_rejects_bad_arguments(start, stop, count, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            rb.log_spaced_lengths(start, stop, count)


def test_noiseless_rb_returns_unity():
    backend = rb.ChannelBackend(rb.GateNoiseModel())
    config = rb.RBConfig(lengths=(1, 5, 20, 80), sequences_per_length=5, seed=3)
    record = rb.run_rb(backend, config)
    for values in record.values:
        assert all(abs(v - 1.0) < 1e-12 for v in values)


def test_rb_is_deterministic_given_seed():
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=1e-3))
    config = rb.RBConfig(lengths=(1, 10, 50), sequences_per_length=8, seed=11, shots=200)
    first = rb.run_rb(backend, config)
    second = rb.run_rb(backend, config)
    assert first.values == second.values


def test_survival_shortcut_matches_full_backend():
    class SlowChannelBackend(rb.ChannelBackend):
        supports_survival_shortcut = False  # force the Bloch-vector path

    noise = rb.GateNoiseModel(depolarizing_prob=2e-3)
    fast = rb.ChannelBackend(noise, visibility=0.9)
    slow = SlowChannelBackend(noise, visibility=0.9)
    config = rb.RBConfig(lengths=(1, 8, 40), sequences_per_length=6, seed=5)
    fast_record = rb.run_rb(fast, config)
    slow_record = rb.run_rb(slow, config)
    for fv, sv in zip(fast_record.values, slow_record.values):
        assert np.allclose(fv, sv, atol=1e-12)


def test_depolarizing_rb_matches_analytic_composition():
    lam = 2e-3
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=lam))
    lengths = rb.log_spaced_lengths(1, 1500, 12)
    config = rb.RBConfig(lengths=lengths, sequences_per_length=25, seed=7)
    fit = rb.fit_rb(rb.run_rb(backend, config))
    expected_p = analytic_depolarizing_p(lam)
    assert abs(fit.p - expected_p) <= 3 * max(fit.stderr["p"], 1e-6)


def test_fit_rb_recovers_published_parameters_exactly():
    lengths = rb.log_spaced_lengths(1, 5000, 28)
    record = synthetic_record(lengths, 0.418, 0.99857, 0.558)
    fit = rb.fit_rb(record)
    assert abs(fit.a - 0.418) < 1e-9
    assert abs(fit.p - 0.99857) < 1e-9
    assert abs(fit.b - 0.558) < 1e-9


def test_average_fidelity_formula():
    assert abs(rb.average_fidelity_from_p(0.99857) - 0.9992850) < 1e-7
    assert rb.average_fidelity_from_p(1.0) == 1.0


def test_fit_rb_needs_three_lengths():
    record = synthetic_record([1, 10], 0.5, 0.99, 0.5)
    with pytest.raises(ValueError):
        rb.fit_rb(record)


class UnsampledBackend(rb.ChannelBackend):
    """Fails the test if any string is measured."""

    def survival_probability(self, pulse_count):
        raise AssertionError("a string was measured before the length check")


@pytest.mark.parametrize("entry", ["fit_rb", "fit_pb", "temporal_stability"])
def test_each_fitting_entry_point_refuses_three_lengths_before_any_work(entry):
    # exp_decay has 3 parameters and fit_nlls needs one point more
    record = synthetic_record([1, 10, 100], 0.5, 0.99, 0.5)
    config = rb.RBConfig(lengths=(1, 10, 100), sequences_per_length=1)
    call = {"fit_rb": lambda: rb.fit_rb(record),
            "fit_pb": lambda: rb.fit_pb(record),
            "temporal_stability": lambda: rb.temporal_stability(UnsampledBackend(), config,
                                                                iterations=3, window=3)}[entry]
    with pytest.raises(ValueError, match=f"^{entry} needs at least 4 distinct lengths to fit "
                                         r"A p\^m \+ B, got 3$"):
        call()
    four = synthetic_record([1, 10, 100, 300], 0.5, 0.99, 0.5)
    assert abs(rb.fit_rb(four).p - 0.99) < 1e-9 and abs(rb.fit_pb(four).u - 0.99) < 1e-9


def test_noiseless_pb_purity_is_unity():
    backend = rb.ChannelBackend(rb.GateNoiseModel())
    config = rb.RBConfig(lengths=(1, 4, 16), sequences_per_length=4, seed=9)
    result = rb.run_pb(backend, config)
    for values in result.purity.values:
        assert all(abs(v - 1.0) < 1e-12 for v in values)


def test_coherent_noise_preserves_purity():
    # the state stays pure under unitary noise; the estimate wobbles only
    # through the (equally overrotated) analysis pulses
    backend = rb.ChannelBackend(rb.GateNoiseModel(overrotation=0.01))
    config = rb.RBConfig(lengths=(1, 8, 32, 128, 256), sequences_per_length=8, seed=13)
    result = rb.run_pb(backend, config)
    means = result.purity.means()
    assert np.all(means > 0.99)
    assert np.ptp(means) < 5e-3  # no systematic decay
    fit = rb.fit_pb(result.purity)
    sigma = fit.stderr.get("u", 0.0) if fit.stderr else 0.0
    assert fit.fit.degenerate or abs(fit.u - 1.0) <= max(3 * sigma, 5e-3)


def test_depolarizing_purity_decays_at_twice_the_rate():
    lam = 3e-3
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=lam))
    lengths = rb.log_spaced_lengths(1, 800, 10)
    config = rb.RBConfig(lengths=lengths, sequences_per_length=30, seed=17)
    result = rb.run_pb(backend, config)
    pb_fit = rb.fit_pb(result.purity)
    rb_fit = rb.fit_rb(result.survival)
    ratio = (1 - pb_fit.u) / (1 - rb_fit.p)
    assert abs(ratio - 2.0) < 0.15


def test_pb_and_rb_total_error_agree_on_same_data():
    lam = 2e-3
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=lam))
    lengths = rb.log_spaced_lengths(1, 1200, 12)
    config = rb.RBConfig(lengths=lengths, sequences_per_length=25, seed=19)
    result = rb.run_pb(backend, config)
    eps_pb = 1.0 - rb.fit_rb(result.survival).average_fidelity
    rb_config = rb.RBConfig(lengths=lengths, sequences_per_length=25, seed=23)
    eps_rb = 1.0 - rb.fit_rb(rb.run_rb(backend, rb_config)).average_fidelity
    sigma = rb.fit_rb(result.survival).stderr["average_fidelity"]
    sigma += rb.fit_rb(rb.run_rb(backend, rb_config)).stderr["average_fidelity"]
    assert abs(eps_pb - eps_rb) <= 3 * max(sigma, 1e-6)


def test_fit_pb_recovers_published_parameters_exactly():
    lengths = rb.log_spaced_lengths(1, 3000, 28)
    record = synthetic_record(lengths, 0.85, 0.99798, 0.09, exponent_shift=1)
    fit = rb.fit_pb(record)
    assert abs(fit.a - 0.85) < 1e-9
    assert abs(fit.u - 0.99798) < 1e-9
    assert abs(fit.b - 0.09) < 1e-9


def test_incoherent_error_values():
    assert abs(rb.incoherent_error_from_u(0.99798) - 5.05e-4) < 1e-5
    assert abs(rb.incoherent_error_from_u(0.99798) - 0.00050) < 1e-5
    assert rb.incoherent_error_from_u(1.0) == 0.0


def test_coherent_error_arithmetic_and_warning():
    assert abs(rb.coherent_error(0.00094, 0.00050) - 0.00044) < 1e-15
    assert rb.coherent_error(0.3, 0.3) == 0.0
    with pytest.warns(UserWarning):
        value = rb.coherent_error(0.001, 0.0012)
    assert abs(value - (-0.0002)) < 1e-15
    with pytest.raises(ValueError):
        rb.coherent_error(-0.1, 0.0)


def test_temporal_stability_noiseless_is_flat():
    backend = rb.ChannelBackend(rb.GateNoiseModel())
    config = rb.RBConfig(lengths=(1, 5, 25, 100), sequences_per_length=1, seed=29)
    series = rb.temporal_stability(backend, config, iterations=15, window=5)
    assert np.all(np.abs(series.average_fidelity - 1.0) < 1e-9)
    assert series.times[1] - series.times[0] == 30.0


def test_temporal_stability_window_validation():
    backend = rb.ChannelBackend(rb.GateNoiseModel())
    config = rb.RBConfig(lengths=(1, 5, 25), sequences_per_length=1)
    with pytest.raises(ValueError):
        rb.temporal_stability(backend, config, iterations=10, window=4)
    with pytest.raises(ValueError):
        rb.temporal_stability(backend, config, iterations=3, window=5)


def test_temporal_stability_scatter_shrinks_with_window():
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=2e-3))
    lengths = rb.log_spaced_lengths(1, 600, 10)
    config = rb.RBConfig(lengths=lengths, sequences_per_length=1, seed=31)
    iterations = 400
    narrow = rb.temporal_stability(backend, config, iterations, window=11)
    wide = rb.temporal_stability(backend, config, iterations, window=99)
    interior = slice(50, iterations - 50)
    shrink = np.std(narrow.average_fidelity[interior]) / np.std(
        wide.average_fidelity[interior]
    )
    assert shrink >= np.sqrt(3)


class FailingBackend(rb.ChannelBackend):
    """Every string fails: `channel`, and so `run`, raises; no shortcut."""

    supports_survival_shortcut = False

    def channel(self, steps):
        self.raised = ArithmeticError("broken")
        raise self.raised


class FailingShortcut(rb.ChannelBackend):
    """Noiseless, hence depolarizing-only: RB and stability take the
    survival shortcut, which raises."""

    def survival_probability(self, pulse_count):
        self.raised = ArithmeticError("broken")
        raise self.raised


@pytest.mark.parametrize("path, backend, where", [
    ("rb", FailingBackend, "length 1, sequence 0"),
    ("rb", FailingShortcut, "length 1, sequence 0"),
    ("pb", FailingBackend, "length 1, sequence 0 (z)"),
    ("stability", FailingBackend, "iteration 0, length 1"),   # the string loop
    ("stability", FailingShortcut, "iteration 0, length 1"),  # the table path
], ids=["rb-backend", "rb-shortcut", "pb", "stability-loop", "stability-table"])
def test_every_benchmarking_path_keeps_the_error_and_names_where(path, backend, where):
    backend = backend()
    config = rb.RBConfig(lengths=(1, 2, 3, 4), sequences_per_length=1, seed=1)
    run = {"rb": lambda: rb.run_rb(backend, config),
           "pb": lambda: rb.run_pb(backend, config),
           "stability": lambda: rb.temporal_stability(backend, config, iterations=3, window=3)}
    with pytest.raises(ArithmeticError, match=re.escape(f"backend failed at {where}: broken")) \
            as info:
        run[path]()
    assert type(info.value) is ArithmeticError
    assert info.value.__cause__ is backend.raised


def test_pb_names_a_missing_channel_and_where():
    class RunOnly:
        supports_survival_shortcut = False
        visibility = 1.0

        def run(self, steps, shots, rng):
            return 1.0

    config = rb.RBConfig(lengths=(1, 2, 3), sequences_per_length=1, seed=1)
    with pytest.raises(AttributeError, match=r"length 1, sequence 0 \(z\): .*'channel'"):
        rb.run_pb(RunOnly(), config)


def test_pulse_backend_decay_reduces_survival():
    backend = rb.PulseBackend(t1_us=20.0, t2_us=20.0, gate_time_ns=20.0)
    config = rb.RBConfig(lengths=(1, 30, 120, 400), sequences_per_length=8, seed=37)
    fit = rb.fit_rb(rb.run_rb(backend, config))
    assert 0.9 < fit.p < 1.0
    assert fit.average_fidelity < 1.0


def constant_readings(p_hat):
    """Every PB readout reads the same fraction p_hat of ground-state outcomes."""
    return mock.patch.object(rb, "_read_ground", lambda *args: p_hat)


def test_pb_bias_correction_is_unbiased_over_the_binomial_pmf():
    # E over k ~ Binomial(n, p) of the corrected purity, summed exactly
    n, p = 4, 0.8
    config = rb.RBConfig(lengths=(1,), sequences_per_length=1, shots=n, seed=3)
    expected = 0.0
    for k in range(n + 1):
        pmf = math.comb(n, k) * p**k * (1 - p) ** (n - k)
        with constant_readings(k / n):
            result = rb.run_pb(rb.ChannelBackend(), config, bias_corrected=True)
        expected += pmf * result.purity.values[0][0] / 3  # three equal readouts
    assert abs(expected - (2 * p - 1) ** 2) < 1e-12  # 0.36; dividing by n gave 0.40


def test_pb_bias_correction_needs_two_shots():
    config = rb.RBConfig(lengths=(1,), sequences_per_length=1, shots=1)
    with pytest.raises(ValueError, match="2 shots"):
        rb.run_pb(rb.ChannelBackend(), config, bias_corrected=True)
    with constant_readings(1.0):
        assert rb.run_pb(rb.ChannelBackend(), config).purity.values[0][0] == 3.0


@pytest.mark.parametrize("visibility", [0.0, -0.1, 1.5, math.nan])
def test_pulse_backend_rejects_visibility_outside_unit_interval(visibility):
    with pytest.raises(ValueError, match="visibility"):
        rb.PulseBackend(visibility=visibility)


@pytest.mark.parametrize("t1, t2", [(0.0, 1.0), (-5.0, 1.0), (math.nan, 1.0),
                                    (10.0, 0.0), (10.0, -2.0), (10.0, math.nan)])
def test_pulse_backend_rejects_nonpositive_or_nan_coherence_times(t1, t2):
    with pytest.raises(ValueError, match="t1 and t2"):
        rb.PulseBackend(t1_us=t1, t2_us=t2)
    rb.PulseBackend(t1_us=math.inf, t2_us=math.inf)  # no decay at all stays allowed


@pytest.mark.parametrize("gate_time_ns", [0.0, -1.0, math.nan, math.inf])
def test_pulse_backend_rejects_nonpositive_gate_time(gate_time_ns):
    with pytest.raises(ValueError, match="gate_time_ns"):
        rb.PulseBackend(t1_us=20.0, gate_time_ns=gate_time_ns)


@pytest.mark.parametrize("field", ["overrotation", "axis_error"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_noise_model_rejects_non_finite_coherent_errors(field, value):
    with pytest.raises(ValueError, match=field):
        rb.GateNoiseModel(**{field: value})


def test_pulse_ptms_are_cached_read_only_and_few():
    backend = rb.ChannelBackend(rb.GateNoiseModel(1e-3, 1e-3, overrotation=0.02, axis_error=0.01))
    rb._pulse_ptm.cache_clear()
    rb.run_rb(backend, rb.RBConfig(lengths=(1, 20, 100), sequences_per_length=5, seed=41))
    # 3 amounts x 4 exact quarter-turn axes
    assert rb._pulse_ptm.cache_info().currsize == 12
    ptm = backend.pulse_ptm(np.pi / 2, 0.0)
    assert ptm is backend.pulse_ptm(np.pi / 2, 0.0)
    assert not ptm.flags.writeable
    # one read-only PTM per Clifford step, built once per backend
    assert backend.step_table is backend.step_table
    assert backend.step_table.shape == (148, 4, 4) and not backend.step_table.flags.writeable


def test_each_backend_multiplies_its_own_noise_which_is_read_only():
    steps = cl.compile_cliffords([12, 14, 12], np.random.default_rng(3))[0]
    backends = [rb.ChannelBackend(), rb.ChannelBackend(rb.GateNoiseModel(overrotation=0.1)),
                rb.PulseBackend(t1_us=20.0, t2_us=20.0), rb.PulseBackend(t1_us=5.0, t2_us=5.0)]
    channels = [backend.channel(steps) for backend in backends]
    for backend, channel in zip(backends, channels):
        expected = ptm_product([backend.pulse_ptm(*pulse) for pulse in cl.decode_steps(steps)])
        assert np.max(np.abs(channel - expected)) <= 1e-14
        assert np.array_equal(backend.channel(tuple(steps)), channel)  # not a 2-D index
    for a, b in ((0, 1), (2, 3)):
        assert np.max(np.abs(channels[a] - channels[b])) > 1e-3
    with pytest.raises(AttributeError):
        backends[0].noise = rb.GateNoiseModel(overrotation=0.1)
    assert backends[0].noise == rb.GateNoiseModel()
    assert np.array_equal(backends[0].channel(steps), channels[0])


# -- the loops the PTM backends replaced, kept here as the reference ---------

def bloch_loop_channel_run(noise, visibility, pulses):
    v = np.array([0.0, 0.0, 1.0])
    for amount, axis_angle in pulses:
        angle = amount
        if noise.overrotation:
            angle += math.copysign(noise.overrotation, amount)
        axis = axis_angle + noise.axis_error
        n = np.array([math.cos(axis), math.sin(axis), 0.0])
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        v = cos_a * v + sin_a * np.cross(n, v) + (1 - cos_a) * (n @ v) * n
        if noise.depolarizing_prob:
            v = (1.0 - noise.depolarizing_prob) * v
        if noise.amplitude_damping_prob:
            gamma = noise.amplitude_damping_prob
            v = np.array([math.sqrt(1 - gamma) * v[0], math.sqrt(1 - gamma) * v[1],
                          gamma + (1 - gamma) * v[2]])
    return 0.5 + visibility * (0.5 * (1.0 + v[2]) - 0.5)


def density_loop_pulse_run(t1_us, t2_us, tau, visibility, pulses):
    t1, t2 = t1_us * 1e3, t2_us * 1e3
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    for amount, axis_angle in pulses:
        u = bloch_rotation((math.cos(axis_angle), math.sin(axis_angle), 0.0), amount)
        rho = u @ rho @ u.conj().T
        if not math.isinf(t1):
            gamma = 1.0 - math.exp(-tau / t1)
            rho = np.array([[rho[0, 0] + gamma * rho[1, 1], math.sqrt(1 - gamma) * rho[0, 1]],
                            [math.sqrt(1 - gamma) * rho[1, 0], (1 - gamma) * rho[1, 1]]])
        rate = 0.0
        if not math.isinf(t2):
            rate = 1.0 / t2 - (0.0 if math.isinf(t1) else 0.5 / t1)
        if rate > 0.0:
            decay = math.exp(-tau * rate)
            rho = np.array([[rho[0, 0], decay * rho[0, 1]], [decay * rho[1, 0], rho[1, 1]]])
    return 0.5 + visibility * (rho[0, 0].real - 0.5)


angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
pulse_lists = st.lists(
    st.one_of(st.tuples(angles, angles),
              st.sampled_from([(a, x) for a in (np.pi, np.pi / 2, -np.pi / 2)
                               for x in (0.0, np.pi / 2, np.pi, -np.pi / 2)])),
    max_size=80,
)
probabilities = st.one_of(st.just(0.0), st.floats(0.0, 0.2))
coherent = st.one_of(st.just(0.0), st.floats(-0.3, 0.3))
visibilities = st.floats(0.5, 1.0)
times_us = st.one_of(st.just(math.inf), st.floats(0.2, 100.0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(pulses=pulse_lists, indices=st.lists(st.integers(0, 23), max_size=80),
       quarters=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       depolarizing=probabilities, damping=probabilities,
       overrotation=coherent, axis_error=coherent, visibility=visibilities,
       t1=times_us, t2_ratio=st.floats(0.05, 2.0),
       tau=st.floats(1.0, 200.0))
def test_ptm_backends_match_the_step_loops(pulses, indices, quarters, seed, depolarizing,
                                           damping, overrotation, axis_error, visibility, t1,
                                           t2_ratio, tau):
    noise = rb.GateNoiseModel(depolarizing, damping, overrotation, axis_error)
    t2 = t1 * t2_ratio
    steps = cl.compile_cliffords(indices, np.random.default_rng(seed), quarters)[0]
    for backend, loop in (
            (rb.ChannelBackend(noise, visibility),
             lambda pulses: bloch_loop_channel_run(noise, visibility, pulses)),
            (rb.PulseBackend(t1, t2, tau, visibility),
             lambda pulses: density_loop_pulse_run(t1, t2, tau, visibility, pulses))):
        # any pulse through `pulse_ptm`, and compiled step ids through `run`
        ptm = ptm_product([backend.pulse_ptm(*pulse) for pulse in pulses])
        assert abs(rb._read_ground(ptm @ rb._GROUND, visibility, None, None)
                   - loop(pulses)) <= 1e-12
        assert abs(backend.run(steps, None, None) - loop(cl.decode_steps(steps))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_compiled_sequence_plus_recovery_is_the_identity(m, seed):
    rng = np.random.default_rng(seed)
    steps, quarters = rb.compile_sequence(*rb.draw_sequence(m, rng), rng)
    assert len(steps) == m + 1
    compiled = cl.PhysicalPulseList(cl.decode_steps(steps), cl.QUARTER_TURNS[quarters])
    assert phase_aligned_distance(cl.physical_unitary(compiled), np.eye(2)) < 1e-8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_draw_sequence_is_the_drawn_elements_and_recovery_gates_recovery(m, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    gates, recovery = rb.draw_sequence(m, rng)
    assert [g.index for g in gates] == reference.integers(24, size=m).tolist()
    assert recovery == cl.recovery_gate(gates)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_corrupted_inverse_table_fails_the_draw_sequence_identity_check(monkeypatch):
    monkeypatch.setattr(cl, "_INV", cl._INV[1:] + cl._INV[:1])  # every entry now wrong
    for m in (0, 1, 17):
        with pytest.raises(ConsistencyError, match="not the identity"):
            rb.draw_sequence(m, np.random.default_rng(m))


def per_readout_pb(backend, config):
    """PB with each readout's whole string compiled and run, kept as the
    reference: base plus analysis tail through `backend.run`, drawing from
    the sequence's generator in run_pb's order.  Returns the strings run and
    the purity and survival values per length."""
    strings, purity, survival = [], [[] for _ in config.lengths], [[] for _ in config.lengths]
    for i_m, m in enumerate(config.lengths):
        for j in range(config.sequences_per_length):
            rng = rb._sequence_rng(config.seed, "pb", i_m, j)
            base, quarters = rb.compile_sequence(*rb.draw_sequence(m, rng), rng)
            expectations = []
            for _, analysis in rb._ANALYSIS_STEPS:
                strings.append(base + cl.compile_cliffords(analysis, rng, quarters)[0])
                expectations.append(2.0 * backend.run(strings[-1], config.shots, rng) - 1.0)
            purity[i_m].append(float(sum(value**2 for value in expectations)))
            survival[i_m].append(0.5 * (1.0 + expectations[0]))
    return strings, purity, survival


def shared_readouts(backend, config):
    """run_pb's readouts: each readout's whole string, rebuilt from what the
    channel calls composed (the base, then each readout's analysis tail),
    each readout's P_g, and the result."""
    composed, values = [], []
    channel, read_ground = backend.channel, rb._read_ground

    def recording_channel(steps):
        composed.append(list(steps))
        return channel(steps)

    def recording_read(state, *args):
        values.append(read_ground(state, *args))
        return values[-1]

    backend.channel = recording_channel
    try:
        with mock.patch.object(rb, "_read_ground", recording_read):
            result = rb.run_pb(backend, config)
    finally:
        del backend.channel
    strings = []
    for base, *tails in zip(*[iter(composed)] * len(rb._ANALYSIS_STEPS)):
        strings += [base] + [base + tail for tail in tails]  # the z readout has no tail
    return strings, values, result


def test_pb_readouts_are_the_base_string_then_each_analysis_rotation():
    # reference: decompose every element and compile each readout's whole
    # string, drawing from the sequence's generator in the same order
    config = rb.RBConfig(lengths=(1, 7, 30), sequences_per_length=3, seed=43)
    expected = []
    for i_m, m in enumerate(config.lengths):
        for j in range(config.sequences_per_length):
            rng = rb._sequence_rng(config.seed, "pb", i_m, j)
            gates, recovery = rb.draw_sequence(m, rng)
            base = sum((cl.decompose(g, rng).gates for g in gates + (recovery,)), ())
            for tail in ((), cl.decompose(cl.clifford(15), rng).gates,
                         cl.decompose(cl.clifford(12), rng).gates):
                expected.append(cl.compile_virtual_z(cl.PrimitiveSequence(base + tail, -1)).pulses)
    noise = rb.GateNoiseModel(2e-3, 1e-3, overrotation=0.02, axis_error=0.01)
    for strings in (shared_readouts(rb.ChannelBackend(noise), config)[0],
                    per_readout_pb(rb.ChannelBackend(noise), config)[0]):
        assert [cl.decode_steps(steps) for steps in strings] == expected
    # with shots, each readout's binomial follows its tail's draws in both
    config = dataclasses.replace(config, shots=200)
    shared = rb.run_pb(rb.ChannelBackend(noise), config)
    _, purity, survival = per_readout_pb(rb.ChannelBackend(noise), config)
    assert shared.purity.values == purity
    assert shared.survival.values == survival
    assert len(set(np.concatenate(shared.survival.values))) > 3  # the shots are not all alike


pb_backends = st.one_of(
    st.builds(lambda d, a, o, x, v: rb.ChannelBackend(rb.GateNoiseModel(d, a, o, x), v),
              probabilities, probabilities, coherent, coherent, visibilities),
    st.builds(lambda t1, ratio, tau, v: rb.PulseBackend(t1, t1 * ratio, tau, v),
              times_us, st.floats(0.05, 2.0), st.floats(1.0, 200.0), visibilities),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(backend=pb_backends, indices=st.lists(st.integers(0, 23), max_size=200),
       quarters=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_step_table_channel_is_the_product_of_its_decoded_pulses(backend, indices, quarters,
                                                                 seed):
    steps = cl.compile_cliffords(indices, np.random.default_rng(seed), quarters)[0]
    expected = ptm_product([backend.pulse_ptm(*pulse) for pulse in cl.decode_steps(steps)])
    assert np.max(np.abs(backend.channel(steps) - expected)) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(backend=pb_backends, m=st.integers(2, 120), seed=st.integers(0, 2**32 - 1))
def test_shared_pb_readouts_equal_running_base_plus_tail(backend, m, seed):
    config = rb.RBConfig(lengths=(1, m), sequences_per_length=2, seed=seed)
    strings, values, _ = shared_readouts(backend, config)
    assert len(values) == len(strings) == 2 * 2 * len(rb._ANALYSIS_STEPS)
    for string, p_g in zip(strings, values):
        assert abs(p_g - backend.run(string, None, None)) <= 1e-12


@pytest.mark.parametrize("failing_call, where", [(1, "length 1, sequence 0 (z)"),
                                                 (3, "length 1, sequence 0 (y)"),
                                                 (5, "length 1, sequence 1 (x)")])
def test_shared_pb_failure_keeps_its_type_and_names_where(failing_call, where):
    class FailingChannel(rb.ChannelBackend):
        calls = 0

        def channel(self, steps):  # per sequence: the base, then the x and y tails
            self.calls += 1
            if self.calls == failing_call:
                raise ArithmeticError("broken")
            return super().channel(steps)

    config = rb.RBConfig(lengths=(1, 2, 3), sequences_per_length=2, seed=1)
    with pytest.raises(ArithmeticError, match=re.escape(f"{where}: broken")) as info:
        rb.run_pb(FailingChannel(), config)
    assert type(info.value) is ArithmeticError
    assert type(info.value.__cause__) is ArithmeticError and str(info.value.__cause__) == "broken"


RUN_RECORD = re.compile(r"(run_rb|run_pb): (\d+) sequences, (\d+) step maps multiplied, "
                        r"(\d+) distinct steps, (\S+) s wall$")


@pytest.mark.parametrize("noise", [rb.GateNoiseModel(overrotation=0.02),
                                   rb.GateNoiseModel(depolarizing_prob=1e-3)],
                         ids=["backend", "shortcut"])
def test_rb_and_pb_each_log_one_debug_record(caplog, noise):
    backend = rb.ChannelBackend(noise)
    config = rb.RBConfig(lengths=(1, 5, 20), sequences_per_length=3, seed=5)
    multiplied = {"run_rb": [], "run_pb": []}
    channel, current = backend.channel, []

    def recording_channel(steps):  # run goes through channel too
        multiplied[current[-1]].append(list(steps))
        return channel(steps)

    backend.channel = recording_channel
    with caplog.at_level("DEBUG", logger="fluxqubit.benchmarking"):
        for name, run in (("run_rb", rb.run_rb), ("run_pb", rb.run_pb)):
            current.append(name)
            run(backend, config)
    records = [r.getMessage() for r in caplog.records if r.name == "fluxqubit.benchmarking"]
    assert len(records) == 2
    for message, name in zip(records, ("run_rb", "run_pb")):
        fields = RUN_RECORD.match(message)
        assert fields is not None, message
        strings = multiplied[name]
        assert fields.groups()[:4] == (name, "9", str(sum(map(len, strings))),
                                       str(len(set().union(*strings))))
        assert float(fields.group(5)) >= 0.0
    assert bool(multiplied["run_rb"]) is not backend.supports_survival_shortcut
    caplog.clear()
    with caplog.at_level("INFO", logger="fluxqubit.benchmarking"):
        rb.run_rb(backend, config)
    assert not caplog.records


def test_timestamps_count_sequences_in_run_order():
    config = rb.RBConfig(lengths=(1, 4), sequences_per_length=3, seed=47)
    expected = [[0.0, 2.0, 4.0], [6.0, 8.0, 10.0]]
    assert rb.run_rb(rb.ChannelBackend(), config, seconds_per_sequence=2.0).timestamps == expected
    pb = rb.run_pb(rb.ChannelBackend(), config, seconds_per_sequence=2.0)
    assert pb.purity.timestamps == pb.survival.timestamps == expected


def loop_survival(backend, config, iterations):
    """The stability P_g matrix string by string: draw, compile, measure."""
    survival = np.empty((iterations, len(config.lengths)))
    for j in range(iterations):
        for i_m, m in enumerate(config.lengths):
            rng = rb._sequence_rng(config.seed, "stability", j, i_m)
            steps = rb.compile_sequence(*rb.draw_sequence(m, rng), rng)[0]
            survival[j, i_m] = rb._measure(backend, steps, config.shots, rng, "")
    return survival


def sequential_stability_fidelities(backend, config, iterations, window):
    """The moving-window refit as a chain of single fits, each window
    warm-started from the previous one's parameters (the reference)."""
    survival = loop_survival(backend, config, iterations)
    m_arr = np.asarray(config.lengths, dtype=float)
    half = window // 2
    fidelities = np.empty(iterations)
    converged = np.empty(iterations, dtype=bool)
    p0 = None
    for j in range(iterations):
        h = min(half, j, iterations - 1 - j)
        fit = an.fit_nlls("exp_decay", m_arr, survival[j - h:j + h + 1].mean(axis=0), p0=p0)
        fidelities[j] = rb.average_fidelity_from_p(fit["p"])
        converged[j] = fit.converged
        p0 = [fit["A"], fit["p"], fit["B"]]
    return fidelities, converged


@pytest.mark.parametrize("shots", [None, 200])
def test_batched_stability_refit_matches_the_sequential_chain(shots):
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=2e-3), visibility=0.9)
    config = rb.RBConfig(lengths=rb.log_spaced_lengths(1, 600, 8), sequences_per_length=1,
                         shots=shots, seed=41)
    iterations, window = 60, 11
    series = rb.temporal_stability(backend, config, iterations=iterations, window=window)
    expected, expected_converged = sequential_stability_fidelities(
        backend, config, iterations, window)
    assert len(series.fits) == iterations
    converged = np.array([fit.converged for fit in series.fits])
    # every full-width window converges from either start and lands on the
    # same minimum; a shot-noisy edge window of 1-3 iterations can run off
    # towards p -> 1 without converging, and then its end point depends on
    # where it started
    full = slice(window // 2, iterations - window // 2)
    assert converged[full].all() and expected_converged[full].all()
    both = converged & expected_converged
    assert np.max(np.abs(series.average_fidelity - expected)[both]) <= 1e-9
    if shots is None:
        assert both.all()
    for fit, fidelity in zip(series.fits, series.average_fidelity):
        assert rb.average_fidelity_from_p(fit["p"]) == fidelity


@pytest.mark.parametrize("iterations, window", [
    (10, -1), (10, 0), (10, 3.0), (10, True), (5.0, 3), (True, 1),
])
def test_temporal_stability_rejects_bad_counts(iterations, window):
    backend = rb.ChannelBackend(rb.GateNoiseModel())
    config = rb.RBConfig(lengths=(1, 5, 25), sequences_per_length=1)
    with pytest.raises(ValueError):
        rb.temporal_stability(backend, config, iterations=iterations, window=window)


def _stability_setup(shots):
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=2e-3), visibility=0.9)
    config = rb.RBConfig(lengths=rb.log_spaced_lengths(1, 600, 8), sequences_per_length=1,
                         shots=shots, seed=41)
    return backend, config


def test_unconverged_stability_windows_are_named_in_one_warning():
    backend, config = _stability_setup(200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = rb.temporal_stability(backend, config, iterations=60, window=11)
    unconverged = [j for j, fit in enumerate(series.fits) if not fit.converged]
    assert len(unconverged) == 3  # shot-noisy edge windows of this seed
    assert [str(w.message) for w in caught] == [
        f"the fits of stability windows {unconverged} did not converge; "
        f"their F values are kept in the series"]
    assert caught[0].category is UserWarning and caught[0].filename == __file__
    # the answers are unchanged: every window, converged or not, reports its fit's F
    assert series.average_fidelity.tolist() == [
        rb.average_fidelity_from_p(fit["p"]) for fit in series.fits]


def test_converged_stability_windows_raise_no_warning():
    backend, config = _stability_setup(None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = rb.temporal_stability(backend, config, iterations=60, window=11)
    assert all(fit.converged for fit in series.fits)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), shots=st.one_of(st.none(), st.integers(1, 500)),
       visibility=st.floats(0.05, 1.0), depolarizing=st.floats(0.0, 0.05),
       middle=st.sets(st.integers(2, 299), max_size=4), longest=st.integers(300, 450),
       iterations=st.integers(1, 6))
def test_table_stability_survival_is_the_string_loop_bit_for_bit(
        seed, shots, visibility, depolarizing, middle, longest, iterations):
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=depolarizing), visibility)
    config = rb.RBConfig(lengths=sorted({1, longest} | middle), sequences_per_length=1,
                         shots=shots, seed=seed)
    assert backend.supports_survival_shortcut
    table = rb._stability_survival(backend, config, iterations)
    assert table.tobytes() == loop_survival(backend, config, iterations).tobytes()


def test_stability_tables_are_the_decomposition_counts():
    assert rb._CHOICES.tolist() == [len(options) for options in cl.DECOMPOSITIONS]
    assert rb._PULSE_COUNTS.tolist() == [
        [cl.microwave_pulse_count(kinds) for kinds in options] + [0] * (4 - len(options))
        for options in cl.DECOMPOSITIONS]


def test_shortcut_stability_takes_the_table_path(monkeypatch):
    def no_strings(*args):
        raise AssertionError("a string was drawn or compiled one by one")

    monkeypatch.setattr(rb, "draw_sequence", no_strings)
    monkeypatch.setattr(rb, "compile_sequence", no_strings)
    backend, config = _stability_setup(None)
    rb.temporal_stability(backend, config, iterations=11, window=11)


def test_corrupted_inverse_table_fails_the_all_strings_identity_check(monkeypatch):
    monkeypatch.setattr(rb, "_INV_TABLE", np.roll(rb._INV_TABLE, 1))
    backend, config = _stability_setup(None)
    with pytest.raises(ConsistencyError, match="not the identity"):
        rb.temporal_stability(backend, config, iterations=11, window=11)


def test_shortcut_failure_on_the_table_path_names_where():
    class FailingShortcut(rb.ChannelBackend):
        calls = 0

        def survival_probability(self, pulse_count):
            self.calls += 1
            if self.calls == 5:  # lengths in order, all iterations of each
                raise ArithmeticError("broken")
            return super().survival_probability(pulse_count)

    config = rb.RBConfig(lengths=(1, 2, 3, 4), sequences_per_length=1, seed=1)
    with pytest.raises(ArithmeticError, match="iteration 1, length 2: broken") as info:
        rb.temporal_stability(FailingShortcut(), config, iterations=3, window=3)
    assert type(info.value) is ArithmeticError
    assert type(info.value.__cause__) is ArithmeticError and str(info.value.__cause__) == "broken"


def test_pulse_backend_and_engine_share_one_relaxation_map():
    t1, t2, tau = 20.0, 10.0, 35.0
    p = ps.DeviceParams(f_max=5.2, i_offset=40.0, i_period=120.0, i_idle=30.0, f_cw=5.147,
                        rabi_per_volt=17.5, t1=t1, t2=t2)
    engine = ps._decoherence_ptm(p, np.array([p.idle_frequency]), tau)[0]
    backend = rb.PulseBackend(t1_us=t1, t2_us=t2, gate_time_ns=tau).pulse_ptm(0.0, 0.0)
    assert np.max(np.abs(engine - backend)) <= 1e-15
    for make in (lambda: rb.PulseBackend(t1_us=5.0, t2_us=10.5),
                 lambda: ps.DeviceParams(**{**vars(p), "t1": 5.0, "t2": 10.5})):
        with pytest.raises(ValueError, match=r"t2 cannot exceed 2 \* t1"):
            make()


def test_survival_shortcut_is_the_true_probability_read_out_by_the_caller():
    backend = rb.ChannelBackend(rb.GateNoiseModel(depolarizing_prob=2e-3), visibility=0.9)
    assert backend.survival_probability(40) == 0.5 + 0.5 * (1.0 - 2e-3) ** 40
    config = rb.RBConfig(lengths=(1, 4), sequences_per_length=2, seed=3)
    record = rb.run_rb(backend, config)
    for value in np.concatenate(record.values):
        # 0.5 + 0.9 * 0.5 * (1 - lambda)^n for a whole pulse count n: visibility applied once
        pulses = math.log((value - 0.5) / 0.45) / math.log(1.0 - 2e-3)
        assert abs(pulses - round(pulses)) < 1e-6
