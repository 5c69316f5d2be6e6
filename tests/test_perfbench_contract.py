"""The benchmark in perfbench/ wraps and samples fluxqubit functions by name.

Its tracer patches module attributes and a backend's instance methods, and
its worker samples the host's speed at two calls every workload makes.
These tests fail as soon as one of those names is renamed or removed, or
stops being looked up, so the benchmark keeps measuring the package.  They
also read perfbench's source: every `<module>.<name>` it takes from a
fluxqubit module must exist, and every call it makes to one must still
bind to that name's signature.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from fluxqubit import analysis, benchmarking, datafiles, demux, pulsesim, tomography

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACED_MODULES = (analysis, benchmarking, demux, pulsesim, tomography)
# perfbench/worker.py samples the host's speed at these two calls
SAMPLED = ((demux, "run_segments"), (benchmarking, "draw_sequence"))


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_tracer_wraps_every_name_and_restores_it(spans):
    device = datafiles.load_bundled_device("device_demux.cfg")
    backend = benchmarking.ChannelBackend()
    originals = [dict(vars(module)) for module in TRACED_MODULES]
    tracer = spans.Tracer()
    try:
        tracer.install(backend)  # AttributeError as soon as a wrapped name is gone
        assert "run" in vars(backend) and "survival_probability" in vars(backend)
        demux.calibrate(device, drive_amplitude=0.7, dt=0.05)
    finally:
        tracer.restore()
    for module, original in zip(TRACED_MODULES, originals):
        assert all(vars(module)[name] is value for name, value in original.items())
    assert "run" not in vars(backend) and "survival_probability" not in vars(backend)
    # the scans are counted from their grids, passed positionally as args[1] and args[2]
    assert tracer.counts["pulsesim.rabi_chevron.cells"] == 81 * (25 + 21 + 21 + 1)
    assert tracer.counts["pulsesim.ramsey_axis_scan.cells"] == 71


def test_tracer_observers_read_the_engine_and_reconstruction_results(spans):
    device = datafiles.load_bundled_device("device_demux.cfg")
    cal = demux.nominal_calibration(device, 0.7)
    tracer = spans.Tracer()
    try:
        tracer.install()
        demux.qpt_pipeline(device, cal, ["X90"], drive_amplitude=0.7)
    finally:
        tracer.restore()
    # one engine run per preparation and measurement setting, one reconstruction
    assert len(tracer.values["pulsesim.sim_ns"]) == 36
    assert all(t > 0.0 for t in tracer.values["pulsesim.sim_ns"])
    assert max(tracer.values["pulsesim.trace_drift"]) < pulsesim.TRACE_TOL_PER_US
    assert len(tracer.values["tomography.reconstruct.iterations"]) == 1
    assert tracer.values["tomography.reconstruct.converged"] == [True]


@pytest.mark.parametrize("module, name", SAMPLED)
def test_sampled_calls_exist_and_are_looked_up(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    if module is demux:
        device = datafiles.load_bundled_device("device_demux.cfg")
        cal = demux.nominal_calibration(device, 0.7)
        demux.simulate_sequence(device, demux.compile_gate("X90", cal), drive_amplitude=0.7)
    else:
        config = benchmarking.RBConfig(lengths=(1, 3), sequences_per_length=2)
        benchmarking.run_rb(benchmarking.ChannelBackend(), config)
    assert calls


def perfbench_reads():
    """(file, line, module, name, call) for every `<module>.<name>` in
    perfbench/*.py whose module was imported from fluxqubit in that file;
    `call` is the ast.Call when the name is called there, else None."""
    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "fluxqubit"
                   for alias in node.names}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reads.append((path.name, node.lineno, node.value.id, node.attr,
                              calls.get(id(node))))
    return reads


def test_every_name_perfbench_reads_from_fluxqubit_exists():
    reads = perfbench_reads()
    assert {module for _, _, module, _, _ in reads} >= {
        "benchmarking", "demux", "cliffords", "qcore", "datafiles", "analysis", "pulsesim",
        "tomography"}
    missing = [f"{file}:{line} {module}.{name}" for file, line, module, name, _ in reads
               if not hasattr(importlib.import_module(f"fluxqubit.{module}"), name)]
    assert missing == []


def test_every_call_perfbench_makes_into_fluxqubit_binds():
    checked, unbound = [], []
    for file, line, module, name, call in perfbench_reads():
        target = getattr(importlib.import_module(f"fluxqubit.{module}"), name, None)
        if call is None or not callable(target):
            continue
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                keyword.arg is None for keyword in call.keywords):
            continue  # *args or **kwargs: the arity is not in the source
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"{file}:{line} {module}.{name}: {exc}")
        checked.append(f"{module}.{name}")
    assert unbound == []
    # check_perfbench.py builds a DecayRecord from three positional arguments
    assert "benchmarking.DecayRecord" in checked
