"""The benchmark's own tests: contract, smoke runs, and one negative test per check.

Run from the repository root (the name keeps them out of the default pytest
collection, so the repository's test suite does not run them):

    python3 -m pytest -q perfbench/check_perfbench.py
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from fluxqubit import benchmarking, demux, qcore  # noqa: E402
from metrics import END_TO_END_METRICS, PER_LAYER_METRICS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code and with the contract's limits
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        PER_LAYER_METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


# ---------------------------------------------------------------------------
# Smoke runs at tiny size, untraced and traced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "0", "--scale", "tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m[0] for m in END_TO_END_METRICS]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "1", "--scale", "tiny"))
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m[0] for m in PER_LAYER_METRICS]
    if workload.startswith("demux"):
        assert metrics["pulsesim.run_segments.calls"] > 0
        assert metrics["tomography.reconstruct.calls"] == 1
        assert metrics["benchmarking.draw_sequence.calls"] == 0
    if workload == "demux_qpt_t1t2":
        assert metrics["pulsesim.run_segments.wall_share"] > 0.5
    if workload == "rb_pb_coherent":
        assert metrics["benchmarking.backend_run.calls"] > 0
        assert metrics["benchmarking.survival_shortcut.calls"] == 0
    if workload == "rb_stability_depol":
        assert metrics["benchmarking.backend_run.calls"] == 0
        assert metrics["benchmarking.survival_shortcut.calls"] > 0
        assert metrics["cliffords.decompose.calls"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# Each output check fails on a corrupted answer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def device():
    return W._load_device()[0]


def test_calibration_check(device):
    nominal = demux.nominal_calibration(device, W.DRIVE_V)
    assert W.check_calibration(nominal, nominal) == []
    for field, factor in (("axis_period", 1.01), ("t_pi", 1.01)):
        bad = dataclasses.replace(nominal, **{field: getattr(nominal, field) * factor})
        assert any(field in msg for msg in W.check_calibration(bad, nominal))
    bad = dataclasses.replace(nominal, delta_i_res=nominal.delta_i_res + 0.1)
    assert any("delta_i_res" in msg for msg in W.check_calibration(bad, nominal))


def test_qpt_check():
    good = {"X90": qcore.choi_from_unitary(demux.IDEAL_GATES["X90"])}
    assert W.check_qpt(good, {"X90": 1.0}, f_min=0.5, f_min_inclusive=False) == []
    not_tp = {"X90": 1.5 * good["X90"]}
    assert W.check_qpt(not_tp, {}, f_min=0.0, f_min_inclusive=True)
    assert W.check_qpt(good, {"X90": 1.2}, f_min=0.0, f_min_inclusive=True)
    assert W.check_qpt(good, {"X90": -0.1}, f_min=0.0, f_min_inclusive=True)
    assert W.check_qpt(good, {"X90": 0.5}, f_min=0.5, f_min_inclusive=False)
    assert W.check_qpt(good, {"X90": 0.0}, f_min=0.0, f_min_inclusive=True) == []


def test_rb_pb_check():
    lengths = (1, 5, 20, 60, 150)
    decay = [[0.5 + 0.45 * 0.99 ** m] for m in lengths]
    record = benchmarking.DecayRecord(lengths, decay, [[0.0]] * len(lengths))
    rb_fit, pb_fit = benchmarking.fit_rb(record), benchmarking.fit_pb(record)
    assert W.check_rb_pb(rb_fit, pb_fit) == []
    assert W.check_rb_pb(dataclasses.replace(rb_fit, p=1.0), pb_fit)
    assert W.check_rb_pb(rb_fit, dataclasses.replace(pb_fit, u=0.0))
    assert W.check_rb_pb(rb_fit, dataclasses.replace(pb_fit, u=1.01))
    unconverged = dataclasses.replace(rb_fit, fit=dataclasses.replace(rb_fit.fit, converged=False))
    assert W.check_rb_pb(unconverged, pb_fit)


def test_stability_check_fails_when_the_backend_noise_is_not_the_stated_one():
    workload = W.RBStabilityDepol(5, "tiny")
    assert workload.run().failures == []
    workload.backend = benchmarking.ChannelBackend(
        benchmarking.GateNoiseModel(depolarizing_prob=2 * W.DEPOLARIZING_PROB),
        visibility=W.RB_VISIBILITY)
    assert workload.run().failures


def test_closed_form_matches_seed_state():
    assert W.stability_closed_form(W.DEPOLARIZING_PROB) == pytest.approx(0.999042, abs=1e-6)


def test_differing_answers_between_passes_fail_the_run():
    def fake_pass(fingerprint, traced=False):
        return {"answers": {"gate_infidelity_mean": 0.1}, "fingerprint": fingerprint,
                "failures": [], "wall_s": 1.0, "cpu_s": 1.0, "traced": traced,
                "reference": [(0.15, 0.15)]}

    report = {"passes": [fake_pass("a"), fake_pass("a"), fake_pass("b")], "layers": [],
              "setup": {}, "peak_rss_mb": 50.0, "env": {}}
    result, detail = run.summarize(report, [0.5], trace=0)
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 3
    assert "answers differ between passes of one run" in detail["failures"]
    report["passes"][2] = fake_pass("a")
    assert run.summarize(report, [0.5], trace=0)[0]["correct"]


def test_times_are_reported_in_reference_units():
    unit_s = reference.REFERENCE_UNIT_S
    assert run._scaled(1.2, [(0.18, 0.1)]) == pytest.approx(1.2 / 0.18 * unit_s)
    assert run._scaled(1.0, [(0.18, 0.2)], 1) == pytest.approx(1.0 / 0.2 * unit_s)
    # A pass on a host half as fast reads the same.
    assert run._scaled(2.4, [(0.36, 0.2)]) == pytest.approx(run._scaled(1.2, [(0.18, 0.1)]))


def test_sampler_times_units_only_while_on(monkeypatch):
    monkeypatch.setattr(reference, "INTERVAL_S", 0.0)
    monkeypatch.setattr(reference, "unit", lambda: (0.1, 0.2))
    sampler = reference.Sampler()
    calls = []
    wrapped = sampler.wrap(calls.append)
    wrapped(1)
    sampler.start()
    wrapped(2)
    wrapped(3)
    units = sampler.stop()
    wrapped(4)
    assert calls == [1, 2, 3, 4]
    assert units == [(0.1, 0.2)] * 2
    assert sampler.stop() == []  # a pass that did not sample gets no units


def test_seeds_derive_distinct_workload_seeds():
    assert W.derive_seed(1, "rb_pb_coherent") == W.derive_seed(1, "rb_pb_coherent")
    assert W.derive_seed(1, "rb_pb_coherent") != W.derive_seed(2, "rb_pb_coherent")
    assert W.derive_seed(1, "rb_pb_coherent") != W.derive_seed(1, "rb_stability_depol")
    a, b = W.RBPBCoherent(1, "tiny"), W.RBPBCoherent(2, "tiny")
    assert a.config.seed != b.config.seed
    assert np.isfinite(a.run().answers["rb_p"])
