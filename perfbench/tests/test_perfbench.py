"""Tests of the benchmark harness itself, at tiny workload sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import fnlslab.evolution
import fnlslab.experiments
import fnlslab.nonlinearity
import numpy as np
from perfbench import run, speed, worker
from perfbench.speed import SpeedSampler
from perfbench.tracing import LAYER_NAMES, Tracer
from perfbench.workloads import WORKLOADS, PassResult

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_tiny(name, tmp_path):
    w = WORKLOADS[name]
    res = w.run_pass(w.build(0, tiny=True), str(tmp_path / "out"))
    assert res.attempted > 0 and res.work > 0
    assert res.failed == len(res.failures)
    if name != "criterion_batch":  # its scale range holds known misclassifications
        assert res.failed == 0, res.failures
    assert len(res.regions) >= 1 and all(t > 0 for t in res.regions)
    assert res.busy and max(res.busy) < len(res.regions)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_matches_untraced(name, tmp_path):
    out = worker.trace(name, 0, str(tmp_path), tiny=True)
    assert out["identical"]
    assert out["restored"]
    metrics = out["metrics"]
    assert all(f"{layer}.calls" in metrics for layer in LAYER_NAMES)
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


def test_tracer_patches_every_binding_and_restores():
    originals = {
        "evolution": fnlslab.evolution.integrate,
        "experiments": fnlslab.experiments.integrate,
        "evaluate": vars(fnlslab.nonlinearity.PolynomialNonlinearity)["evaluate"],
        "fft": np.fft.fft,
    }
    assert originals["evolution"] is originals["experiments"]
    tracer = Tracer()
    tracer.install()
    try:
        assert fnlslab.evolution.integrate is not originals["evolution"]
        assert fnlslab.experiments.integrate is fnlslab.evolution.integrate
        assert np.fft.fft is not originals["fft"]
        cfg = fnlslab.evolution.EvolutionConfig(alpha=3.0, cutoff=8, dt=1e-3, horizon=0.01)
        phi = fnlslab.spectral.SpectralField.constant(0.1, 8)
        fnlslab.experiments.integrate(phi, fnlslab.nonlinearity.cubic(1j), cfg)
    finally:
        tracer.restore()
    assert fnlslab.evolution.integrate is originals["evolution"]
    assert fnlslab.experiments.integrate is originals["experiments"]
    assert vars(fnlslab.nonlinearity.PolynomialNonlinearity)["evaluate"] is originals["evaluate"]
    assert np.fft.fft is originals["fft"]
    metrics = tracer.layer_metrics()
    assert metrics["evolution.integrate.calls"] == 1
    assert metrics["evolution.integrate.steps"] == 10
    assert metrics["nonlinearity.evaluate_values.calls"] == 40  # four RHS evaluations a step
    assert metrics["spectral.fft.calls"] == 120  # two inverse and one forward transform each
    assert metrics["evolution.integrate.self_s"] >= 0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.names = ["experiments.run", "evolution.integrate"]
    tracer.spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)]
    metrics = tracer.layer_metrics()
    assert metrics["experiments.run.calls"] == 1
    assert metrics["experiments.run.self_s"] == 6.0
    assert metrics["evolution.integrate.calls"] == 2
    assert metrics["evolution.integrate.self_s"] == 4.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_only(name):
    w = WORKLOADS[name]
    assert repr(w.build(3, tiny=True)) == repr(w.build(3, tiny=True))
    assert repr(w.build(3, tiny=True)) != repr(w.build(4, tiny=True))


def test_calibrated_scales_each_pass_by_its_speed_and_takes_the_median():
    passes = [
        {"regions": [1.0, 5.0, 2.0], "busy": [1], "speed": 1.0},
        {"regions": [2.0, 8.0, 4.0], "busy": [1], "speed": 0.5},
        {"regions": [3.0, 5.0, 2.0], "busy": [1], "speed": 1.0},
    ]
    assert run.calibrated(passes) == (8.0, 5.0)


def test_repeatable_needs_identical_outputs_and_check_outcomes():
    p = {"digest": "a", "attempted": 3, "failures": ["x"]}
    assert run.repeatable([p, dict(p)])
    assert not run.repeatable([p, dict(p, digest="b")])
    assert not run.repeatable([p, dict(p, failures=[])])


def test_speed_sampler_samples_and_leaves_its_time_out_of_regions():
    res = PassResult()
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        res.timed(time.sleep, 0.2)
        wall = time.perf_counter() - t0
        paused = sampler.paused_s
    assert len(sampler.samples) >= 5 and paused > 0
    assert 0 < sampler.speed() < 1.5
    assert abs(res.regions[0] + paused - wall) < 1e-3
    assert speed.paused_s() == 0.0  # no sampler is active any more


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    cmd = json.load(open(tmp_path / "BENCHMARK.json"))["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "hires_audit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
