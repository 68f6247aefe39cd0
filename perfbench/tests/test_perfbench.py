"""The benchmark's checks must catch a wrong answer: a perturbed oracle value is a failure.

Run with ``python3 -m pytest perfbench/tests -q``.  Each workload runs one pass
on inputs small enough for a unit test, first as is (no failures), then with
one oracle value deliberately perturbed (the failure is counted).
"""
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
import workloads
from fockamp import cli
from fockamp import FockSpace, ReservoirSpec, ScenarioSpec, caves_number_out, phase_sensitive_number_out

BENCH = Path(run.__file__).resolve().parent
TINY_DENSE = {
    "bands": [{"gain": 1.7, "start_gain": 2.0}],
    "states": [("fock", 1), ("thermal", 0.05)],
    "grid": [(2, 1, 3, 0.4), (1, 0, 0, 2.0)],
}


def one_pass(name, inputs, state=None):
    state = {} if state is None else state
    return run.run_pass(workloads.WORKLOADS[name], inputs, state, None)


@pytest.fixture
def small_envelope(monkeypatch):
    # a cold reservoir settles a small cutoff, so the dense operators stay tiny
    monkeypatch.setattr(workloads, "ENVELOPE_NBAR", 0.05)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 7])
@pytest.mark.parametrize("gain", [1.0, 1.37, 2.9])
def test_operator_oracles_match_the_program(cutoff, gain):
    space = FockSpace(cutoff)
    for op, diagonal, frobenius_sq in (
        (caves_number_out(space, space, gain), oracles.caves_diagonal, oracles.caves_frobenius_sq),
        (phase_sensitive_number_out(space, gain), oracles.phase_sensitive_diagonal, oracles.phase_sensitive_frobenius_sq),
    ):
        assert np.allclose(op.mat.diagonal(), diagonal(cutoff, gain), rtol=1e-13, atol=1e-13)
        assert np.isclose(np.vdot(op.mat, op.mat).real, frobenius_sq(cutoff, gain), rtol=1e-13, atol=1e-13)


def test_dense_pass_is_clean(small_envelope):
    p = one_pass("dense-oracle", TINY_DENSE)
    assert p["failures"] == []
    assert p["checks"] == 1 + 1 + 4 + 1 + 2 + 2  # settle, caves, 4 pairs, phase-sensitive, 2 states, grid


@pytest.mark.parametrize(
    "oracle, perturbed",
    [
        ("var_caves", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
        ("var_phase_sensitive", lambda f: lambda *a: f(*a) + 1e-5),
        ("caves_diagonal", lambda f: lambda *a: f(*a) * (1 + 1e-9)),
        ("phase_sensitive_frobenius_sq", lambda f: lambda *a: f(*a) * (1 + 1e-9)),
        ("bout_number_target", lambda f: lambda *a: f(*a) + 1e-9),
        ("thermal_top_leakage", lambda f: lambda *a: 2e-10),
    ],
)
def test_dense_perturbed_oracle_is_a_failure(small_envelope, monkeypatch, oracle, perturbed):
    monkeypatch.setattr(oracles, oracle, perturbed(getattr(oracles, oracle)))
    p = one_pass("dense-oracle", TINY_DENSE)
    assert p["failures"], f"perturbing {oracle} went unnoticed"


def tiny_mc(trials=40_000):
    return {
        "specs": [
            ScenarioSpec(model="GModes", input_n_a=1, reservoir=ReservoirSpec.thermal(0.5), trials=trials, seed=5, gain_G=3),
            ScenarioSpec(
                model="MultiStepMulti", input_n_a=0, reservoir=ReservoirSpec.empirical([0.5, 0.3, 0.2]),
                trials=trials, seed=6, step_gain_g=2, steps_N=2,
            ),
        ]
    }


def test_mc_pass_is_clean_and_repeatable():
    state = {}
    first = one_pass("mc-sweep", tiny_mc(), state)
    second = one_pass("mc-sweep", tiny_mc(), state)
    assert first["failures"] == [] and second["failures"] == []
    assert workloads.mc_digests(first["record"]) == workloads.mc_digests(second["record"])


def test_mc_perturbed_variance_oracle_is_a_failure(monkeypatch):
    real = oracles.mc_moments
    monkeypatch.setattr(oracles, "mc_moments", lambda *a: (real(*a)[0], real(*a)[1] * 1.2))
    p = one_pass("mc-sweep", tiny_mc())
    assert len(p["failures"]) >= 2  # both cells, and the pass-wide z share


def test_mc_perturbed_mean_oracle_is_a_failure(monkeypatch):
    real = oracles.mc_moments
    monkeypatch.setattr(oracles, "mc_moments", lambda *a: (real(*a)[0] + 0.2, real(*a)[1]))
    assert one_pass("mc-sweep", tiny_mc())["failures"]


def test_mc_result_that_changes_between_passes_is_a_failure():
    state = {"cells": {0: (0.0, 1.0)}}
    p = one_pass("mc-sweep", tiny_mc(), state)
    assert any("earlier pass" in f for f in p["failures"])


def test_cli_pass_is_clean(tmp_path):
    p = one_pass("cli-defaults", {"order": ["snr-table", "filter-scan"]}, {"workdir": tmp_path})
    assert p["failures"] == [] and p["checks"] == 4
    assert set(workloads.cli_digests(p["record"])["sha256"]) == {"snr-table", "filter-scan"}


def test_cli_perturbed_digest_is_a_failure(tmp_path):
    state = {"workdir": tmp_path, "outputs": {"snr-table": "0" * 64}}
    p = one_pass("cli-defaults", {"order": ["snr-table"]}, state)
    assert any("differs from the first pass" in f for f in p["failures"])


def test_traced_passes_count_each_layer_and_restore_the_cli_names(small_envelope, tmp_path):
    tracer = layers.Tracer()
    dense = run.run_pass(workloads.WORKLOADS["dense-oracle"], TINY_DENSE, {}, tracer)
    values = run.layer_values(dense)
    assert values["fock.moments.calls"] == 6 and values["channels.nonlinear_bout.calls"] == 2
    assert values["fock.settle_cutoff.calls"] == 1 and values["fock.settle_cutoff.states_built"] >= 1
    assert len(tracer.spans) == sum(v for k, v in values.items() if k.endswith(".calls"))

    original = cli.run_scenario
    tracer = layers.Tracer()
    p = run.run_pass(workloads.WORKLOADS["cli-defaults"], {"order": ["mc"]}, {"workdir": tmp_path}, tracer)
    assert p["failures"] == [] and cli.run_scenario is original
    values = run.layer_values(p)
    assert values["cli.mc.calls"] == 2 and values["montecarlo.run_scenario.calls"] == 8
    assert values["montecarlo.draws"] > 0 and values["cli.csv_bytes"] > 0
    parents = {span[0]: span[3] for span in tracer.spans}
    assert {parents[span[1]] for span in tracer.spans if span[3] == "montecarlo.run_scenario"} == {"cli.mc"}


def test_benchmark_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-defaults", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
