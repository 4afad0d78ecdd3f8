"""Smoke tests: the committed scripts under benchmarks/ still fit the package.

Each script is loaded as a module, without running its main(), and the parts
it builds on are exercised on tiny inputs.
"""
import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest

from qsprep import simulator
from qsprep.benchmark_states import make_state
from qsprep.circuit_core import TAGS, Circuit, Gate
from qsprep.simulator import simulate

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sim_bench():
    return _load("sim_bench")


@pytest.mark.parametrize("tag", TAGS)
def test_sim_bench_draws_and_simulates_every_tag(sim_bench, tag):
    g = sim_bench.random_gate(tag, 6, random.Random(tag))
    assert g.tag == tag
    psi = simulate(Circuit(6, [g]))
    assert abs(np.linalg.norm(psi) - 1) <= 1e-12


def test_sim_bench_counts_fused_and_built_groups(sim_bench):
    # one interned run of CNOTs and Hadamards, three times between Rz gates
    # that end its groups, and a run of CNOTs whose controls stay passive
    block = [Gate("Hadamard", (q,)) for q in range(4)] + [
        Gate("CNOT", (q, q + 1)) for q in range(3)] * 8 + [Gate("Rz", (0,), angle=0.5)]
    chain = [Gate("CNOT", (q, 7)) for q in range(4, 7)] * 13
    fused, built, active = sim_bench.group_counts(Circuit(8, block * 3 + chain))
    assert (fused, built, active) == (4, 2, {1: 1, 4: 3})
    assert simulator._group_unitary.__name__ == "_group_unitary"
    assert simulator._apply_blocks.__name__ == "_apply_blocks"


def test_sim_bench_fits_a_line_and_times_the_dearest_pass(sim_bench):
    points = [(amps, 3.0 + 2.5e-3 * amps) for amps in (16, 64, 4096, 1 << 18)]
    assert sim_bench.fit(points) == pytest.approx((3000.0, 2.5))
    qs = [0, 1, 2, 3]
    _, blocks = simulator._active_blocks(
        simulator._group_unitary(sim_bench.PASS_GROUP, qs), qs, 6)
    assert blocks.shape == (1, 16, 16)      # no passive qubit
    assert sim_bench.us_per_pass(6) > 0


def test_rz_bench_phases_name_existing_functions():
    # time_phases() is not called: it patches gridsynth for the whole process
    for owner, attr in _load("rz_bench").PHASES.values():
        assert callable(getattr(owner, attr, None)), attr


def test_rz_bench_times_the_integer_setup_against_mpmath():
    r = _load("rz_bench").vs_mpmath(4, [0.3, -2.5, math.pi / 2], rounds=1)
    assert r["same"] and r["int_us"] > 0 and r["mpmath_us"] > 0


def test_synth_bench_times_its_smallest_case():
    synth_bench = _load("synth_bench")
    _, spec = synth_bench.CASES[0]
    row = synth_bench.time_case(make_state(spec), min_seconds=0.0)
    assert set(row) == set(synth_bench.ROUTINES)
    assert all(ms > 0 for ms in row.values())
