"""Smoke tests: the committed scripts under benchmarks/ still fit the package.

Each script is loaded as a module, without running its main(), and the parts
it builds on are exercised on tiny inputs.  The pinned bench rows of
tests/rows_golden.json are checked here too, through benchmarks/row_diff.py.
"""
import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest

from qsprep import cli_bench, simulator
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


def test_synth_bench_times_its_smallest_case(vose_passes):
    synth_bench = _load("synth_bench")
    _, spec = synth_bench.CASES[0]
    row = synth_bench.time_case(make_state(spec), min_seconds=0.0)
    assert set(row) == set(synth_bench.ROUTINES)
    assert all(ms > 0 for ms in row.values())
    # one call each: the untimed set-up and "alias cold" run the Vose pass,
    # "alias warm" takes it from the cache
    assert len(vose_passes) == 2


@pytest.fixture(scope="module")
def row_diff():
    return _load("row_diff")


def test_bench_rows_match_golden(row_diff):
    moved = row_diff.diff(row_diff.load())
    assert not moved, "\n".join(moved)


def test_row_diff_names_what_moved_and_forgives_float_noise(row_diff):
    old = {"family": "w", "n": 4, "seed": 0, "method": "dense", "b": 4,
           "t_proxy": 129, "compiled_T": 129, "total_gates": 1000,
           "qubits": 4, "infidelity": "0.25", "fidelity_kind": "state"}
    nudged = dict(old, infidelity=repr(0.25 + 0.9e-13))     # < 1e-16 * 1000
    assert row_diff.moved_columns(old, nudged) == {}
    moved = dict(old, compiled_T=130, infidelity=repr(0.25 + 1.1e-13))
    assert row_diff.moved_columns(old, moved) == {
        "compiled_T": (129, 130), "infidelity": ("0.25", repr(0.25 + 1.1e-13))}
    nan = dict(old, infidelity="nan")
    assert row_diff.moved_columns(nan, nan) == {}
    assert set(row_diff.moved_columns(old, nan)) == {"infidelity"}
    assert set(row_diff.moved_columns(nan, old)) == {"infidelity"}


def test_row_diff_covers_every_family_and_method(row_diff):
    cases = row_diff.load()
    assert sum(len(case["rows"]) for case in cases) == 98
    small = [r for case in cases[:len(row_diff.SMALL)] for r in case["rows"]]
    assert {r["family"] for r in small} == set(cli_bench.FAMILIES)
    for family in cli_bench.FAMILIES:
        assert {(r["method"], r["b"]) for r in small if r["family"] == family} == {
            (m, b) for m in cli_bench.METHODS for b in (4, 8)}
