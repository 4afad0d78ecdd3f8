import copy
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_sim
from qsprep import simulator
from qsprep.alias_prepare import prepare_alias_state, realized_marginal
from qsprep.benchmark_states import BenchmarkSpec, make_state
from qsprep.circuit_core import TAGS, Circuit, Gate
from qsprep.cliffordt_compile import SynthesisConfig, compile_circuit
from qsprep.rotation_synthesis import (
    AngleTable, demux_ucry, synthesize_dense, synthesize_sparse,
)
from qsprep.simulator import (
    CapacityError, address_marginal, apply_gate, classical_simulate,
    fidelity_prob, fidelity_state, pipeline_histogram, simulate,
)
from util import circuit_unitary


def test_bell_state():
    circ = Circuit(2, [Gate("Hadamard", (0,)), Gate("CNOT", (0, 1))])
    psi = simulate(circ)
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1 / math.sqrt(2)
    assert fidelity_state(psi, want) == pytest.approx(1.0)


def test_qubit0_is_most_significant():
    circ = Circuit(3, [Gate("PauliX", (0,))])
    psi = simulate(circ)
    assert abs(psi[0b100]) == pytest.approx(1.0)
    assert classical_simulate(circ, 0) == 0b100


def test_budget_enforced():
    with pytest.raises(CapacityError):
        simulate(Circuit(30, []))
    # explicit budget override works
    psi = simulate(Circuit(5, []), budget=5)
    assert abs(psi[0]) == 1.0


def test_ry_rotation_convention():
    # Ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
    th = 0.73
    psi = simulate(Circuit(1, [Gate("Ry", (0,), angle=th)]))
    assert psi[0].real == pytest.approx(math.cos(th / 2))
    assert psi[1].real == pytest.approx(math.sin(th / 2))


def test_mcry_applies_only_on_mask_match():
    th = 1.1
    g = Gate("MultiControlledRy", (0, 1, 2), angle=th, mask=(1, 0))
    u = circuit_unitary(Circuit(3, [g]))
    # control pattern (q0,q1) = (1,0) -> basis 100,101 block rotated
    c, s = math.cos(th / 2), math.sin(th / 2)
    want = np.eye(8, dtype=complex)
    want[4, 4] = c
    want[4, 5] = -s
    want[5, 4] = s
    want[5, 5] = c
    assert np.allclose(u, want, atol=1e-12)


def test_andu_marker_uncomputes_and():
    from qsprep.cliffordt_compile import _and_compute
    gates = _and_compute(0, 1, 2) + [Gate("ANDU", (0, 1, 2))]
    u = circuit_unitary(Circuit(3, gates))
    idx = [0, 2, 4, 6]
    assert np.allclose(u[np.ix_(idx, idx)], np.eye(4), atol=1e-12)


def test_classical_simulate_rejects_nonclassical():
    with pytest.raises(ValueError):
        classical_simulate(Circuit(1, [Gate("Hadamard", (0,))]), 0)


def test_classical_gates():
    circ = Circuit(3, [Gate("Toffoli", (0, 1, 2)), Gate("Swap", (0, 2)),
                       Gate("CNOT", (2, 1))])
    # start 110: toffoli -> 111, swap(q0,q2) -> 111, cnot(q2->q1) -> 101
    assert classical_simulate(circ, 0b110) == 0b101


def test_fidelity_prob_properties():
    assert fidelity_prob([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)
    assert fidelity_prob([1, 0], [0, 1]) == 0.0
    with pytest.raises(ValueError):
        fidelity_prob([0.5, 0.5], [0.5, -0.5])


def test_shape_mismatches_are_refused():
    with pytest.raises(ValueError, match="initial state dimension mismatch"):
        simulate(Circuit(2, []), initial=np.ones(8) / math.sqrt(8))
    with pytest.raises(ValueError, match="state dimension mismatch"):
        fidelity_state(np.ones(2), np.ones(4))
    with pytest.raises(ValueError, match="distribution dimension mismatch"):
        fidelity_prob([0.5, 0.5], [0.25] * 4)


def test_address_marginal_orders_msb_first():
    # |psi> = |q0 q1 q2> with q0=1 always; marginal over (q0, q2)
    psi = np.zeros(8, dtype=complex)
    psi[0b101] = 1.0
    m = address_marginal(psi, [0, 2], 3)
    assert m[0b11] == pytest.approx(1.0)
    m = address_marginal(psi, [2, 0], 3)   # reversed order flips the index
    assert m[0b11] == pytest.approx(1.0)
    psi = np.zeros(8, dtype=complex)
    psi[0b100] = 1.0
    m = address_marginal(psi, [0, 2], 3)
    assert m[0b10] == pytest.approx(1.0)
    m = address_marginal(psi, [2, 0], 3)
    assert m[0b01] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# slice kernels against the dense per-gate oracle (tests/reference_sim.py)

_ARITY = {"CNOT": 2, "Swap": 2, "Toffoli": 3, "ControlledSwap": 3, "ANDU": 3}
_angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def _gate(draw, n):
    tag = draw(st.sampled_from([t for t in TAGS if _ARITY.get(t, 1) <= n
                                and not (t == "MultiControlledRy" and n < 2)]))
    order = draw(st.permutations(range(n)))      # unsorted, non-adjacent operands
    if tag == "MultiControlledRy":
        k = draw(st.integers(1, n - 1))
        mask = tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
        return Gate(tag, tuple(order[:k + 1]), angle=draw(_angle), mask=mask)
    angle = draw(_angle) if tag in ("Rz", "Ry") else None
    return Gate(tag, tuple(order[:_ARITY.get(tag, 1)]), angle=angle)


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 6))
    return Circuit(n, draw(st.lists(_gate(n), max_size=25)))


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def _check_against_oracle(circ, seed):
    psi0 = _random_state(circ.n_qubits, seed)
    before = psi0.copy()
    got = simulate(circ, initial=psi0)
    assert np.array_equal(psi0, before)            # the caller's state is untouched
    want = reference_sim.simulate(circ, initial=psi0)
    assert np.max(np.abs(got - want)) <= 1e-12
    # the active-block passes give the full-matrix passes' bits
    assert np.array_equal(got, reference_sim.fused_simulate(circ, initial=psi0))


@settings(max_examples=300, deadline=None)
@given(_circuits(), st.integers(0, 2**32 - 1))
def test_kernel_matches_dense_oracle(circ, seed):
    _check_against_oracle(circ, seed)


@pytest.mark.parametrize("gates", [
    [Gate("CNOT", (3, 0)), Gate("Hadamard", (3,)), Gate("CNOT", (0, 3))],
    [Gate("Hadamard", (1,)), Gate("Toffoli", (2, 0, 1)), Gate("T", (1,))],
    [Gate("Ry", (2,), angle=0.4), Gate("ControlledSwap", (4, 0, 2))],
    [Gate("MultiControlledRy", (4, 1, 3, 0), angle=1.3, mask=(1, 0, 1)),
     Gate("MultiControlledRy", (0, 2), angle=-0.7, mask=(0,))],
    demux_ucry(AngleTable(0, (4, 2, 1), tuple(0.1 * (i + 1) for i in range(8)))),
    [Gate("Swap", (4, 1)), Gate("ANDU", (3, 1, 0)), Gate("Rz", (2,), angle=2.1)],
])
def test_kernel_matches_dense_oracle_on_scattered_operands(gates):
    _check_against_oracle(Circuit(5, gates), seed=7)


def test_andu_permutes_basis_states_exactly_as_toffoli():
    n = 4
    for a, b, t in itertools.permutations(range(n), 3):
        andu = Circuit(n, [Gate("ANDU", (a, b, t))])
        toffoli = Circuit(n, [Gate("Toffoli", (a, b, t))])
        for x in range(1 << n):
            e = np.zeros(1 << n, dtype=complex)
            e[x] = 1.0
            want = np.zeros(1 << n, dtype=complex)
            want[classical_simulate(toffoli, x)] = 1.0
            assert np.array_equal(simulate(andu, initial=e), want)
            assert np.array_equal(simulate(toffoli, initial=e), want)


def test_apply_gate_updates_a_complex_state_in_place():
    psi = _random_state(3, seed=1)
    want = reference_sim.apply_gate(psi.copy(), Gate("Hadamard", (1,)), 3)
    out = apply_gate(psi, Gate("Hadamard", (1,)), 3)
    assert np.shares_memory(out, psi)
    assert np.max(np.abs(psi - want)) <= 1e-15


# ---------------------------------------------------------------------------
# fused Clifford+T groups

_FIXED = ("Hadamard", "S", "Sdg", "T", "Tdg", "PauliX", "CNOT", "Toffoli",
          "ANDU", "Swap", "ControlledSwap")
_PERMUTATIONS = ("PauliX", "CNOT", "Toffoli", "ANDU", "Swap", "ControlledSwap")


def _windowed_gates(rng, n, count, tags, width, drift=0.1):
    """count gates on a window of `width` adjacent qubits that moves by one
    qubit with probability `drift` per step, so that gates stay on a few
    qubits and fill fusion groups.  A one-qubit tag starts a run of one to
    eight one-qubit gates on one qubit, as a compiled Rz word is."""
    lo, out = rng.randrange(n - width + 1), []
    singles = [t for t in tags if _ARITY.get(t, 1) == 1]
    while len(out) < count:
        if rng.random() < drift:
            lo = min(max(lo + rng.choice((-1, 1)), 0), n - width)
        tag = rng.choice([t for t in tags if _ARITY.get(t, 1) <= width])
        if tag in singles:
            q = rng.randrange(lo, lo + width)
            out += [Gate(rng.choice(singles), (q,)) for _ in range(rng.randint(1, 8))]
        else:
            out.append(Gate(tag, tuple(rng.sample(range(lo, lo + width), _ARITY[tag]))))
    return out[:count]


@pytest.fixture
def fused_groups(monkeypatch):
    """Records the gates of every group whose unitary simulate builds: each
    distinct group of a call once."""
    seen = []
    real = simulator._group_unitary

    def spy(group, qs):
        seen.append(list(group))
        return real(group, qs)

    monkeypatch.setattr(simulator, "_group_unitary", spy)
    return seen


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.sampled_from([0.0, 0.1, 0.3]),
       st.integers(40, 150), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_fused_clifford_t_runs_match_dense_oracle(n, width, drift, count, rng, seed):
    gates = _windowed_gates(rng, n, count, _FIXED, min(width, n), drift)
    _check_against_oracle(Circuit(n, gates), seed)


def test_fused_clifford_t_runs_take_the_dense_pass(fused_groups):
    for seed in range(10):
        gates = _windowed_gates(random.Random(seed), 8, 150, _FIXED, 4)
        _check_against_oracle(Circuit(8, gates), seed)
    assert len(fused_groups) >= 10


def test_fused_permutation_groups_map_basis_states_exactly(fused_groups):
    n = 7
    for seed in range(6):
        gates = _windowed_gates(random.Random(seed), n, 60, _PERMUTATIONS, 3, drift=0.05)
        fused = len(fused_groups)
        # classical_simulate knows ANDU only as the Toffoli it equals
        classical = Circuit(n, [Gate("Toffoli", g.qubits) if g.tag == "ANDU" else g
                                for g in gates])
        for x in range(1 << n):
            e = np.zeros(1 << n, dtype=complex)
            e[x] = 1.0
            want = np.zeros(1 << n, dtype=complex)
            want[classical_simulate(classical, x)] = 1.0
            assert np.array_equal(simulate(Circuit(n, gates), initial=e), want)
        assert len(fused_groups) > fused


def test_chunked_dense_pass_matches_dense_oracle(fused_groups):
    # above 2^_CHUNK_QUBITS amplitudes a dense pass runs chunk by chunk
    n = simulator._CHUNK_QUBITS + 2
    gates = _windowed_gates(random.Random(11), n, 120, _FIXED, 4, drift=0.3)
    _check_against_oracle(Circuit(n, gates), seed=4)
    assert fused_groups


@pytest.mark.parametrize("middle", [
    Gate("Rz", (1,), angle=0.7),
    Gate("MultiControlledRy", (0, 2), angle=-1.1, mask=(1,)),
])
def test_a_rotation_ends_the_fused_group(middle, fused_groups):
    rng = random.Random(5)
    before = _windowed_gates(rng, 4, 30, _FIXED, 4)
    after = _windowed_gates(rng, 4, 30, _FIXED, 4)
    _check_against_oracle(Circuit(5, before + [middle] + after), seed=3)
    assert len(fused_groups) == 2
    # a group holds gates from one side of the rotation only, in circuit order
    assert [[id(g) for g in grp] for grp in fused_groups] == \
        [[id(g) for g in before], [id(g) for g in after]]


@pytest.mark.parametrize("tag", _FIXED)
def test_a_single_gate_circuit_is_applied_by_apply(tag):
    n = 6
    g = Gate(tag, tuple(range(_ARITY.get(tag, 1))))
    psi0 = _random_state(n, seed=2)
    want = apply_gate(psi0.copy(), g, n)
    assert np.array_equal(simulate(Circuit(n, [g]), initial=psi0), want)


def _operand_mask(g):
    return sum(1 << q for q in g.qubits)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.sampled_from([0.0, 0.1, 0.3]),
       st.integers(0, 120), st.integers(4, 22), st.randoms(use_true_random=False),
       st.tuples(*[st.floats(0, 1e5), st.floats(0, 10)] * 2))
def test_fusion_plan_groups_close_only_where_they_must(n, width, drift, count, log_size,
                                                       rng, prices):
    # whatever the price, the plan holds disjoint runs of fixed-matrix gates,
    # each ended by the circuit's end, a rotation, or a gate that would take
    # it past _K qubits
    gates = _windowed_gates(rng, n, count, _FIXED, min(width, n), drift)
    for _ in range(count // 10):
        q = rng.randrange(n)
        gates.insert(rng.randrange(len(gates) + 1), rng.choice([
            Gate("Rz", (q,), angle=0.3), Gate("Ry", (q,), angle=-0.2),
            Gate("MultiControlledRy", (q, (q + 1) % n), angle=0.9, mask=(1,))
            if n > 1 else Gate("Rz", (q,), angle=0.1)]))
    names = ("_GATE_NS", "_GATE_AMP_NS", "_PASS_NS", "_PASS_AMP_NS")
    with mock.patch.multiple(simulator, **dict(zip(names, prices))):
        plan = simulator._fusion_plan(gates, 1 << log_size)
    done = 0
    for start, stop, mask in plan:
        assert done <= start and stop - start >= 2
        group = gates[start:stop]
        assert all(g.tag not in simulator._ROTATIONS for g in group)
        union = 0
        for g in group:
            union |= _operand_mask(g)
        assert mask == union and mask.bit_count() <= simulator._K
        assert (stop == len(gates) or gates[stop].tag in simulator._ROTATIONS
                or (mask | _operand_mask(gates[stop])).bit_count() > simulator._K)
        done = stop


@pytest.fixture
def active_qubits(monkeypatch):
    """Records the active qubit count of every dense pass simulate runs."""
    seen = []
    real = simulator._apply_blocks

    def spy(v, axes, blocks, scratch=None):
        seen.append(blocks.shape[-1].bit_length() - 1)
        return real(v, axes, blocks, scratch)

    monkeypatch.setattr(simulator, "_apply_blocks", spy)
    return seen


@pytest.fixture(scope="module")
def rotation_sim_circuit():
    """The rotation_sim circuit: thc_toy seed 3, sparse, b = 4, 14 qubits; it
    concatenates interned lowered blocks."""
    logical = synthesize_sparse(make_state(BenchmarkSpec("thc_toy", seed=3)))
    return compile_circuit(logical, SynthesisConfig(b=4))[0]


def test_compiled_circuits_get_the_full_matrix_passes_states(rotation_sim_circuit,
                                                              active_qubits):
    circ = rotation_sim_circuit
    assert np.array_equal(simulate(circ), reference_sim.fused_simulate(circ))
    # most of its fused 4-qubit unitaries are block-diagonal on 2 of their qubits
    assert active_qubits.count(2) >= 1000
    dense = synthesize_dense(make_state(BenchmarkSpec("dense_random", n=6, seed=1)))
    circ = compile_circuit(dense, SynthesisConfig(b=12))[0]
    assert np.array_equal(simulate(circ), reference_sim.fused_simulate(circ))


def test_an_entry_of_1e_300_keeps_its_qubits_active():
    qs = [1, 2, 4, 6]
    u = np.eye(16, dtype=complex)
    axes, blocks = simulator._active_blocks(u, qs, 8)    # diagonal: qubit 6 stays active
    assert blocks.shape == (8, 2, 2) and axes == qs + [0, 3, 5, 7]
    u[0b0000, 0b1010] = 1e-300        # flips the qubits 1 and 4
    axes, blocks = simulator._active_blocks(u, qs, 8)
    assert axes == [2, 6, 1, 4, 0, 3, 5, 7]
    assert blocks.shape == (4, 4, 4) and blocks[0, 0, 3] == 1e-300
    u[0b0000, 0b1111] = 1e-300        # flips every qubit
    axes, blocks = simulator._active_blocks(u, qs, 8)
    assert axes == qs + [0, 3, 5, 7] and np.array_equal(blocks, u[None])


def test_a_diagonal_group_gets_the_full_matrix_passes_state():
    # 1x1 blocks would go to BLAS's vector kernels, which round the
    # products of H.H, S and T otherwise than the matrix kernel
    gates = [Gate("Hadamard", (2,)), Gate("Hadamard", (2,)), Gate("S", (1,)),
             Gate("S", (3,)), Gate("T", (0,))]
    u = simulator._group_unitary(gates, [0, 1, 2, 3])
    assert not (u - np.diag(np.diag(u))).any()
    psi0 = _random_state(5, seed=0)
    got, want = psi0.copy(), psi0.copy()
    simulator._apply_blocks(got.reshape((2,) * 5), *simulator._active_blocks(u, [0, 1, 2, 3], 5))
    reference_sim._apply_matrix(want.reshape((2,) * 5), u, [0, 1, 2, 3])
    assert np.array_equal(got, want)


def test_a_group_on_every_qubit_keeps_its_whole_matrix():
    # one amplitude column per block would go to BLAS's matrix-vector kernel
    axes, blocks = simulator._active_blocks(np.eye(8, dtype=complex), [0, 1, 2], 3)
    assert axes == [0, 1, 2] and np.array_equal(blocks, np.eye(8)[None])


# ---------------------------------------------------------------------------
# one unitary per distinct fused group and simulate call


def _group_keys(circ):
    """The gate ids of each group that simulate fuses, in plan order."""
    plan = simulator._fusion_plan(circ.gates, 1 << circ.n_qubits)
    return [tuple(map(id, circ.gates[start:stop])) for start, stop, _ in plan]


def test_each_distinct_group_of_a_compiled_circuit_is_built_once(rotation_sim_circuit,
                                                                 fused_groups):
    circ = rotation_sim_circuit
    keys = _group_keys(circ)
    simulate(circ)
    built = [tuple(map(id, grp)) for grp in fused_groups]
    assert sorted(built) == sorted(set(keys))
    assert len(built) * 4 < len(keys)


def test_reused_unitaries_give_the_states_of_distinct_gates(fused_groups):
    # interned blocks, each ended by an Rz so that groups repeat whole;
    # copies of the gates have distinct ids, so nothing is reused
    rng = random.Random(3)
    blocks = [_windowed_gates(rng, 8, 40, _FIXED, 4) + [Gate("Rz", (i,), angle=0.3 * i)]
              for i in range(4)]
    gates = [g for _ in range(12) for g in rng.choice(blocks)]
    interned, copied = Circuit(8, gates), Circuit(8, [copy.copy(g) for g in gates])
    psi0 = _random_state(8, seed=5)
    got = simulate(interned, initial=psi0)
    assert np.max(np.abs(got - reference_sim.simulate(interned, initial=psi0))) <= 1e-12
    assert len(fused_groups) == len(set(_group_keys(interned))) < len(_group_keys(interned))
    del fused_groups[:]
    assert np.array_equal(got, simulate(copied, initial=psi0))
    assert len(fused_groups) == len(_group_keys(copied))


def test_groups_used_once_are_not_kept():
    # 2,000 distinct fused groups at n = 8; keeping each unitary would hold
    # 2^k x 2^k complex values per group
    rng = random.Random(8)
    gates = []
    while len(gates) < 66_000:
        gates += _windowed_gates(rng, 8, 30, _FIXED, 4) + [Gate("Rz", (0,), angle=0.1)]
    circ = Circuit(8, gates)
    plan = simulator._fusion_plan(circ.gates, 1 << 8)
    held = sum(16 << 2 * mask.bit_count() for _, _, mask in plan)
    assert len(plan) >= 2000 and len(set(_group_keys(circ))) == len(plan)
    simulate(circ)              # fills the caches of per-tag matrices
    tracemalloc.start()
    try:
        simulate(circ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak * 8 < held


# ---------------------------------------------------------------------------
# the scratch buffers: same states, no per-gate allocation


def _every_tag_gates(rng, n, blocks):
    """Windowed fixed-matrix runs, each followed by an Rz, Ry or
    MultiControlledRy on random qubits."""
    gates = []
    for _ in range(blocks):
        gates += _windowed_gates(rng, n, rng.randint(5, 40), _FIXED, 4, drift=0.2)
        tag = rng.choice(("Rz", "Ry", "MultiControlledRy"))
        qs = rng.sample(range(n), rng.randint(2, 4) if tag == "MultiControlledRy" else 1)
        mask = tuple(rng.randint(0, 1) for _ in qs[:-1]) if len(qs) > 1 else None
        gates.append(Gate(tag, tuple(qs), angle=rng.uniform(-3, 3), mask=mask))
    return gates


@pytest.mark.parametrize("n", [1, 3, 6, 15])
def test_scratch_kernel_gives_the_allocating_kernels_states(n, fused_groups):
    # n = 15 runs its dense passes in chunks of 2^_CHUNK_QUBITS amplitudes
    rng = random.Random(n)
    for _ in range(3):
        gates = _every_tag_gates(rng, max(n, 4), 12)
        if n < 4:     # keep the gates that fit
            gates = [g for g in gates if max(g.qubits) < n]
        psi0 = _random_state(n, seed=rng.randrange(1 << 32))
        want = psi0.copy()
        simulator._run(want.reshape((2,) * n), gates)          # no scratch
        assert np.array_equal(simulate(Circuit(n, gates), initial=psi0), want)
    if n >= 6:
        assert fused_groups and {g.tag for g in gates} == set(TAGS)


# a 14-qubit circuit of 2,000 gates, every tag, in the layout that fuses
_FAULTS_SCRIPT = """
import random, resource
from qsprep.circuit_core import Circuit, Gate
from qsprep.simulator import simulate

n, rng = 14, random.Random(1)
arity = {"Hadamard": 1, "S": 1, "Sdg": 1, "T": 1, "Tdg": 1, "PauliX": 1,
         "CNOT": 2, "Swap": 2, "Toffoli": 3, "ANDU": 3, "ControlledSwap": 3}
gates, lo = [], 0
while len(gates) < 2000:
    if rng.random() < 0.2:
        lo = rng.randrange(n - 3)
    if rng.random() < 0.1:
        tag = rng.choice(("Rz", "Ry", "MultiControlledRy"))
        qs = rng.sample(range(n), 3 if tag == "MultiControlledRy" else 1)
        gates.append(Gate(tag, tuple(qs), angle=rng.uniform(-3, 3),
                          mask=(1, 0) if len(qs) == 3 else None))
    else:
        tag = rng.choice(list(arity))
        gates.append(Gate(tag, tuple(rng.sample(range(lo, lo + 4), arity[tag]))))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
simulate(Circuit(n, gates))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
# the state and the scratch take 192 pages of 4 KiB; a kernel that
# allocates half-state temporaries per gate took ~5,800 faults here
_MAX_FAULTS = 1500


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
@pytest.mark.parametrize("blas_threads", [None, "1"])
def test_simulation_stays_within_its_page_fault_budget(blas_threads, tmp_path):
    # in a fresh interpreter, so no earlier allocation has left heap room
    src = str(Path(simulator.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if blas_threads:
        env.update(OMP_NUM_THREADS=blas_threads, OPENBLAS_NUM_THREADS=blas_threads,
                   MKL_NUM_THREADS=blas_threads)
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= _MAX_FAULTS


# ---------------------------------------------------------------------------
# bit-plane histogram against the statevector and the analytic marginal

_CLASSICAL = ("PauliX", "CNOT", "Toffoli", "Swap", "ControlledSwap")


@st.composite
def _hadamard_classical(draw):
    """A Hadamard on each input before its first use, random classical gates
    on unsorted, non-adjacent operands, and a random address register."""
    n = draw(st.integers(1, 7))
    body = []
    for _ in range(draw(st.integers(0, 30))):
        tag = draw(st.sampled_from([t for t in _CLASSICAL if _ARITY.get(t, 1) <= n]))
        order = draw(st.permutations(range(n)))
        body.append(Gate(tag, tuple(order[:_ARITY.get(tag, 1)])))
    inputs = draw(st.lists(st.integers(0, n - 1), unique=True))
    for q in inputs:
        first = next((i for i, g in enumerate(body) if q in g.qubits), len(body))
        body.insert(draw(st.integers(0, first)), Gate("Hadamard", (q,)))
    address = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    return Circuit(n, body), address, len(inputs)


@settings(max_examples=200, deadline=None)
@given(_hadamard_classical())
def test_histogram_matches_statevector_on_hadamard_classical_circuits(case):
    circ, address, m = case
    counts, total = pipeline_histogram(circ, address)
    assert total == 1 << m and counts.sum() == total
    want = address_marginal(simulate(circ), address, circ.n_qubits)
    assert np.max(np.abs(counts / total - want)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=8).filter(any),
       st.integers(1, 4), st.sampled_from([("qrom", None), ("selectswap", None),
                                           ("selectswap", 1)]))
def test_histogram_is_the_realized_marginal(weights, b, backend):
    p = [w / sum(weights) for w in weights]
    pipe = prepare_alias_state(p, b, backend=backend[0], lam=backend[1])
    circ = pipe.circuit
    counts, total = pipeline_histogram(circ, circ.register("address"))
    assert [Fraction(int(c), total) for c in counts] == realized_marginal(pipe.table)
    if circ.n_qubits <= 16:
        want = address_marginal(simulate(circ), circ.register("address"), circ.n_qubits)
        assert np.max(np.abs(counts / total - want)) <= 1e-12


@pytest.mark.parametrize("gates, message", [
    ([Gate("Hadamard", (0,)), Gate("CNOT", (0, 2)), Gate("Hadamard", (2,))],
     "Hadamard on qubit 2 after it was used"),
    ([Gate("Hadamard", (1,)), Gate("Hadamard", (1,))],
     "Hadamard on qubit 1 after it was used"),
    ([Gate("Hadamard", (0,)), Gate("T", (2,))],
     r"non-classical gate T on qubits \(2,\)"),
])
def test_histogram_rejects_non_sampling_circuits(gates, message):
    with pytest.raises(ValueError, match=message):
        pipeline_histogram(Circuit(3, gates), [0, 1])
