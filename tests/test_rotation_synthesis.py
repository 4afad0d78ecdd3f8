import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsprep.benchmark_states import BenchmarkSpec, make_state
from qsprep.circuit_core import Circuit, serialize
from qsprep.rotation_synthesis import (
    AngleTable, StateValidationError, TargetState, _table_from_dict,
    choose_pivot, demux_ucry, prune_constant_controls, synthesize_dense,
    synthesize_sparse,
)
from qsprep.simulator import fidelity_state, simulate
import reference_sparse
from util import circuit_unitary, ry_matrix


def test_target_state_validation():
    with pytest.raises(StateValidationError):
        TargetState(2, {0: 1.0, 1: 1.0})          # not normalized
    with pytest.raises(StateValidationError):
        TargetState(2, {4: 1.0})                  # index out of range
    with pytest.raises(StateValidationError, match="nonzero"):
        TargetState(2, {0: 1.0, 3: 0.0})          # a stored zero amplitude
    with pytest.raises(StateValidationError, match="power of two"):
        TargetState.from_vector([1.0, 0.0, 0.0])
    s = TargetState(2, {0: math.sqrt(0.5), 3: -math.sqrt(0.5)})
    assert s.support == [0, 3]
    v = s.to_vector()
    assert v[3] < 0
    back = TargetState.from_vector(v)
    assert back.amplitudes == pytest.approx(s.amplitudes)


def test_choose_pivot_prefers_balanced_qubit():
    # support {0,1,2,3} on 2 qubits: both qubits split 2/2; tie -> lowest
    assert choose_pivot([0, 1, 2, 3], 2) == 0
    # support {0b00, 0b01, 0b11}: qubit0 splits 2/1, qubit1 splits 1/2 -> tie, lowest
    assert choose_pivot([0, 1, 3], 2) == 0
    # constant qubit never wins: support {0b00, 0b01} -> qubit1 varies
    assert choose_pivot([0, 1], 2) == 1
    assert choose_pivot([2], 2) is None           # singleton: no split


_unit = st.floats(-1.0, 1.0, allow_nan=False)


def _random_state(n, rng, density=1.0):
    N = 1 << n
    idx = [j for j in range(N) if rng.random() < density]
    if not idx:
        idx = [rng.randrange(N)]
    amps = np.array([rng.uniform(-1, 1) or 0.5 for _ in idx])
    amps /= np.linalg.norm(amps)
    return TargetState(n, dict(zip(idx, amps.tolist())))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dense_synthesis_prepares_random_states(n):
    rng = random.Random(40 + n)
    for _ in range(6):
        s = _random_state(n, rng)
        circ = synthesize_dense(s)
        psi = simulate(circ)
        assert fidelity_state(psi, s.to_vector()) >= 1 - 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sparse_synthesis_prepares_random_states(n):
    rng = random.Random(70 + n)
    for _ in range(6):
        s = _random_state(n, rng, density=0.25)
        circ = synthesize_sparse(s)
        psi = simulate(circ)
        assert fidelity_state(psi, s.to_vector()) >= 1 - 1e-10


def test_sparse_beats_dense_on_very_sparse_states():
    # 2 of 64 basis states: sparse path should use far fewer rotations
    s = TargetState(6, {5: math.sqrt(0.3), 40: -math.sqrt(0.7)})
    d = synthesize_dense(s)
    sp = synthesize_sparse(s)
    n_rot_dense = sum(1 for g in d.gates if g.tag == "Ry")
    n_rot_sparse = sum(1 for g in sp.gates
                       if g.tag in ("Ry", "MultiControlledRy"))
    assert n_rot_sparse < n_rot_dense
    assert fidelity_state(simulate(sp), s.to_vector()) >= 1 - 1e-12


def test_negative_amplitudes_preserved_exactly():
    s = TargetState(3, {1: -0.5, 2: 0.5, 5: -0.5, 6: 0.5})
    for circ in (synthesize_dense(s), synthesize_sparse(s)):
        psi = simulate(circ)
        # sign pattern must match (not just |amplitude|): compare directly
        assert np.allclose(psi.real, s.to_vector(), atol=1e-10)
        assert np.allclose(psi.imag, 0, atol=1e-10)


def test_single_basis_state_emits_only_x():
    s = TargetState(4, {9: 1.0})
    for circ in (synthesize_dense(s), synthesize_sparse(s)):
        assert all(g.tag == "PauliX" for g in circ.gates)
        assert np.argmax(np.abs(simulate(circ))) == 9


def _adjacent_equal_cnots(gates):
    return any(a.tag == "CNOT" and a == b for a, b in zip(gates, gates[1:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_demux_matches_ucry_gate(c, data):
    # repeated angles make whole subtrees of the Gray-code split vanish
    angle = st.one_of(st.sampled_from([0.0, 0.4, -1.3]),
                      st.floats(-3.0, 3.0, allow_nan=False))
    thetas = tuple(data.draw(angle) for _ in range(1 << c))
    table = AngleTable(pivot=c, controls=tuple(range(c)), thetas=thetas)
    gates = demux_ucry(table)
    assert all(g.tag in ("Ry", "CNOT") for g in gates)
    assert sum(g.tag == "Ry" for g in gates) <= 1 << c
    assert not _adjacent_equal_cnots(gates)
    got = circuit_unitary(Circuit(c + 1, gates))
    # Ry(theta_y) on the pivot (the last qubit, so the least significant bit)
    # for each control pattern y, controls MSB first: a block-diagonal matrix
    want = np.zeros((2 << c, 2 << c), dtype=complex)
    for y, th in enumerate(thetas):
        want[2 * y:2 * y + 2, 2 * y:2 * y + 2] = ry_matrix(th)
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("spec", [BenchmarkSpec("magnus", k=4),
                                  BenchmarkSpec("dicke", n=8, k=2)])
def test_dense_circuit_has_no_adjacent_equal_cnots(spec):
    assert not _adjacent_equal_cnots(synthesize_dense(make_state(spec)).gates)


def test_prune_removes_constant_controls():
    table = AngleTable(pivot=2, controls=(0, 1), thetas=(0.3, 0.7, 0.3, 0.7))
    pruned = prune_constant_controls(table)
    assert pruned.controls == (1,)
    assert pruned.thetas == (0.3, 0.7)
    # semantics preserved
    got = circuit_unitary(Circuit(3, demux_ucry(pruned)))
    want = circuit_unitary(Circuit(3, demux_ucry(table)))
    assert np.allclose(got, want, atol=1e-9)


def test_angle_table_recovers_product_state_angle():
    th = 0.8342
    s = TargetState(1, {0: math.cos(th / 2), 1: math.sin(th / 2)})
    table = _table_from_dict(s.amplitudes, s.n, 0, ())
    assert table.thetas[0] == pytest.approx(th)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_sparse_matches_reference_scan(n, data):
    support = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                 min_size=1, max_size=64, unique=True))
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)),
                               min_size=len(support), max_size=len(support)))
    # the routine's choices depend on the support alone; uniform magnitudes,
    # as in W and Dicke states, add equal-weight merges with repeated angles
    if data.draw(st.booleans()):
        mags = [1.0] * len(support)
    else:
        mags = data.draw(st.lists(st.floats(0.01, 1.0),
                                  min_size=len(support), max_size=len(support)))
    amps = np.array(signs) * np.array(mags)
    amps /= np.linalg.norm(amps)
    s = TargetState(n, dict(zip(support, amps.tolist())))
    assert serialize(synthesize_sparse(s)) == serialize(reference_sparse.synthesize_sparse(s))


def test_sparse_matches_reference_on_benchmark_instances():
    specs = [BenchmarkSpec("thc_toy", seed=3), BenchmarkSpec("thc_toy", seed=4),
             BenchmarkSpec("magnus", k=4), BenchmarkSpec("dicke", n=6, k=3),
             BenchmarkSpec("w", n=8), BenchmarkSpec("syk", n=6, seed=1),
             BenchmarkSpec("dense_random", n=6, seed=1)]
    relabeled = []
    for spec in specs:
        s = make_state(spec)
        circ = synthesize_sparse(s)
        assert serialize(circ) == serialize(reference_sparse.synthesize_sparse(s)), spec
        if any(g.tag == "CNOT" for g in circ.gates):
            relabeled.append(spec.family)
    # the CNOT relabel (planes XORed into one another) must be exercised
    assert relabeled
