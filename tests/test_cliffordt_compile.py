import hashlib
import json
import math
import os
import random
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsprep import cliffordt_compile
from qsprep.alias_prepare import prepare_alias_state
from qsprep.benchmark_states import BenchmarkSpec, make_state
from qsprep.circuit_core import _ARITY as _TAG_ARITY, Circuit, Gate, count_resources, serialize
from qsprep.cliffordt_compile import (
    RZ_MODES, TOFFOLI_MODES, CompileError, SynthesisConfig, compile_circuit,
    _lower, cost_model_t_count, lower_mcx,
)
from qsprep.gridsynth import exactly_preparable
from qsprep.rotation_synthesis import synthesize_dense, synthesize_sparse
from qsprep.simulator import simulate
from util import circuit_unitary, phase_dist, ry_matrix, rz_matrix, tags_to_unitary

TOFFOLI = np.eye(8, dtype=complex)
TOFFOLI[6:, 6:] = [[0, 1], [1, 0]]

_ALLOWED = {"PauliX", "Hadamard", "S", "Sdg", "T", "Tdg", "CNOT", "ANDU"}


def _anc_zero_block(u, n_data, n_anc):
    """Action on the subspace where trailing ancillas are |0>."""
    idx = [b << n_anc for b in range(1 << n_data)]
    return u[np.ix_(idx, idx)]


def _compile_1q(tag, theta, b):
    """One Rz/Ry gate through compile_circuit at eps = 2^-b."""
    circ = Circuit(1, [Gate(tag, (0,), angle=theta)])
    return compile_circuit(circ, SynthesisConfig(b=b))


def _reducible_pairs(gates):
    """Pairs the compiler's peephole rule cancels: an X on a qubit already
    X'd in the same run of X gates, and a CNOT equal to the gate before."""
    count, run, prev = 0, set(), None
    for g in gates:
        if g.tag == "PauliX":
            count += g.qubits in run
            run.add(g.qubits)
        else:
            count += g.tag == "CNOT" and g == prev
            run = set()
        prev = g
    return count


def _assert_same_state(circ, out, seed):
    """out, with its ancillas in |0>, acts on a random state as circ does."""
    n = circ.n_qubits
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    anc0 = np.zeros(1 << (out.n_qubits - n))
    anc0[0] = 1.0
    got = simulate(out, initial=np.kron(psi, anc0))
    want = np.kron(simulate(circ, initial=psi), anc0)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Config and single rotations


def test_config_validation():
    with pytest.raises(CompileError):
        SynthesisConfig(b=0)
    with pytest.raises(CompileError):
        SynthesisConfig(b=4, toffoli_mode="nope")
    with pytest.raises(CompileError):
        SynthesisConfig(b=4, rz_mode="nope")
    assert SynthesisConfig(b=7).eps == 2.0 ** -7


def test_synthesize_rz_identity_and_t():
    c, _ = _compile_1q("Rz", 0.0, 1)
    assert len(c) == 0
    c, _ = _compile_1q("Rz", math.pi / 4, 1)
    assert [g.tag for g in c.gates] == ["T"]


def test_synthesize_rz_budget_and_distance():
    c, rep = _compile_1q("Rz", 0.1, 10)
    u = circuit_unitary(c)
    assert phase_dist(u, rz_matrix(0.1)) <= 2.0 ** -10
    assert rep.compiled_T <= 4 * 10 + 20


@pytest.mark.parametrize("tag, theta", [("Rz", 100000000000010.0), ("Rz", 1e17),
                                        ("Rz", 1e300), ("Ry", -3e200)])
def test_huge_angle_is_synthesized_within_eps(tag, theta):
    # floats this large land on multiples of pi/4 by their spacing alone,
    # so the angle is synthesized, and the octant reduction keeps the
    # bits of theta that reach the reduced angle
    c, rep = _compile_1q(tag, theta, 20)
    with mp.workprec(1200):
        half = mp.fmod(mp.mpf(theta), 4 * mp.pi) / 2
        cs, sn = float(mp.cos(half)), float(mp.sin(half))
    want = (np.array([[cs, -sn], [sn, cs]], dtype=complex) if tag == "Ry"
            else np.diag([complex(cs, -sn), complex(cs, sn)]))
    infidelity = 1 - abs(np.trace(circuit_unitary(c).conj().T @ want) / 2) ** 2
    assert rep.n_rz_synth == 1 and infidelity <= 2.0 ** -40, infidelity


def test_rewrite_ry_matrix_checks():
    # theta = 0: the empty Rz word, so no gates at all
    c, _ = _compile_1q("Ry", 0.0, 1)
    assert len(c) == 0
    # theta = pi: exact up to phase
    c, _ = _compile_1q("Ry", math.pi, 10)
    assert phase_dist(circuit_unitary(c), ry_matrix(math.pi)) < 1e-12
    # theta = pi/2: Rz(pi/2) routes to the exact S word, zero T
    c, rep = _compile_1q("Ry", math.pi / 2, 10)
    assert rep.compiled_T == 0
    assert phase_dist(circuit_unitary(c), ry_matrix(math.pi / 2)) < 1e-12
    # generic angle within synthesis error
    c, _ = _compile_1q("Ry", 1.2345, 12)
    assert phase_dist(circuit_unitary(c), ry_matrix(1.2345)) <= 2.0 ** -12 + 1e-14


# ---------------------------------------------------------------------------
# Toffoli lowering


def test_gidney_toffoli_counts_and_action():
    gates, anc, rot = _lower(Gate("Toffoli", (0, 1, 2)), 3, "gidney_and_measured", None)
    assert (anc, rot) == (1, 0)
    rep = count_resources(Circuit(4, gates))
    assert rep.compiled_T == 4
    u = circuit_unitary(Circuit(4, gates))
    assert np.allclose(_anc_zero_block(u, 3, 1), TOFFOLI, atol=1e-12)


def test_textbook_toffoli_counts_and_action():
    gates, anc, rot = _lower(Gate("Toffoli", (0, 1, 2)), 3, "textbook_7T", None)
    assert (anc, rot) == (0, 0)
    rep = count_resources(Circuit(3, gates))
    assert rep.compiled_T == 7
    assert np.allclose(circuit_unitary(Circuit(3, gates)), TOFFOLI, atol=1e-12)


# gidney: 2 ANDs at 4T each; textbook: 4 full Toffolis (uncompute costs T too)
@pytest.mark.parametrize("mode,want_t", [("gidney_and_measured", 8),
                                         ("textbook_7T", 28)])
def test_three_controlled_x_v_chain(mode, want_t):
    gates = lower_mcx([0, 1, 2], 3, [4, 5], mode=mode)
    rep = count_resources(Circuit(6, gates))
    assert rep.compiled_T == want_t
    u = circuit_unitary(Circuit(6, gates))
    blk = _anc_zero_block(u, 4, 2)
    want = np.eye(16)
    want[14:, 14:] = [[0, 1], [1, 0]]
    assert np.allclose(blk, want, atol=1e-12)


@pytest.mark.parametrize("mode", TOFFOLI_MODES)
def test_lower_mcx_without_controls_is_one_x(mode):
    assert lower_mcx([], 3, [], mode=mode) == [Gate("PauliX", (3,))]


def test_lower_mcx_requires_enough_ancillas():
    with pytest.raises(CompileError):
        lower_mcx([0, 1, 2], 3, [4])


@pytest.mark.parametrize("controls", [[], [0], [0, 1, 2]])
def test_lower_mcx_rejects_unknown_mode(controls):
    with pytest.raises(CompileError):
        lower_mcx(controls, 3, [4, 5], mode="nope")


# ---------------------------------------------------------------------------
# Whole-circuit compilation


def test_all_clifford_input_passes_through():
    circ = Circuit(2, [Gate("Hadamard", (0,)), Gate("CNOT", (0, 1)),
                       Gate("S", (1,))])
    out, rep = compile_circuit(circ, SynthesisConfig(b=10))
    assert out.gates == circ.gates
    assert rep.compiled_T == 0 and rep.n_rz_synth == 0


def test_output_alphabet_is_clifford_t():
    circ = Circuit(3, [
        Gate("Ry", (0,), angle=0.3),
        Gate("Toffoli", (0, 1, 2)),
        Gate("Swap", (0, 2)),
        Gate("ControlledSwap", (0, 1, 2)),
        Gate("MultiControlledRy", (0, 1, 2), angle=0.5, mask=(1, 0)),
        Gate("Rz", (1,), angle=-1.0),
    ])
    out, rep = compile_circuit(circ, SynthesisConfig(b=6))
    assert {g.tag for g in out.gates} <= _ALLOWED
    assert rep.n_rz_synth >= 4          # 0.3, +-0.25, -1.0


_ARITY = {"CNOT": 2, "Swap": 2, "Toffoli": 3, "ControlledSwap": 3}


def _random_logical_gate(rng, n):
    kind = rng.choice(["Ry", "Rz", "Hadamard", "MultiControlledRy", *_ARITY])
    if kind in ("Ry", "Rz"):
        return Gate(kind, (rng.randrange(n),), angle=rng.uniform(-3, 3))
    if kind == "Hadamard":
        return Gate(kind, (rng.randrange(n),))
    if kind == "MultiControlledRy":
        c = rng.randint(1, 3)
        return Gate(kind, tuple(rng.sample(range(n), c + 1)),
                    angle=rng.uniform(-3, 3),
                    mask=tuple(rng.randrange(2) for _ in range(c)))
    return Gate(kind, tuple(rng.sample(range(n), _ARITY[kind])))


@pytest.mark.parametrize("mode", TOFFOLI_MODES)
def test_compile_preserves_unitary_within_budget(mode):
    rng = random.Random(7)
    n, b = 4, 12
    seen = set()
    for _ in range(6):
        circ = Circuit(n, [_random_logical_gate(rng, n) for _ in range(5)])
        seen |= {g.tag for g in circ.gates}
        out, rep = compile_circuit(circ, SynthesisConfig(b=b, toffoli_mode=mode))
        anc = out.n_qubits - n
        got = _anc_zero_block(circuit_unitary(out), n, anc)
        want = circuit_unitary(circ)
        assert phase_dist(got, want) <= rep.n_rz_synth * 2.0 ** -b + 1e-9
    assert len(seen) == 8                  # the draw reached every gate kind


@pytest.mark.parametrize("mode", TOFFOLI_MODES)
def test_interned_lowering_equals_plain_gates(mode, monkeypatch):
    # the pipeline exercises every interned gadget; rebuilding it with a
    # plain Gate(...) per emission must give the same gate stream
    from qsprep import alias_prepare, cliffordt_compile

    p = make_state(BenchmarkSpec("dense_random", n=4, seed=3)).probabilities()
    circ = Circuit(5, [_random_logical_gate(random.Random(5), 5) for _ in range(40)])
    cfg = SynthesisConfig(b=8, toffoli_mode=mode)

    def build():
        # one _lower call per gate: compile_circuit shares repeated blocks
        pipe = alias_prepare.prepare_alias_state(p, 5, backend="selectswap")
        return pipe.circuit, [[x for g in c.gates
                               for x in _lower(g, c.n_qubits, mode, cfg.eps)[0]]
                              for c in (pipe.circuit, circ)]

    pipeline, interned = build()
    for mod in (alias_prepare, cliffordt_compile):
        monkeypatch.setattr(mod, "gate", Gate)
    plain = build()[1]
    # lookups share one row of load gates per control; the plain build
    # must still make its own objects
    assert {id(g) for g in plain[0]}.isdisjoint(map(id, interned[0]))
    assert interned == plain
    # the pipeline has no MultiControlledRy, so no mask flip cancels
    assert list(compile_circuit(pipeline, cfg)[0].gates) == interned[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TOFFOLI_MODES), st.sampled_from(RZ_MODES), st.data())
def test_report_counts_the_emitted_gates(mode, rz_mode, data):
    # the compiler counts tags from its blocks and cancellations and checks
    # each distinct block once; its report must equal a count of its output,
    # which the public constructor must accept.  Consecutive MCRy gates
    # share qubit 0 as a zero control, and X/CNOT pairs, some around an
    # empty leaf, cancel
    n = 5
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    gates = []
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(["random", "mcry", "pair"]))
        if kind == "random":
            gates.append(_random_logical_gate(rng, n))
        elif kind == "mcry":
            c = rng.randint(1, 3)
            for _ in range(rng.randint(2, 3)):
                gates.append(Gate("MultiControlledRy", (0, *rng.sample(range(1, n), c)),
                                  angle=rng.choice([0.0, rng.uniform(-3, 3)]),
                                  mask=(0,) + tuple(rng.randrange(2) for _ in range(c - 1))))
        else:
            pair = (Gate("PauliX", (rng.randrange(n),)) if rng.randrange(2)
                    else Gate("CNOT", tuple(rng.sample(range(n), 2))))
            leaf = [Gate("Ry", (rng.randrange(n),), angle=0.0)] * rng.randrange(2)
            gates += [pair, *leaf, pair]
    cfg = SynthesisConfig(b=4, toffoli_mode=mode, rz_mode=rz_mode)
    out, rep = compile_circuit(Circuit(n, gates), cfg)
    want = count_resources(out)
    if rz_mode == "cost-model":
        assert rep.n_rz_synth == want.histogram.get("Rz", 0)    # one placeholder each
        extra = rep.n_rz_synth * cost_model_t_count(cfg.b)
        want = replace(want, compiled_T=want.compiled_T + extra, t_proxy=want.t_proxy + extra)
    assert rep == replace(want, n_rz_synth=rep.n_rz_synth)
    assert Circuit(out.n_qubits, out.gates, out.registers) == out


@pytest.mark.parametrize("mode", TOFFOLI_MODES)
def test_a_lowered_operand_out_of_range_is_compile_error(mode, monkeypatch):
    # compile_circuit checks each distinct block in place of a scan over its
    # output; a lowering that strays one qubit past its own ancillas must be
    # caught there and name the logical gate, even where the MCRy's larger
    # ancilla register puts the stray qubit inside the output
    honest = cliffordt_compile._lower

    def stray(g, n, toffoli_mode, eps):
        body, anc, rot = honest(g, n, toffoli_mode, eps)
        return body + [Gate("CNOT", (0, n + anc))], anc, rot

    monkeypatch.setattr(cliffordt_compile, "_lower", stray)
    circ = Circuit(4, [Gate("Hadamard", (0,)), Gate("Toffoli", (0, 1, 2)),
                       Gate("MultiControlledRy", (0, 1, 2, 3), angle=0.3, mask=(1, 1, 1))])
    with pytest.raises(CompileError, match="Toffoli"):
        compile_circuit(circ, SynthesisConfig(b=4, toffoli_mode=mode))


def test_memoization_shares_repeated_angles():
    circ = Circuit(1, [Gate("Rz", (0,), angle=0.77)] * 5)
    out, rep = compile_circuit(circ, SynthesisConfig(b=10))
    assert rep.n_rz_synth == 5
    # identical synthesized words: length divisible into 5 equal blocks
    per = len(out.gates) // 5
    blocks = [tuple(g.tag for g in out.gates[i * per:(i + 1) * per])
              for i in range(5)]
    assert len(set(blocks)) == 1


def test_unknown_tag_is_compile_error():
    class Fake:
        tag = "Mystery"
        qubits = (0,)
    with pytest.raises(CompileError):
        _lower(Fake(), 1, "gidney_and_measured", 2.0 ** -4)


@pytest.mark.parametrize("mode", TOFFOLI_MODES)
@pytest.mark.parametrize("eps", [None, 2.0 ** -4, 2.0 ** -10])
def test_lowered_blocks_hold_no_cancelling_pair(mode, eps):
    # compile_circuit appends the rest of a block whole after its first
    # gate that stays and is not an X, which is exact only because no block
    # holds a pair that the peephole rule would cancel
    rng = random.Random(17)
    n = 6
    angles = [0.0, math.pi / 4, -math.pi / 4, math.pi, 2 * math.pi, -2 * math.pi]
    angles += [rng.uniform(-7, 7) for _ in range(6)] + [rng.uniform(-1e-3, 1e-3) for _ in range(3)]
    logical = [Gate(tag, tuple(rng.sample(range(n), arity)))
               for tag, arity in _TAG_ARITY.items() if tag not in ("Rz", "Ry", "MultiControlledRy")]
    for theta in angles:
        logical += [Gate("Rz", (0,), angle=theta), Gate("Ry", (1,), angle=theta)]
        for c in range(1, 5):
            logical.append(Gate("MultiControlledRy", tuple(rng.sample(range(n), c + 1)),
                                angle=theta, mask=tuple(rng.randrange(2) for _ in range(c))))
    assert {g.tag for g in logical} == set(_TAG_ARITY)
    for g in logical:
        body = _lower(g, n, mode, eps)[0]
        assert _reducible_pairs(body) == 0, g


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TOFFOLI_MODES), st.data())
def test_consecutive_mcry_flips_cancel_and_keep_the_state(mode, data):
    # every MultiControlledRy has qubit 0 as a zero control, so consecutive
    # ones always share a flip; CNOTs between them, and nests of X/CNOT
    # pairs that may reach into a block's own closing flips, mix the cases
    n = 5
    gates = []

    def self_inverse():
        if data.draw(st.booleans()):
            return Gate("PauliX", (data.draw(st.integers(0, n - 1)),))
        return Gate("CNOT", tuple(data.draw(st.permutations(range(n)))[:2]))

    for _ in range(data.draw(st.integers(2, 7))):
        if gates and data.draw(st.booleans()):
            gates.append(Gate("CNOT", tuple(data.draw(st.permutations(range(n)))[:2])))
        if gates and data.draw(st.booleans()):
            nest = [self_inverse() for _ in range(data.draw(st.integers(1, 2)))]
            gates += nest + nest[::-1]
        rest = data.draw(st.permutations(range(1, n)))
        c = data.draw(st.integers(0, 2))
        mask = (0,) + tuple(data.draw(st.lists(st.integers(0, 1), min_size=c, max_size=c)))
        angle = data.draw(st.one_of(st.sampled_from([math.pi / 2, -math.pi]),
                                    st.floats(-3.0, 3.0, allow_nan=False)))
        gates.append(Gate("MultiControlledRy", (0, *rest[:c + 1]), angle=angle, mask=mask))
    circ = Circuit(n, gates)
    # cost-model keeps every non-exact Rz as an exact placeholder rotation
    cfg = SynthesisConfig(b=10, toffoli_mode=mode, rz_mode="cost-model")
    out, _ = compile_circuit(circ, cfg)
    assert _reducible_pairs(out.gates) == 0
    assert compile_circuit(out, cfg)[0].gates == out.gates
    _assert_same_state(circ, out, data.draw(st.integers(0, 2 ** 32 - 1)))


@pytest.mark.parametrize("spec", [BenchmarkSpec("thc_toy", seed=3),
                                  BenchmarkSpec("magnus", k=4),
                                  BenchmarkSpec("dicke", n=8, k=2)])
def test_no_x_pair_at_a_junction_of_consecutive_mcry(spec):
    # the closing flips of one gate and the opening flips of the next form
    # one run of X gates; no qubit may appear twice in such a run
    logical = synthesize_sparse(make_state(spec))
    out, _ = compile_circuit(logical, SynthesisConfig(b=4, rz_mode="cost-model"))
    junctions = sum(a.tag == b.tag == "MultiControlledRy"
                    for a, b in zip(logical.gates, logical.gates[1:]))
    assert junctions > 0
    assert _reducible_pairs(out.gates) == 0


def test_a_cancelled_pair_between_mcry_keeps_their_shared_flips():
    m = Gate("MultiControlledRy", (0, 1), angle=1.1, mask=(0,))
    cnot = Gate("CNOT", (1, 2))
    cfg = SynthesisConfig(b=10, rz_mode="cost-model")
    want, _ = compile_circuit(Circuit(3, [m, m]), cfg)
    out, _ = compile_circuit(Circuit(3, [m, cnot, cnot, m]), cfg)
    assert out.gates == want.gates and len(out.gates) == 26
    assert _reducible_pairs(out.gates) == 0


@pytest.mark.parametrize("spec", [BenchmarkSpec("w", n=8), BenchmarkSpec("dicke", n=8, k=2),
                                  BenchmarkSpec("thc_toy", seed=3)])
def test_equal_cnot_pairs_around_empty_leaves_cancel(spec, monkeypatch):
    # demux_ucry puts an Ry leaf between two equal CNOTs; where the leaf's
    # word is empty at b = 4 the CNOTs meet and cancel, and nothing else moves
    logical = synthesize_dense(make_state(spec))
    out, rep = compile_circuit(logical, SynthesisConfig(b=4))
    assert _reducible_pairs(out.gates) == 0
    monkeypatch.setattr(cliffordt_compile, "_emit", lambda gates, g: gates.append(g) or True)
    kept, kept_rep = compile_circuit(logical, SynthesisConfig(b=4))
    pairs = _reducible_pairs(kept.gates)
    assert pairs > 50
    assert rep.total_gates < kept_rep.total_gates
    assert (rep.compiled_T, rep.qubits) == (kept_rep.compiled_T, kept_rep.qubits)
    assert np.allclose(simulate(out), simulate(kept), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cancelled_cnot_and_x_pairs_keep_the_state(data):
    # few distinct gates on two qubits, with empty rotations between, make
    # equal neighbours and cascades of them common
    pool = [Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0)), Gate("PauliX", (0,)),
            Gate("PauliX", (1,)), Gate("Ry", (0,), angle=0.0), Gate("Ry", (1,), angle=0.0),
            Gate("Ry", (1,), angle=0.7), Gate("MultiControlledRy", (0, 1), angle=1.1, mask=(0,))]
    circ = Circuit(2, data.draw(st.lists(st.sampled_from(pool), max_size=14)))
    cfg = SynthesisConfig(b=10, rz_mode="cost-model")
    out, _ = compile_circuit(circ, cfg)
    assert _reducible_pairs(out.gates) == 0
    assert compile_circuit(out, cfg)[0].gates == out.gates
    _assert_same_state(circ, out, data.draw(st.integers(0, 2 ** 32 - 1)))


def test_a_cascade_around_empty_rotations_compiles_to_nothing():
    a, b, x = Gate("CNOT", (0, 1)), Gate("CNOT", (2, 0)), Gate("PauliX", (1,))
    empty = Gate("Ry", (2,), angle=0.0)
    circ = Circuit(3, [a, empty, b, empty, b, empty, a])
    assert compile_circuit(circ, SynthesisConfig(b=4))[0].gates == ()
    circ = Circuit(3, [x, a, empty, b, empty, x, x, empty, b, a, empty, x])
    assert compile_circuit(circ, SynthesisConfig(b=4))[0].gates == ()


@pytest.mark.parametrize("spec, b", [(BenchmarkSpec("thc_toy", seed=3), 4),
                                     (BenchmarkSpec("sparse_random", n=6, seed=1), 12),
                                     (BenchmarkSpec("dicke", n=8, k=2), 14),
                                     (BenchmarkSpec("w", n=8), 4)])
def test_no_h_pair_in_a_compiled_rotation_row(spec, b):
    # an Ry is Sdg H | Rz word | H S, and the H that a word begins or ends
    # with cancels against the frame's, so no qubit sees H twice in a row;
    # an empty word makes no gates, so no qubit sees Sdg then S either
    for synth in (synthesize_sparse, synthesize_dense):
        out, _ = compile_circuit(synth(make_state(spec)), SynthesisConfig(b=b))
        last = {}
        for g in out.gates:
            for q in g.qubits:
                assert (last.get(q), g.tag) not in (("Hadamard", "Hadamard"), ("Sdg", "S")), (
                    synth.__name__, q, g)
                last[q] = g.tag


def test_cost_model_fallback():
    circ = Circuit(1, [Gate("Ry", (0,), angle=0.3),
                       Gate("Ry", (0,), angle=math.pi / 2)])
    out, rep = compile_circuit(circ, SynthesisConfig(b=10, rz_mode="cost-model"))
    placeholders = [g for g in out.gates if g.tag == "Rz"]
    assert len(placeholders) == 1                 # pi/2 routes exactly
    assert rep.compiled_T == cost_model_t_count(10)
    assert cost_model_t_count(10) == math.ceil(3 * math.log2(1 / 2.0 ** -10)) + 11


_COMPILED_GOLDEN = os.path.join(os.path.dirname(__file__), "compiled_golden.json")
_COMPILED_SPECS = [
    BenchmarkSpec("w", n=8), BenchmarkSpec("dicke", n=8, k=2), BenchmarkSpec("thc_toy", seed=3),
    BenchmarkSpec("magnus", k=4), BenchmarkSpec("dense_random", n=6, seed=1),
    BenchmarkSpec("syk", n=6, seed=1), BenchmarkSpec("sparse_random", n=3, seed=1),
]


def _compiled_cases():
    """(name, compiled circuit, config) for each stream of the golden matrix:
    four methods, both Toffoli modes, gridsynth and cost-model at b = 4."""
    for spec in _COMPILED_SPECS:
        state = make_state(spec)
        logical = {"dense": synthesize_dense(state), "sparse": synthesize_sparse(state)}
        for backend in ("qrom", "selectswap"):
            logical[backend] = prepare_alias_state(state.probabilities(), 4, backend=backend).circuit
        for method, circ in logical.items():
            for mode in TOFFOLI_MODES:
                for rz_mode in ("gridsynth", "cost-model"):
                    cfg = SynthesisConfig(b=4, toffoli_mode=mode, rz_mode=rz_mode)
                    name = f"{spec.family} n={spec.n} k={spec.k} seed={spec.seed} {method} {mode} {rz_mode}"
                    yield name, compile_circuit(circ, cfg)[0], cfg


def _compiled_records():
    """sha256 of every compiled stream of the golden matrix, by case name."""
    return {name: hashlib.sha256(serialize(out).encode()).hexdigest()
            for name, out, _ in _compiled_cases()}


def test_compiled_streams_match_golden():
    # re-record after a deliberate change to the compiled streams with
    # `PYTHONPATH=src python tests/test_cliffordt_compile.py --record`
    with open(_COMPILED_GOLDEN, encoding="utf-8") as f:
        want = json.load(f)
    assert len(want) == 112
    assert _compiled_records() == want


def test_compiling_a_compiled_circuit_gives_it_back():
    for name, out, cfg in _compiled_cases():
        again, _ = compile_circuit(out, cfg)
        assert (again.n_qubits, again.gates) == (out.n_qubits, out.gates), name


# ---------------------------------------------------------------------------
# Preparability


def test_exactly_preparable_iff_ry_needs_no_synthesis():
    # the compiler's exact-word test and the preparability test agree
    rng = random.Random(3)
    thetas = [m * math.pi / 8 for m in range(-32, 33)]
    thetas += [rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(20)]
    for th in thetas:
        _, rep = _compile_1q("Ry", th, 4)
        ok, _ = exactly_preparable(math.cos(th / 2), math.sin(th / 2))
        assert ok == (rep.n_rz_synth == 0), th


def test_exactly_preparable_agrees_with_word_search():
    # every real-amplitude state reachable by a word with <= 6 T gates must
    # be accepted by the ring-membership test
    rng = random.Random(11)
    gates = ["Hadamard", "S", "T", "PauliX"]
    seen = 0
    tried = 0
    while seen < 25 and tried < 4000:
        tried += 1
        word = []
        t_used = 0
        for _ in range(rng.randrange(0, 14)):
            g = rng.choice(gates)
            if g == "T":
                if t_used == 6:
                    continue
                t_used += 1
            word.append(g)
        psi = tags_to_unitary(word)[:, 0]
        k = int(np.argmax(np.abs(psi)))
        phase = psi[k] / abs(psi[k])
        real = psi / phase
        if np.max(np.abs(real.imag)) > 1e-9:
            continue
        seen += 1
        ok, _ = exactly_preparable(float(real[0].real), float(real[1].real))
        assert ok, word
    assert seen == 25


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cliffordt_compile.py --record")
    with open(_COMPILED_GOLDEN, "w", encoding="utf-8") as f:
        json.dump(_compiled_records(), f, indent=1, sort_keys=True)
        f.write("\n")
