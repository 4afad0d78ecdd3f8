import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_alias
from qsprep import alias_prepare
from qsprep.alias_prepare import (
    LookupSpec, ValidationError, _lookup_t_proxy, build_alias_table,
    build_qrom, build_selectswap, optimal_lambda, prepare_alias_state,
    realized_marginal,
)
from qsprep.benchmark_states import BenchmarkSpec, make_state
from qsprep.circuit_core import (
    Circuit, CircuitError, count_resources, serialize, tally_gates,
)
from qsprep.cli_bench import run_sweep
from qsprep.cliffordt_compile import SynthesisConfig, compile_circuit
from qsprep.simulator import address_marginal, classical_simulate, fidelity_prob, simulate


def _rand_dist(L, rng, zeros=0):
    v = [rng.uniform(0.05, 1.0) for _ in range(L)]
    for j in rng.sample(range(L), zeros):
        v[j] = 0.0
    s = sum(v)
    return [x / s for x in v]


# ---------------------------------------------------------------------------
# Classical table


def test_uniform_distribution_needs_no_aliasing():
    t = build_alias_table([0.25] * 4, b=6)
    assert all(tau == 1 for tau in reference_alias.vose([0.25] * 4, b=6)[1])
    assert t.alias == (0, 1, 2, 3)
    assert realized_marginal(t) == tuple(Fraction(1, 4) for _ in range(4)) or \
        list(realized_marginal(t)) == [Fraction(1, 4)] * 4


def test_hand_worked_two_bin_table():
    t = build_alias_table([0.75, 0.25], b=2)
    assert reference_alias.vose([0.75, 0.25], b=2)[1] == (Fraction(1), Fraction(1, 2))
    assert t.alias == (0, 0)
    assert t.keep == (4, 2)
    assert list(realized_marginal(t)) == [Fraction(3, 4), Fraction(1, 4)]


def test_reproduction_identity():
    p = [0.4, 0.3, 0.2, 0.1]
    t, tau = reference_alias.vose(p, b=8)
    assert t == build_alias_table(p, b=8)
    rec = reference_alias.reproduced_distribution(t, tau)
    assert max(abs(float(r) - x) for r, x in zip(rec, p)) < 1e-12


def test_validation_errors():
    with pytest.raises(ValidationError):
        build_alias_table([0.5, -0.1, 0.6], b=4)
    with pytest.raises(ValidationError):
        build_alias_table([0.5, 0.4], b=4)        # sums to 0.9
    with pytest.raises(ValidationError):
        build_alias_table([0.5, 0.5], b=0)


@pytest.mark.parametrize("L, w, data, error, message", [
    (3, 2, (0, 1, 2), ValidationError, "L must be a positive power of two"),
    (0, 2, (), ValidationError, "L must be a positive power of two"),
    (2, 0, (0, 0), ValidationError, "word width must be >= 1"),
    (4, 2, (0, 1, 2), CircuitError, "data length must equal L"),
    (2, 2, (1, 4), CircuitError, "data word exceeds width"),
    (2, 2, (-1, 0), CircuitError, "data word exceeds width"),
])
def test_lookup_spec_validation(L, w, data, error, message):
    with pytest.raises(error, match=message):
        LookupSpec(L, w, data)


def test_unknown_backends_are_refused():
    with pytest.raises(ValidationError, match="unknown backend 'bogus'"):
        prepare_alias_state([0.5, 0.5], 4, backend="bogus")
    with pytest.raises(ValidationError, match="spec.backend must be 'selectswap'"):
        build_selectswap(LookupSpec(2, 1, (0, 1)))


def test_non_power_of_two_pads():
    t = build_alias_table([0.5, 0.3, 0.2], b=6)
    assert t.L == 4
    marg = realized_marginal(t)
    assert sum(marg) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 10 ** 9))
def test_quantization_error_bound(b, log_l, seed):
    rng = random.Random(seed)
    p = _rand_dist(1 << log_l, rng)
    t = build_alias_table(p, b)
    marg = [float(x) for x in realized_marginal(t)]
    assert max(abs(a - c) for a, c in zip(marg, p)) <= 2.0 ** -b + 1e-12
    assert sum(realized_marginal(t)) == 1          # exact rational total


def _normalized(weights):
    total = sum(weights)
    if total == 0:
        weights, total = [1] + weights[1:], 1 + sum(weights[1:])
    return [w / total for w in weights]


# weights from a small alphabet give exact zeros and tied surpluses; floats
# give unrelated dyadic denominators
_weight = st.one_of(st.integers(0, 3), st.floats(0, 1))
_weights = st.lists(_weight, min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_weights, st.integers(1, 16))
def test_alias_table_matches_fraction_oracle(weights, b):
    p = _normalized(weights)
    assert build_alias_table(p, b) == reference_alias.build_alias_table(p, b)


@pytest.mark.parametrize("spec", [BenchmarkSpec("dense_random", n=10, seed=1),
                                  BenchmarkSpec("magnus", k=3)],
                         ids=["dense_random-n10-seed1", "magnus-k3"])
def test_alias_table_matches_fraction_oracle_on_workload_states(spec):
    # dense_random n=10 has 512 zero bins of 1024
    p = make_state(spec).probabilities()
    for b in (1, 10, 16):
        assert build_alias_table(p, b) == reference_alias.build_alias_table(p, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(_weight, min_size=1, max_size=64),
       st.permutations(range(1, 21)), st.booleans())
def test_cached_pass_gives_each_b_its_own_table(weights, bs, as_array):
    # one Vose pass, then every b in shuffled order from the warm cache
    p = _normalized(weights)
    arg = np.array(p) if as_array else p
    alias_prepare._vose.cache_clear()
    for b in bs:
        assert build_alias_table(arg, b) == reference_alias.build_alias_table(p, b), b
    assert alias_prepare._vose.cache_info().misses == 1


def test_validation_errors_raise_on_every_call():
    good = [0.5, 0.25, 0.25]
    for bad, b, message in [([0.5, -0.1, 0.6], 4, "negative probability entry"),
                            ([0.5, 0.4], 4, "sum to"),
                            ([math.nan, 1.0], 4, "not finite"),
                            ([math.inf, 0.0], 4, "not finite"),
                            (good, 0, "b must be >= 1")]:
        for arg in (bad, np.array(bad)):
            build_alias_table(good, 4)                # a warm cache
            for _ in range(2):
                with pytest.raises(ValidationError, match=message):
                    build_alias_table(arg, b)
                with pytest.raises(ValidationError, match=message):
                    prepare_alias_state(arg, b)


def test_mutating_the_callers_distribution_moves_the_next_table():
    p = [0.5, 0.25, 0.25, 0.0]
    arr = np.array(p)
    first = build_alias_table(p, 6)
    assert build_alias_table(arr, 6) == first
    p[:] = arr[:] = [0.25] * 4
    for arg in (p, arr):
        t = build_alias_table(arg, 6)
        assert t == reference_alias.build_alias_table([0.25] * 4, 6) != first


def test_sweep_runs_one_vose_pass_per_state(vose_passes):
    for spec in (BenchmarkSpec("dense_random", n=4, seed=1),
                 BenchmarkSpec("sparse_random", n=3, seed=1)):
        vose_passes.clear()
        rows = run_sweep(spec, ["qrom", "selectswap"], [4, 3, 5])
        assert len(rows) == 6
        assert len(vose_passes) == 1, spec


def test_serialization_round_trip():
    t, tau = reference_alias.vose([0.4, 0.3, 0.2, 0.1], b=7)
    text = reference_alias.serialize_alias_table(t, tau)
    assert reference_alias.deserialize_alias_table(text) == (t, tau)


# ---------------------------------------------------------------------------
# Lookup circuits


def _lookup_outputs(circ, L, w):
    """Classical output word per address (out register XORed onto zeros)."""
    n_addr = (L - 1).bit_length() if L > 1 else 0
    n = circ.n_qubits
    outs = []
    o0, o1 = circ.registers["output"]
    for j in range(L):
        bits_in = 0
        a0, a1 = circ.registers.get("address", (0, 0))
        for i, q in enumerate(range(a0, a1)):
            if (j >> (a1 - a0 - 1 - i)) & 1:
                bits_in |= 1 << (n - 1 - q)
        res = classical_simulate(circ, bits_in)
        word = 0
        for q in range(o0, o1):
            word = (word << 1) | ((res >> (n - 1 - q)) & 1)
        outs.append(word)
    return outs


def test_qrom_xor_semantics_small():
    spec = LookupSpec(4, 2, (0, 1, 2, 3))
    circ = build_qrom(spec)
    assert _lookup_outputs(circ, 4, 2) == [0, 1, 2, 3]


def test_qrom_l2_uses_no_toffolis():
    circ = build_qrom(LookupSpec(2, 3, (5, 2)))
    assert count_resources(circ).n_CCX == 0
    assert _lookup_outputs(circ, 2, 3) == [5, 2]


def test_qrom_l1_direct_loads():
    circ = build_qrom(LookupSpec(1, 3, (6,)))
    assert all(g.tag == "PauliX" for g in circ.gates)
    assert _lookup_outputs(circ, 1, 3) == [6]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 4), st.integers(0, 10 ** 9))
def test_selectswap_matches_qrom_all_lambdas(log_l, w, seed):
    L = 1 << log_l
    rng = random.Random(seed)
    data = tuple(rng.randrange(1 << w) for _ in range(L))
    want = _lookup_outputs(build_qrom(LookupSpec(L, w, data)), L, w)
    assert want == list(data)
    lam = 1
    while lam <= L:
        circ = build_selectswap(LookupSpec(L, w, data, "selectswap", lam))
        assert _lookup_outputs(circ, L, w) == list(data), lam
        lam <<= 1


def test_optimal_lambda_examples_and_brute_force():
    assert optimal_lambda(256, 8) == 4
    assert optimal_lambda(2, 3) == 1
    assert optimal_lambda(1, 5) == 1
    for L in (2, 8, 64, 1024, 4096):
        for w in (1, 3, 16, 32):
            lams = []
            lam = 1
            while lam <= L:
                lams.append(lam)
                lam <<= 1
            best = min(lams, key=lambda l: (4 * math.ceil(L / l) + 8 * l * w, l))
            assert optimal_lambda(L, w) == best


def _pow2_upto(L):
    lam = 1
    while lam <= L:
        yield lam
        lam <<= 1


def test_lookup_cost_closed_form_matches_built_circuits():
    # two Toffolis per non-root node of the unary tree over L/lam leaves,
    # plus (lam - 1) * w CSWAPs; the data words do not enter
    rng = random.Random(11)
    for log_l in range(11):
        L = 1 << log_l
        for w in (1, 2, 3, 7, 16):
            data = tuple(rng.randrange(1 << w) for _ in range(L))
            for lam in _pow2_upto(L):
                built = count_resources(build_selectswap(
                    LookupSpec(L, w, data, "selectswap", lam))).t_proxy
                assert built == 4 * (max(0, 2 * L // lam - 4) + (lam - 1) * w), (L, w, lam)


@pytest.mark.parametrize("L, b", [(2, 3), (8, 2), (16, 5), (32, 3), (64, 1), (256, 8)])
def test_pipeline_lambda_is_argmin_of_built_cost(L, b):
    # (32, 3): the word of width 8 ties at lam = 2 and 4 (144 each); the
    # smaller one wins
    n = L.bit_length() - 1
    pipe = prepare_alias_state(_rand_dist(L, random.Random(L + b)), b,
                               backend="selectswap")
    words = tuple(a << b | min(k, (1 << b) - 1)
                  for a, k in zip(pipe.table.alias, pipe.table.keep))
    costs = [(count_resources(build_selectswap(
        LookupSpec(L, n + b, words, "selectswap", lam))).t_proxy, lam)
        for lam in _pow2_upto(L)]
    assert pipe.lam == min(costs)[1], costs
    if (L, b) == (32, 3):
        assert costs[1][0] == costs[2][0] == 144 and pipe.lam == 2


@pytest.mark.parametrize("lam_of_L", [lambda L: 0, lambda L: 3, lambda L: 2 * L],
                         ids=["0", "3", "2L"])
def test_explicit_lambda_is_validated_and_ignored_under_qrom(lam_of_L):
    p = [0.1, 0.2, 0.3, 0.4]
    lam = lam_of_L(4)
    with pytest.raises(ValidationError, match="lambda must be a power of two"):
        prepare_alias_state(p, 4, backend="selectswap", lam=lam)
    pipe = prepare_alias_state(p, 4, backend="qrom", lam=lam)
    assert pipe.lam == 1
    assert serialize(pipe.circuit) == serialize(prepare_alias_state(p, 4).circuit)


def _lookup_slice(pipe):
    """The pipeline's lookup stage as a circuit of its own."""
    sizes = [r.total_gates for r in pipe.stages.values()]
    start = dict(zip(pipe.stages, itertools.accumulate([0] + sizes)))["lookup"]
    stop = start + pipe.stages["lookup"].total_gates
    return Circuit(pipe.circuit.n_qubits, pipe.circuit.gates[start:stop],
                   pipe.circuit.registers)


def _read(bits, n_qubits, qubits):
    word = 0
    for q in qubits:
        word = (word << 1) | ((bits >> (n_qubits - 1 - q)) & 1)
    return word


@pytest.mark.parametrize("log_l", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_lookup_word_puts_alias_and_keep_on_their_registers(log_l, b):
    L, n = 1 << log_l, log_l
    p = _rand_dist(L, random.Random(10 * log_l + b), zeros=L // 4)
    for backend, lam in [("qrom", None)] + [("selectswap", lam) for lam in _pow2_upto(L)]:
        pipe = prepare_alias_state(p, b, backend=backend, lam=lam)
        assert pipe.lam == (lam or 1)
        circ = _lookup_slice(pipe)
        nq = circ.n_qubits
        assert count_resources(circ).t_proxy == _lookup_t_proxy(L, n + b, pipe.lam)
        for j in range(L):
            out = classical_simulate(circ, j << (nq - n))
            assert _read(out, nq, circ.register("address")) == j
            assert _read(out, nq, circ.register("alias")) == pipe.table.alias[j]
            assert _read(out, nq, circ.register("keep")) == \
                min(pipe.table.keep[j], (1 << b) - 1), (backend, lam, j)


_PIPELINE_GOLDEN = os.path.join(os.path.dirname(__file__), "alias_pipeline_golden.json")
_GOLDEN_SPECS = [
    BenchmarkSpec("w", n=5), BenchmarkSpec("dicke", n=5, k=2),
    BenchmarkSpec("dense_random", n=6, seed=1),
    BenchmarkSpec("sparse_random", n=6, seed=2), BenchmarkSpec("magnus", k=3),
]


def _pipeline_records():
    out = []
    for spec in _GOLDEN_SPECS:
        p = make_state(spec).probabilities()
        for b in (4, 8, 12):
            for backend in ("qrom", "selectswap"):
                pipe = prepare_alias_state(p, b, backend=backend)
                out.append({
                    "family": spec.family, "n": spec.n, "k": spec.k,
                    "seed": spec.seed, "b": b, "backend": backend,
                    "sha1": hashlib.sha1(serialize(pipe.circuit).encode()).hexdigest(),
                    "lam": pipe.lam,
                    "stage_t_proxy": {s: r.t_proxy for s, r in pipe.stages.items()},
                })
    return out


def test_pipeline_gate_streams_match_golden():
    with open(_PIPELINE_GOLDEN, encoding="utf-8") as f:
        want = json.load(f)["cases"]
    assert len(want) == 30
    assert _pipeline_records() == want


def test_pipeline_stages_equal_counts_of_their_slices():
    # stages are tallied straight from gate slices; their sizes, in stage
    # order, give the slices back
    for spec in _GOLDEN_SPECS:
        p = make_state(spec).probabilities()
        for b in (4, 8, 12):
            for backend in ("qrom", "selectswap"):
                pipe = prepare_alias_state(p, b, backend=backend)
                circ, start = pipe.circuit, 0
                for name, rep in pipe.stages.items():
                    stop = start + rep.total_gates
                    assert rep == count_resources(
                        Circuit(circ.n_qubits, circ.gates[start:stop])), name
                    start = stop
                assert start == len(circ.gates)


def test_compile_path_builds_each_distinct_gate_once():
    # 11,786 logical and 40,702 compiled gates share a few hundred Gate objects
    p = make_state(BenchmarkSpec("dense_random", n=10, seed=1)).probabilities()
    pipe = prepare_alias_state(p, 10, backend="qrom")
    compiled, _ = compile_circuit(pipe.circuit, SynthesisConfig(b=10))
    objects = {id(g) for g in pipe.circuit.gates} | {id(g) for g in compiled.gates}
    assert len(compiled.gates) > 40_000
    assert len(objects) <= 1000


# ---------------------------------------------------------------------------
# Comparator


def test_comparator_exhaustive_b3():
    circ = reference_alias.build_comparator(3)
    x0, x1 = circ.registers["x"]
    y0, y1 = circ.registers["y"]
    (f0, _) = circ.registers["flag"]
    n = circ.n_qubits
    assert count_resources(circ).n_CCX == 3        # b Toffolis exactly
    for x in range(8):
        for y in range(8):
            bits = 0
            for i, q in enumerate(range(x0, x1)):
                if (x >> (2 - i)) & 1:
                    bits |= 1 << (n - 1 - q)
            for i, q in enumerate(range(y0, y1)):
                if (y >> (2 - i)) & 1:
                    bits |= 1 << (n - 1 - q)
            out = classical_simulate(circ, bits)
            flag = (out >> (n - 1 - f0)) & 1
            assert flag == (1 if y >= x else 0), (x, y)


# ---------------------------------------------------------------------------
# Full pipeline


def test_pipeline_uniform_p_gives_uniform_marginal():
    pipe = prepare_alias_state([0.25] * 4, b=3, backend="qrom")
    psi = simulate(pipe.circuit)
    marg = address_marginal(psi, pipe.circuit.register("address"),
                            pipe.circuit.n_qubits)
    assert np.allclose(marg, 0.25, atol=1e-12)


@pytest.mark.parametrize("backend", ["qrom", "selectswap"])
def test_pipeline_marginal_matches_analytic(backend):
    rng = random.Random(2024)
    p = _rand_dist(4, rng)
    pipe = prepare_alias_state(p, b=4, backend=backend)
    psi = simulate(pipe.circuit)
    marg = address_marginal(psi, pipe.circuit.register("address"),
                            pipe.circuit.n_qubits)
    want = [float(x) for x in realized_marginal(pipe.table)]
    assert np.max(np.abs(marg - want)) < 1e-9
    assert fidelity_prob(p, marg) >= (1 - 2.0 ** -4) ** 2


def test_pipeline_stage_reports_present():
    pipe = prepare_alias_state([0.6, 0.4], b=4)
    assert list(pipe.stages) == ["superposition", "lookup", "random",
                                 "comparator", "swap"]
    # comparator + swap at n = 1: 4b + 4
    t = pipe.stages["comparator"].t_proxy + pipe.stages["swap"].t_proxy
    assert t == 4 * 4 + 4


_PIPELINE_MATRIX = [(n, b, backend, lam) for n in range(1, 7) for b in range(1, 7)
                    for backend, lam in [("qrom", None), ("selectswap", None)]
                    + [("selectswap", lam) for lam in _pow2_upto(1 << n)]]


def test_trusted_pipelines_equal_their_public_rebuild():
    # Circuit(...) checks every operand; _trusted skips that scan
    for n, b, backend, lam in _PIPELINE_MATRIX:
        p = _rand_dist(1 << n, random.Random(n * 100 + b), zeros=(1 << n) // 4)
        circ = prepare_alias_state(p, b, backend=backend, lam=lam).circuit
        assert circ == Circuit(circ.n_qubits, circ.gates, circ.registers), (n, b, lam)
        spans = sorted(circ.registers.values())
        assert spans[0][0] == 0 and spans[-1][1] == circ.n_qubits
        assert all(a[1] == c[0] for a, c in zip(spans, spans[1:]))


def test_stages_are_tallied_lazily_from_the_marks():
    for n, b, backend, lam in _PIPELINE_MATRIX:
        p = _rand_dist(1 << n, random.Random(n * 100 + b))
        pipe = prepare_alias_state(p, b, backend=backend, lam=lam)
        assert "stages" not in vars(pipe)
        gates = pipe.circuit.gates
        names = [name for name, _ in pipe.marks]
        starts = [start for _, start in pipe.marks]
        assert names == ["superposition", "lookup", "random", "comparator", "swap", "end"]
        assert starts[0] == 0 and starts[-1] == len(gates) and starts == sorted(starts)
        want = {name: tally_gates(gates[start:stop], pipe.circuit.n_qubits)
                for name, start, stop in zip(names, starts, starts[1:])}
        assert pipe.stages == want
        assert pipe.stages is pipe.stages              # tallied once
