import math

import pytest
from hypothesis import given, strategies as st

from qsprep.circuit_core import (
    Circuit, CircuitError, Gate, count_resources, deserialize, gate,
    is_pi4_multiple, serialize,
)


def test_gate_arity_checks():
    with pytest.raises(CircuitError):
        Gate("CNOT", (0,))
    with pytest.raises(CircuitError):
        Gate("Toffoli", (0, 1))
    with pytest.raises(CircuitError):
        Gate("CNOT", (1, 1))          # repeated operand
    with pytest.raises(CircuitError):
        Gate("NotAGate", (0,))
    with pytest.raises(CircuitError, match="unknown gate tag"):
        Gate("UniformlyControlledRy", (0, 1))    # Ry/CNOT ladders replace it


def test_angle_and_mask_validation():
    with pytest.raises(CircuitError):
        Gate("Ry", (0,))              # missing angle
    with pytest.raises(CircuitError):
        Gate("Ry", (0,), angle=float("nan"))
    with pytest.raises(CircuitError):
        Gate("MultiControlledRy", (0, 1), angle=0.5, mask=(0, 1))
    with pytest.raises(CircuitError):
        Gate("MultiControlledRy", (0, 1), angle=0.5, mask=(2,))


def test_interned_gate_is_checked_and_shared():
    for _ in range(3):                  # a failure is not cached
        with pytest.raises(CircuitError, match="repeats a qubit"):
            gate("CNOT", (1, 1))
    g = gate("CNOT", (0, 1))
    assert g == Gate("CNOT", (0, 1))
    assert gate("CNOT", (0, 1)) is g


def test_circuit_checks_every_position_of_a_shared_gate():
    g = gate("CNOT", (0, 3))
    with pytest.raises(CircuitError, match="out of range"):
        Circuit(3, [gate("Hadamard", (0,))] * 4 + [g] * 4)


def test_negative_qubit_count_is_rejected():
    with pytest.raises(CircuitError, match="negative"):
        Circuit(-3)
    with pytest.raises(CircuitError, match="negative"):
        deserialize("qubits -3\n")
    assert Circuit(0).n_qubits == 0


def test_register_ranges_must_be_disjoint():
    with pytest.raises(CircuitError):
        Circuit(4, [], {"a": (0, 2), "b": (1, 3)})
    c = Circuit(4, [], {"a": (0, 2), "b": (2, 4)})
    assert list(c.register("b")) == [2, 3]


def test_t_proxy_formula():
    gates = [
        Gate("T", (0,)), Gate("Tdg", (1,)), Gate("Toffoli", (0, 1, 2)),
        Gate("ControlledSwap", (0, 1, 2)), Gate("Hadamard", (0,)),
    ]
    rep = count_resources(Circuit(3, gates))
    assert rep.n_T == 1 and rep.n_Tdg == 1 and rep.n_CCX == 2
    assert rep.t_proxy == 1 + 1 + 4 * 2
    assert rep.compiled_T == 2
    assert rep.total_gates == 5


@given(st.lists(st.sampled_from(["T", "Tdg", "Hadamard", "S"]), max_size=60),
       st.integers(0, 12), st.integers(0, 12))
def test_t_proxy_counts_match_histogram(tags, n_tof, n_cswap):
    gates = [Gate(t, (0,)) for t in tags]
    gates += [Gate("Toffoli", (0, 1, 2))] * n_tof
    gates += [Gate("ControlledSwap", (0, 1, 2))] * n_cswap
    rep = count_resources(Circuit(3, gates))
    assert rep.t_proxy == tags.count("T") + tags.count("Tdg") + 4 * (n_tof + n_cswap)
    assert sum(rep.histogram.values()) == rep.total_gates


_angle = st.floats(min_value=-20.0, max_value=20.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        pool = ["Hadamard", "T", "Ry", "Rz"]
        if n >= 2:
            pool += ["CNOT", "MultiControlledRy"]
        if n >= 3:
            pool.append("Toffoli")
        tag = draw(st.sampled_from(pool))
        arity = {"Hadamard": 1, "T": 1, "Ry": 1, "Rz": 1, "CNOT": 2,
                 "Toffoli": 3}.get(tag)
        if arity is None:
            arity = draw(st.integers(2, min(n, 4)))
        if arity > n:
            continue
        qs = tuple(draw(st.permutations(range(n)))[:arity])
        kw = {}
        if tag in ("Ry", "Rz", "MultiControlledRy"):
            kw["angle"] = draw(_angle)
        if tag == "MultiControlledRy":
            kw["mask"] = tuple(draw(st.integers(0, 1)) for _ in qs[:-1])
        gates.append(Gate(tag, qs, **kw))
    regs = {}
    if n >= 2 and draw(st.booleans()):
        regs["address"] = (0, n // 2)
    return Circuit(n, gates, regs)


@given(circuits())
def test_serialize_round_trip_bit_exact(circ):
    back = deserialize(serialize(circ))
    assert back.n_qubits == circ.n_qubits
    assert dict(back.registers) == dict(circ.registers)
    assert back.gates == circ.gates          # repr round trip => bit exact


def test_deserialize_reports_line_numbers():
    with pytest.raises(CircuitError, match="line 2"):
        deserialize("qubits 2\nCNOT 0\n")
    with pytest.raises(CircuitError, match="qubits"):
        deserialize("CNOT 0 1\n")


def test_is_pi4_multiple():
    for m in range(-9, 10):
        assert is_pi4_multiple(m * math.pi / 4)
    assert not is_pi4_multiple(0.1)
    assert not is_pi4_multiple(math.pi / 4 + 1e-9)
