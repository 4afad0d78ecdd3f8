import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsprep
from qsprep import benchmark_states, cli_bench, cliffordt_compile, gridsynth
from qsprep.alias_prepare import prepare_alias_state, realized_marginal
from qsprep.benchmark_states import BenchmarkSpec
from qsprep.circuit_core import Circuit, deserialize
from qsprep.cli_bench import (
    CSV_FIELDS, FAMILIES, MAGNUS_B_DEFAULT, METHODS, UsageError, build_parser,
    main, rows_to_csv, run_sweep,
)
from qsprep.cliffordt_compile import SynthesisConfig
from qsprep.simulator import fidelity_prob


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_row_count_and_schema():
    # budget 16 keeps the sampling rows on the analytic-marginal path
    rows = run_sweep(BenchmarkSpec("w", n=3), ["dense", "sparse", "qrom",
                                               "selectswap"], [4, 5],
                     budget=16)
    assert len(rows) == 8
    text = rows_to_csv(rows)
    parsed = _parse_csv(text)
    assert text.splitlines()[0] == ",".join(CSV_FIELDS)
    assert all(set(r) == set(CSV_FIELDS) for r in parsed)


def test_fidelity_kind_per_method_family():
    rows = run_sweep(BenchmarkSpec("w", n=2), ["sparse", "qrom"], [4])
    kinds = {r.method: r.fidelity_kind for r in rows}
    assert kinds == {"sparse": "state", "qrom": "prob"}
    for r in rows:
        assert 0.0 <= r.infidelity <= 1.0


def test_sweep_is_deterministic_modulo_timing():
    a = run_sweep(BenchmarkSpec("dense_random", n=3, seed=9), ["dense"], [6])
    b = run_sweep(BenchmarkSpec("dense_random", n=3, seed=9), ["dense"], [6])
    strip = lambda r: (r.family, r.n, r.seed, r.method, r.b, r.t_proxy,
                       r.compiled_T, r.total_gates, r.qubits, r.infidelity)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_sweep_rejects_bad_inputs():
    with pytest.raises(UsageError):
        run_sweep(BenchmarkSpec("w", n=2), [], [4])
    with pytest.raises(UsageError):
        run_sweep(BenchmarkSpec("w", n=2), ["nope"], [4])
    with pytest.raises(UsageError):
        run_sweep(BenchmarkSpec("w", n=2), ["dense"], [0])
    with pytest.raises(UsageError):
        run_sweep(BenchmarkSpec("w", n=2), ["dense"], [4], budget=-1)


def test_over_budget_rotation_row_marks_nan():
    rows = run_sweep(BenchmarkSpec("w", n=3), ["dense"], [5], budget=2)
    assert len(rows) == 1
    assert math.isnan(rows[0].infidelity)
    assert rows[0].t_proxy > 0
    assert "nan" in rows_to_csv(rows)


def test_selectswap_never_worse_than_qrom():
    rows = run_sweep(BenchmarkSpec("dense_random", n=4, seed=3),
                     ["qrom", "selectswap"], [4, 6, 8])
    by = {(r.method, r.b): r.t_proxy for r in rows}
    for b in (4, 6, 8):
        assert by[("selectswap", b)] <= by[("qrom", b)]


# ---------------------------------------------------------------------------
# CLI plumbing


def test_synth_compile_round_trip(tmp_path, capsys):
    qc = tmp_path / "c.qc"
    ct = tmp_path / "c.ct"
    assert main(["synth", "--family", "dicke", "--n", "5", "--k", "2",
                 "--method", "sparse", "--out", str(qc)]) == 0
    logical = deserialize(qc.read_text())
    assert logical.n_qubits == 5
    assert main(["compile", str(qc), "--b", "8", "--out", str(ct)]) == 0
    compiled = deserialize(ct.read_text())
    allowed = {"PauliX", "Hadamard", "S", "Sdg", "T", "Tdg", "CNOT", "ANDU"}
    assert {g.tag for g in compiled.gates} <= allowed
    out = capsys.readouterr().out
    assert '"t_proxy"' in out


def test_estimate_prints_report(capsys):
    assert main(["estimate", "--family", "magnus", "--k", "4",
                 "--method", "selectswap", "--b", "11"]) == 0
    out = capsys.readouterr().out
    assert '"compiled_T"' in out and '"qubits"' in out


def test_bench_csv_file(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["bench", "--family", "w", "--n", "3", "--b-range", "4:6",
               "--method", "sparse", "--method", "selectswap",
               "--out", str(out)])
    assert rc == 0
    rows = _parse_csv(out.read_text())
    assert len(rows) == 6
    assert rows[0]["family"] == "w"


def test_exit_codes():
    assert main(["bench", "--family", "martian", "--n", "2"]) == 2
    assert main(["bench", "--family", "w", "--n", "3", "--b-range", "9:4"]) == 2
    assert main(["estimate", "--family", "dicke", "--n", "3", "--k", "9",
                 "--method", "dense"]) == 3
    assert main(["nonsense-subcommand"]) == 2


def test_compile_rejects_negative_qubit_count(tmp_path, capsys):
    qc = tmp_path / "neg.qc"
    qc.write_text("qubits -3\n")
    out = tmp_path / "out.qc"
    assert main(["compile", str(qc), "--out", str(out)]) == 3
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_input_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["compile", str(bad)]) == 3
    assert "validation error" in capsys.readouterr().err
    assert main(["estimate", "--family", "thc_file", "--path", str(bad),
                 "--method", "sparse"]) == 3
    assert "validation error" in capsys.readouterr().err


def test_non_utf8_compile_input_names_the_circuit_file(tmp_path, capsys):
    bad = tmp_path / "latin1.qc"
    bad.write_bytes("qubits 1\n# caf\u00e9\n".encode("latin-1"))
    assert main(["compile", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"circuit file {bad}" in err and "UTF-8" in err


def test_non_utf8_thc_file_names_the_coefficient_file(tmp_path, capsys):
    bad = tmp_path / "latin1.thc"
    bad.write_bytes("# caf\u00e9\n15 16\nt 0 1.0\n".encode("latin-1"))
    assert main(["estimate", "--family", "thc_file", "--path", str(bad),
                 "--method", "sparse"]) == 3
    err = capsys.readouterr().err
    assert f"THC coefficient file {bad}" in err and "UTF-8" in err


def test_circuit_file_error_names_the_file(tmp_path, capsys):
    qc = tmp_path / "bad.qc"
    qc.write_text("qubits 2\nCNOT 0 0\n")
    assert main(["compile", str(qc)]) == 3
    assert f"validation error: circuit file {qc}: line 2: " in capsys.readouterr().err


def test_compile_rejects_the_uniformly_controlled_ry_tag(tmp_path, capsys):
    # the synthesizers emit its Ry/CNOT ladder, so the IR has no such gate
    qc = tmp_path / "ucry.qc"
    qc.write_text("qubits 2\nUniformlyControlledRy 0 1 angles=0.1,0.2\n")
    assert main(["compile", str(qc)]) == 3
    assert (f"validation error: circuit file {qc}: line 2: unknown gate tag "
            "'UniformlyControlledRy'") in capsys.readouterr().err


def test_thc_parse_error_names_the_coefficient_file(tmp_path, capsys):
    bad = tmp_path / "bad.thc"
    bad.write_text("15 16\nt zero 1.0\n")
    assert main(["estimate", "--family", "thc_file", "--path", str(bad),
                 "--method", "sparse"]) == 3
    assert f"THC coefficient file {bad}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("body, reason", [
    ("15 16\nu 0 1.0\n", ":2: unknown record 'u'"),
    ("15 16\nt 8 1.0\n", ":2: t index 8 out of range"),
    ("15 16\nxi 0 1 1.0\nxi 0 1 2.0\n", ":3: duplicate xi index (0, 1)"),
    ("15 16\nxi 15 0 1.0\n", ":2: xi index (15, 0) out of range"),
    ("# no header\n\n", ": missing 'M n_orb' header"),
    ("15 16\nt 0 0.0\nxi 1 2 -0.0\n", ": all THC coefficients are zero"),
])
def test_thc_file_errors_name_the_file_and_line(body, reason, tmp_path, capsys):
    path = tmp_path / "bad.thc"
    path.write_text(body)
    assert main(["estimate", "--family", "thc_file", "--path", str(path),
                 "--method", "sparse"]) == 3
    assert f"validation error: THC coefficient file {path}{reason}" in capsys.readouterr().err


def test_magnus_beyond_k6_is_a_validation_error(capsys):
    assert main(["estimate", "--family", "magnus", "--k", "7", "--method", "sparse"]) == 3
    assert "validation error: magnus requires 1 <= k <= 6" in capsys.readouterr().err


def test_circuit_file_register_beyond_its_qubits_names_the_file(tmp_path, capsys):
    qc = tmp_path / "reg.qc"
    qc.write_text("qubits 2\nregister address 0 3\nPauliX 0\n")
    assert main(["compile", str(qc)]) == 3
    assert (f"validation error: circuit file {qc}: register address range (0, 3) "
            "invalid") in capsys.readouterr().err


@pytest.mark.parametrize("family, n", [("dense_random", 64),
                                       ("sparse_uniform", 70),
                                       ("sparse_random", 63)])
def test_random_family_beyond_int64_indices_is_refused(family, n, capsys):
    assert main(["estimate", "--family", family, "--n", str(n),
                 "--method", "dense"]) == 3
    err = capsys.readouterr().err
    assert family in err and f"n={n}" in err


def test_degenerate_syk_surrogate_is_a_validation_error(monkeypatch, capsys):
    # a ground state with no real part
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: (np.zeros(len(h)), 1j * np.eye(len(h))))
    assert main(["estimate", "--family", "syk", "--n", "3",
                 "--method", "dense"]) == 3
    assert "SYK surrogate" in capsys.readouterr().err


def test_out_of_memory_is_a_capacity_error_naming_the_layer(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(benchmark_states, "gen_w", exhausted)
    assert main(["estimate", "--family", "w", "--n", "3",
                 "--method", "dense"]) == 4
    assert ("capacity error: out of memory in qsprep.benchmark_states"
            in capsys.readouterr().err)


_INTS = st.one_of(st.integers(0, 3), st.integers(-2**70, 2**70))
_FIELDS = st.one_of(
    _INTS.map(str),
    st.floats().map(lambda x: f"angle={x!r}"),
    st.text("0129", max_size=4).map(lambda s: "mask=" + s),
    st.lists(st.floats(), max_size=5).map(
        lambda xs: "angles=" + ",".join(map(repr, xs))),
)
_GATE_LINES = st.builds(
    lambda tag, fields: " ".join([tag, *fields]),
    st.sampled_from(["PauliX", "T", "CNOT", "Toffoli", "Swap",
                     "ControlledSwap", "Rz", "Ry", "MultiControlledRy",
                     "UniformlyControlledRy", "ANDU", "CZ"]),
    st.lists(_FIELDS, max_size=5))
_HEADERS = st.one_of(
    st.just("qubits 4"), st.just("qubits"), _INTS.map("qubits {}".format),
    st.builds("register r {} {}".format, _INTS, _INTS))


@settings(max_examples=150, deadline=None)
@given(headers=st.lists(_HEADERS, max_size=3),
       body=st.lists(_GATE_LINES, max_size=5))
def test_compile_maps_malformed_circuit_files_to_exit_codes(
        tmp_path_factory, headers, body):
    # headers may be missing or repeated; every outcome is an exit code
    qc = tmp_path_factory.mktemp("fuzz") / "c.qc"
    qc.write_text("\n".join(headers + body) + "\n")
    assert main(["compile", str(qc), "--b", "4",
                 "--out", os.devnull]) in (0, 2, 3, 4)


def test_negative_seed_is_a_validation_error(capsys):
    for family in ("dense_random", "sparse_random", "t_friendly", "thc_toy", "syk"):
        assert main(["estimate", "--family", family, "--n", "3", "--seed", "-1",
                     "--method", "dense"]) == 3, family
        assert "seed=-1" in capsys.readouterr().err


# n and k stay tiny: larger sizes allocate or run for minutes
@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(-2, 6), k=st.integers(-1, 4),
       seed=st.one_of(st.integers(0, 3), st.integers(-2**70, 2**70)),
       path=st.sampled_from([None, "missing.thc", ".", "binary.thc"]),
       method=st.sampled_from(["sparse", "qrom"]))
def test_estimate_maps_flag_values_to_exit_codes(
        tmp_path_factory, family, n, k, seed, path, method):
    d = tmp_path_factory.mktemp("flags")
    (d / "binary.thc").write_bytes(b"\xff\xfe\x00\x01")
    argv = ["estimate", "--family", family, "--n", str(n), "--k", str(k),
            "--seed", str(seed), "--method", method, "--b", "4", "--out", os.devnull]
    if path is not None:
        argv += ["--path", str(d / path)]
    assert main(argv) in (0, 2, 3, 4)


_B_RANGES = st.one_of(
    st.builds("{}:{}".format, st.integers(-2, 6), st.integers(-2, 6)),
    st.sampled_from(["", ":", "3", "1:2:3", "a:b", " 2 : 3 ", "2:", ":4", "1.5:3"]),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=6))


# n, k, b and the budget stay tiny: larger sizes allocate or run for
# minutes.  thc_toy and magnus do not shrink with n, so their rotation rows
# are costed, not synthesized and simulated.
@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(FAMILIES + ("nope",)), n=st.integers(-2, 4),
       k=st.integers(-1, 3), seed=st.one_of(st.integers(-1, 3), st.integers(-2**70, 2**70)),
       methods=st.lists(st.sampled_from(METHODS + ("nope",)), max_size=2),
       b=st.one_of(st.none(), st.integers(-2, 6)), b_range=st.one_of(st.none(), _B_RANGES),
       budget=st.one_of(st.none(), st.integers(-3, 16)))
def test_bench_maps_flag_values_to_exit_codes(family, n, k, seed, methods, b, b_range, budget):
    argv = ["bench", "--family", family, "--n", str(n), "--k", str(k),
            "--seed", str(seed), "--out", os.devnull]
    for m in methods:
        argv += ["--method", m]
    if b is not None:
        argv += ["--b", str(b)]
    if b_range is not None:
        argv.append(f"--b-range={b_range}")
    if budget is not None:
        argv += ["--budget-qubits", str(budget)]
    if family in ("thc_toy", "magnus"):
        argv.append("--fallback-cost-model")
    assert main(argv) in (0, 2, 3, 4)


def test_unallocatable_statevector_is_a_capacity_error(capsys):
    # this rotation row has 66 qubits, whose 2^66 amplitudes NumPy refuses
    # without allocating; never test 30-59 qubits, which can really allocate
    assert main(["bench", "--family", "sparse_uniform", "--n", "62", "--k", "2",
                 "--method", "sparse", "--b", "4", "--budget-qubits", "80",
                 "--out", os.devnull]) == 4
    err = capsys.readouterr().err
    assert "capacity error: statevector simulator" in err and "n=66" in err


def _analytic_infidelity(state, b, method):
    p = state.probabilities()
    pipe = prepare_alias_state(p, b, backend=method)
    target = np.zeros(pipe.table.L)
    target[:len(p)] = p
    return 1.0 - fidelity_prob(target, [float(m) for m in realized_marginal(pipe.table)])


def test_64_qubit_sampling_row_is_evaluated_by_bit_planes(tmp_path):
    # the pipeline has 64 qubits but only 8 + 11 Hadamard inputs
    out = tmp_path / "row.csv"
    assert main(["bench", "--family", "magnus", "--k", "4", "--b", "11",
                 "--method", "qrom", "--budget-qubits", "64",
                 "--out", str(out)]) == 0
    (row,) = _parse_csv(out.read_text())
    state = benchmark_states.make_state(BenchmarkSpec("magnus", k=4))
    assert float(row["infidelity"]) == _analytic_infidelity(state, 11, "qrom")


@pytest.mark.parametrize("method", ["qrom", "selectswap"])
@pytest.mark.parametrize("stage", ["random", "swap"])
def test_sampling_row_evaluates_the_circuit_not_the_table(stage, method, monkeypatch):
    state = benchmark_states.make_state(BenchmarkSpec("dense_random", n=3, seed=1))
    cfg = SynthesisConfig(b=4)
    want = _analytic_infidelity(state, 4, method)
    assert cli_bench._sampling_row(state, method, cfg, 64)[1] == want

    def drop_one(p, b, backend):   # the first gate of `stage`
        pipe = prepare_alias_state(p, b, backend=backend)
        sizes = [r.total_gates for r in pipe.stages.values()]
        start = dict(zip(pipe.stages, itertools.accumulate([0] + sizes)))[stage]
        gates = list(pipe.circuit.gates)
        del gates[start]
        return replace(pipe, circuit=Circuit(pipe.circuit.n_qubits, gates,
                                             pipe.circuit.registers))
    monkeypatch.setattr(cli_bench, "prepare_alias_state", drop_one)
    assert cli_bench._sampling_row(state, method, cfg, 64)[1] != want


def test_sampling_row_over_the_input_bound_reports_the_analytic_marginal(monkeypatch):
    # n + b = 3 + 4 Hadamard inputs: counted at a bound of 7, not at 6
    state = benchmark_states.make_state(BenchmarkSpec("dense_random", n=3, seed=1))
    cfg = SynthesisConfig(b=4)
    want = _analytic_infidelity(state, 4, "qrom")
    calls, real = [], cli_bench.pipeline_histogram
    monkeypatch.setattr(cli_bench, "pipeline_histogram", lambda circuit, address:
                        calls.append(len(address)) or real(circuit, address))
    for bound, counted in ((7, [3]), (6, [])):
        calls.clear()
        monkeypatch.setattr(cli_bench, "HISTOGRAM_MAX_INPUTS", bound)
        assert cli_bench._sampling_row(state, "qrom", cfg, 64)[1] == want
        assert calls == counted


def test_negative_budget_is_a_usage_error(capsys):
    assert main(["bench", "--family", "w", "--n", "3", "--b", "4",
                 "--budget-qubits", "-5", "--out", os.devnull]) == 2
    assert "usage error: qubit budget -5 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("b", [0, -1])
@pytest.mark.parametrize("cmd", ["estimate", "compile"])
def test_b_below_one_is_a_usage_error(cmd, b, tmp_path, capsys):
    qc = tmp_path / "c.qc"
    assert main(["synth", "--family", "w", "--n", "3", "--method", "dense",
                 "--out", str(qc)]) == 0
    argv = (["estimate", "--family", "dense_random", "--n", "3", "--method",
             "dense"] if cmd == "estimate" else ["compile", str(qc)])
    assert main(argv + ["--b", str(b)]) == 2
    assert "usage error: b must be >= 1" in capsys.readouterr().err


def test_module_entry_point_runs_without_warnings(tmp_path):
    src = str(Path(qsprep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qsprep.cli_bench", "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage: qsprep" in proc.stdout


def test_importing_the_package_loads_no_sympy(tmp_path):
    # sympy is a test dependency only: the Diophantine solver factors with
    # rings.factorize
    src = str(Path(qsprep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys, qsprep, qsprep.cli_bench; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('sympy', 'qsprep'))))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "qsprep.gridsynth" in loaded and "qsprep.cli_bench" in loaded
    assert not [m for m in loaded if m.startswith("sympy")]


def test_estimate_at_b30_exits_zero(capsys):
    assert main(["estimate", "--family", "w", "--n", "3", "--method", "dense",
                 "--b", "30"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["compiled_T"] > 0


@pytest.mark.parametrize("b", [1000, 2000])
def test_rz_beyond_reach_exits_4_without_a_traceback(b, tmp_path, capsys):
    # b = 1000 overflows the float64 skew of the grid operator search, and
    # b = 2000 the float eps = 2^-b itself; each must end in exit 4 naming
    # the angle and the precision, within 20 s
    path = tmp_path / "rz.qc"
    path.write_text("qubits 1\nRz 0 angle=0.3\n", encoding="utf-8")
    t0 = time.perf_counter()
    assert main(["compile", str(path), "--b", str(b), "--out", os.devnull]) == 4
    assert time.perf_counter() - t0 < 20
    err = capsys.readouterr().err
    assert err.startswith("capacity error: Rz synthesis failed for theta=0.3")
    assert f"b={b}" in err if b < 1075 else "b >= 1075" in err
    assert "Traceback" not in err


def test_a_grid_enumeration_over_the_limit_exits_4(monkeypatch, tmp_path, capsys):
    # no angle reaches the size guard of the exact grid kernel at the b the
    # tests use; with the guard at 0 the first point trips it, which must
    # end in exit 4 naming the angle and the precision
    monkeypatch.setattr(gridsynth, "_GRID_ROW_LIMIT", 0)
    with pytest.raises(gridsynth.SynthesisError, match="grid enumeration too large"):
        gridsynth.synthesize_rz_tags(0.3, 2.0 ** -20)
    path = tmp_path / "rz.qc"
    path.write_text("qubits 1\nRz 0 angle=0.3\n", encoding="utf-8")
    cliffordt_compile._rz_tags.cache_clear()
    try:
        assert main(["compile", str(path), "--b", "20", "--out", os.devnull]) == 4
    finally:
        cliffordt_compile._rz_tags.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("capacity error: Rz synthesis failed for theta=0.3")
    assert "b=20" in err and "grid enumeration too large" in err
    assert "Traceback" not in err


def test_rz_synthesis_failure_is_a_capacity_error(monkeypatch, capsys):
    # a grid solver that finds nothing exhausts every k and must surface as
    # exit 4 naming the layer, the angle and the precision
    monkeypatch.setattr(gridsynth._EpsRegion, "candidates",
                        lambda self, k, limit=None: [])
    cliffordt_compile._rz_tags.cache_clear()
    try:
        assert main(["estimate", "--family", "w", "--n", "3", "--method", "dense",
                     "--b", "12"]) == 4
    finally:
        cliffordt_compile._rz_tags.cache_clear()
    err = capsys.readouterr().err
    assert "Rz synthesis" in err and "theta=" in err and "b=12" in err


def test_verify_finds_the_suite_from_any_directory(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli_bench.subprocess, "call",
                        lambda cmd, cwd=None: calls.append((cmd, cwd)) or 0)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "-k", "cost_identity"]) == 0
    (cmd, cwd), = calls
    suite = cmd[cmd.index("pytest") + 1]
    assert os.path.isabs(suite) and os.path.isfile(suite)
    assert suite.endswith(os.path.join("tests", "test_acceptance.py"))
    assert cmd[-2:] == ["-k", "cost_identity"]


def test_magnus_default_b_values():
    parser = build_parser()
    args = parser.parse_args(["bench", "--family", "magnus", "--k", "3"])
    from qsprep.cli_bench import _parse_b_values
    assert _parse_b_values(args) == list(MAGNUS_B_DEFAULT)


def test_infidelity_has_full_precision():
    rows = run_sweep(BenchmarkSpec("dense_random", n=2, seed=1), ["dense"], [6])
    text = rows_to_csv(rows)
    cell = _parse_csv(text)[0]["infidelity"]
    assert float(cell) == rows[0].infidelity       # repr round trip
