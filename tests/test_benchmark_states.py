import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from qsprep.benchmark_states import (
    BenchmarkSpec, DegenerateSurrogateError, ParameterError, ParseError,
    descent_count, gen_dense_random, gen_dicke, gen_magnus, gen_sparse_random,
    gen_sparse_uniform, gen_syk_surrogate, gen_t_friendly, gen_thc_toy, gen_w,
    load_thc_coefficients, magnus_coefficient, make_state,
    save_thc_coefficients,
)


def test_w_states():
    s = gen_w(8)
    assert len(s.support) == 8
    assert all(j.bit_count() == 1 for j in s.support)
    s2 = gen_w(2)
    assert np.allclose(s2.to_vector(), [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])


def test_dicke_supports():
    assert len(gen_dicke(8, 2).support) == 28
    assert len(gen_dicke(8, 3).support) == 56
    v = gen_dicke(4, 2).to_vector()
    nz = np.abs(v) > 0
    assert np.allclose(v[nz], 1 / math.sqrt(6))
    with pytest.raises(ParameterError):
        BenchmarkSpec("dicke", n=4, k=4)


def test_synthetic_support_sizes():
    assert len(gen_dense_random(8, 1).support) == 128
    assert len(gen_sparse_uniform(8, 1).support) == 8
    assert len(gen_sparse_random(8, 1).support) == 8
    mags = {abs(a) for a in gen_sparse_uniform(8, 1).amplitudes.values()}
    assert all(abs(m - 1 / math.sqrt(8)) < 1e-12 for m in mags)


def test_determinism():
    for gen in (gen_dense_random, gen_sparse_uniform, gen_sparse_random):
        a = gen(6, 42)
        b = gen(6, 42)
        assert a.amplitudes == b.amplitudes
        c = gen(6, 43)
        assert a.amplitudes != c.amplitudes


def test_t_friendly_schedule_angles_preparable():
    from qsprep.gridsynth import exactly_preparable
    state, schedule = gen_t_friendly(3, seed=5)
    assert abs(np.linalg.norm(state.to_vector()) - 1) < 1e-12
    for _, table in schedule:
        for th in table:
            ok, _ = exactly_preparable(math.cos(th / 2), math.sin(th / 2))
            assert ok


def test_thc_toy_shape():
    s = gen_thc_toy(0)
    assert s.n == 8
    assert abs(np.linalg.norm(s.to_vector()) - 1) < 1e-12


def test_thc_file_round_trip(tmp_path):
    path = tmp_path / "c.thc"
    t = {0: 0.5, 3: -1.25}
    xi = {(0, 1): 0.75, (1, 1): -0.25}
    save_thc_coefficients(str(path), 15, 16, t, xi)
    s = load_thc_coefficients(str(path))
    s2 = load_thc_coefficients(str(path))
    assert s.amplitudes == s2.amplitudes
    assert abs(np.linalg.norm(s.to_vector()) - 1) < 1e-12


def test_thc_single_term_point_mass(tmp_path):
    path = tmp_path / "point.thc"
    save_thc_coefficients(str(path), 15, 16, {0: 1.0}, {})
    s = load_thc_coefficients(str(path))
    assert len(s.support) == 1
    assert abs(abs(list(s.amplitudes.values())[0]) - 1.0) < 1e-12


def test_thc_parse_errors(tmp_path):
    bad = tmp_path / "bad.thc"
    bad.write_text("15 16\nt 0 1.0\nt 0 2.0\n")      # duplicate key
    with pytest.raises(ParseError):
        load_thc_coefficients(str(bad))
    bad.write_text("15 16\nt zero 1.0\n")
    with pytest.raises(ParseError, match=":2:"):
        load_thc_coefficients(str(bad))


def test_syk_surrogate_properties():
    s = gen_syk_surrogate(4, seed=1)
    v = s.to_vector()
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    assert gen_syk_surrogate(4, seed=1).amplitudes == s.amplitudes


def test_magnus_states():
    s1 = gen_magnus(1)
    assert s1.n == 1 and s1.amplitudes == {0: 1.0}
    s4 = gen_magnus(4)
    assert len(s4.support) == 24
    assert s4.n == 8 and (1 << s4.n) == 256          # 24/256 occupied
    assert len(gen_magnus(3).support) == 6           # 6/64 with n = 6
    assert gen_magnus(3).n == 6
    with pytest.raises(ParameterError):
        BenchmarkSpec("magnus", k=0)


@pytest.mark.parametrize("k", [-1, 0, 4, 5])
def test_gen_dicke_refuses_k_outside_0_n(k):
    with pytest.raises(ParameterError, match="dicke requires 0 < k < n"):
        gen_dicke(4, k)


@pytest.mark.parametrize("k", [0, 7])
def test_gen_magnus_refuses_k_outside_1_6(k):
    with pytest.raises(ParameterError, match="magnus requires 1 <= k <= 6"):
        gen_magnus(k)


def test_descents_and_coefficients():
    assert descent_count([0, 1, 2, 3]) == 0
    assert descent_count([3, 2, 1, 0]) == 3
    # k = 2 hand values: identity +1/2, transposition -1/2
    assert magnus_coefficient([0, 1]) == Fraction(1, 2)
    assert magnus_coefficient([1, 0]) == Fraction(-1, 2)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_magnus_amplitudes_follow_descent_classes(k):
    s = gen_magnus(k)
    bits = max(1, (k - 1).bit_length())
    coeffs = {}
    for pi in permutations(range(k)):
        idx = 0
        for v in pi:
            idx = (idx << bits) | v
        coeffs[idx] = magnus_coefficient(pi)
    norm = math.sqrt(sum(float(c) ** 2 for c in coeffs.values()))
    for idx, c in coeffs.items():
        assert s.amplitudes[idx] == pytest.approx(float(c) / norm)


def test_make_state_dispatch_and_unknown_family():
    s = make_state(BenchmarkSpec("w", n=4))
    assert len(s.support) == 4
    with pytest.raises(ParameterError):
        make_state(BenchmarkSpec("nope", n=4))
