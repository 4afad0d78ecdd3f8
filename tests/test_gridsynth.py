import itertools
import json
import math
import os
import random
import sys
import time

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import factorint, nextprime

import reference_exact
import reference_scan
import reference_trig
from qsprep import gridsynth, rings
from qsprep.gridsynth import (
    RingMatrix, SynthesisError, _EpsRegion, exact_synthesize,
    exactly_preparable,
    solve_diophantine, solve_grid_1d, synthesize_rz_tags,
)
from qsprep.rings import (
    ZO_ONE, ZO_UNIT_LOG, ZO_ZERO, factorize, zo_abs_sq, zo_add, zo_conj, zo_div_sqrt2,
    zo_from_zsqrt2, zo_mul, zo_rot, zo_sub, zs_lambda_power, zs_mul, zs_norm, zs_sqrt2_valuation,
)
from reference_preparable import search_preparable
from reference_scan import op_value
from util import phase_dist_1q, phase_dist_1q_mp, rz_matrix, tags_to_unitary

SQRT2 = math.sqrt(2)


def _brute_grid(l1, u1, l2, u2, prec):
    # every a + b sqrt2 with value in [l1, u1] / 2^prec and conjugate in
    # [l2, u2] / 2^prec, each end decided by the exact sign of an element of
    # Z[sqrt2], over a float window of rows and columns two wider each way
    one = 2.0 ** prec
    out = []
    for b in range(math.floor((l1 - u2) / one / (2 * SQRT2)) - 2,
                   math.ceil((u1 - l2) / one / (2 * SQRT2)) + 3):
        lo = math.floor(max(l1 / one - b * SQRT2, l2 / one + b * SQRT2)) - 2
        hi = math.ceil(min(u1 / one - b * SQRT2, u2 / one + b * SQRT2)) + 2
        for a in range(lo, hi + 1):
            x, y = a << prec, b << prec
            if min(rings.zs_sign(v) for v in ((x - l1, y), (u1 - x, -y),
                                              (x - l2, -y), (u2 - x, y))) >= 0:
                out.append((a, b))
    return sorted(out)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([0, 2, 30, 160]), st.floats(-20, 20), st.floats(0, 3),
       st.floats(-20, 20), st.floats(0, 8), st.booleans())
def test_grid_solver_matches_brute_force(prec, c1, w1, c2, w2, whole):
    # integer ends with prec fraction bits; whole ends put the integers
    # (b = 0) exactly on them, which must be returned
    ends = [round(x * 2 ** prec) for x in (c1, c1 + w1, c2, c2 + w2)]
    if whole:
        ends = [round(x) << prec for x in (c1, c1 + w1, c2, c2 + w2)]
    sols = solve_grid_1d(*ends, prec)
    assert len(sols) == len(set(sols))
    assert sorted(sols) == _brute_grid(*ends, prec)


@pytest.mark.parametrize("a0", [5 * 10 ** 8, 5 * 10 ** 11])
def test_grid_solver_is_exact_far_from_the_origin(a0):
    # x0 = a0 + b0 sqrt2 ~ 2 a0 with |x0*| < 1, in a window 2^-13 wide and a
    # conjugate window 200 wide, holds one point; a kernel that pads by a
    # fraction of the ends (reference_scan's, 1e-10) returns 27 and 28,285
    prec, b0 = 64, round(a0 / SQRT2)
    x0 = (a0 << prec) + math.isqrt(2 * b0 * b0 << 2 * prec)
    ends = (x0 - (1 << (prec - 13)), x0 + (1 << (prec - 13)), -100 << prec, 100 << prec)
    assert solve_grid_1d(*ends, prec) == _brute_grid(*ends, prec) == [(a0, b0)]


# ---------------------------------------------------------------------------
# Diophantine solver: t with t^dagger t = xi


def test_diophantine_known_values():
    t = solve_diophantine((2, 0))
    assert t is not None and zo_abs_sq(t) == (2, 0)
    # 3 = (1 - i sqrt2)(1 + i sqrt2) splits over Z[omega]
    t = solve_diophantine((3, 0))
    assert t is not None and zo_abs_sq(t) == (3, 0)
    # 7 = 7 mod 8 is inert with odd exponent: unsolvable
    assert solve_diophantine((7, 0)) is None
    t = solve_diophantine((49, 0))
    assert t is not None and zo_abs_sq(t) == (49, 0)
    assert solve_diophantine((-1, 0)) is None      # not totally positive
    assert solve_diophantine((1, -1)) is None      # 1 - sqrt2 < 0
    assert solve_diophantine((0, 0)) == ZO_ZERO


@pytest.mark.parametrize("m", [-24, -12, 12, 24])
def test_diophantine_unbalanced_norms(m):
    # xi and its conjugate differ by lambda^(4m), as for high-b candidates
    # (xi ~ 2^k eps^2, xi* ~ 2^k); the unit fix must not round through floats
    rng = random.Random(m)
    for _ in range(10):
        t0 = tuple(rng.randint(-20, 20) for _ in range(4))
        if t0 == ZO_ZERO:
            continue
        xi = zo_abs_sq(zo_mul(t0, zo_from_zsqrt2(zs_lambda_power(m))))
        t = solve_diophantine(xi)
        assert t is not None and zo_abs_sq(t) == xi


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9), st.integers(-24, 24))
def test_diophantine_solves_all_norms(a, b, c, d, m):
    # xi = t^dagger t is solvable by construction; solver must find some
    # root, the one the defensive solver it replaced finds
    t0 = zo_mul((a, b, c, d), zo_from_zsqrt2(zs_lambda_power(m)))
    if t0 == ZO_ZERO:
        return
    xi = zo_abs_sq(t0)
    t = solve_diophantine(xi)
    assert t is not None
    assert zo_abs_sq(t) == xi
    assert t == reference_exact.solve_diophantine(xi)


# primes of Z[sqrt2] over 7, 23, 31, 47 (all 7 mod 8), and 7 itself
_PRIMES_7MOD8 = [(3, 1), (3, -1), (5, 1), (7, 3), (7, 1), (7, 0)]


# a > |b| sqrt2 makes a + b sqrt2 totally positive; most such xi have no
# root, while every t.conj t has one
_TOTALLY_POSITIVE = st.one_of(
    st.builds(lambda b, slack: (math.isqrt(2 * b * b) + slack, b),
              st.integers(-2000, 2000), st.integers(1, 2000)),
    st.tuples(*[st.integers(-30, 30)] * 4).filter(lambda t: t != ZO_ZERO).map(zo_abs_sq))


@settings(max_examples=150, deadline=None)
@given(_TOTALLY_POSITIVE, st.lists(st.sampled_from(_PRIMES_7MOD8), max_size=3))
def test_diophantine_matches_reference_on_totally_positive_xi(xi, factors):
    # the factors over p = 7 (mod 8) leave a root only in even powers
    for f in factors:
        xi = zs_mul(xi, f)
    t = solve_diophantine(xi)
    assert t == reference_exact.solve_diophantine(xi)
    assert t is None or zo_abs_sq(t) == xi


def _candidate_norms(count):
    """|N(xi0)|, the integer `solve_diophantine` factors, of every candidate
    u at k0 + 2 .. k0 + 7 (xi = 2^k - |u|^2 = sqrt2^m xi0) for seeded angles
    at b = 10, 20, 30 and 40."""
    rng = random.Random(19)
    norms = []
    while len(norms) < count:
        theta = rng.uniform(-math.pi, math.pi)
        phi0 = -(theta - round(theta / (math.pi / 4)) * math.pi / 4) / 2
        for b in (10, 20, 30, 40):
            region = _EpsRegion(phi0, 2.0 ** -b)
            k0 = int(1.5 * b) - 2
            for k in range(k0 + 2, k0 + 8):
                for u in region.candidates(k):
                    n, m = zo_abs_sq(u)
                    if (n, m) != (1 << k, 0):
                        norms.append(abs(zs_norm(zs_sqrt2_valuation(((1 << k) - n, -m))[1])))
    return norms


def test_factorize_matches_factorint_on_candidate_norms():
    norms = _candidate_norms(10_000)
    assert max(norms).bit_length() >= 44
    for n in norms:
        assert factorize(n) == factorint(n), n


def _prime_1mod8(start):
    p = nextprime(start)
    while p % 8 != 1:
        p = nextprime(p)
    return p


def test_a_norm_past_the_factoring_cap_skips_the_candidate():
    # p q with p, q = 1 (mod 8) is some t.conj t, as both primes split in
    # Z[omega]; but its norm (p q)^2 needs ~2^20 rho steps for 40-bit p
    p, q = _prime_1mod8(1 << 40), _prime_1mod8(1 << 41)
    t0 = time.perf_counter()
    assert solve_diophantine((p * q, 0)) is None
    assert time.perf_counter() - t0 < 1.0
    # within the cap the same kind of xi is solved
    p, q = _prime_1mod8(1 << 12), _prime_1mod8(1 << 13)
    t = solve_diophantine((p * q, 0))
    assert t is not None and zo_abs_sq(t) == (p * q, 0)


@pytest.fixture
def factorizations(monkeypatch):
    """Records what each `factorize` call of the Diophantine solver returns."""
    seen = []

    def spy(n, _real=gridsynth.factorize):
        seen.append(_real(n))
        return seen[-1]

    monkeypatch.setattr(gridsynth, "factorize", spy)
    return seen


def test_rz_words_meet_eps_when_the_cap_skips_candidates(monkeypatch, factorizations):
    # with no rho steps allowed every norm with a composite part above the
    # trial primes is skipped; the next candidates still give a word
    monkeypatch.setattr(rings, "FACTOR_EFFORT", 0)
    rng = random.Random(23)
    for b in (12, 24, 40):
        for _ in range(5):
            theta = rng.uniform(-math.pi, math.pi)
            tags = synthesize_rz_tags(theta, 2.0 ** -b)
            assert float(phase_dist_1q_mp(tags, theta)) <= 2.0 ** -b, (b, theta)
    assert factorizations.count(None) >= 5


@pytest.mark.parametrize("factor", [(1, 0, 0, 0), (2, 1, 0, 1)])
def test_diophantine_wrong_factor_is_an_internal_error(factor, monkeypatch):
    # 9 = 3^2 is solvable, so a prime split that does not multiply back is
    # a bug to report, not a candidate to skip
    monkeypatch.setattr(gridsynth, "zo_gcd", lambda u, v: factor)
    with pytest.raises(RuntimeError, match="no root"):
        solve_diophantine((9, 0))


# ---------------------------------------------------------------------------
# Exact synthesis of ring-valued unitaries

_CLIFFT = ["Hadamard", "S", "T", "PauliX"]

_RING_GATE = {
    # exact ring forms with denominator exponent: H has k=1, rest k=0
    "Hadamard": (ZO_ONE, ZO_ONE, ZO_ONE, (-1, 0, 0, 0), 1),
    "S": (ZO_ONE, ZO_ZERO, ZO_ZERO, (0, 0, 1, 0), 0),
    "T": (ZO_ONE, ZO_ZERO, ZO_ZERO, (0, 1, 0, 0), 0),
    "PauliX": (ZO_ZERO, ZO_ONE, ZO_ONE, ZO_ZERO, 0),
}


def _word_matrix(word):
    def dot(x, y, z, w):
        return zo_add(zo_mul(x, y), zo_mul(z, w))

    m = RingMatrix(ZO_ONE, ZO_ZERO, ZO_ZERO, ZO_ONE, 0)
    for tag in word:
        a, b, c, d, k = _RING_GATE[tag]
        g = RingMatrix(a, b, c, d, k)
        m = RingMatrix(
            dot(g.m00, m.m00, g.m01, m.m10), dot(g.m00, m.m01, g.m01, m.m11),
            dot(g.m10, m.m00, g.m11, m.m10), dot(g.m10, m.m01, g.m11, m.m11),
            g.k + m.k)
    return m


_T_POWER = {"T": 1, "S": 2, "Sdg": 6, "Tdg": 7}


def _tcount(tags):
    return sum(g in ("T", "Tdg") for g in tags)


def _has_hh(tags):
    return any(a == b == "Hadamard" for a, b in zip(tags, tags[1:]))


def _column_steps(mat):
    seq, _, _ = gridsynth._reduce_column(*gridsynth._strip(mat.m00, mat.m10, mat.k))
    return seq


def _word_steps(tags):
    """The T power j of each H T^j step of a word, in the order of the
    column reduction (the word's last step first)."""
    _, *steps = " ".join(tags).split("Hadamard")
    return [sum(map(_T_POWER.get, x.split())) % 8 for x in reversed(steps)]


def _check_against_reference(mat):
    # the reference searches for a j-sequence; the sde rule takes the one
    # with the fewest H (Kliuchnikov, Maslov & Mosca) and the same unitary
    # and T-count, and no H.H pair
    tags = exact_synthesize(mat)
    ref = reference_exact.exact_synthesize(mat)
    assert phase_dist_1q(tags_to_unitary(tags), tags_to_unitary(ref)) < 1e-12
    assert _tcount(tags) == _tcount(ref)
    assert tags.count("Hadamard") <= ref.count("Hadamard")
    assert len(tags) <= len(ref)
    assert not _has_hh(tags)
    # the tail read off the determinant is the one the full replay of the
    # word's own steps finds
    assert tags == reference_exact.replay(mat, _word_steps(tags))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_CLIFFT), max_size=40))
def test_exact_synthesize_recovers_random_words(word):
    m = _word_matrix(word)
    tags = exact_synthesize(m)
    assert phase_dist_1q(tags_to_unitary(tags), tags_to_unitary(word)) < 1e-9
    _check_against_reference(m)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_CLIFFT), min_size=20, max_size=60))
def test_each_column_step_lowers_the_sde_by_one_but_the_last(word):
    # the steps are replayed on the unstripped column; sde(|u|^2) does not
    # depend on the denominator exponent it is written with
    m = _word_matrix(word)
    u, t, k = m.m00, m.m10, m.k
    sdes = [gridsynth._sde(u, k)]
    for j in _column_steps(m):
        # H T^-j for every j: the chosen one is the only one at the minimum
        # (j and j + 4 swap the two entries, which have the same sde)
        after = [gridsynth._sde(zo_add(u, zo_rot(t, 8 - i)), k + 1)
                 for i in range(4)]
        assert after.count(min(after)) == 1 and after[j % 4] == min(after)
        tw = zo_rot(t, 8 - j)
        u, t, k = zo_add(u, tw), zo_sub(u, tw), k + 1
        sdes.append(gridsynth._sde(u, k))
    drops = [x - y for x, y in zip(sdes, sdes[1:])]
    assert all(d == 1 for d in drops[:-1]), drops
    assert not drops or drops[-1] >= 1, drops
    assert sdes[-1] <= 0          # a unit column: |u|^2 = 1 or u = 0


def _synthesized_matrices(theta, b):
    mats, real = [], gridsynth.exact_synthesize

    def record(mat):
        mats.append(mat)
        return real(mat)

    gridsynth.exact_synthesize = record
    try:
        synthesize_rz_tags(theta, 2.0 ** -b)
    finally:
        gridsynth.exact_synthesize = real
    return mats


@settings(max_examples=30, deadline=None)
@given(st.floats(-math.pi, math.pi), st.sampled_from([8, 12, 16]))
def test_exact_synthesize_matches_reference_on_rz_matrices(theta, b):
    for mat in _synthesized_matrices(theta, b):
        _check_against_reference(mat)


def _residue_key(u, t):
    return sum((x & 1) << i for i, x in enumerate(u + t))


def _oracle_residue_steps(u, t, k):
    """(residue key, j) of each step the four-trial oracle takes at sde >= 4."""
    seq, _, _ = reference_exact.reduce_column_by_trials(u, t, k)
    out = []
    for j in seq:
        if gridsynth._sde(u, k) < 4:
            break
        out.append((_residue_key(u, t), j))
        tw = zo_rot(t, 8 - j)
        u, t, k = gridsynth._strip(zo_div_sqrt2(zo_add(u, tw)), zo_div_sqrt2(zo_sub(u, tw)), k)
    return out


def _deep_word(rng):
    """10-40 syllables H T, each after up to two S or X, then up to six
    gates of any kind: each syllable adds one to the sde, where uniform
    random words mostly cancel down to sde < 4."""
    word = []
    for _ in range(rng.randint(10, 40)):
        word += rng.choices(["S", "PauliX"], k=rng.randint(0, 2)) + ["Hadamard", "T"]
    return word + rng.choices(_CLIFFT, k=rng.randint(0, 6))


def _deep_columns(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        m = _word_matrix(_deep_word(rng))
        yield m, gridsynth._strip(m.m00, m.m10, m.k)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False).map(_deep_word))
def test_residue_steps_match_the_four_trial_oracle_on_long_words(word):
    m = _word_matrix(word)
    col = gridsynth._strip(m.m00, m.m10, m.k)
    assert gridsynth._sde(col[0], col[2]) >= 7
    assert gridsynth._reduce_column(*col) == reference_exact.reduce_column_by_trials(*col)


@settings(max_examples=20, deadline=None)
@given(st.floats(-math.pi, math.pi), st.sampled_from([8, 16, 40]))
def test_residue_steps_match_the_four_trial_oracle_on_rz_matrices(theta, b):
    for mat in _synthesized_matrices(theta, b):
        col = gridsynth._strip(mat.m00, mat.m10, mat.k)
        assert gridsynth._reduce_column(*col) == reference_exact.reduce_column_by_trials(*col)


def test_residue_table_regenerates_from_the_oracle():
    table = {}
    for _, col in _deep_columns(0, 400):
        for key, j in _oracle_residue_steps(*col):
            assert table.setdefault(key, j) == j, key
    assert table == gridsynth._STEP_BY_RESIDUE


def _one_plus_w_valuation(x, cap=4):
    v = 0
    while v < cap and not sum(x) & 1:     # (1 + w) | x: x = 0 mod 2 at w = 1
        x = tuple(c >> 1 for c in zo_mul(x, (1, -1, 1, -1)))   # (1 + w)(1 - w + w^2 - w^3) = 2
        v += 1
    return v


def test_residue_table_is_the_divisibility_rule():
    # (1 + w)^4 is 2 times a unit, so on the 0/1 lift of each key the
    # valuations up to 4 are those of every column with these residues
    for key, j in gridsynth._STEP_BY_RESIDUE.items():
        u = tuple(key >> i & 1 for i in range(4))
        t = tuple(key >> i & 1 for i in range(4, 8))
        v = _one_plus_w_valuation(u)
        assert v <= 1
        hits = [i for i in range(4) if _one_plus_w_valuation(zo_add(u, zo_rot(t, 8 - i))) >= v + 3]
        assert hits == [j], key


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_a_wrong_table_entry_raises_rather_than_change_the_word(shift, monkeypatch):
    for m, col in _deep_columns(4, 5):
        steps = _oracle_residue_steps(*col)
        key, j = steps[len(steps) // 2]
        with monkeypatch.context() as patch:
            patch.setitem(gridsynth._STEP_BY_RESIDUE, key, (j + shift) % 4)
            with pytest.raises(RuntimeError, match="column reduction failed"):
                exact_synthesize(m)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False).map(_deep_word),
       st.sampled_from([(2, 0, 0, 0), (0, 2, 0, 0), (2, 0, 0, -2), (0, -2, 2, 0)]))
def test_a_non_unit_column_above_sde_4_still_raises(word, bump):
    # the bump keeps every parity, so the residue steps run as for the
    # unit column; where it breaks |u|^2 + |t|^2 = 2^k (most draws, not
    # all: see the next test) the column must be refused
    m = _word_matrix(word)
    u, t, k = gridsynth._strip(m.m00, m.m10, m.k)
    assert gridsynth._sde(u, k) >= 4
    t = zo_add(t, bump)
    assume(_column_norm(u, t) != (1 << k, 0))
    try:
        _, u2, t2 = gridsynth._reduce_column(u, t, k)
    except RuntimeError as e:
        assert "column reduction failed" in str(e)
    else:   # it ends at a column that exact_synthesize refuses
        assert not ((t2 == ZO_ZERO and u2 in ZO_UNIT_LOG)
                    or (u2 == ZO_ZERO and t2 in ZO_UNIT_LOG))
    with pytest.raises(RuntimeError):
        exact_synthesize(RingMatrix(u, tuple(-x for x in zo_conj(t)), t, zo_conj(u), k))


def _column_norm(u, t):
    return tuple(x + y for x, y in zip(zo_abs_sq(u), zo_abs_sq(t)))


def test_a_bump_that_keeps_the_norm_reduces_to_a_unit_column():
    # on this word the bump (2, 0, 0, -2) turns t = (-3, 6, 6, -1) into
    # (-1, 6, 6, -3), whose |t|^2 = 82 + 9 sqrt2 is the same: the column
    # is still unit, and its reduction rightly ends at one
    word = [{"H": "Hadamard", "X": "PauliX"}.get(g, g) for g in
            "H T H T H T H T X H T S H T S H T S X H T S H T H T H T H".split()]
    m = _word_matrix(word)
    u, t, k = gridsynth._strip(m.m00, m.m10, m.k)
    assert (t, k) == ((-3, 6, 6, -1), 7) and gridsynth._sde(u, k) >= 4
    t = zo_add(t, (2, 0, 0, -2))
    assert _column_norm(u, t) == (1 << k, 0)
    _, u2, t2 = gridsynth._reduce_column(u, t, k)
    assert (u2, t2) == ((0, 0, -1, 0), ZO_ZERO)


def test_exact_synthesize_rejects_a_non_unit_determinant():
    with pytest.raises(RuntimeError, match="determinant"):
        exact_synthesize(RingMatrix(ZO_ONE, ZO_ZERO, ZO_ZERO, (2, 0, 0, 0), 0))


# ---------------------------------------------------------------------------
# Approximate Rz synthesis


def test_exact_pi4_words_are_minimal():
    assert synthesize_rz_tags(0.0, 0.5) == []
    assert synthesize_rz_tags(math.pi / 4, 0.5) == ["T"]
    assert synthesize_rz_tags(math.pi / 2, 0.5) == ["S"]
    assert synthesize_rz_tags(-math.pi / 4, 0.5) == ["Tdg"]
    assert synthesize_rz_tags(-math.pi / 2, 0.5) == ["Sdg"]
    assert len(synthesize_rz_tags(3 * math.pi / 4, 0.5)) == 2
    # 4 pi periodicity of the branch handling
    assert phase_dist_1q(tags_to_unitary(synthesize_rz_tags(9 * math.pi / 4, 0.5)),
                         rz_matrix(math.pi / 4)) < 1e-12


@pytest.mark.parametrize("b", [5, 10, 15])
def test_rz_distance_spot_checks(b):
    rng = random.Random(100 + b)
    eps = 2.0 ** -b
    for _ in range(5):
        th = rng.uniform(-math.pi, math.pi)
        tags = synthesize_rz_tags(th, eps)
        assert phase_dist_1q(tags_to_unitary(tags), rz_matrix(th)) <= eps
        # the octant word is merged into the trailing run of T powers
        run = list(itertools.takewhile(_T_POWER.__contains__, tags[::-1]))
        assert run[::-1] in gridsynth._T_WORD.values()


def test_rz_rejects_bad_eps():
    with pytest.raises(ValueError):
        synthesize_rz_tags(0.3, 0.0)
    with pytest.raises(ValueError):
        synthesize_rz_tags(0.3, -1e-3)


# ---------------------------------------------------------------------------
# Ring-membership preparability


def test_exactly_preparable_examples():
    assert exactly_preparable(1.0, 0.0)[0]
    assert exactly_preparable(0.0, -1.0)[0]
    assert exactly_preparable(1 / SQRT2, 1 / SQRT2)[0]
    assert exactly_preparable(1 / SQRT2, -1 / SQRT2)[0]
    # Ry(pi/4)|0> is reachable (pi/4-multiple rotation angle)
    assert exactly_preparable(math.cos(math.pi / 8), math.sin(math.pi / 8))[0]
    ok, _ = exactly_preparable(math.cos(math.pi / 12), math.sin(math.pi / 12))
    assert not ok


def _sign_and_swap_variants(theta):
    a0, a1 = math.cos(theta / 2), math.sin(theta / 2)
    for s0 in (1, -1):
        for s1 in (1, -1):
            yield s0 * a0, s1 * a1
            yield s1 * a1, s0 * a0


def test_exactly_preparable_matches_search_on_pi4_multiples():
    for m in range(-16, 17):
        for a0, a1 in _sign_and_swap_variants(m * math.pi / 4):
            got = exactly_preparable(a0, a1)
            assert got[0], (m, a0, a1)
            assert got == search_preparable(a0, a1), (m, a0, a1)


def test_exactly_preparable_matches_search_off_the_grid():
    rng = random.Random(8)
    thetas = [rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(200)]
    thetas += [m * math.pi / 4 + d for m in range(-8, 9)
               for d in (-1e-6, 1e-6, -1e-9, 1e-9)]
    for th in thetas:
        a0, a1 = math.cos(th / 2), math.sin(th / 2)
        got = exactly_preparable(a0, a1)
        assert got == (False, None), th
        assert got == search_preparable(a0, a1), th


def test_exactly_preparable_rejects_unnormalized():
    with pytest.raises(ValueError):
        exactly_preparable(1.0, 1.0)


# ---------------------------------------------------------------------------
# The 2D grid solver against golden words and the nested-1D reference scan

_GOLDEN = os.path.join(os.path.dirname(__file__), "rz_golden.json")


@pytest.mark.parametrize("name, count", [
    # random angles, words recorded with the nested-1D candidate scan,
    # b in {4,8,12,14,16}
    ("rz_golden.json", 100),
    # W/Dicke angles 2 arccos(sqrt(j/n)), n <= 9, b in {4,8,12,14,30,40}:
    # their candidates tie in float quality, so these words follow the
    # exact quality; same_as_nested_scan marks (b <= 14) the words the
    # nested-1D scan also gave
    ("rz_golden_lattice.json", 162)])
def test_rz_words_match_golden(name, count, factorizations):
    with open(os.path.join(os.path.dirname(__file__), name), encoding="utf-8") as f:
        cases = json.load(f)["cases"]
    assert len(cases) == count
    for c in cases:
        theta = float.fromhex(c["theta"])
        got = " ".join(synthesize_rz_tags(theta, 2.0 ** -c["b"]))
        assert got == c["tags"], (c["b"], theta)
        assert "Hadamard Hadamard" not in got
    assert factorizations and None not in factorizations    # no golden angle reaches the cap


def test_rz_words_ignore_the_global_mpmath_precision():
    # the synthesis runs on integers: an mpmath precision that a caller
    # sets, below or above what the words need, must not reach them
    with open(_GOLDEN, encoding="utf-8") as f:
        cases = json.load(f)["cases"][::10]
    for prec in (20, 300):
        with mp.workprec(prec):
            for c in cases:
                got = synthesize_rz_tags(float.fromhex(c["theta"]), 2.0 ** -c["b"])
                assert " ".join(got) == c["tags"], prec


def _integer_setup(theta, eps):
    # the octant reduction and cos phi0, sin phi0 as synthesize_rz_tags
    # and _EpsRegion run them
    prec = gridsynth._working_bits(eps)
    mth, theta_p = gridsynth._octant(theta, prec + 64)
    if abs(theta_p) <= min(1e-12, 2 * eps):
        return mth, True, None
    return mth, False, gridsynth._cos_sin(-theta_p / 2, prec)


def _setup_angles(b, rng):
    """110 angles: W/Dicke ones, some within 1e-12 and within 2 eps of pi/4
    multiples (either side of the snap tolerance), huge, subnormal, zero,
    small ones with short mantissas (whose Taylor terms can fall on the
    fixed-point grid) and random ones."""
    eps = 2.0 ** -b
    out = [0.0, -0.0] + _LATTICE_ANGLES
    for d in [1e-12] * 8 + [2 * eps] * 8:
        out.append(rng.randint(-16, 16) * math.pi / 4 + d * rng.choice((-1, 1)) * rng.uniform(0.5, 1.5))
    out += [rng.choice((-1, 1)) * 10 ** rng.uniform(0, 300) for _ in range(12)]
    out += [rng.choice((-1, 1)) * rng.random() * sys.float_info.min for _ in range(6)]
    out += [math.ldexp(3 * rng.randrange(1, 1 << 20), -rng.randint(b // 2 + 20, b + 20))
            for _ in range(4)]
    return out + [rng.uniform(-math.pi, math.pi) for _ in range(110 - len(out))]


def test_integer_setup_matches_the_mpmath_oracle():
    # the octant m, the snap decision and the floored cos phi0, sin phi0
    # must be the mpmath set-up's, so every word stays the same
    rng = random.Random(2900)
    n = snapped = 0
    for b in list(range(1, 41)) + [60, 100, 150, 300, 512, 1074]:
        eps = 2.0 ** -b
        for theta in _setup_angles(b, rng):
            got = _integer_setup(theta, eps)
            assert got == reference_trig.octant_and_trig(theta, eps), (b, theta)
            n, snapped = n + 1, snapped + got[1]
    assert n == 5060 and 600 < snapped < 800


def test_fixed_point_pi_is_within_two_units(monkeypatch):
    # each size after the largest one is a shift of the cached value
    monkeypatch.setattr(gridsynth, "_PI_FIXED", [0, 0])
    for bits in (1, 64, 300, 257, 5000, 2000, 4999):
        with mp.workprec(bits + 40):
            assert abs(gridsynth._pi_fixed(bits) - mp.ldexp(mp.pi, bits)) < 2, bits
    assert gridsynth._PI_FIXED[0] == 5120


def test_cos_sin_of_tiny_and_wide_angles_matches_the_oracle():
    # below 2^-(prec+79) the square root of 1 - cos^2 has no bits left and
    # sin rounds to 0; |phi| up to 3 keeps the sign of sin phi that of phi
    for prec in (104, 1000):
        for phi in (1e-300, -1e-300, 2.0 ** -(prec + 78), -2.0 ** -150, 0.0, -0.0,
                    0.5, -1.5, 2.9, -2.99):
            assert gridsynth._cos_sin(phi, prec) == reference_trig.cos_sin(phi, prec), (prec, phi)
    for phi in (3.0, -3.5, 1e300):
        with pytest.raises(ValueError, match="phi"):
            gridsynth._cos_sin(phi, 104)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_a_non_finite_angle_is_refused_by_name(theta):
    with pytest.raises(ValueError, match=f"theta={theta!r}"):
        synthesize_rz_tags(theta, 2.0 ** -10)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
def test_an_eps_that_is_not_positive_is_refused_by_name(eps):
    with pytest.raises(ValueError, match=f"eps={eps!r}"):
        synthesize_rz_tags(0.3, eps)


@pytest.mark.parametrize("b", [1, 3, 6, 8, 10])
def test_grid_solver_matches_reference_scan(b):
    rng = random.Random(700 + b)
    eps = 2.0 ** -b
    k0 = max(0, int(1.5 * b) - 2)
    for _ in range(6):
        phi0 = rng.uniform(-math.pi / 16, math.pi / 16)
        region = _EpsRegion(phi0, eps)
        for k in range(k0, k0 + 5):
            assert region.candidates(k) == reference_scan.candidates(k, phi0, eps), (phi0, k)


# W/Dicke angles 2 arccos(sqrt(j/n)): their candidates come in rows of
# nearly equal quality
_LATTICE_ANGLES = [2 * math.acos(math.sqrt(j / n)) for n in range(2, 10) for j in range(1, n)]


@pytest.mark.parametrize("b", [20, 30, 50])
def test_fixed_point_quality_matches_mpmath_oracle(b, monkeypatch):
    # the integer quality must keep the candidates, and their order, that
    # the mpmath check it replaced gives
    rng = random.Random(1200 + b)
    regions = []
    for theta in [rng.uniform(-math.pi, math.pi) for _ in range(6)] + _LATTICE_ANGLES:
        theta_p = theta - round(theta / (math.pi / 4)) * math.pi / 4
        if abs(theta_p) > 1e-12:                  # not snapped to an S/T word
            regions.append(_EpsRegion(-theta_p / 2, 2.0 ** -b))
    k0 = int(1.5 * b) - 2
    cases = [(region, k) for region in regions for k in range(k0, k0 + 6)]

    def lists():
        # every candidate, and the best 16 from walks that stop on each
        # line once it has 16
        full = [region.candidates(k) for region, k in cases]
        best = [region.candidates(k, gridsynth._ATTEMPTS_PER_K) for region, k in cases]
        assert best == [c[:gridsynth._ATTEMPTS_PER_K] for c in full]
        return full + best

    got = lists()
    assert sum(len(c) for c in got) > 1000
    monkeypatch.setattr(_EpsRegion, "_verify", lambda self, k, cands:
                        reference_scan.verify(k, self.phi0, self.eps, cands))
    for i, want in enumerate(lists()):
        assert got[i] == want, i


# an angle whose only candidate at b = 4, k = 4 is u = 4 on the circle
# |u| = sqrt2^k, on a line tangent to it
_TANGENT_THETA = float.fromhex("-0x1.b013d8f0ef480p-1")


@pytest.mark.parametrize("b", [4, 12, 30, 48, 60])
def test_region_setup_matches_the_mpmath_oracle(b, monkeypatch):
    # the set-up on the operator search's integers must give the grid
    # operator, outer axis and float forms (of the upright pair) the mpmath
    # set-up gave, and the centre far below float resolution.  The integer
    # chord of every line the walk takes, and of shifted ones that may miss
    # the segment, must hold the chord mpmath finds, and be wider only by
    # its outward rounding, under 2 units in the last place at each end, and
    # at the quality's end by the quality margin of 16 R units, plus R for
    # the floored threshold and 3 R for the rounded cos phi0, sin phi0, over
    # the quality's slope along the line
    rng = random.Random(1500 + b)
    eps = 2.0 ** -b
    k0 = max(0, int(1.5 * b) - 2)
    lines = []
    chord = _EpsRegion._segment_chord
    monkeypatch.setattr(_EpsRegion, "_segment_chord", lambda self, k, x, o:
                        lines.append((k, x, o)) or chord(self, k, x, o))
    chords = hits = 0
    for theta in [rng.uniform(-math.pi, math.pi) for _ in range(6)] + _LATTICE_ANGLES + [
            _TANGENT_THETA]:
        theta_p = theta - round(theta / (math.pi / 4)) * math.pi / 4
        if abs(theta_p) <= 1e-12:                 # snapped to an S/T word
            continue
        region = _EpsRegion(-theta_p / 2, eps)
        ref = reference_scan.region_setup(-theta_p / 2, eps)
        assert (region.op, region.outer) == (ref.op, ref.outer), theta
        forms = [[x / (1 << region.prec) for x in m] for m in region.ell]
        assert forms == ref.forms, theta
        for got, want in zip(region.centre_fx, ref.centre_fx):
            assert abs(got - want) < 1 << (region.prec - 96), theta
        with mp.workprec(region.prec):
            h, i = op_value(region.op), 1 - region.outer    # quality per unit of alpha
            slope = abs(mp.cos(-theta_p / 2) * h[i] + mp.sin(-theta_p / 2) * h[2 + i])
        for k in range(k0, k0 + 4):
            margin = int(20 * SQRT2 ** k / slope) + 2
            lines.clear()
            region.candidates(k)
            for _, x, o in lines[:40]:
                for line in [(x[0] + j, x[1]) for j in range(-2, 3)]:
                    got = chord(region, k, line, o)
                    want = reference_scan.segment_chord(ref, k, line, o)
                    chords, hits = chords + 1, hits + (want is not None)
                    if want is None:
                        # the line misses the segment, or is tangent to the
                        # circle and the oracle's rounding missed the point
                        assert got is None or got[1] - got[0] <= 4 + margin, (theta, k, line, o)
                        continue
                    lo, hi = (x << 8 for x in got)
                    assert lo <= want[0] and want[1] <= hi, (theta, k, line, o)
                    slack = (margin, 2) if region.rising else (2, margin)
                    assert want[0] - lo < slack[0] << 8 and hi - want[1] < slack[1] << 8, (
                        theta, k, line, o)
    assert chords > 600 and hits > 100


@pytest.mark.parametrize("b", [12, 30, 60])
def test_grid_operator_makes_the_pair_upright(b):
    rng = random.Random(b)
    for _ in range(4):
        region = _EpsRegion(rng.uniform(-math.pi / 16, math.pi / 16), 2.0 ** -b)
        with mp.workprec(region.prec):
            # skew: squared off-diagonals of the determinant-1 ellipses
            assert sum(q * q / (p * r - q * q) for p, q, r in region.ell) < 15
            # a special grid operator has determinant +-1
            g11, g12, g21, g22 = op_value(region.op)
            assert abs(abs(g11 * g22 - g12 * g21) - 1) < 1e-30


# the step lemma's operators R, K, K*, X and Z; A^n and B^n get a random n
_STEP_OPS = [gridsynth._OP_R, gridsynth._OP_K, gridsynth._OP_K_CONJ,
             gridsynth._OP_X, gridsynth._OP_Z]


def _random_step_op(rng):
    g = rng.choice(_STEP_OPS + ["A", "B"])
    if g == "A":
        g = gridsynth._op_a(rng.randint(1, 40))
    elif g == "B":
        g = gridsynth._op_b(rng.randint(1, 40))
    return gridsynth._op_shift(g, rng.randint(-4, 4)) if rng.random() < 0.5 else g


def _mp_matmul(g, h):
    g11, g12, g21, g22 = g
    h11, h12, h21, h22 = h
    return (g11 * h11 + g12 * h21, g11 * h12 + g12 * h22,
            g21 * h11 + g22 * h21, g21 * h12 + g22 * h22)


def test_op_mul_matches_mpmath_product():
    # _op_mul divides each entry's x y + z w by sqrt2 exactly; the product of
    # the entries in mpmath, of G and of its Galois conjugate G*, must agree
    rng = random.Random(13)
    with mp.workprec(400):
        for _ in range(200):
            g = _random_step_op(rng)
            want, want_conj = op_value(g), op_value(g, True)
            for _ in range(rng.randint(1, 6)):
                h = _random_step_op(rng)
                g = gridsynth._op_mul(g, h)
                want = _mp_matmul(want, op_value(h))
                want_conj = _mp_matmul(want_conj, op_value(h, True))
            for got, ref in ((op_value(g), want), (op_value(g, True), want_conj)):
                assert all(abs(x - y) <= 1e-80 * (1 + abs(y)) for x, y in zip(got, ref))


def test_lift_is_the_grid_operator_applied_to_v():
    rng = random.Random(14)
    with mp.workprec(400):
        for b in (12, 30, 60):
            region = _EpsRegion(rng.uniform(-math.pi / 16, math.pi / 16), 2.0 ** -b)
            h11, h12, h21, h22 = op_value(region.op)
            r2 = mp.sqrt(2)
            for outer in (0, 1):
                region.outer = outer
                for _ in range(50):
                    x, y = [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
                            for _ in range(2)]
                    o = rng.randint(0, 1)
                    u = region._lift(x, y, o)
                    alpha, beta = (x, y) if outer == 0 else (y, x)
                    vx = alpha[0] + alpha[1] * r2 + o / r2       # v = alpha + i beta + o w
                    vy = beta[0] + beta[1] * r2 + o / r2
                    want = mp.mpc(h11 * vx + h12 * vy, h21 * vx + h22 * vy)
                    assert abs(reference_scan.zo_mpvalue(u) - want) <= 1e-80 * (1 + abs(want))


def test_op_mul_rejects_a_sum_sqrt2_does_not_divide():
    # entries of sqrt2 G for G = identity / sqrt2, not a grid operator
    g = ((1, 0), (0, 0), (0, 0), (1, 0))
    with pytest.raises(RuntimeError, match="not divisible by sqrt2"):
        gridsynth._op_mul(g, g)


def test_invariant_failure_is_not_a_synthesis_error(monkeypatch):
    # a wrong column reduction is a program bug, not an unmeetable b, so it
    # must not surface as the capacity error SynthesisError
    monkeypatch.setattr(gridsynth, "_reduce_column", lambda u, t, k: ([], u, t))
    with pytest.raises(RuntimeError, match="internal error in Rz synthesis") as e:
        synthesize_rz_tags(0.3, 2.0 ** -8)
    assert not isinstance(e.value, SynthesisError)
    assert "theta=0.3" in str(e.value) and "b=8" in str(e.value)


def test_mp_phase_distance_matches_float():
    # guards the oracle of test_rz_synthesis_high_b: it must agree with the
    # float distance where floats suffice, and see a word that is one T off
    rng = random.Random(910)
    eps = 2.0 ** -10
    for _ in range(5):
        theta = rng.uniform(-math.pi, math.pi)
        tags = synthesize_rz_tags(theta, eps)
        d = float(phase_dist_1q_mp(tags, theta))
        assert 0 < d <= eps
        assert math.isclose(d, phase_dist_1q(tags_to_unitary(tags), rz_matrix(theta)),
                            rel_tol=1e-6, abs_tol=1e-12)
        assert phase_dist_1q_mp(tags + ["T"], theta) > eps


@pytest.mark.parametrize("b", [30, 40, 80, 150])
def test_rz_synthesis_high_b(b):
    rng = random.Random(3000 + b)
    eps = mp.mpf(2) ** -b
    for _ in range(5):
        theta = rng.uniform(-math.pi, math.pi)
        tags = synthesize_rz_tags(theta, 2.0 ** -b)
        assert phase_dist_1q_mp(tags, theta) <= eps, theta
        assert sum(t in ("T", "Tdg") for t in tags) <= 3 * b + 20


@pytest.mark.parametrize("theta", [2 * math.acos(1 / math.sqrt(3)),
                                   2 * math.acos(math.sqrt(2 / 3))])
def test_w_angles_synthesize_at_b60(theta):
    # lattice-aligned angles: a float grid kernel padded their 1D problems
    # into enumerations over the size limit from b = 56
    tags = synthesize_rz_tags(theta, 2.0 ** -60)
    assert phase_dist_1q_mp(tags, theta) <= mp.mpf(2) ** -60


@pytest.mark.parametrize("theta", [2 * math.acos(1 / math.sqrt(3)),
                                   2 * math.acos(math.sqrt(0.2)), 0.7, -2.1])
def test_chord_walk_matches_full_enumeration(theta):
    # lattice-aligned angles (the first two) put many candidates on each
    # line; walking each line from its best end and stopping once it has 16
    # must give the same best 16 as walking every line to its end
    b, mth = 14, round(theta / (math.pi / 4))
    region = _EpsRegion(-(theta - mth * math.pi / 4) / 2, 2.0 ** -b)
    for k in range(int(1.5 * b) - 2, int(1.5 * b) + 6):
        assert region.candidates(k, 16) == region.candidates(k)[:16], k


def test_a_line_tangent_to_the_circle_keeps_its_point():
    # u = 4 = sqrt2^4 lies on the circle |u| = sqrt2^k, on a line tangent to
    # it: a chord that rounds its discriminant below 0 loses the only
    # candidate, and the word grows from Tdg to 31 gates
    assert synthesize_rz_tags(_TANGENT_THETA, 2.0 ** -4) == ["Tdg"]
    theta_p = _TANGENT_THETA + math.pi / 4
    assert _EpsRegion(-theta_p / 2, 2.0 ** -4).candidates(4) == [(4, 0, 0, 0)]
