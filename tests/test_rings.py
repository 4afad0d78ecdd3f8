import math
from fractions import Fraction

import mpmath as mp
from hypothesis import given, settings, strategies as st
from sympy import primerange
from sympy.ntheory.residue_ntheory import sqrt_mod

from qsprep.rings import (
    ZO_DELTA, ZO_SQRT2, ZO_UNIT_LOG, ZO_ZERO, _zo_norm_cofactor,
    zo_abs_sq, zo_add, zo_conj, zo_div_sqrt2,
    zo_galois, zo_gcd, zo_mod, zo_mul, zo_norm, zo_rot,
    zo_sqrt2_divisible, zo_sub, zs_divides, zs_gcd, zs_lambda_power, zs_mul,
    zs_norm, zs_sign, zs_sqrt2_valuation, zs_totally_positive,
)
from reference_exact import zmd_gcd, zo_from_zmd

_i = st.integers(-50, 50)
_zs = st.tuples(_i, _i)
_zo = st.tuples(_i, _i, _i, _i)

_W = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


def zo_div_exact(u, v):
    """u / v in Z[omega]; fails the calling test unless v divides u."""
    n = zo_norm(v)
    w = zo_mul(u, _zo_norm_cofactor(v))
    assert n and not any(x % n for x in w), (u, v)
    return tuple(x // n for x in w)


def _val(x):
    if len(x) == 2:
        return x[0] + x[1] * math.sqrt(2)
    a, b, c, d = x
    return a + b * _W + c * _W ** 2 + d * _W ** 3


@given(_zs, _zs)
def test_zsqrt2_mul_matches_floats(x, y):
    assert math.isclose(_val(zs_mul(x, y)), _val(x) * _val(y),
                        rel_tol=1e-9, abs_tol=1e-6)


@given(_zs, _zs)
def test_zsqrt2_norm_multiplicative(x, y):
    assert zs_norm(zs_mul(x, y)) == zs_norm(x) * zs_norm(y)


def _check_sign(x):
    # mpmath at 400 bits decides the sign of a +- b sqrt2 for |a|, |b| < 2^190
    with mp.workprec(400):
        v, vc = (x[0] + s * x[1] * mp.sqrt(2) for s in (1, -1))
    assert zs_sign(x) == (v > 0) - (v < 0)
    assert zs_totally_positive(x) == (v > 0 and vc > 0)


@given(_zs)
def test_zsqrt2_sign_and_total_positivity(x):
    _check_sign(x)


def test_zsqrt2_sign_past_float_range():
    # Pell pairs a^2 - 2 b^2 = +-1 up to 2^80, from lambda^m = a + b sqrt2:
    # a - b sqrt2 = +-lambda^-m is far below the float ulp of a, so floats
    # round it to 0 or give it the wrong sign
    a, b, float_wrong = 1, 1, 0
    while a.bit_length() <= 80:
        exact = 1 if a * a - 2 * b * b > 0 else -1
        fv = float(a) - float(b) * math.sqrt(2)
        float_wrong += (fv > 0) - (fv < 0) != exact
        for x in ((a, -b), (-a, b), (a, b), (-a, -b)):
            _check_sign(x)
        a, b = a + 2 * b, a + b
    assert float_wrong > 10


def test_lambda_units():
    assert zs_mul((1, 1), (-1, 1)) == (1, 0)
    acc = (1, 0)
    for _ in range(5):
        acc = zs_mul(acc, (1, 1))
    assert zs_lambda_power(5) == acc
    assert zs_mul(zs_lambda_power(-3), zs_lambda_power(3)) == (1, 0)


@given(_zs)
def test_sqrt2_valuation(x):
    if x == (0, 0):
        return
    m, rest = zs_sqrt2_valuation(x)
    y = rest
    for _ in range(m):
        y = zs_mul(y, (0, 1))
    assert y == x
    assert not (rest[0] % 2 == 0)    # sqrt2 no longer divides the remainder


@given(_zs, _zs)
def test_zs_gcd_divides_both(x, y):
    if x == (0, 0) and y == (0, 0):
        return
    g = zs_gcd(x, y)
    assert zs_divides(g, x) and zs_divides(g, y)


@given(_zo, _zo)
def test_zomega_mul_matches_floats(x, y):
    assert abs(_val(zo_mul(x, y)) - _val(x) * _val(y)) <= 1e-5 * (1 + abs(_val(x) * _val(y)))


@given(_zo)
def test_conj_is_complex_conjugate(x):
    assert abs(_val(zo_conj(x)) - _val(x).conjugate()) < 1e-9


@given(_zo)
def test_abs_sq_matches_float_modulus(x):
    a2 = zo_abs_sq(x)
    assert math.isclose(_val(a2), abs(_val(x)) ** 2, rel_tol=1e-9, abs_tol=1e-6)
    if x != ZO_ZERO:
        assert zs_totally_positive(a2)


@given(_zo)
def test_abs_sq_is_conj_times_self(x):
    # conj(u) u always lies in Z[sqrt2]: no w^2 part, w and w^3 parts cancel
    a2 = zo_abs_sq(x)
    assert zo_mul(zo_conj(x), x) == (a2[0], a2[1], 0, -a2[1])


@given(_zo, _zo)
def test_galois_ring_automorphism(x, y):
    assert zo_galois(zo_mul(x, y)) == zo_mul(zo_galois(x), zo_galois(y))


def test_sqrt2_constants():
    assert abs(_val(ZO_SQRT2) - math.sqrt(2)) < 1e-12
    d2 = zo_mul(zo_conj(ZO_DELTA), ZO_DELTA)
    # delta^dagger delta = sqrt2 * lambda
    assert abs(_val(d2) - math.sqrt(2) * (1 + math.sqrt(2))) < 1e-9


@given(_zo)
def test_div_sqrt2_inverts_mul(x):
    y = zo_mul(x, ZO_SQRT2)
    assert zo_sqrt2_divisible(y)
    assert zo_div_sqrt2(y) == x


@given(_zo, _zo)
def test_zo_div_exact_inverts_mul(x, y):
    if y == ZO_ZERO:
        return
    assert zo_div_exact(zo_mul(x, y), y) == x


@settings(max_examples=60)
@given(_zo, _zo)
def test_zo_mod_is_euclidean(x, y):
    if y == ZO_ZERO:
        return
    r = zo_mod(x, y)
    # x - r divisible by y, and |r| < |y| in the field norm N(u) = |u|^2 |u_gal|^2
    q = zo_div_exact(zo_sub(x, r), y)
    assert zo_add(zo_mul(q, y), r) == x
    ny = Fraction(zs_norm(zo_abs_sq(y)))
    nr = Fraction(zs_norm(zo_abs_sq(r)))
    assert nr < ny


@settings(max_examples=60)
@given(_zo, _zo)
def test_zo_gcd_divides_both(x, y):
    if x == ZO_ZERO and y == ZO_ZERO:
        return
    g = zo_gcd(x, y)
    assert g != ZO_ZERO
    for z in (x, y):
        if z == ZO_ZERO:
            continue
        assert zo_mul(zo_div_exact(z, g), g) == z


@given(_zo, st.integers(0, 15))
def test_mul_omega_rotates_value(x, j):
    y = zo_rot(x, j)
    assert abs(_val(y) - _val(x) * _W ** (j % 8)) < 1e-8


def test_unit_log():
    u = (1, 0, 0, 0)
    for j in range(8):
        assert ZO_UNIT_LOG[u] == j
        u = zo_rot(u, 1)
    assert u == (1, 0, 0, 0)
    assert len(ZO_UNIT_LOG) == 8 and (2, 0, 0, 0) not in ZO_UNIT_LOG


def test_zmd_gcd_splits_primes():
    # p = 5 (mod 8) splits in Z[i], p = 3 (mod 8) in Z[sqrt(-2)]: the gcd of
    # p and x - sqrt(-d), x^2 = -d (mod p), is a prime over p, and taken in
    # Z[omega] (i = w^2, sqrt(-2) = w + w^3) it is the reference's Z[sqrt(-d)]
    # gcd embedded
    checked = {1: 0, 2: 0}
    for p in primerange(3, 5000):
        d = {5: 1, 3: 2}.get(p % 8)
        if d is None:
            continue
        x = sqrt_mod(p - d, p)
        eta = zo_gcd((p, 0, 0, 0), (x, 0, -1, 0) if d == 1 else (x, -1, 0, -1))
        ref = zmd_gcd((p, 0), (x, -1), d)
        assert eta == zo_from_zmd(ref, d), (p, eta, ref)
        assert zo_abs_sq(eta) == (p, 0)
        checked[d] += 1
    assert checked[1] > 100 and checked[2] > 100
