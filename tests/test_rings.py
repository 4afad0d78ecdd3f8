import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime, nextprime, primerange
from sympy.ntheory.residue_ntheory import sqrt_mod

import reference_exact
from qsprep import rings
from qsprep.rings import (
    ZO_DELTA, ZO_SQRT2, ZO_UNIT_LOG, ZO_ZERO, _zo_norm_cofactor,
    factorize, is_prime, sqrt_mod_prime,
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


def test_zo_mod_matches_the_one_product_per_quotient_reference():
    # same search order, same early exits, so the same remainder
    rng = random.Random(19)
    checked = 0
    while checked < 10_000:
        bound = rng.choice((3, 50, 1 << 20, 1 << 45))
        u = tuple(rng.randint(-bound, bound) for _ in range(4))
        v = tuple(rng.randint(-bound, bound) for _ in range(4))
        if v == ZO_ZERO:
            continue
        assert zo_mod(u, v) == reference_exact.zo_mod(u, v), (u, v)
        checked += 1


def test_zo_mod_matches_the_reference_along_every_inert_prime_gcd():
    # each Euclidean step of the gcds that split p = 3, 5 (mod 8) in the
    # Diophantine solver
    steps = 0
    for p in primerange(3, 5000):
        if p % 8 not in (3, 5):
            continue
        x = sqrt_mod(p - 1 if p % 8 == 5 else p - 2, p)
        u, v = (p, 0, 0, 0), (x, 0, -1, 0) if p % 8 == 5 else (x, -1, 0, -1)
        while v != ZO_ZERO:
            r = zo_mod(u, v)
            assert r == reference_exact.zo_mod(u, v), (p, u, v)
            u, v = v, r
            steps += 1
    assert steps > 900


# ---------------------------------------------------------------------------
# Integers: primality, the capped factorizer and Tonelli-Shanks against sympy


def test_is_prime_matches_sympy():
    rng = random.Random(5)
    cases = [rng.randrange(1, 1 << rng.randint(1, 120)) for _ in range(5000)]
    # products of two primes on both sides of the exact Miller-Rabin bound
    for bits in (30, 41, 45, 60):
        cases += [nextprime(rng.getrandbits(bits)) * nextprime(rng.getrandbits(bits))
                  for _ in range(20)]
    cases += [nextprime(rng.getrandbits(bits))
              for bits in (70, 82, 83, 100, 160) for _ in range(10)]
    # the least strong pseudoprime to the bases 2..37: base 41 exposes it
    cases.append(318665857834031151167461)
    for n in cases:
        assert is_prime(n) == isprime(n), n


def _chernick(ks):
    """Carmichael numbers (6k + 1)(12k + 1)(18k + 1) with all three prime."""
    return [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in ks
            if isprime(6 * k + 1) and isprime(12 * k + 1) and isprime(18 * k + 1)]


def test_carmichael_numbers_are_composite_past_the_miller_rabin_bound():
    # above 3.3e24 the strong Lucas test decides; Carmichael numbers pass
    # Fermat's test to every coprime base
    big = _chernick(range(10 ** 8, 10 ** 8 + 20_000))
    assert len(big) >= 3 and min(big) > rings._MR_EXACT_BELOW
    assert not any(is_prime(n) for n in big)


def test_factorize_matches_factorint_on_hard_inputs():
    rng = random.Random(7)
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
                  41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921]
    # factors above the trial primes, up to ~2^24
    carmichael += _chernick(range(200, 2000)) + _chernick(range(10 ** 6, 10 ** 6 + 1000))
    assert len(carmichael) > 40
    p40, p20, p13 = nextprime(1 << 40), nextprime(1 << 20), nextprime(1 << 13)
    powers = [p40 ** 2, p20 ** 3, p13 ** 5, 1009 ** 7, 3 ** 30, p20 ** 2 * p13,
              p40 ** 2 * 1009 ** 2, (nextprime(10 ** 6) * nextprime(2 * 10 ** 6)) ** 2]
    # strong pseudoprimes to the bases 2..23 and to 2, 3
    pseudoprimes = [3825123056546413051, 2047, 1373653]
    # balanced semiprimes up to the largest the cap is sized for
    semiprimes = [nextprime(rng.getrandbits(bits)) * nextprime(rng.getrandbits(bits))
                  for bits in range(11, 27) for _ in range(3)]
    for n in [1, 2, 97, 1000003] + carmichael + powers + pseudoprimes + semiprimes:
        assert factorize(n) == factorint(n), n
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_gives_up_past_the_cap():
    n = nextprime(1 << 40) * nextprime(1 << 41)
    t0 = time.perf_counter()
    assert factorize(n) is None
    assert factorize(n * 3 * 5 ** 4) is None
    assert time.perf_counter() - t0 < 2.0


def _primes_by_class(start, count):
    out = {r: [] for r in (1, 3, 5, 7)}
    p = start
    while min(len(v) for v in out.values()) < count:
        p = nextprime(p)
        if len(out[p % 8]) < count:
            out[p % 8].append(p)
    return [p for v in out.values() for p in v]


def test_sqrt_mod_prime_matches_sqrt_mod():
    rng = random.Random(11)
    primes = _primes_by_class(2, 30) + _primes_by_class(10 ** 12, 15) + _primes_by_class(1 << 70, 5)
    # p = 1 (mod 2^20): twenty rounds of Tonelli-Shanks
    primes += [p for p in (j * (1 << 20) + 1 for j in range(1, 400)) if isprime(p)][:8]
    assert len(primes) == 4 * (30 + 15 + 5) + 8
    for p in primes:
        for _ in range(12):
            a = pow(rng.randrange(1, p), 2, p)
            assert sqrt_mod_prime(a, p) == sqrt_mod(a, p), (a, p)
        assert sqrt_mod_prime(0, p) == 0
    # the roots the Diophantine solver takes
    for p in primerange(3, 3000):
        for a in {1: (p - 1, 2), 7: (2,), 5: (p - 1,), 3: (p - 2,)}[p % 8]:
            assert sqrt_mod_prime(a, p) == sqrt_mod(a, p), (a, p)


def test_sqrt_mod_prime_rejects_a_non_residue():
    with pytest.raises(ValueError, match="not a square"):
        sqrt_mod_prime(3, 17)
