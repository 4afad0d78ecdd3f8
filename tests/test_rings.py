import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qsprep.gridsynth import _W_UNIT_LOG, _w_div_sqrt2, _w_divisible, _w_rot
from qsprep.rings import (
    ZO_DELTA, ZO_SQRT2, ZS_LAMBDA, ZS_LAMBDA_INV, ZS_ONE, ZOmega, ZSqrt2,
    zo_div_exact, zo_gcd, zo_mod, zs_divides, zs_gcd, zs_lambda_power,
    zs_sqrt2_valuation,
)

_i = st.integers(-50, 50)
_zs = st.builds(ZSqrt2, _i, _i)
_zo = st.builds(ZOmega, _i, _i, _i, _i)

_W = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


def _tup(x):
    return (x.a, x.b, x.c, x.d)


def _val(x):
    if isinstance(x, ZSqrt2):
        return x.a + x.b * math.sqrt(2)
    return x.a + x.b * _W + x.c * _W ** 2 + x.d * _W ** 3


@given(_zs, _zs)
def test_zsqrt2_mul_matches_floats(x, y):
    assert math.isclose(_val(x * y), _val(x) * _val(y),
                        rel_tol=1e-9, abs_tol=1e-6)


@given(_zs, _zs)
def test_zsqrt2_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(_zs)
def test_zsqrt2_sign_and_total_positivity(x):
    v = _val(x)
    vc = _val(x.conj())
    if abs(v) > 1e-9:
        assert (v > 0) == (x.sign() > 0)
    assert x.totally_positive() == (v > 1e-9 and vc > 1e-9) or abs(v) <= 1e-9 or abs(vc) <= 1e-9


def test_lambda_units():
    assert (ZS_LAMBDA * ZS_LAMBDA_INV) == ZS_ONE
    acc = ZS_ONE
    for _ in range(5):
        acc = acc * ZS_LAMBDA
    assert zs_lambda_power(5) == acc
    assert zs_lambda_power(-3) * zs_lambda_power(3) == ZS_ONE


@given(_zs)
def test_sqrt2_valuation(x):
    if x.is_zero():
        return
    m, rest = zs_sqrt2_valuation(x)
    s = ZSqrt2(0, 1)
    y = rest
    for _ in range(m):
        y = y * s
    assert y == x
    assert not (rest.a % 2 == 0)    # sqrt2 no longer divides the remainder


@given(_zs, _zs)
def test_zs_gcd_divides_both(x, y):
    if x.is_zero() and y.is_zero():
        return
    g = zs_gcd(x, y)
    assert zs_divides(g, x) and zs_divides(g, y)


@given(_zo, _zo)
def test_zomega_mul_matches_floats(x, y):
    assert abs(_val(x * y) - _val(x) * _val(y)) <= 1e-5 * (1 + abs(_val(x) * _val(y)))


@given(_zo)
def test_conj_is_complex_conjugate(x):
    assert abs(_val(x.conj()) - _val(x).conjugate()) < 1e-9


@given(_zo)
def test_abs_sq_matches_float_modulus(x):
    a2 = x.abs_sq()
    assert math.isclose(_val(a2), abs(_val(x)) ** 2, rel_tol=1e-9, abs_tol=1e-6)
    if not x == ZOmega(0, 0, 0, 0):
        assert a2.totally_positive()


@given(_zo, _zo)
def test_galois_ring_automorphism(x, y):
    assert (x * y).galois() == x.galois() * y.galois()


def test_sqrt2_constants():
    assert abs(_val(ZO_SQRT2) - math.sqrt(2)) < 1e-12
    d2 = ZO_DELTA.conj() * ZO_DELTA
    # delta^dagger delta = sqrt2 * lambda
    assert abs(_val(d2) - math.sqrt(2) * (1 + math.sqrt(2))) < 1e-9


@given(_zo)
def test_div_sqrt2_inverts_mul(x):
    y = _tup(x * ZO_SQRT2)
    assert _w_divisible(y)
    assert _w_div_sqrt2(y) == _tup(x)


@given(_zo, _zo)
def test_zo_div_exact_inverts_mul(x, y):
    if y == ZOmega(0, 0, 0, 0):
        return
    assert zo_div_exact(x * y, y) == x


@settings(max_examples=60)
@given(_zo, _zo)
def test_zo_mod_is_euclidean(x, y):
    if y == ZOmega(0, 0, 0, 0):
        return
    r = zo_mod(x, y)
    # x - r divisible by y, and |r| < |y| in the field norm N(u) = |u|^2 |u_gal|^2
    q = zo_div_exact(x - r, y)
    assert q * y + r == x
    ny = Fraction(y.abs_sq().norm())
    nr = Fraction(r.abs_sq().norm())
    assert nr < ny


@settings(max_examples=60)
@given(_zo, _zo)
def test_zo_gcd_divides_both(x, y):
    if x == ZOmega(0, 0, 0, 0) and y == ZOmega(0, 0, 0, 0):
        return
    g = zo_gcd(x, y)
    assert g != ZOmega(0, 0, 0, 0)
    for z in (x, y):
        if z == ZOmega(0, 0, 0, 0):
            continue
        assert zo_div_exact(z, g) * g == z


@given(_zo, st.integers(0, 15))
def test_mul_omega_rotates_value(x, j):
    y = ZOmega(*_w_rot(_tup(x), j))
    assert abs(_val(y) - _val(x) * _W ** (j % 8)) < 1e-8


def test_unit_log():
    u = (1, 0, 0, 0)
    for j in range(8):
        assert _W_UNIT_LOG[u] == j
        u = _w_rot(u, 1)
    assert u == (1, 0, 0, 0)
    assert len(_W_UNIT_LOG) == 8 and (2, 0, 0, 0) not in _W_UNIT_LOG
