"""Property tests for CycloNum arithmetic in Q(zeta_n) and F_ell[zeta_p]:
field axioms, the coefficientwise product by a prime-field factor, the norm
inverse, division by zero and the wire format."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weildescent._kernel import lpoly_mul, lpoly_rem, zpoly_mul, zpoly_rem
from weildescent.errors import IdentityFailure
from weildescent.fields import (
    MODULAR,
    RATIONAL,
    CoeffField,
    CycloNum,
    _normalized,
    cyclonum_from_json,
    cyclotomic_poly,
    field_make,
)

FIELDS = [(RATIONAL, n, None) for n in (1, 3, 5, 7, 20)] + [
    (MODULAR, 13, 3),
    (MODULAR, 11, 23),
    (MODULAR, 13, 5),
]
IDS = [f"Q{n}" if ell is None else f"F{ell}z{n}" for _, n, ell in FIELDS]
PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def coefficients(K):
    "Power-basis coefficients: fractions with denominators over Q, residues mod ell."
    if K.char:
        coeff = st.integers(0, K.char - 1)
    else:
        coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.lists(coeff, min_size=K.degree, max_size=K.degree)


def elements(K, nonzero=False):
    out = coefficients(K).map(K.from_coeffs)
    return out.filter(lambda x: not x.is_zero()) if nonzero else out


def polynomial_product(x, y):
    "x y as the reduced polynomial product of the coefficient vectors."
    K = x.field
    if K.char:
        v = lpoly_rem(lpoly_mul(list(x.nums), list(y.nums), K.char), list(K.modulus), K.char)
        return CycloNum(K, tuple(v), 1)
    v = zpoly_rem(zpoly_mul(list(x.nums), list(y.nums)), list(K.modulus))
    return _normalized(K, v, x.den * y.den)


@pytest.mark.parametrize("kind,n,ell", FIELDS, ids=IDS)
class TestCycloNum:
    @PROPS
    @given(data=st.data())
    def test_field_axioms(self, kind, n, ell, data):
        K = field_make(kind, n, ell)
        a, b, c = (data.draw(elements(K)) for _ in range(3))
        zero, one = K.zero(), K.one()
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a + (-a) == zero and a - b == a + (-b)

    @PROPS
    @given(data=st.data())
    def test_prime_field_factor_is_the_polynomial_product(self, kind, n, ell, data):
        # __mul__ scales coefficientwise when a factor lies in the prime field
        K = field_make(kind, n, ell)
        x = data.draw(elements(K))
        c = data.draw(coefficients(K).map(lambda v: K.from_coeffs(v[:1])))
        for factor in (c, K.zero()):
            want = polynomial_product(x, factor)
            for got in (x * factor, factor * x):
                assert (got.nums, got.den) == (want.nums, want.den)

    @PROPS
    @given(data=st.data())
    def test_inverse(self, kind, n, ell, data):
        K = field_make(kind, n, ell)
        x = data.draw(elements(K, nonzero=True))
        y = data.draw(elements(K))
        assert x * x.inv() == K.one()
        assert x.inv().inv() == x
        assert (y / x) * x == y
        assert x ** -2 == (x * x).inv()

    def test_inverse_of_roots_of_unity(self, kind, n, ell):
        K = field_make(kind, n, ell)
        for k in range(n):
            assert K.zeta_pow(k).inv() == K.zeta_pow(-k)

    def test_inverse_of_zero_raises(self, kind, n, ell):
        K = field_make(kind, n, ell)
        with pytest.raises(ZeroDivisionError):
            K.zero().inv()
        with pytest.raises(ZeroDivisionError):
            K.one() / K.zero()
        with pytest.raises(ZeroDivisionError):
            K.zero() ** -1

    @PROPS
    @given(data=st.data())
    def test_json_round_trip(self, kind, n, ell, data):
        K = field_make(kind, n, ell)
        x = data.draw(elements(K))
        assert cyclonum_from_json(x.to_json()) == x
        assert cyclonum_from_json(x.to_json(), K) == x


def test_norm_outside_prime_field_raises():
    # F_2[z]/Phi_7 is F_8 x F_8, not a field: a zero divisor has a norm over
    # the Frobenius orbit {1, 2, 4} that is a nontrivial idempotent
    R = CoeffField(MODULAR, 7, 2, tuple(c % 2 for c in cyclotomic_poly(7)))
    units = failures = 0
    for v in itertools.product(range(2), repeat=R.degree):
        x = R.from_coeffs(v)
        if x.is_zero():
            continue
        try:
            y = x.inv()
        except IdentityFailure:
            failures += 1
            continue
        assert x * y == R.one()
        units += 1
    assert (units, failures) == (49, 14)
