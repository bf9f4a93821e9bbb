"""Identities of the arithmetic kernel checked without its loops: a product
evaluated at integers, the remainder's defining divisibility, and the mod-ell
functions as the integer results reduced mod ell."""

from hypothesis import given, settings
from hypothesis import strategies as st

from weildescent._kernel import lpoly_mul, lpoly_rem, zpoly_mul, zpoly_rem

PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
POINTS = (-3, -1, 0, 1, 2, 7)
polys = st.lists(st.integers(-50, 50), min_size=1, max_size=9)
monic = st.lists(st.integers(-5, 5), min_size=1, max_size=6).map(lambda c: c + [1])
ells = st.sampled_from([2, 3, 5, 7, 11, 13])


def evaluate(poly, x):
    return sum(c * x**k for k, c in enumerate(poly))


@PROPS
@given(polys, polys)
def test_product_evaluates_to_product(a, b):
    prod = zpoly_mul(a, b)
    assert len(prod) == len(a) + len(b) - 1
    for x in POINTS:
        assert evaluate(prod, x) == evaluate(a, x) * evaluate(b, x)


@PROPS
@given(polys, monic)
def test_remainder_differs_by_a_multiple(a, mod):
    r = zpoly_rem(a, mod)
    assert len(r) == len(mod) - 1
    for x in POINTS:
        m = evaluate(mod, x)
        if m:
            assert (evaluate(a, x) - evaluate(r, x)) % m == 0


@PROPS
@given(polys, polys, monic, ells)
def test_mod_ell_is_the_integer_result_reduced(a, b, mod, ell):
    prod = zpoly_mul(a, b)
    assert lpoly_mul(a, b, ell) == [c % ell for c in prod]
    reduced_mod = [c % ell for c in mod]
    assert lpoly_rem(prod, reduced_mod, ell) == [c % ell for c in zpoly_rem(prod, mod)]


def test_rem_of_short_poly_pads():
    assert zpoly_rem([5], [1, 2, 1]) == [5, 0]
