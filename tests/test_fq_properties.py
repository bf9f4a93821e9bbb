"""Property tests for the table-driven F_q against an independent reference:
coefficient vectors multiplied as polynomials mod p and reduced by the
field's modulus with the arithmetic kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weildescent._kernel import lpoly_mul, lpoly_rem
from weildescent.finite import FqField, fq_field, legendre

FIELDS = [(3, 1), (3, 2), (3, 3), (5, 2), (7, 1), (11, 1), (13, 1)]
PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def ref_add(fq, a, b):
    return tuple((x + y) % fq.p for x, y in zip(a, b))


def ref_mul(fq, a, b):
    "Product of coefficient vectors mod the field's modulus."
    prod = lpoly_rem(lpoly_mul(list(a), list(b), fq.p), list(fq.modulus), fq.p)
    return tuple(prod)


def ref_pow(fq, a, e):
    acc = fq.one().coeffs
    for _ in range(e):
        acc = ref_mul(fq, acc, a)
    return acc


def elements(fq, nonzero=False):
    return st.integers(1 if nonzero else 0, fq.q - 1).map(fq.element)


@pytest.mark.parametrize("p,f", FIELDS, ids=[f"F{p**f}" for p, f in FIELDS])
class TestFq:
    @PROPS
    @given(data=st.data())
    def test_add_neg_sub_match_reference(self, p, f, data):
        fq = fq_field(p, f)
        a, b = data.draw(elements(fq)), data.draw(elements(fq))
        assert (a + b).coeffs == ref_add(fq, a.coeffs, b.coeffs)
        assert ref_add(fq, (-a).coeffs, a.coeffs) == fq.zero().coeffs
        assert (a - b).coeffs == ref_add(fq, a.coeffs, (-b).coeffs)

    @PROPS
    @given(data=st.data())
    def test_mul_matches_reference(self, p, f, data):
        fq = fq_field(p, f)
        a, b = data.draw(elements(fq)), data.draw(elements(fq))
        k = data.draw(st.integers(-3 * p, 3 * p))
        assert (a * b).coeffs == ref_mul(fq, a.coeffs, b.coeffs)
        assert (a * k).coeffs == (k * a).coeffs == ref_mul(fq, a.coeffs, fq.from_int(k).coeffs)

    @PROPS
    @given(data=st.data())
    def test_field_axioms(self, p, f, data):
        fq = fq_field(p, f)
        a, b, c = (data.draw(elements(fq)) for _ in range(3))
        zero, one = fq.zero(), fq.one()
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a + (-a) == zero and a - b == a + (-b)

    @PROPS
    @given(data=st.data())
    def test_inv_and_division(self, p, f, data):
        fq = fq_field(p, f)
        a, b = data.draw(elements(fq, nonzero=True)), data.draw(elements(fq))
        assert ref_mul(fq, a.inv().coeffs, a.coeffs) == fq.one().coeffs
        assert a.inv().coeffs == ref_pow(fq, a.coeffs, fq.q - 2)
        assert (b / a) * a == b
        with pytest.raises(ZeroDivisionError):
            fq.zero().inv()

    @PROPS
    @given(data=st.data())
    def test_pow_matches_reference(self, p, f, data):
        fq = fq_field(p, f)
        a = data.draw(elements(fq))
        e = data.draw(st.integers(0, 2 * fq.q))
        assert (a**e).coeffs == ref_pow(fq, a.coeffs, e)
        if not a.is_zero():
            assert (a ** -e) * (a**e) == fq.one()
            assert a ** (fq.q - 1) == fq.one()
        else:
            with pytest.raises(ZeroDivisionError):
                a**-1

    @PROPS
    @given(data=st.data())
    def test_index_coeffs_round_trip(self, p, f, data):
        fq = fq_field(p, f)
        k = data.draw(st.integers(0, fq.q - 1))
        e = fq.element(k)
        assert e.index() == k
        assert e.coeffs == tuple((k // p**i) % p for i in range(f))
        assert fq.from_coeffs(e.coeffs) == e

    @PROPS
    @given(data=st.data())
    def test_hash_eq_consistent(self, p, f, data):
        fq = fq_field(p, f)
        fresh = FqField(p, f)  # an equal field built apart
        a, b = data.draw(elements(fq)), data.draw(elements(fq))
        twin = fresh.element(a.index())
        assert twin == a and hash(twin) == hash(a) and {a: 1}[twin] == 1
        assert (a == b) == (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)
        assert a != a.coeffs and a != a.index()

    def test_trace_and_legendre(self, p, f):
        fq = fq_field(p, f)
        for e in fq.elements():
            conj, acc = e.coeffs, (0,) * f
            for _ in range(f):  # sum of the Frobenius conjugates e^(p^i)
                acc = ref_add(fq, acc, conj)
                conj = ref_pow(fq, conj, p)
            assert acc[1:] == (0,) * (f - 1) and e.trace_to_prime() == acc[0]
            if not e.is_zero():
                euler = ref_pow(fq, e.coeffs, (fq.q - 1) // 2)
                assert legendre(e) == (1 if euler == fq.one().coeffs else -1)
        g = fq.primitive_element()
        assert len({(g**k).index() for k in range(fq.q - 1)}) == fq.q - 1
        assert all(len({(fq.element(k) ** j).index() for j in range(fq.q - 1)}) < fq.q - 1
                   for k in range(1, g.index()))
