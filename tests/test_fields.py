"""Cyclotomic coefficient fields: canonical arithmetic, Galois action,
Gauss sums, subfield tags."""

import random
from fractions import Fraction

import pytest

from weildescent.errors import FieldMismatch, InvalidCharacteristic
from weildescent.fields import (
    GaloisAut,
    MODULAR,
    RATIONAL,
    SubfieldTag,
    apply_aut,
    cyclonum_from_json,
    cyclotomic_poly,
    embed,
    field_make,
    gauss_sum,
    prime_field,
    subfield_membership,
    subfield_of_values,
    tag_lift,
    trace_to_subfield,
)


def rand_elem(K, rng):
    return K.from_coeffs(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(K.degree)]
    )


def test_field_make_examples():
    Q = field_make(RATIONAL, 1)
    assert Q.degree == 1
    K5 = field_make(RATIONAL, 5)
    assert K5.modulus == (1, 1, 1, 1, 1)  # X^4+X^3+X^2+X+1, expanded by hand
    assert K5.degree == 4
    K57 = field_make(MODULAR, 5, 7)
    assert K57.degree == 4  # order of 7 mod 5 is 4
    with pytest.raises(InvalidCharacteristic):
        field_make(MODULAR, 5, 5)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # product over divisors rebuilds X^n - 1
    for n in (6, 20):
        prod = [1]
        from weildescent._kernel import zpoly_mul

        for d in range(1, n + 1):
            if n % d == 0:
                prod = zpoly_mul(prod, list(cyclotomic_poly(d)))
        expect = [-1] + [0] * (n - 1) + [1]
        assert prod == expect


def test_modular_modulus_is_least_factor():
    # 11 = 1 mod 5: Phi_5 splits into linear factors mod 11 with roots of
    # order 5, namely 3, 4, 5, 9; the least coefficient tuple is X + 2
    K = field_make(MODULAR, 5, 11)
    assert K.modulus == (2, 1)
    assert pow(-2, 5, 11) == 1


def test_arithmetic_canonical_form():
    K = field_make(RATIONAL, 5)
    rng = random.Random(0)
    for _ in range(200):
        x, y = rand_elem(K, rng), rand_elem(K, rng)
        assert (x + y) - y == x
        assert x * y == y * x
        if not y.is_zero():
            assert (x * y) / y == x
    z = K.zeta()
    assert z**5 == K.one()
    assert z**4 == -(K.one() + z + z * z + z * z * z)


def test_apply_aut_examples():
    K = field_make(RATIONAL, 5)
    z = K.zeta()
    s = GaloisAut(K, 2)
    assert apply_aut(GaloisAut(K, 1), z + z) == z + z
    assert apply_aut(s, z) == K.zeta_pow(2)
    assert apply_aut(s, z + K.zeta_pow(4)) == K.zeta_pow(2) + K.zeta_pow(3)
    with pytest.raises(FieldMismatch):
        apply_aut(s, field_make(RATIONAL, 7).zeta())


def test_galois_action_is_field_automorphism():
    # 10^3 random pairs across the automorphisms of two fields
    rng = random.Random(1)
    for K in (field_make(RATIONAL, 7), field_make(MODULAR, 5, 7)):
        for u in K.galois_exponents():
            s = GaloisAut(K, u)
            for _ in range(110):
                if K.char:
                    x = K.from_coeffs([rng.randrange(K.char) for _ in range(K.degree)])
                    y = K.from_coeffs([rng.randrange(K.char) for _ in range(K.degree)])
                else:
                    x, y = rand_elem(K, rng), rand_elem(K, rng)
                assert apply_aut(s, x + y) == apply_aut(s, x) + apply_aut(s, y)
                assert apply_aut(s, x * y) == apply_aut(s, x) * apply_aut(s, y)
            assert apply_aut(s, K.from_int(3)) == K.from_int(3)


def test_aut_composition():
    K = field_make(RATIONAL, 13)
    rng = random.Random(2)
    s, t = GaloisAut(K, 2), GaloisAut(K, 5)
    for _ in range(20):
        x = rand_elem(K, rng)
        # sigma_2 sigma_5 = sigma_10: exponents multiply mod 13
        assert apply_aut(GaloisAut(K, 10), x) == apply_aut(s, apply_aut(t, x))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_squares_to_p_star(p):
    g = gauss_sum(p)
    p_star = p if p % 4 == 1 else -p
    assert g * g == g.field.from_int(p_star)


def test_gauss_sum_p3_value():
    K = field_make(RATIONAL, 3)
    g = gauss_sum(3)
    assert g == K.zeta() - K.zeta_pow(2)


def test_subfield_of_values_examples():
    K = field_make(RATIONAL, 5)
    full = subfield_of_values([K.from_int(1), K.from_int(2)])
    assert full.stabilizer == frozenset({1, 2, 3, 4})
    t = subfield_of_values([gauss_sum(5)])
    assert t.stabilizer == frozenset({1, 4})
    top = subfield_of_values([K.zeta()])
    assert top.stabilizer == frozenset({1})


def test_subfield_membership():
    K = field_make(RATIONAL, 5)
    t = SubfieldTag(K, [4])
    assert subfield_membership(K.from_fraction(Fraction(3, 7)), t)
    assert subfield_membership(gauss_sum(5), t)
    assert not subfield_membership(K.zeta(), t)


@pytest.mark.parametrize("kind,n,ell,stab", [(RATIONAL, 7, None, [6]), (MODULAR, 13, 3, [3])])
def test_subfield_membership_builds_no_automorphism(monkeypatch, kind, n, ell, stab):
    # the tag holds the sigma_u of its generators; a membership test makes none
    K = field_make(kind, n, ell)
    tag = SubfieldTag(K, stab)
    made = []
    orig = GaloisAut.__init__

    def counting(self, *args):
        made.append(args)
        orig(self, *args)

    monkeypatch.setattr(GaloisAut, "__init__", counting)
    x, y = K.zeta(), K.zero()
    for u in tag.stabilizer:
        y = y + K.zeta_pow(u)
    verdicts = [subfield_membership(v, tag) for v in (x, y) * 50]
    assert made == []
    assert verdicts == [False, True] * 50


def test_apply_aut_returns_prime_field_elements_unchanged():
    for K in (field_make(RATIONAL, 7), field_make(MODULAR, 13, 3)):
        sigma = GaloisAut(K, K.galois_exponents()[-1])
        for x in (K.zero(), K.one(), K.from_fraction(Fraction(-3, 5))):
            assert apply_aut(sigma, x) is x
        assert apply_aut(sigma, K.zeta()) == K.zeta_pow(sigma.exponent)


def test_subfield_lattice():
    # tag(A u B) stabilizer = tag(A) meet tag(B) stabilizers
    K = field_make(RATIONAL, 13)
    rng = random.Random(3)
    for _ in range(10):
        A = [rand_elem(K, rng) for _ in range(2)]
        B = [rand_elem(K, rng) for _ in range(2)]
        tAB = subfield_of_values(A + B)
        assert tAB.stabilizer == (
            subfield_of_values(A).stabilizer & subfield_of_values(B).stabilizer
        )


def test_tag_equality_is_stabilizer_equality():
    K = field_make(RATIONAL, 7)
    assert SubfieldTag(K, [2]) == SubfieldTag(K, [4])  # both generate {1,2,4}
    assert SubfieldTag(K, [2]) != SubfieldTag(K, [6])


def test_embed_and_tag_lift():
    K5 = field_make(RATIONAL, 5)
    K20 = field_make(RATIONAL, 20)
    g = gauss_sum(5)
    ge = embed(g, K20)
    assert ge * ge == K20.from_int(5)
    lifted = tag_lift(subfield_of_values([g]), K20)
    assert subfield_membership(ge, lifted)
    assert lifted.degree_over_prime() == 2


def test_trace_to_subfield():
    K = field_make(RATIONAL, 5)
    z = K.zeta()
    tr = trace_to_subfield(z, K.full_tag())
    assert tr == K.from_int(-1)  # sum of primitive 5th roots


def test_serialization_roundtrip():
    K = field_make(RATIONAL, 5)
    rng = random.Random(4)
    for _ in range(20):
        x = rand_elem(K, rng)
        assert cyclonum_from_json(x.to_json()) == x
    Km = field_make(MODULAR, 5, 7)
    x = Km.zeta() + Km.from_int(3)
    assert cyclonum_from_json(x.to_json()) == x
    assert x.to_json()["char"] == 7


def test_modular_inverse_and_prime_field():
    Km = field_make(MODULAR, 5, 7)
    rng = random.Random(5)
    for _ in range(40):
        x = Km.from_coeffs([rng.randrange(7) for _ in range(4)])
        if x.is_zero():
            continue
        assert x * x.inv() == Km.one()
    P = prime_field(7)
    assert P.from_int(3) * P.from_int(5) == P.from_int(15)
    assert prime_field(0).from_fraction(Fraction(2, 3)).as_fraction() == Fraction(2, 3)
