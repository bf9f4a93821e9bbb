"""Isotypic quotients and theta lifts for the parity pair, Galois
equivariance, and the scalar-extension compatibility."""

import pytest

from weildescent.errors import IdentityFailure
from weildescent.fields import GaloisAut, RATIONAL, field_make
from weildescent.finite import SymplecticSpace, fq_field, psi_standard
from weildescent.linalg import Matrix
from weildescent.theta import (
    CommutingPair,
    isotypic_quotient,
    parity_pair,
    sign_characters,
    theta_galois_equivariance,
    theta_lift,
    theta_scalar_extension_check,
    theta_unitarity,
)
from weildescent.weil import weil_rep


def test_parity_pair_commutes(model5):
    pair = parity_pair(model5["weil"])
    assert len(pair.h1_elements()) == 2


def test_isotypic_quotient_even_odd(model3):
    pair = parity_pair(model3["weil"])
    triv, sgn = sign_characters(model3["weil"].field)
    q_even = isotypic_quotient(pair, triv)
    q_odd = isotypic_quotient(pair, sgn)
    assert q_even["isotypic_dim"] == 2  # even part
    assert q_odd["isotypic_dim"] == 1  # odd part
    assert q_even["kernel_dim"] == 1
    # joint projection surjective with the right kernel: the two isotypic
    # projectors sum to the identity here
    e = q_even["projector"] + q_odd["projector"]
    assert e.is_identity()


def test_isotypic_quotient_missing_rep_is_zero(model3):
    # V with c acting as -Id contains no copy of the trivial character
    K = model3["weil"].field
    minus = Matrix.identity(K, 3).scale(K.from_int(-1))
    pair = CommutingPair(K, 3, {"c": minus}, {"t": Matrix.identity(K, 3)})
    triv = {"c": Matrix.identity(K, 1)}
    quot = isotypic_quotient(pair, triv)
    assert quot["isotypic_dim"] == 0 and quot["kernel_dim"] == 3
    # an order-3 scalar is not a representation of the order-2 group
    fake = {"c": Matrix.identity(K, 1).scale(K.zeta())}
    with pytest.raises(IdentityFailure):
        isotypic_quotient(pair, fake)


@pytest.mark.parametrize(
    "fixture,dims", [("model3", (2, 1)), ("model5", (3, 2))]
)
def test_theta_lift_dims_and_irr(fixture, dims, request):
    model = request.getfixturevalue(fixture)
    pair = parity_pair(model["weil"])
    triv, sgn = sign_characters(model["weil"].field)
    lt = theta_lift(pair, triv)
    ls = theta_lift(pair, sgn)
    assert (lt.dim, ls.dim) == dims
    assert lt.checks["irr"] and ls.checks["irr"]
    assert lt.checks["factorization_rank"] == dims[0]
    assert ls.checks["factorization_rank"] == dims[1]


def test_theta_unitarity_verdict(model3):
    pair = parity_pair(model3["weil"])
    triv, sgn = sign_characters(model3["weil"].field)
    lt, ls = theta_lift(pair, triv), theta_lift(pair, sgn)
    uni = theta_unitarity(lt, ls)
    assert uni["comparable"] and not uni["isomorphic"]
    same = theta_unitarity(lt, theta_lift(pair, triv))
    assert same["isomorphic"]


def test_theta_zero_lift(model3):
    K = model3["weil"].field
    pair = CommutingPair(
        K, 3, {"c": Matrix.identity(K, 3)}, {"t": Matrix.identity(K, 3)}
    )
    sgn = {"c": Matrix.identity(K, 1).scale(K.from_int(-1))}
    lift = theta_lift(pair, sgn)
    assert lift.is_zero()
    assert theta_unitarity(lift, lift) == {"comparable": False}


@pytest.mark.parametrize("p", [3, 5])
def test_theta_galois_equivariance(p):
    fq = fq_field(p, 1)
    sp = SymplecticSpace(fq, 1)
    K = field_make(RATIONAL, p)
    psi = psi_standard(fq, K)
    rep = weil_rep(psi, sp)
    from weildescent.finite import char_twist

    for u in K.galois_exponents():
        if u == 1:
            continue
        sigma = GaloisAut(K, u)
        rep_sigma = weil_rep(char_twist(psi, fq.from_int(u)), sp)
        verdict = theta_galois_equivariance(rep, rep_sigma, sigma)
        assert verdict == {"trivial": True, "sign": True}


def test_scalar_extension_translation_subgroup(model3):
    # H1 = <rho(f1, 0)> over Q: two blocks over K matching Hom_Q(E, K)
    rho = model3["heis"]
    K = rho.field
    report = theta_scalar_extension_check(rho, ("Y", 0, 0), ("T",), K.full_tag())
    assert report["block_count"] == 2  # = [Q(zeta_3) : Q] = centre dimension
    assert report["blocks_sum_matches"]
    assert report["isotypic_dim_over_R"] == 4


def test_scalar_extension_center_q5(model5):
    # H1 = the centre: 4 Galois blocks
    rho = model5["heis"]
    K = rho.field
    report = theta_scalar_extension_check(rho, ("T",), ("Y", 0, 0), K.full_tag())
    assert report["block_count"] == 4
    assert report["blocks_sum_matches"]


def test_theta_verdicts_agree_over_Q_and_K(model3):
    # (Uni) verdicts computed from the Q-restricted parity pair agree with
    # the K-side verdicts on the {1, S} pair
    from weildescent.rationality import RestrictionBasis, restrict_scalars
    from weildescent.weil import parity_matrix

    w = model3["weil"]
    K = w.field
    restricted = restrict_scalars(w, K.full_tag())
    S = parity_matrix(model3["space"], K)
    # by restriction, the parity matrix becomes block-diagonal S (x) 1
    rb = RestrictionBasis(K.full_tag())
    d = rb.d
    big = Matrix.zeros(K, w.dim * d, w.dim * d)
    for i in range(w.dim):
        for j in range(w.dim):
            if not S.rows[i][j].is_zero():
                for k in range(d):
                    big.rows[i * d + k][j * d + k] = S.rows[i][j]
    pair_Q = CommutingPair(
        K,
        w.dim * d,
        {"c": big},
        {str(t): restricted.image(t) for t in restricted.gen_names},
    )
    triv, sgn = sign_characters(K)
    lt, ls = theta_lift(pair_Q, triv), theta_lift(pair_Q, sgn)
    assert (lt.dim, ls.dim) == (4, 2)  # doubled dims over Q
    assert not theta_unitarity(lt, ls)["isomorphic"]
    pair_K = parity_pair(w)
    ltK = theta_lift(pair_K, triv)
    lsK = theta_lift(pair_K, sgn)
    assert not theta_unitarity(ltK, lsK)["isomorphic"]
