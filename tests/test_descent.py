"""Descent data, fixed points, the CM obstruction, norm equations, and the
realisations over the predicted fields."""

import pytest

from weildescent.descent import (
    DescentDatum,
    _odd_part_exponents,
    _square_stabilizer,
    build_weil,
    descent_datum,
    fixed_points,
    odd_obstruction_check,
    realise_even,
    realise_full,
    realise_modular,
    realise_odd,
    solve_norm_equation,
    sqrt_minus_p,
)
from weildescent.errors import DatumInvalid, NotFoundWithinBound, RankDeficiency
from weildescent.fields import (
    GaloisAut,
    MODULAR,
    RATIONAL,
    SubfieldTag,
    apply_aut,
    field_make,
    subfield_membership,
)
from weildescent.linalg import Matrix
from weildescent.rationality import iso_test
from weildescent.weil import even_odd_split


def _full_datum(rep):
    "The datum of realise_full: the 2'-part target, no norm search."
    target = SubfieldTag(rep.field, _odd_part_exponents(rep.field))
    return descent_datum(rep, target, 0)[0]


def _square_datum(block):
    "The datum of realise_even and of the q = 3 mod 4 odd part."
    target = SubfieldTag(block.field, _square_stabilizer(block))
    return descent_datum(block, target, 0)[0]


def test_weil_datum_gamma_structure():
    # p = 3: trivial 2'-part; p = 7: |Gamma| = 3 and L = Q[sqrt(-7)];
    # p = 13: |Gamma| = 3 and [L : Q] = 4
    _, _, rep3 = build_weil(3, 1, 1)
    d3 = _full_datum(rep3)
    assert set(d3.entries) == {1}
    _, _, rep7 = build_weil(7, 1, 1)
    d7 = _full_datum(rep7)
    assert set(d7.entries) == {1, 2, 4}
    assert d7.target.degree_over_prime() == 2
    _, _, rep13 = build_weil(13, 1, 1)
    d13 = _full_datum(rep13)
    assert len(d13.entries) == 3
    assert d13.target.degree_over_prime() == 4


def test_weil_datum_validates(model5):
    datum = _full_datum(model5["weil"])
    datum.validate()


def test_datum_invalid_detected():
    # p = 7 has a nontrivial 2'-part; tampering an entry must be caught
    _, _, rep7 = build_weil(7, 1, 1)
    datum = _full_datum(rep7)
    K = rep7.field
    perm, vals = datum.entries[2]
    datum.entries[2] = perm, [K.zeta() * v for v in vals]
    with pytest.raises(DatumInvalid):
        datum.validate()


def test_datum_entry_outside_the_generators_is_checked():
    # Gamma = {1, 2, 4} = <2> at p = 7: the equivariance is checked at
    # sigma_2 only, so a bent R_4 must fail the cocycle
    _, _, rep7 = build_weil(7, 1, 1)
    datum = _full_datum(rep7)
    perm, vals = datum.entries[4]
    datum.entries[4] = perm, [-v for v in vals]
    with pytest.raises(DatumInvalid, match="cocycle fails"):
        datum.validate()


def test_trivial_datum_fails_equivariance_and_identity():
    # R_u = Id for every u is a cocycle, but sigma_2 moves the entries of the
    # Weil images; an R_1 other than Id fails the cocycle
    _, _, rep7 = build_weil(7, 1, 1)
    K = rep7.field
    target = SubfieldTag(K, _odd_part_exponents(K))
    identity = list(range(rep7.dim)), [K.one()] * rep7.dim
    datum = DescentDatum(rep7, dict.fromkeys(target.stabilizer, identity), target)
    with pytest.raises(DatumInvalid, match="equivariance fails at sigma_2"):
        datum.validate()
    datum = _full_datum(rep7)
    datum.entries[1] = identity[0], [-v for v in identity[1]]
    with pytest.raises(DatumInvalid, match="cocycle fails"):
        datum.validate()


def test_non_monomial_datum_entry_is_refused():
    # every R_u = lambda . omega(m_alpha) is monomial; a dense omega(m_alpha)
    # gives no datum.  At p = 7, gen = 2 and alpha = 2: 2^2 = 1/2, 2^3 = 1
    from weildescent.finite import token_m

    _, _, rep7 = build_weil(7, 1, 1)
    K, fq = rep7.field, rep7.space.fq
    tok = token_m(Matrix(fq, [[fq.from_int(2)]]))
    dense = rep7.image(tok).copy()
    dense.rows[0] = [K.one()] * rep7.dim
    rep7._images[tok] = dense
    with pytest.raises(DatumInvalid, match="not monomial"):
        _full_datum(rep7)


def test_even_datum_q5(model5):
    even = model5["even"]
    datum = _square_datum(even)
    assert sorted(datum.entries) == [1, 4]
    res = fixed_points(datum)
    assert res.target.stabilizer == frozenset({1, 4})


def test_fixed_points_q9_even_gives_rational_model(model9):
    res = realise_even(3, 2, 1)
    assert res.rep.dim == 5
    K = res.rep.field
    assert res.target.stabilizer == frozenset({1, 2})
    for tok in res.rep.gen_names:
        for row in res.images[tok].rows:
            for e in row:
                assert e.is_rational()
    # relations hold up to sign: spot-check an involution
    from weildescent.finite import TOKEN_W

    w0 = res.images[TOKEN_W]
    sq = w0 * w0 * w0 * w0
    eye = Matrix.identity(K, 5)
    assert sq == eye or sq == eye.scale(K.from_int(-1))


def test_fixed_points_q7_full_over_sqrt_minus7():
    res = realise_full(7, 1, 1)
    assert res.rep.dim == 7
    assert res.target.stabilizer == frozenset({1, 2, 4})
    assert res.transcript["fixed_space_prime_dim"] == 14
    assert res.transcript["round_trip_isomorphism"]


def test_realise_odd_q3_trivial():
    res, info = realise_odd(3, 1, 1)
    assert res.rep.dim == 1
    assert info["schur_index"] == 1
    assert res.target.stabilizer == frozenset({1})


def test_realise_odd_q5_over_biquadratic():
    res, info = realise_odd(5, 1, 1)
    assert info["schur_index"] == 2
    big = res.rep.field
    assert big.n == 20
    assert res.target.stabilizer == frozenset({1, 9})
    # the target is Q[sqrt5, sqrt-5]: contains sqrt(-5) and sqrt(5)
    root = sqrt_minus_p(big, 5)
    assert all(
        apply_aut(GaloisAut(big, u), root) == root for u in res.target.stabilizer
    )
    assert info["norm_lambda"] is not None
    assert res.transcript["round_trip_isomorphism"]
    assert info["obstruction"]["obstruction_present"]


def test_realise_odd_q9_over_sqrt_minus3():
    res, info = realise_odd(3, 2, 1)
    assert info["schur_index"] == 2
    assert res.rep.field.n == 12
    assert res.target.stabilizer == frozenset({1, 7})
    assert res.rep.dim == 4


@pytest.mark.parametrize("p,f,k_a", [(5, 1, 1), (3, 2, 1), (13, 1, 1)])
def test_obstruction_suite(p, f, k_a):
    _, _, rep = build_weil(p, f, 1)
    _, odd = even_odd_split(rep)
    rec = odd_obstruction_check(odd)
    assert rec["k_a"] == k_a
    assert rec["r_tau_power_is_minus_id"]
    assert rec["cm_field"]
    assert rec["norm_search"]["definite_obstruction"]
    assert rec["schur_index"] == 2


def test_lambda_r_tau_norm_identity(model5):
    # (lambda r_tau)^2 = -N(lambda) Id for any lambda
    odd = model5["odd"]
    K = odd.field
    sp = model5["space"]
    fq = sp.fq
    from weildescent.finite import token_m

    alpha = fq.from_int(2)
    r = odd.image(token_m(Matrix(fq, [[alpha]])))
    tau = GaloisAut(K, 4)
    lam = K.zeta() + K.from_int(2)
    scaled = r.scale(lam)
    # (lam r)^2 as a semilinear square: lam tau(lam) r tau(r); r is rational
    prod = scaled * scaled.map(lambda c: apply_aut(tau, c))
    norm = lam * apply_aut(tau, lam)
    expect = Matrix.identity(K, 2).scale(-norm)
    assert prod == expect


def test_norm_solver_solvable_tower():
    K20 = field_make(RATIONAL, 20)
    top = SubfieldTag(K20, [9])
    bottom = SubfieldTag(K20, [3])  # Q[sqrt(-5)]
    lam, tr = solve_norm_equation(K20, top, bottom, K20.from_int(-1), 20)
    gen = tr["tower_generator"]
    assert lam * apply_aut(GaloisAut(K20, gen), lam) == K20.from_int(-1)


def test_norm_solver_cm_tower_fails():
    K20 = field_make(RATIONAL, 20)
    top = SubfieldTag(K20, [9])
    bottom = SubfieldTag(K20, [11, 9])  # Q[sqrt 5], totally real
    with pytest.raises(NotFoundWithinBound) as exc:
        solve_norm_equation(K20, top, bottom, K20.from_int(-1), 20)
    assert exc.value.args[0]["definite_obstruction"]


def test_norm_solver_cyclotomic_cm_tower_fails():
    # Q(zeta_5) / Q[sqrt 5]: the motivating CM failure
    K5 = field_make(RATIONAL, 5)
    with pytest.raises(NotFoundWithinBound) as exc:
        solve_norm_equation(K5, K5.top_tag(), SubfieldTag(K5, [4]), K5.from_int(-1), 20)
    assert exc.value.args[0]["definite_obstruction"]


def test_norm_solver_modular_always_succeeds():
    Km = field_make(MODULAR, 5, 7)
    top = Km.top_tag()
    bottom = SubfieldTag(Km, [4])  # F_49 inside F_7(zeta_5)
    lam, tr = solve_norm_equation(Km, top, bottom, Km.from_int(-1), 20)
    gen = tr["tower_generator"]
    assert lam * apply_aut(GaloisAut(Km, gen), lam) == Km.from_int(-1)


def test_norm_solver_target_plus_one():
    K5 = field_make(RATIONAL, 5)
    lam, tr = solve_norm_equation(
        K5, K5.top_tag(), SubfieldTag(K5, [4]), K5.from_int(1), 5
    )
    gen = tr["tower_generator"]
    assert lam * apply_aut(GaloisAut(K5, gen), lam) == K5.one()


def test_realise_odd_modular():
    res, info = realise_modular(5, 1, 1, 7, "odd")
    assert res.rep.dim == 2
    assert res.target.stabilizer == frozenset({1, 4})
    assert res.transcript["round_trip_isomorphism"]
    Km = res.rep.field
    for tok in res.rep.gen_names:
        for row in res.images[tok].rows:
            for e in row:
                assert subfield_membership(e, res.target)


def _closed_form_entries(rep):
    """The 2'-part datum in closed form: R_u = omega(m_gamma), gamma the
    unique odd-order square root of 1/u in F_p, i.e. (1/u)^((k+1)/2) for k
    the (odd) multiplicative order of 1/u; as monomial forms."""
    from weildescent.finite import token_m
    from weildescent.linalg import monomial_form

    fq = rep.space.fq
    p = fq.p
    out = {}
    for u in _odd_part_exponents(rep.field):
        uinv = pow(u, -1, p)
        k = 1
        while pow(uinv, k, p) != 1:
            k += 1
        assert k % 2 == 1
        gamma = pow(uinv, (k + 1) // 2, p)
        assert gamma * gamma % p == uinv
        a = Matrix.identity(fq, rep.space.m).scale(fq.from_int(gamma))
        out[u] = monomial_form(rep.image(token_m(a)))
    return out


@pytest.mark.parametrize(
    "p,part", [(7, "full"), (13, "full"), (11, "even"), (11, "odd")]
)
def test_datum_matches_closed_form(p, part):
    # the chain R_{gen^(j+1)} = R_{gen^j} . sigma_{gen^j}(R_gen) from the
    # odd-order root reproduces the closed form entry by entry
    block = _weil_part(p, part)
    if part == "full":
        datum = _full_datum(block)
    else:
        # q = 11 = 3 mod 4: the square stabilizer is the 2'-part
        assert sorted(_square_stabilizer(block)) == _odd_part_exponents(block.field)
        datum = _square_datum(block)
    assert datum.entries == _closed_form_entries(block)


def test_modular_even_p11_needs_no_norm():
    # ord = 5: the odd-order root has alpha^5 = 1, so r0^5 = Id and the
    # datum needs no norm repair
    res, info = realise_modular(11, 1, 1, 3, "even")
    assert info["norm_lambda"] == res.rep.field.one().to_json()
    assert info["norm_transcript"] is None
    assert res.transcript["round_trip_isomorphism"]


@pytest.mark.parametrize(
    "p,part,ell", [(7, "full", None), (5, "even", None), (13, "even", 3)],
    ids=["full-7", "even-5", "even-13-ell3"],
)
def test_fixed_points_basis_is_greedy_selection(p, part, ell):
    # the oracle: walk the prime-field fixed vectors in order and keep each
    # one whose fold into K^N is independent over K of those already kept
    from weildescent.descent import _fixed_space

    block = _weil_part(p, part, ell)
    datum = _full_datum(block) if part == "full" else _square_datum(block)
    K, N, dk = block.field, block.dim, block.field.degree
    selected = []
    for vec in _fixed_space(K, N, datum.entries):
        cand = [K.from_coeffs(vec[i * dk : (i + 1) * dk]) for i in range(N)]
        if Matrix.from_cols(K, selected + [cand]).rank() == len(selected) + 1:
            selected.append(cand)
    assert len(selected) == N
    assert fixed_points(datum).basis == Matrix.from_cols(K, selected)


def _all_entries_fixed_space(K, N, entries):
    """The fixed space as one nullspace over the prime field as a degree-1
    CycloNum field, with a block of rows for every non-identity entry (a
    monomial form: column j nonzero only at row perm[j])."""
    from weildescent.fields import prime_field
    from weildescent.linalg import kernel_basis

    P = prime_field(K.char)
    dk = K.degree

    def coords(x):
        return [P.from_fraction(f) for f in x.as_fractions()]

    smat = {
        u: Matrix.from_cols(P, [coords(apply_aut(GaloisAut(K, u), K.zeta_pow(j))) for j in range(dk)])
        for u in entries
    }
    rows = []
    for u, (perm, vals) in entries.items():
        if u == 1:
            continue
        block = Matrix.zeros(P, N * dk, N * dk)
        for j, (i, c) in enumerate(zip(perm, vals)):
            mul = Matrix.from_cols(P, [coords(c * K.zeta_pow(b)) for b in range(dk)])
            piece = mul * smat[u]
            for a in range(dk):
                for b in range(dk):
                    block.rows[i * dk + a][j * dk + b] = piece.rows[a][b]
        rows.extend((block - Matrix.identity(P, N * dk)).rows)
    return [[e.as_fraction() for e in v] for v in kernel_basis(P, rows, N * dk)]


def _odd_datum_zeta20():
    "The datum of realise_odd at p = 5: the odd part embedded into Q(zeta_20)."
    from weildescent.descent import _embed_rep

    odd = _weil_part(5, "odd")
    big = field_make(RATIONAL, 20)
    root = sqrt_minus_p(big, 5)
    stab = [
        w
        for w in big.galois_exponents()
        if w % 5 in _square_stabilizer(odd) and apply_aut(GaloisAut(big, w), root) == root
    ]
    return descent_datum(_embed_rep(odd, big), SubfieldTag(big, stab), 20)[0]


@pytest.mark.parametrize(
    "case", ["full-7", "even-5", "odd-13-ell3", "odd-5-zeta20"]
)
def test_fixed_space_equals_all_entries_nullspace(case):
    # the generator rows in native numbers give the reduced-echelon kernel
    # basis of the system with a block for every entry, vector for vector
    from fractions import Fraction

    from weildescent.descent import _fixed_space

    if case == "full-7":
        datum = _full_datum(_weil_part(7, "full"))
    elif case == "even-5":
        datum = _square_datum(_weil_part(5, "even"))
    elif case == "odd-13-ell3":
        datum = _square_datum(_weil_part(13, "odd", 3))
    else:
        datum = _odd_datum_zeta20()
    datum.validate()
    K, N = datum.rep.field, datum.rep.dim
    new = _fixed_space(K, N, datum.entries)
    assert [[Fraction(x) for x in v] for v in new] == _all_entries_fixed_space(
        K, N, datum.entries
    )


@pytest.mark.parametrize("stab", [[1, 3, 7, 9, 11, 13, 17, 19], [1, 9, 11, 19]])
def test_subfield_q_basis_noncyclic_stabilizers(stab):
    # Z/2 x Z/4 and Z/2 x Z/2 inside (Z/20)^x: two generators each
    from weildescent.descent import _subfield_q_basis

    K = field_make(RATIONAL, 20)
    tag = SubfieldTag(K, stab)
    assert len(tag.gens) == 2
    one = [0], [K.one()]
    oracle = _all_entries_fixed_space(K, 1, dict.fromkeys(tag.stabilizer, one))
    basis = _subfield_q_basis(tag)
    assert basis == [K.from_coeffs(v) for v in oracle]
    assert len(basis) == tag.degree_over_prime()
    for x in basis:
        assert all(apply_aut(GaloisAut(K, u), x) == x for u in tag.stabilizer)


@pytest.mark.parametrize(
    "realise,args",
    [
        (realise_full, (5, 1, 1)),
        (realise_odd, (5, 1, 1)),
        (realise_even, (7, 1, 1)),
        (realise_odd, (13, 1, 1)),
        (realise_odd, (5, 1, 2)),
        (realise_odd, (3, 2, 1)),
    ],
    ids=["full-5", "odd-5", "even-7", "odd-13", "odd-5-m2", "odd-3-f2"],
)
def test_descended_denominators_are_one_and_p(realise, args):
    # the descended models are defined over Z[zeta][1/p]: every entry of
    # every generator image has denominator 1 or p, and both occur
    res = realise(*args)
    res = res[0] if isinstance(res, tuple) else res
    dens = {e.den for img in res.images.values() for row in img.rows for e in row}
    assert dens == {1, args[0]}


def _weil_part(p, part, ell=None):
    _, _, rep = build_weil(p, 1, 1, ell=ell)
    even, odd = even_odd_split(rep)
    return {"full": rep, "even": even, "odd": odd}[part]


@pytest.mark.parametrize(
    "realise,args,part,ell",
    [
        (realise_full, (7, 1, 1), "full", None),
        (realise_even, (7, 1, 1), "even", None),
        (realise_odd, (5, 1, 1), "odd", None),
        (realise_modular, (13, 1, 1, 3, "even"), "even", 3),
    ],
    ids=["full-7", "even-7", "odd-5", "even-13-ell3"],
)
def test_descended_model_isomorphic_to_original(realise, args, part, ell):
    # the reference for the basis certificate inside fixed_points: an
    # independent intertwiner solve between the descended images, read over
    # K, and a freshly built copy of the part (embedded into K if needed)
    from weildescent.descent import _embed_rep

    res = realise(*args)
    res = res[0] if isinstance(res, tuple) else res
    original = _weil_part(args[0], part, ell)
    if original.field != res.rep.field:
        original = _embed_rep(original, res.rep.field)
    T = iso_test(res.to_marked_rep(), original)
    assert T is not None and T.is_invertible()


def test_rank_deficiency_detected(model5):
    # a non-datum (wrong gamma) must fail validation or rank
    odd = model5["odd"]
    K = odd.field
    from weildescent.finite import token_m
    from weildescent.linalg import monomial_form

    sp = model5["space"]
    fq = sp.fq
    bad = {
        1: monomial_form(Matrix.identity(K, 2)),
        4: monomial_form(odd.image(token_m(Matrix(fq, [[fq.from_int(3)]]))).scale(K.zeta())),
    }
    datum = DescentDatum(odd, bad, SubfieldTag(K, [4]))
    with pytest.raises((DatumInvalid, RankDeficiency)):
        fixed_points(datum)


def test_descended_even_q9_projective_relations():
    # generator relations of the descended rational model hold up to +-1
    from weildescent.finite import token_m, fq_field
    res = realise_even(3, 2, 1)
    fq = fq_field(3, 2)
    K = res.rep.field
    els = [e for e in fq.elements() if not e.is_zero()]
    for a in els[:4]:
        for b in els[:4]:
            ma = res.images[token_m(Matrix(fq, [[a]]))]
            mb = res.images[token_m(Matrix(fq, [[b]]))]
            mab = res.images[token_m(Matrix(fq, [[a * b]]))]
            prod = ma * mb
            assert prod == mab or prod == mab.scale(K.from_int(-1))


def test_realise_odd_p11_easy_branch():
    res, info = realise_odd(11, 1, 1)
    assert info["schur_index"] == 1
    # target = L = Q[sqrt(-11)]: fixed field of the 2'-part {1,3,4,5,9}
    assert res.target.stabilizer == frozenset({1, 3, 4, 5, 9})
    assert res.rep.dim == 5


def test_realise_even_modular():
    res, info = realise_modular(5, 1, 1, 7, part="even")
    assert res.rep.dim == 3
    assert res.target.stabilizer == frozenset({1, 4})  # F_49
    assert res.transcript["round_trip_isomorphism"]


def test_descended_odd_q5_projective_relations():
    # the 2x2 matrices over Q[sqrt5, sqrt-5] form a projective model of
    # Sp(2,F_5) with +-1 multiplier: an end-to-end check independent of
    # the round-trip certificate
    import random

    from weildescent.finite import SymplecticSpace, fq_field, sp_enumerate, sp_factor

    res, _ = realise_odd(5, 1, 1)
    big = res.rep.field
    sp = SymplecticSpace(fq_field(5, 1), 1)

    def model_op(g):
        out = Matrix.identity(big, 2)
        for tok in sp_factor(g):
            out = out * res.images[tok]
        return out

    els = list(sp_enumerate(sp, 1000))
    rng = random.Random(11)
    for _ in range(25):
        g, h = rng.choice(els), rng.choice(els)
        prod = model_op(g) * model_op(h)
        target = model_op(g * h)
        assert prod == target or prod == target.scale(big.from_int(-1))


def _non_generator_case(kind):
    """(derived rep, key, check) on Sp(4, F_p) with key = M(2 . I_2), which
    is not a declared generator; check(image) tests the image against the
    parent's image of the same key under the derivation's transformation."""
    from weildescent.descent import _embed_rep
    from weildescent.fields import embed
    from weildescent.finite import token_m
    from weildescent.rationality import restrict_scalars

    p = 5 if kind == "descended" else 3
    _, space, rep = build_weil(p, 1, 2)
    fq = space.fq
    key = token_m(Matrix.identity(fq, 2).scale(fq.from_int(2)))
    assert key not in rep.gen_names
    K = rep.field
    if kind == "conjugate":
        sigma = GaloisAut(K, 2)
        return rep.conjugate(sigma), key, lambda img: img == rep.image(key).map(
            lambda c: apply_aut(sigma, c)
        )
    if kind == "embedded":
        _, odd = even_odd_split(rep)
        big = field_make(RATIONAL, 4 * p)
        return _embed_rep(odd, big), key, lambda img: img == odd.image(key).map(
            lambda c: embed(c, big), field=big
        )
    if kind == "restriction":
        tag = K.full_tag()
        theta = K.zeta()
        d = len(tag.stabilizer)

        def check(img):
            # column (j, k) holds the R-coordinates of A[i][j] theta^k on theta^l
            A = rep.image(key)
            for i in range(rep.dim):
                for j in range(rep.dim):
                    for k in range(d):
                        acc = K.zero()
                        for l in range(d):
                            c = img.rows[i * d + l][j * d + k]
                            assert subfield_membership(c, tag)
                            acc = acc + c * theta**l
                        if acc != A.rows[i][j] * theta**k:
                            return False
            return True

        return restrict_scalars(rep, tag), key, check
    res, _ = realise_odd(p, 1, 2)

    def check(img):
        # U . D(key) = rho(key) . U with the entries of D(key) in the target
        inside = all(subfield_membership(c, res.target) for row in img.rows for c in row)
        return inside and res.basis * img == res.rep.image(key) * res.basis

    return res.to_marked_rep(), key, check


@pytest.mark.parametrize("kind", ["conjugate", "embedded", "restriction", "descended"])
def test_derived_rep_images_any_element(kind):
    derived, key, check = _non_generator_case(kind)
    assert check(derived.image(key))


@pytest.fixture
def elimination_calls(monkeypatch):
    "Counts of the Matrix.rref, Matrix.inverse and Matrix.det calls made from here on."
    calls = dict.fromkeys(("rref", "inverse", "det"), 0)
    for name in calls:

        def counted(self, *args, _name=name, _honest=getattr(Matrix, name)):
            calls[_name] += 1
            return _honest(self, *args)

        monkeypatch.setattr(Matrix, name, counted)
    return calls


@pytest.mark.parametrize(
    "command",
    [
        "descend --part odd --p 13",
        "descend --part full --p 7",
        "descend --part odd --p 5 --m 2",
        "descend --part even --p 13 --ell 3",
    ],
)
def test_descend_eliminates_once_over_k(command, elimination_calls, capsys):
    # U and U^-1 come from one rref of [folded fixed vectors | I]
    from weildescent.cli import run

    assert run(command.split()) == 0
    capsys.readouterr()
    assert elimination_calls == {"rref": 1, "inverse": 0, "det": 0}


def test_span_coordinates_eliminates_once(elimination_calls):
    from weildescent.linalg import span_coordinates

    K = field_make(RATIONAL, 3)
    one, z = K.one(), K.zero()
    basis = [Matrix.identity(K, 2), Matrix(K, [[z, one], [K.zeta(), z]])]
    span_coordinates(basis)
    assert elimination_calls == {"rref": 1, "inverse": 0, "det": 0}


def test_descend_checks_equivariance_on_three_generators(monkeypatch, capsys):
    # Gamma = {1, 3, 9} = <3> in Gal(F_3[zeta_13]/F_3), and the equivariance
    # is checked at sigma_3 on M(g), N(1) and W0 only: at most |Gamma| . 3
    # commutations
    from weildescent import descent
    from weildescent.cli import run

    calls = []
    honest = descent.twisted_commutes

    def counted(R, sigma, A):
        calls.append(sigma.exponent)
        return honest(R, sigma, A)

    monkeypatch.setattr(descent, "twisted_commutes", counted)
    assert run(["descend", "--part", "even", "--p", "13", "--ell", "3"]) == 0
    capsys.readouterr()
    assert calls == [3, 3, 3]


def test_descend_tests_membership_on_certifying_images(monkeypatch):
    # every other descended image is a product of these along its word
    from weildescent import descent
    from weildescent.rationality import certifying_names

    tested = []
    honest = descent.subfield_membership

    def recorded(x, tag):
        tested.append(x)
        return honest(x, tag)

    monkeypatch.setattr(descent, "subfield_membership", recorded)
    result, _ = realise_modular(13, 1, 1, 3, "even")
    certifying = certifying_names(result.rep)
    assert len(certifying) == 3 < len(result.rep.gen_names)
    expected = [
        e
        for g in result.rep.gen_names
        if g in certifying
        for row in result.images[g].rows
        for e in row
    ]
    assert tested == expected


def test_monomial_images_move_the_rows_of_u(monkeypatch):
    # rho(g) U for a monomial rho(g) is built by monomial_times: the only
    # products are U U^-1, W0 U and U^-1 (rho(g) U), none with a monomial
    # left factor
    from weildescent.linalg import monomial_form

    left_monomial = []
    honest = Matrix.__mul__

    def recorded(a, b):
        left_monomial.append(monomial_form(a) is not None)
        return honest(a, b)

    monkeypatch.setattr(Matrix, "__mul__", recorded)
    result, _ = realise_modular(13, 1, 1, 3, "even")
    assert not any(left_monomial)
    assert len(left_monomial) == len(result.rep.gen_names) + 2
