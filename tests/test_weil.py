"""The Schroedinger model: exact Heisenberg matrices, Weil generator
images, the measured metaplectic cocycle, even/odd split, and the twisting
identities."""

import random

import pytest

from weildescent.errors import CocycleViolation, IdentityFailure
from weildescent.fields import GaloisAut, apply_aut, field_make, MODULAR, RATIONAL
from weildescent.finite import (
    HeisElem,
    SpElement,
    SymplecticSpace,
    TOKEN_W,
    char_twist,
    fq_field,
    legendre,
    psi_standard,
    sp_classes,
    sp_enumerate,
    sp_factor,
    sp_order,
    sp_sample,
    token_m,
    token_n,
    token_to_sp,
)
from weildescent.linalg import Matrix, intertwiner_space
from weildescent.weil import (
    _tree_images,
    class_traces,
    cocycle_certificate,
    cocycle_value,
    even_odd_split,
    heisenberg_hom_check,
    heisenberg_rep,
    intertwining_check,
    parity_matrix,
    rho_matrix,
    semilinearity_check,
    weil_op,
    weil_rep,
    weil_twist_check,
)


def test_heisenberg_exhaustive_q3(model3):
    pairs = heisenberg_hom_check(model3["heis"])
    assert pairs == 27 * 27


def test_rho_translation_is_cyclic_shift(model3):
    # rho(f1, 0) permutes the three Y-points cyclically
    sp, psi = model3["space"], model3["psi"]
    fq = sp.fq
    h = HeisElem(sp, (fq.zero(), fq.one()), fq.zero())
    m = rho_matrix(psi, sp, h)
    for row in m.rows:
        nz = [e for e in row if not e.is_zero()]
        assert len(nz) == 1 and nz[0] == psi.coeff.one()
    assert not m.is_identity() and (m * m * m).is_identity()


def test_rho_modulation_is_diagonal(model3):
    sp, psi = model3["space"], model3["psi"]
    fq = sp.fq
    h = HeisElem(sp, (fq.one(), fq.zero()), fq.zero())
    m = rho_matrix(psi, sp, h)
    diag = [m.rows[i][i] for i in range(3)]
    assert all(
        m.rows[i][j].is_zero() for i in range(3) for j in range(3) if i != j
    )
    assert sorted(str(d) for d in diag) == sorted(
        str(psi.coeff.zeta_pow(k)) for k in range(3)
    )


def test_rho_central_character(model5):
    sp, psi = model5["space"], model5["psi"]
    fq = sp.fq
    for t in fq.elements():
        h = HeisElem(sp, sp.zero_vector(), t)
        assert rho_matrix(psi, sp, h) == Matrix.identity(psi.coeff, 5).scale(psi(t))


def test_m_image_examples(model3):
    w = model3["weil"]
    sp = model3["space"]
    fq = sp.fq
    eye = w.image(token_m(Matrix(fq, [[fq.one()]])))
    assert eye.is_identity()
    m2 = w.image(token_m(Matrix(fq, [[fq.from_int(2)]])))
    # legendre(2 mod 3) = -1: signed permutation with sign -1
    nz = [e for row in m2.rows for e in row if not e.is_zero()]
    assert all(e == -w.field.one() for e in nz)


def _dense_token_image(psi, space, token):
    """The Weil token images from the model formulas, entry by entry on
    dense matrices: the oracle of the phase form and its expansion."""
    fq, m, K = space.fq, space.m, psi.coeff
    pts = space.y_points()
    n = len(pts)
    out = Matrix.zeros(K, n, n)
    if token[0] == "M":
        a = Matrix(fq, [list(r) for r in token[1]])
        sign = K.from_int(legendre(a.det()))
        ainvt = a.inverse().transpose()
        for col, y0 in enumerate(pts):
            out.rows[space.vector_index(tuple(ainvt.mul_vec(list(y0))))][col] = sign
        return out
    half = space.half
    if token[0] == "N":
        b = Matrix(fq, [list(r) for r in token[1]])
        for i, y in enumerate(pts):
            quad = fq.zero()
            for u, v in zip(y, b.mul_vec(list(y))):
                quad = quad + u * v
            out.rows[i][i] = psi(half * quad)
        return out
    assert token == TOKEN_W
    gauss = K.zero()
    for u in fq.elements():
        gauss = gauss + psi(half * u * u)
    coeff = gauss.inv() ** m
    for col, y0 in enumerate(pts):
        for row, y in enumerate(pts):
            dot = fq.zero()
            for u, v in zip(y, y0):
                dot = dot + u * v
            out.rows[row][col] = coeff * psi(-dot)
    return out


@pytest.mark.parametrize(
    "p, f, m, ell, twist",
    [
        (3, 1, 1, None, 1), (5, 1, 1, None, 1), (3, 2, 1, None, 1), (3, 1, 2, None, 1),
        (5, 1, 1, None, 2), (7, 1, 1, 29, 1),
    ],
    ids=["q3", "q5", "q9", "q3-m2", "q5-twist2", "q7-F29"],
)
def test_declared_token_images_match_the_model_formulas(p, f, m, ell, twist):
    fq = fq_field(p, f)
    space = SymplecticSpace(fq, m)
    K = field_make(RATIONAL, p) if ell is None else field_make(MODULAR, p, ell)
    psi = char_twist(psi_standard(fq, K), fq.from_int(twist))
    w = weil_rep(psi, space)
    for tok in w.gen_names:
        assert w.image(tok) == _dense_token_image(psi, space, tok), tok


def test_undeclared_token_images_match_the_model_formulas():
    # seeded M(a) and N(b) outside the declared generators of Sp(4, F_3),
    # the tokens sp_factor uses at m = 2
    from weildescent.weil import weil_generator_image

    fq = fq_field(3, 1)
    space = SymplecticSpace(fq, 2)
    psi = psi_standard(fq, field_make(RATIONAL, 3))
    declared = set(weil_rep(psi, space).gen_names)
    rng = random.Random(20)
    toks = []
    while len(toks) < 20:
        e = [fq.from_int(rng.randrange(3)) for _ in range(4)]
        if len(toks) % 2:
            tok = token_n(Matrix(fq, [[e[0], e[1]], [e[1], e[2]]]))
        else:
            a = Matrix(fq, [e[:2], e[2:]])
            if a.det().is_zero():
                continue
            tok = token_m(a)
        if tok not in declared and tok not in toks:
            toks.append(tok)
    for tok in toks:
        assert weil_generator_image(psi, space, tok) == _dense_token_image(psi, space, tok), tok


def test_w_image_squared_is_center_up_to_sign(model5):
    w = model5["weil"]
    sp = model5["space"]
    fq = sp.fq
    w0 = w.image(TOKEN_W)
    minus = w.image(token_m(Matrix(fq, [[fq.from_int(-1)]])))
    sq = w0 * w0
    assert sq == minus or sq == minus.scale(w.field.from_int(-1))


@pytest.mark.parametrize("fixture", ["model3", "model5", "model9"])
def test_intertwining(fixture, request):
    model = request.getfixturevalue(fixture)
    assert intertwining_check(model["weil"], model["heis"])


def test_stone_von_neumann_commutant(model3, model5, model9):
    for model in (model3, model5, model9):
        rep = model["heis"]
        comm = intertwiner_space(rep.gens_images(), rep.gens_images())
        assert len(comm) == 1


def _commutant_dim(hrep):
    "Dimension of the commutant of rho: premise (b) of the column certificate."
    return len(intertwiner_space(hrep.gens_images(), hrep.gens_images()))


def test_cocycle_exhaustive_sp2f3(model3):
    sp = model3["space"]
    els = list(sp_enumerate(sp, 100))
    pairs = [(a, b) for a in els for b in els]
    cert = cocycle_certificate(model3["weil"], pairs, _commutant_dim(model3["heis"]))
    assert cert.all_pm_one()
    assert cert.summary()["pairs"] == 576


def test_cocycle_seeded_sp2f5(model5):
    sp = model5["space"]
    els = list(sp_enumerate(sp, 1000))
    rng = random.Random(0)
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(200)]
    cert = cocycle_certificate(model5["weil"], pairs, _commutant_dim(model5["heis"]))
    assert cert.all_pm_one()


def test_cocycle_inverse_pairs(model5):
    sp = model5["space"]
    w = model5["weil"]
    els = list(sp_enumerate(sp, 1000))
    rng = random.Random(1)
    K = w.field
    for g in rng.sample(els, 10):
        lam = cocycle_value(w, g, g.inverse())
        assert lam in (1, -1)
        prod = weil_op(w, g) * weil_op(w, g.inverse())
        assert prod == Matrix.identity(K, w.dim).scale(K.from_int(lam))


def test_cocycle_deterministic(model5):
    sp = model5["space"]
    els = list(sp_enumerate(sp, 1000))
    rng1, rng2 = random.Random(5), random.Random(5)
    p1 = [(rng1.choice(els), rng1.choice(els)) for _ in range(30)]
    p2 = [(rng2.choice(els), rng2.choice(els)) for _ in range(30)]
    dim = _commutant_dim(model5["heis"])
    c1 = cocycle_certificate(model5["weil"], p1, dim)
    c2 = cocycle_certificate(model5["weil"], p2, dim)
    assert [x[2] for x in c1.pairs] == [x[2] for x in c2.pairs]


def _dense_lambda(rep, ops, g, h):
    """lambda with omega~(g) omega~(h) = lambda omega~(gh) from the dense
    products of weil_op (cached in ops by matrix key), or None."""

    def op(x):
        key = x.mat.to_key()
        if key not in ops:
            ops[key] = weil_op(rep, x)
        return ops[key]

    t, tprime = op(g) * op(h), op(g * h)
    for lam in (1, -1):
        if t == tprime.scale(rep.field.from_int(lam)):
            return lam
    return None


def _oracle_case(case):
    "(rep, pairs) on which the column reading meets the dense oracle."
    fq3, fq5 = fq_field(3, 1), fq_field(5, 1)
    if case == "Sp(2,F_3)":
        sp = SymplecticSpace(fq3, 1)
        els = list(sp_enumerate(sp, 100))
        return weil_rep(psi_standard(fq3, field_make(RATIONAL, 3)), sp), [
            (a, b) for a in els for b in els
        ]
    twist = 1
    if case == "Sp(4,F_3)":
        sp, K, seed, npairs = SymplecticSpace(fq3, 2), field_make(RATIONAL, 3), 12, 20
    elif case == "Sp(2,F_5)":
        sp, K, seed, npairs = SymplecticSpace(fq5, 1), field_make(RATIONAL, 5), 11, 200
    elif case == "Sp(2,F_9)":
        sp, K, seed, npairs = SymplecticSpace(fq_field(3, 2), 1), field_make(RATIONAL, 3), 15, 40
    elif case == "Sp(2,F_5) twist 2":
        sp, K, seed, npairs = SymplecticSpace(fq5, 1), field_make(RATIONAL, 5), 16, 60
        twist = 2
    elif case == "Sp(4,F_3) over F_11[zeta_3]":  # 11 = 2 mod 3: zeta_3 has degree 2
        sp, K, seed, npairs = SymplecticSpace(fq3, 2), field_make(MODULAR, 3, 11), 18, 20
    elif case == "Sp(4,F_3) e < 0":
        sp, K, seed, npairs = SymplecticSpace(fq3, 2), field_make(RATIONAL, 3), 19, 60
    elif case == "F_29[zeta_7]":  # 29 = 1 mod 7: zeta_7 lies in F_29, degree 1
        sp, K, seed, npairs = SymplecticSpace(fq_field(7, 1), 1), field_make(MODULAR, 7, 29), 17, 40
    else:  # the modular model over F_7[zeta_5]
        sp, K, seed, npairs = SymplecticSpace(fq5, 1), field_make(MODULAR, 5, 7), 13, 60
    rng = random.Random(seed)
    pairs = [(sp_sample(sp, rng), sp_sample(sp, rng)) for _ in range(npairs)]
    if case == "Sp(4,F_3) e < 0":
        # the pairs whose product's word has more W0 tokens than the words of
        # g and h together: the power of S^m multiplies the pair's side
        def w0_count(g):
            return sp_factor(g).count(TOKEN_W)

        pairs = [(g, h) for g, h in pairs if w0_count(g) + w0_count(h) < w0_count(g * h)]
        assert len(pairs) >= 5
    psi = char_twist(psi_standard(sp.fq, K), sp.fq.from_int(twist))
    return weil_rep(psi, sp), pairs


@pytest.mark.parametrize(
    "case",
    [
        "Sp(2,F_3)", "Sp(2,F_5)", "Sp(4,F_3)", "F_7[zeta_5]", "Sp(2,F_9)", "Sp(2,F_5) twist 2",
        "F_29[zeta_7]", "Sp(4,F_3) over F_11[zeta_3]", "Sp(4,F_3) e < 0",
    ],
)
def test_column_cocycle_matches_dense_oracle(case):
    rep, pairs = _oracle_case(case)
    ops = {}
    for g, h in pairs:
        assert cocycle_value(rep, g, h) == _dense_lambda(rep, ops, g, h)


def _patch_phases(monkeypatch, change):
    """Replace weil.token_phases by change(honest, psi, space, tok), honest
    being the unpatched function; the dense images expand the patched forms."""
    from weildescent import weil

    honest = weil.token_phases
    monkeypatch.setattr(
        weil, "token_phases", lambda psi_, space, tok: change(honest, psi_, space, tok)
    )


def test_scaled_w_intertwines_but_fails_the_cocycle(model5, monkeypatch):
    # zeta_p . W0 still intertwines rho, but omega~(W0) omega~(W0) = zeta_p^2
    # omega~(-1) is no longer +-omega~(W0^2)
    sp, psi, heis = model5["space"], model5["psi"], model5["heis"]

    def scaled(honest, psi_, space, tok):
        c, cols = honest(psi_, space, tok)
        return (c * psi_.values[1], cols) if tok == TOKEN_W else (c, cols)

    honest_w0 = weil_rep(psi, sp).image(TOKEN_W)
    _patch_phases(monkeypatch, scaled)
    w = weil_rep(psi, sp)
    assert w.image(TOKEN_W) == honest_w0.scale(psi.values[1])
    assert intertwining_check(w, heis)
    w0 = token_to_sp(sp, TOKEN_W)
    rng = random.Random(14)
    pairs = [(sp_sample(sp, rng), sp_sample(sp, rng)) for _ in range(5)] + [(w0, w0)]
    with pytest.raises(CocycleViolation):
        cocycle_certificate(w, pairs, _commutant_dim(heis))
    with pytest.raises(CocycleViolation):
        cocycle_value(w, w0, w0)


def test_cocycle_checks_the_word_of_each_element(model5, monkeypatch):
    from weildescent import weil

    # the word of g followed by W0 evaluates to g W0, not to g
    sp = model5["space"]
    w0 = token_to_sp(sp, TOKEN_W)
    honest = weil.sp_word
    monkeypatch.setattr(weil, "sp_word", lambda space, x: honest(space, x) + [TOKEN_W])
    with pytest.raises(IdentityFailure, match="word"):
        cocycle_certificate(model5["weil"], [(w0, w0)], _commutant_dim(model5["heis"]))


def test_cocycle_needs_a_nonzero_column(model5, monkeypatch):
    # an N(1) image with a zero entry at e_0: omega~(g) e_0 = 0 on both sides,
    # which would read as lambda = +1 without premise (d)
    sp, psi = model5["space"], model5["psi"]
    fq = sp.fq
    tok = token_n(Matrix(fq, [[fq.one()]]))

    def dropped(honest, psi_, space, t):
        c, cols = honest(psi_, space, t)
        return (c, [[]] + cols[1:]) if t == tok else (c, cols)

    _patch_phases(monkeypatch, dropped)
    w = weil_rep(psi, sp)
    assert w.image(tok).rows[0][0].is_zero()
    g = token_to_sp(sp, tok)
    with pytest.raises(IdentityFailure, match="e_0 = 0"):
        cocycle_value(w, g, g * g.inverse())


def test_cocycle_refuses_a_scalar_on_m_or_n(model5, monkeypatch):
    # a word's scalar is read as a power of the W0 scalar alone, so an N
    # image with a scalar of its own is refused, not misread
    sp, psi = model5["space"], model5["psi"]
    fq = sp.fq
    tok = token_n(Matrix(fq, [[fq.one()]]))

    def scaled(honest, psi_, space, t):
        c, cols = honest(psi_, space, t)
        return (c * psi_.values[1], cols) if t == tok else (c, cols)

    _patch_phases(monkeypatch, scaled)
    g = token_to_sp(sp, tok)
    with pytest.raises(IdentityFailure, match="scalar"):
        cocycle_value(weil_rep(psi, sp), g, g)


def test_cocycle_needs_a_scalar_commutant(model5, monkeypatch):
    # with a larger commutant Schur's lemma says nothing: no column is read
    from weildescent import weil

    def unread(space, x):
        raise AssertionError("a column was read")

    monkeypatch.setattr(weil, "sp_word", unread)
    w0 = token_to_sp(model5["space"], TOKEN_W)
    with pytest.raises(IdentityFailure, match="commutant"):
        cocycle_certificate(model5["weil"], [(w0, w0)], 2)


def test_undeclared_tokens_are_checked_at_rank_2(monkeypatch):
    # at m = 2, sp_factor uses M(a) and N(b) outside the declared generators;
    # a wrong image of one of them is caught before its column is used
    fq = fq_field(3, 1)
    sp = SymplecticSpace(fq, 2)
    psi = psi_standard(fq, field_make(RATIONAL, 3))
    w = weil_rep(psi, sp)
    one = fq.one()
    tok = token_m(Matrix(fq, [[one, one], [one, fq.from_int(2)]]))
    assert tok not in w.gen_names
    g = token_to_sp(sp, tok)
    assert cocycle_value(w, g, g) == 1

    def identity(honest, psi_, space, t):
        c, cols = honest(psi_, space, t)
        if t == tok:
            c, cols = psi_.coeff.one(), [[(j, 1, 0)] for j in range(len(cols))]
        return c, cols

    _patch_phases(monkeypatch, identity)
    assert intertwining_check(w, heisenberg_rep(psi, sp))  # declared generators only
    with pytest.raises(IdentityFailure, match="intertwining fails"):
        cocycle_value(w, g, g)


@pytest.mark.parametrize(
    "fixture,dims",
    [("model3", (2, 1)), ("model5", (3, 2)), ("model9", (5, 4))],
)
def test_even_odd_dims(fixture, dims, request):
    model = request.getfixturevalue(fixture)
    assert (model["even"].dim, model["odd"].dim) == dims


def test_even_odd_projectors(model5):
    w = model5["weil"]
    sp = model5["space"]
    K = w.field
    S = parity_matrix(sp, K)
    half = K.from_fraction("1/2")
    Pp = (Matrix.identity(K, 5) + S).scale(half)
    Pm = (Matrix.identity(K, 5) - S).scale(half)
    assert (Pp + Pm).is_identity()
    assert Pp * Pp == Pp and Pm * Pm == Pm
    for tok in w.gen_names:
        img = w.image(tok)
        assert Pp * img == img * Pp
        assert Pm * img == img * Pm


def test_block_images_respect_products(model5):
    # block of a product = product of blocks, on a sample of words
    sp = model5["space"]
    w, even, odd = model5["weil"], model5["even"], model5["odd"]
    els = list(sp_enumerate(sp, 1000))
    rng = random.Random(2)
    for _ in range(5):
        g, h = rng.choice(els), rng.choice(els)
        for block in (even, odd):
            lhs = weil_op(block, g) * weil_op(block, h)
            lam = cocycle_value(w, g, h)
            rhs = weil_op(block, g * h).scale(block.field.from_int(lam))
            assert lhs == rhs


@pytest.mark.parametrize("fixture", ["model3", "model5", "model9"])
def test_semilinearity(fixture, request):
    model = request.getfixturevalue(fixture)
    K = model["psi"].coeff
    for u in K.galois_exponents():
        if u != 1:
            assert semilinearity_check(model["weil"], GaloisAut(K, u))


@pytest.mark.parametrize("fault", ["scalar", "exponent"])
def test_semilinearity_detects_a_wrong_conjugate(fault, model3, monkeypatch):
    # the psi^2 model with the scalar of W0 negated, or one exponent of N(1)
    # shifted, is no longer the Galois conjugate sigma_2 of the psi model
    psi, sp = model3["psi"], model3["space"]
    fq = sp.fq
    n1 = token_n(Matrix(fq, [[fq.one()]]))

    def corrupted(honest, psi_, space, tok):
        c, cols = honest(psi_, space, tok)
        if psi_.twist == fq.from_int(2):
            if fault == "scalar" and tok == TOKEN_W:
                c = -c
            if fault == "exponent" and tok == n1:
                ((i, s, k),) = cols[1]
                cols = [cols[0], [(i, s, (k + 1) % psi_.coeff.n)]] + cols[2:]
        return c, cols

    _patch_phases(monkeypatch, corrupted)
    with pytest.raises(IdentityFailure, match="semilinearity fails"):
        semilinearity_check(model3["weil"], GaloisAut(psi.coeff, 2))


def test_twist_identities_q5(model5):
    psi, sp = model5["psi"], model5["space"]
    fq = sp.fq
    for c in (2, 3, 4):
        report = weil_twist_check(psi, sp, fq.from_int(c))
        assert all(report.values())


@pytest.mark.parametrize("p, f", [(3, 1), (5, 1)])
def test_twist_identities_m2(p, f):
    fq = fq_field(p, f)
    sp = SymplecticSpace(fq, 2)
    psi = psi_standard(fq, field_make(RATIONAL, p))
    for g in fq.elements()[1:]:
        report = weil_twist_check(psi, sp, g)
        assert report["m_identity"] and report["n_identity"] and all(report.values())


def test_twist_check_catches_corrupted_n_image_m2(monkeypatch):
    # only the twisted model psi^2 gets a wrong N image: neither the W0
    # identity nor the square twist (through psi^4 = psi) reads it
    fq = fq_field(3, 1)
    sp = SymplecticSpace(fq, 2)
    psi = psi_standard(fq, field_make(RATIONAL, 3))
    gamma = fq.from_int(2)

    def corrupted(honest, psi_, space, token):
        c, cols = honest(psi_, space, token)
        if token[0] == "N" and psi_.twist == gamma:
            ((i, s, k),) = cols[1]  # entry (1, 1) times zeta
            cols = [cols[0], [(i, s, (k + 1) % psi_.coeff.n)]] + cols[2:]
        return c, cols

    _patch_phases(monkeypatch, corrupted)
    with pytest.raises(IdentityFailure, match="N-twist identity fails"):
        weil_twist_check(psi, sp, gamma)


@pytest.mark.parametrize(
    "twist, tok, match",
    [(2, TOKEN_W, "W0-twist identity fails"), (4, TOKEN_W, "square-twist conjugation fails"),
     (4, "N1", "square-twist conjugation fails")],
)
def test_twist_check_catches_a_corrupted_phase_table(twist, tok, match, model5, monkeypatch):
    # at p = 5 and gamma = 2, one exponent shifted in the psi^2 W0 table, or
    # in the psi^4 table of W0 or N(1), which only the square twist reads
    psi, sp = model5["psi"], model5["space"]
    fq = sp.fq
    tok = token_n(Matrix(fq, [[fq.one()]])) if tok == "N1" else tok

    def corrupted(honest, psi_, space, t):
        c, cols = honest(psi_, space, t)
        if t == tok and psi_.twist == fq.from_int(twist):
            (i, s, k), *rest = cols[1]
            cols = [cols[0], [(i, s, (k + 1) % psi_.coeff.n)] + rest] + cols[2:]
        return c, cols

    _patch_phases(monkeypatch, corrupted)
    with pytest.raises(IdentityFailure, match=match):
        weil_twist_check(psi, sp, fq.from_int(2))


def test_twist_identity_gamma_one(model3):
    psi, sp = model3["psi"], model3["space"]
    report = weil_twist_check(psi, sp, sp.fq.one())
    assert all(report.values())


def test_square_twist_is_conjugation_by_m2(model5):
    # omega_{psi^4} = omega_psi conjugated by the M(2)-image, exactly
    psi, sp = model5["psi"], model5["space"]
    fq = sp.fq
    w = model5["weil"]
    w4 = weil_rep(char_twist(psi, fq.from_int(4)), sp)
    m2 = w.image(token_m(Matrix(fq, [[fq.from_int(2)]])))
    for tok in w.gen_names:
        assert w4.image(tok) * m2 == m2 * w.image(tok)


def test_modular_model_q5_ell7():
    fq = fq_field(5, 1)
    sp = SymplecticSpace(fq, 1)
    Km = field_make(MODULAR, 5, 7)
    psi = psi_standard(fq, Km)
    w = weil_rep(psi, sp)
    h = heisenberg_rep(psi, sp)
    assert intertwining_check(w, h)
    els = list(sp_enumerate(sp, 1000))
    rng = random.Random(3)
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(40)]
    assert cocycle_certificate(w, pairs, _commutant_dim(h)).all_pm_one()
    even, odd = even_odd_split(w)
    assert (even.dim, odd.dim) == (3, 2)


def test_weil_m2_small():
    # dim q^m = 9 model on Sp(4, F_3): dims, intertwining, sample cocycle
    fq = fq_field(3, 1)
    sp = SymplecticSpace(fq, 2)
    psi = psi_standard(fq, field_make(RATIONAL, 3))
    w = weil_rep(psi, sp)
    assert w.dim == 9
    h = heisenberg_rep(psi, sp)
    assert intertwining_check(w, h)
    even, odd = even_odd_split(w)
    assert (even.dim, odd.dim) == (5, 4)
    els = []
    gen = sp_enumerate(sp, 10**5)
    for _ in range(40):
        els.append(next(gen))
    rng = random.Random(4)
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(10)]
    assert cocycle_certificate(w, pairs, _commutant_dim(h)).all_pm_one()


def test_marked_rep_images_invertible(model5):
    for rep in (model5["weil"], model5["heis"], model5["even"], model5["odd"]):
        for tok in rep.gen_names:
            assert rep.image(tok).is_invertible()


def test_intertwining_detects_wrong_model(model3, monkeypatch):
    # breaking the character wrecks the intertwining relation: W0 of psi^2
    sp, psi = model3["space"], model3["psi"]
    wrong = char_twist(psi, sp.fq.from_int(2))

    def swapped(honest, psi_, space, tok):
        return honest(wrong if tok == TOKEN_W else psi_, space, tok)

    _patch_phases(monkeypatch, swapped)
    w = weil_rep(psi, sp)
    with pytest.raises(IdentityFailure):
        intertwining_check(w, model3["heis"])


def _sp_element(space, flat):
    "The SpElement of a row-major tuple of F_q indices (rechecked symplectic)."
    fq, n = space.fq, space.dim
    rows = [[fq.elems[flat[i * n + j]] for j in range(n)] for i in range(n)]
    return SpElement(space, Matrix(fq, rows))


def test_bfs_matches_canonical_up_to_sign(model5):
    # the tree-path images the class sweeps use, against the dense canonical
    # product: every class representative, its inverse, and 12 seeded elements
    w = model5["weil"]
    classes = sp_classes(w.space, w.gen_names, 10**4)
    image = _tree_images(w, classes)
    reps = [g for g, _ in classes.classes]
    ids = reps + [classes.inverse[g] for g in reps]
    ids += random.Random(9).sample(range(len(classes.elements)), 12)
    minus = w.field.from_int(-1)
    for i in ids:
        canonical = weil_op(w, _sp_element(w.space, classes.elements[i]))
        assert image(i) == canonical or image(i) == canonical.scale(minus)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_class_traces_cover_every_element(p):
    # exhaustively: the dense trace of every element is +- the trace of its
    # orbit's representative, so the representatives generate the field of
    # all traces
    fq = fq_field(p, 1)
    space = SymplecticSpace(fq, 1)
    w = weil_rep(psi_standard(fq, field_make(RATIONAL, p)), space)
    classes = sp_classes(space, w.gen_names, 10**4)
    image = _tree_images(w, classes)
    rep_traces = [image(g).trace() for g, _ in classes.classes]
    assert [t for t, _, _ in class_traces(w, 10**4)] == rep_traces
    for flat, c in zip(classes.elements, classes.class_of):
        t = weil_op(w, _sp_element(space, flat)).trace()
        assert t in (rep_traces[c], -rep_traces[c])


@pytest.mark.parametrize("p,f,m", [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (3, 1, 2)])
def test_class_traces_howe_gerardin(p, f, m):
    # every term of the full Weil rep, exactly in Q(zeta_p): the section is
    # unitary, so tr omega~(g)^-1 is the complex conjugate sigma_-1 of
    # t = tr omega~(g), and t sigma_-1(t) = q^dim ker(g - 1) (Howe; Gerardin,
    # J. Algebra 46, 1977); the class sizes add up to |Sp|
    fq = fq_field(p, f)
    space = SymplecticSpace(fq, m)
    w = weil_rep(psi_standard(fq, field_make(RATIONAL, p)), space)
    K, n = w.field, space.dim
    bar = GaloisAut(K, K.n - 1)
    classes = sp_classes(space, w.gen_names, 10**5)
    terms = class_traces(w, 10**5)
    assert len(terms) == len(classes.classes)
    assert sum(weight for _, _, weight in terms) == sp_order(m, fq.q)
    eye = Matrix.identity(fq, n)
    for (g, _), (t, t_inv, _) in zip(classes.classes, terms):
        fixed = n - (_sp_element(space, classes.elements[g]).mat - eye).rank()
        assert t * apply_aut(bar, t) == K.from_int(fq.q**fixed)
        assert t_inv == apply_aut(bar, t)


@pytest.mark.parametrize("p,f", [(11, 1), (13, 1), (5, 2)], ids=["q11", "q13", "q25"])
def test_howe_gerardin_on_seeded_words(p, f):
    # q^m > 9, where test_class_traces_howe_gerardin does not sweep the
    # classes: the product of the generator images along a word is omega~(g)
    # up to the +-1 cocycle, which t sigma_-1(t) does not see; W0 is drawn
    # with probability 0.4, the Borel tokens otherwise
    from weildescent.finite import eval_word

    fq = fq_field(p, f)
    space = SymplecticSpace(fq, 1)
    w = weil_rep(psi_standard(fq, field_make(RATIONAL, p)), space)
    K, n = w.field, space.dim
    bar = GaloisAut(K, K.n - 1)
    eye = Matrix.identity(fq, n)
    rng = random.Random(p * f)
    borel = [tok for tok in w.gen_names if tok != TOKEN_W]
    for _ in range(8):
        length = rng.randint(1, 7)
        word = [rng.choice(borel) if rng.random() < 0.6 else TOKEN_W for _ in range(length)]
        prod = Matrix.identity(K, w.dim)
        for tok in word:
            prod = prod * w.image(tok)
        t = prod.trace()
        fixed = n - (eval_word(space, word).mat - eye).rank()
        assert t * apply_aut(bar, t) == K.from_int(fq.q**fixed), word


def _dense(psi, form):
    "Dense matrix of a monomial exponent form (perm, exps)."
    perm, exps = form
    out = Matrix.zeros(psi.coeff, len(perm), len(perm))
    for col, (row, e) in enumerate(zip(perm, exps)):
        out.rows[row][col] = psi.coeff.zeta_pow(e)  # K = Q(zeta_3): zeta_p^e
    return out


def test_monomial_product_matches_dense_q3(model3):
    from weildescent.finite import heis_enumerate
    from weildescent.weil import _monomial_product, rho_monomial

    sp, psi = model3["space"], model3["psi"]
    els = heis_enumerate(sp)
    forms = {h: rho_monomial(psi, sp, h) for h in els}
    dense = {h: rho_matrix(psi, sp, h) for h in els}
    for h in els:
        assert _dense(psi, forms[h]) == dense[h]
    pairs = [(a, b) for a in els for b in els]
    assert len(pairs) == 729
    for a, b in pairs:
        prod = _monomial_product(forms[a], forms[b], 3)
        assert _dense(psi, prod) == dense[a] * dense[b] == dense[a * b]
        assert prod == forms[a * b]


def test_hom_check_detects_corrupted_exponent(model3, monkeypatch):
    from weildescent import weil

    sp, psi = model3["space"], model3["psi"]
    fq = sp.fq
    bad = HeisElem(sp, (fq.one(), fq.from_int(2)), fq.one())
    honest = weil.rho_monomial

    def corrupted(psi_, space, h):
        perm, exps = honest(psi_, space, h)
        if h == bad:
            exps = [(exps[0] + 1) % 3] + exps[1:]
        return perm, exps

    monkeypatch.setattr(weil, "rho_monomial", corrupted)
    with pytest.raises(IdentityFailure, match="heisenberg hom fails"):
        heisenberg_hom_check(model3["heis"])


def _all_pairs_hold(rep):
    """The literal all-pairs loop, the oracle of heisenberg_hom_check:
    rho(a) rho(b) = rho(ab) on the monomial forms, with HeisElem products,
    and the central character rho(0, t) = psi(t) Id."""
    from weildescent import weil
    from weildescent.finite import heis_enumerate

    sp, psi = rep.space, rep.psi
    els = heis_enumerate(sp)
    forms = {h: weil.rho_monomial(psi, sp, h) for h in els}
    prods = all(
        weil._monomial_product(forms[a], forms[b], sp.fq.p) == forms[a * b]
        for a in els
        for b in els
    )
    ident = list(range(rep.dim))
    central = all(
        forms[HeisElem(sp, sp.zero_vector(), t)] == (ident, [psi.exponent(t)] * rep.dim)
        for t in sp.fq.elements()
    )
    return prods and central


def _model(q, m):
    fq = fq_field(*{3: (3, 1), 5: (5, 1), 9: (3, 2)}[q])
    space = SymplecticSpace(fq, m)
    return heisenberg_rep(psi_standard(fq, field_make(RATIONAL, fq.p)), space)


@pytest.mark.parametrize("q, m", [(3, 1), (5, 1), (9, 1), (3, 2)])
def test_hom_check_agrees_with_all_pairs_loop(q, m):
    rep = _model(q, m)
    assert _all_pairs_hold(rep)
    assert heisenberg_hom_check(rep) == q ** (2 * (2 * m + 1))


PAIR, SHIFT = r"H\(.*\), H\(", r"H\(.*\): rho\(w, t\) != psi\(t\)"


@pytest.mark.parametrize(
    "m, w, t, fault, match",
    [
        # rho(w, 0) alone: caught by the products (B)
        (1, (1, 2), 0, "exponent", PAIR),
        (2, (1, 0, 0, 0), 0, "exponent", PAIR),
        (1, (1, 1), 0, "permutation", PAIR),
        # the whole fiber of w shifted alike (t None): (A) holds, only (B) sees it
        (1, (2, 0), None, "exponent", PAIR),
        # rho(0, t) at t != 0 is no product of (B): caught by (A)
        (1, (0, 0), 1, "exponent", SHIFT),
        (1, (0, 1), 1, "permutation", ""),
    ],
    ids=["t0-exponent", "t0-exponent-m2", "t0-permutation", "fiber-exponent",
         "central-exponent", "t1-permutation"],
)
def test_hom_check_catches_injected_faults(m, w, t, fault, match, monkeypatch):
    # w and t are F_q indices of the corrupted elements (w, t)
    from weildescent import weil

    rep = _model(3, m)
    honest = weil.rho_monomial

    def corrupted(psi_, space, h):
        perm, exps = honest(psi_, space, h)
        if tuple(c.idx for c in h.w) == w and t in (None, h.t.idx):
            if fault == "exponent":
                exps = [(exps[0] + 1) % 3] + exps[1:]
            else:
                perm = [perm[1], perm[0]] + perm[2:]
        return perm, exps

    monkeypatch.setattr(weil, "rho_monomial", corrupted)
    assert not _all_pairs_hold(rep)
    with pytest.raises(IdentityFailure, match="heisenberg hom fails at " + match):
        heisenberg_hom_check(rep)


def test_hom_check_catches_non_additive_exponent(model3):
    # psi(x) = zeta^(Tr(x)^2): e(1) + e(1) = 2 but e(2) = 1, so (C) fails
    from weildescent.finite import AdditiveCharacter

    class Bent(AdditiveCharacter):
        def exponent(self, x):
            return super().exponent(x) ** 2 % self.fq.p

    sp, psi = model3["space"], model3["psi"]
    rep = heisenberg_rep(Bent(sp.fq, psi.coeff, psi.twist), sp)
    assert not _all_pairs_hold(rep)
    with pytest.raises(IdentityFailure, match=r"psi\(a\) psi\(b\) != psi\(a \+ b\)"):
        heisenberg_hom_check(rep)


def test_hom_check_steps_through_the_whole_f_p_basis(monkeypatch):
    # q = 9: every exponent of rho(w, t) raised by d^2, d the X-digit of x_1.
    # Steps along e_1 and f_1 keep d and hold; only the step along g e_1
    # (g the class of X) sees (d + 1)^2 != d^2 + 1, first at w = g e_1.
    from weildescent import weil

    rep = _model(9, 1)
    honest = weil.rho_monomial

    def corrupted(psi_, space, h):
        perm, exps = honest(psi_, space, h)
        d = h.w[0].coeffs[1]
        return perm, [(e + d * d) % 3 for e in exps]

    monkeypatch.setattr(weil, "rho_monomial", corrupted)
    assert not _all_pairs_hold(rep)
    gx = r"H\(\[Fq\[0, 1\], Fq\[0, 0\]\], Fq\[0, 0\]\)"
    with pytest.raises(IdentityFailure, match=f"heisenberg hom fails at {gx}, {gx}"):
        heisenberg_hom_check(rep)


# Run with python -O: every check below must still raise IdentityFailure.
OPTIMIZED_SCRIPT = """
import random
import sys
from weildescent import descent, fields, finite, rationality, symbols, theta, weil
from weildescent.descent import (
    DescentDatum, build_weil, descent_datum, fixed_points, odd_obstruction_check, sqrt_minus_p,
)
from weildescent.errors import CocycleViolation, DatumInvalid, IdentityFailure, RankDeficiency
from weildescent.theta import CommutingPair, isotypic_projector
from weildescent.fields import (
    MODULAR, RATIONAL, CoeffField, SubfieldTag, cyclotomic_poly, field_make, gauss_sum,
)
from weildescent.finite import (
    SpElement, SymplecticSpace, TOKEN_W, fq_field, psi_standard, sp_classes, token_m,
    token_n, token_to_sp,
)
from weildescent.linalg import Matrix, intertwiner_space, span_coordinates

if sys.flags.optimize < 1:
    sys.exit("not optimized")
fq = fq_field(3, 1)
sp = SymplecticSpace(fq, 1)
psi = psi_standard(fq, field_make(RATIONAL, 3))


def expect(name, fn, exc=IdentityFailure):
    try:
        fn()
    except exc:
        print(name)


honest = weil.rho_monomial


def corrupted(psi_, space, h):
    perm, exps = honest(psi_, space, h)
    if h.t == fq.one() and all(c.is_zero() for c in h.w):
        exps = [(exps[0] + 1) % 3] + exps[1:]
    return perm, exps


def corrupted_t0(psi_, space, h):
    perm, exps = honest(psi_, space, h)
    if h.t.is_zero() and h.w == (fq.one(), fq.zero()):
        exps = [(exps[0] + 1) % 3] + exps[1:]
    return perm, exps


weil.rho_monomial = corrupted
expect("rho-exponent", lambda: weil.heisenberg_hom_check(weil.heisenberg_rep(psi, sp)))
weil.rho_monomial = corrupted_t0
expect("rho-t0-exponent", lambda: weil.heisenberg_hom_check(weil.heisenberg_rep(psi, sp)))
weil.rho_monomial = honest

w = weil.weil_rep(psi, sp)
even, odd = weil.even_odd_split(w)
tok = token_n(Matrix(fq, [[fq.one()]]))
leak = w.image(tok).copy()
leak.rows[1][1] = psi.coeff.zeta_pow(2) * leak.rows[1][1]
w._images[tok] = leak
expect("parity-leak", lambda: even.image(tok))

borel = [t for t in weil.weil_rep(psi, sp).gen_names if t != TOKEN_W]
expect("generation", lambda: sp_classes(sp, borel, 10**4))

o, z = fq.one(), fq.zero()
expect("symplectic", lambda: SpElement(sp, Matrix(fq, [[o, o], [z, fq.from_int(2)]])))

# an elimination that makes every system with a nonzero right-hand side
# inconsistent (a row 0 = 1): the draw finds no f'_1 with <e'_1, f'_1> = 1
honest_elimination = finite._gauss_jordan


def inconsistent(fq_, rows):
    if any(row[-1] for row in rows):
        rows = rows + [[0] * (len(rows[0]) - 1) + [1]]
    return honest_elimination(fq_, rows)


finite._gauss_jordan = inconsistent
expect("gram-schmidt-solve", lambda: finite.sp_sample(sp, random.Random(1)))
finite._gauss_jordan = honest_elimination

expect("zero-inverse", lambda: psi.coeff.zero().inv(), ZeroDivisionError)

# F_2[z]/Phi_7 is not a field: 1 + z + z^5 has a norm outside F_2
ring = CoeffField(MODULAR, 7, 2, tuple(c % 2 for c in cyclotomic_poly(7)))
expect("norm-outside", lambda: ring.from_coeffs([1, 1, 0, 0, 0, 1]).inv())

# an odd block whose every image is Id: r_tau^2 = Id, not -Id
_, _, w5 = build_weil(5, 1, 1)
odd5 = weil.even_odd_split(w5)[1]
odd5._make = lambda key: Matrix.identity(odd5.field, odd5.dim)
expect("r-tau-power", lambda: odd_obstruction_check(odd5))
# the same block: no generator trace moves, and 2 is no square mod 5
expect("no-witness", lambda: rationality.character_field(odd5))

# zeta_40^5 is a primitive 8th root of unity, not i
expect("sqrt-minus-one", lambda: sqrt_minus_p(field_make(RATIONAL, 40), 5))

# a datum on {1, 4} given over the stabilizer {1, 2, 3, 4}
K5 = w5.field
expect(
    "datum-entries",
    lambda: DescentDatum(odd5, {4: Matrix.identity(K5, odd5.dim)}, K5.full_tag()),
    DatumInvalid,
)

# the odd part at p = 5 with omega(m_2) (2^2 = 1/4) replaced by Id: sigma_4
# moves no generator trace, and Id does not carry ^sigma_4 V to V
odd5m = weil.even_odd_split(w5)[1]
odd5m._images[token_m(Matrix(w5.space.fq, [[w5.space.fq.from_int(2)]]))] = Matrix.identity(
    K5, odd5m.dim
)
expect("omega-m-alpha", lambda: rationality.character_field(odd5m))

# the parity pair with H2 swapped after construction: the projector onto
# the trivial isotypic part no longer commutes with H2
K3 = psi.coeff
flip = Matrix(K3, [[K3.one(), K3.zero()], [K3.zero(), K3.from_int(-1)]])
pair = CommutingPair(K3, 2, {"c": flip}, {"t": Matrix.identity(K3, 2)})
pair.h2_gens = {"t": Matrix(K3, [[K3.zero(), K3.one()], [K3.one(), K3.zero()]])}
expect("projector-central", lambda: isotypic_projector(pair, {"c": Matrix.identity(K3, 1)}))

# zeta_3 . W0 still intertwines rho, but omega~(W0)^2 = zeta_3^2 omega~(W0^2)
heis = weil.heisenberg_rep(psi, sp)
comm = len(intertwiner_space(heis.gens_images(), heis.gens_images()))
w0 = token_to_sp(sp, TOKEN_W)
honest_phases = weil.token_phases


def scaled_w0(psi_, space, tok):
    c, cols = honest_phases(psi_, space, tok)
    return (c * psi_.values[1], cols) if tok == TOKEN_W else (c, cols)


weil.token_phases = scaled_w0
wz = weil.weil_rep(psi, sp)
weil.intertwining_check(wz, heis)
expect("cocycle-column", lambda: weil.cocycle_certificate(wz, [(w0, w0)], comm), CocycleViolation)
weil.token_phases = honest_phases

# a factorization word that evaluates to another element: the word of x
# followed by W0
honest_factor = weil.sp_word
weil.sp_word = lambda space, x: honest_factor(space, x) + [TOKEN_W]
expect("word-element", lambda: weil.cocycle_certificate(weil.weil_rep(psi, sp), [(w0, w0)], comm))
weil.sp_word = honest_factor

expect("commutant", lambda: weil.cocycle_certificate(weil.weil_rep(psi, sp), [(w0, w0)], 2))

# omega~(N(1)) e_0 = 0: both sides of the column test vanish
n1 = token_n(Matrix(fq, [[fq.one()]]))


def zero_column(psi_, space, tok):
    c, cols = honest_phases(psi_, space, tok)
    return (c, [[]] + cols[1:]) if tok == n1 else (c, cols)


weil.token_phases = zero_column
g1 = token_to_sp(sp, n1)
expect(
    "zero-column",
    lambda: weil.cocycle_certificate(weil.weil_rep(psi, sp), [(g1, g1 * g1.inverse())], comm),
)


def zero_w0(psi_, space, tok):
    c, cols = honest_phases(psi_, space, tok)
    return (c, [[] for _ in cols]) if tok == TOKEN_W else (c, cols)


weil.token_phases = zero_w0
expect("zero-image", lambda: weil.intertwining_check(weil.weil_rep(psi, sp), heis))


# the psi^2 model with one exponent of its N(1) image shifted: no longer the
# Galois conjugate sigma_2 of the psi model
def shifted_n1(psi_, space, tok):
    c, cols = honest_phases(psi_, space, tok)
    if tok == n1 and psi_.twist == fq.from_int(2):
        ((i, s, k),) = cols[1]
        cols = [cols[0], [(i, s, (k + 1) % psi_.coeff.n)]] + cols[2:]
    return c, cols


weil.token_phases = shifted_n1
expect(
    "semilinearity",
    lambda: weil.semilinearity_check(weil.weil_rep(psi, sp), fields.GaloisAut(psi.coeff, 2)),
)


# the psi^2 W0 table with one exponent shifted: no longer W0 M(1/2)
def shifted_w0(psi_, space, tok):
    c, cols = honest_phases(psi_, space, tok)
    if tok == TOKEN_W and psi_.twist == fq.from_int(2):
        (i, s, k), *rest = cols[0]
        cols = [[(i, s, (k + 1) % psi_.coeff.n)] + rest] + cols[1:]
    return c, cols


weil.token_phases = shifted_w0
expect("twist-w0", lambda: weil.weil_twist_check(psi, sp, fq.from_int(2)))
weil.token_phases = honest_phases

# an iso_test that finds every Galois conjugate isomorphic, over Q: the
# stabilizer {1, 2} claims multiplicity m = 2, but Hom(V, V|_Q (x) K) is a line
odd3 = weil.even_odd_split(weil.weil_rep(psi, sp))[1]
rationality.iso_test = lambda rep1, rep2: True
expect("orbit-multiplicity", lambda: rationality.orbit_decomposition(odd3, K3.full_tag()))

# diag(1, -1) is not a multiple of Id, and Id, 2 Id span a line
expect("span", lambda: span_coordinates([Matrix.identity(K3, 2)])(flip))
two = Matrix.identity(K3, 2).scale(K3.from_int(2))
expect("span-dependent", lambda: span_coordinates([Matrix.identity(K3, 2), two]))

# the full datum at p = 7 with R_2 negated: the cocycle fails; the honest
# datum claiming the target Q(zeta_7): its fixed space has prime dimension
# 14, not 42
_, _, w7 = build_weil(7, 1, 1)
K7 = w7.field
honest7 = descent_datum(w7, SubfieldTag(K7, [1, 2, 4]), 0)[0]
negated = dict(honest7.entries)
negated[2] = negated[2][0], [-v for v in negated[2][1]]
expect(
    "datum-cocycle",
    lambda: fixed_points(DescentDatum(w7, negated, honest7.target)),
    (DatumInvalid, RankDeficiency),
)
honest7.target = K7.top_tag()
expect("datum-rank", lambda: fixed_points(honest7), (DatumInvalid, RankDeficiency))

# the honest datum with U^-1 doubled: U . U^-1 = 2 Id; then with every
# descended entry refused by the membership test
honest_pivot_inverse = descent.pivot_inverse


def doubled_inverse(a):
    pivots, inv = honest_pivot_inverse(a)
    return pivots, inv.scale(inv.field.from_int(2))


descent.pivot_inverse = doubled_inverse
expect("fixed-space-inverse", lambda: fixed_points(descent_datum(w7, SubfieldTag(K7, [1, 2, 4]), 0)[0]))
descent.pivot_inverse = honest_pivot_inverse
honest_membership = descent.subfield_membership
descent.subfield_membership = lambda x, tag: False
expect("descended-entry", lambda: fixed_points(descent_datum(w7, SubfieldTag(K7, [1, 2, 4]), 0)[0]))
descent.subfield_membership = honest_membership



def trace_formula_dim(rep, tag):
    "dim End over the tagged subfield by the trace formula on the class sweep."
    terms = [
        (fields.trace_to_subfield(t, tag), fields.trace_to_subfield(ti, tag), w)
        for t, ti, w in weil.class_traces(rep, 10**4)
    ]
    return weil._trace_pair_dimension(rep.field, terms)


# End of the odd part at p = 3 over Q: Hom(^sigma_2 V, V) = 0, so an element
# at sigma_2 has no coordinates
alg3 = rationality.endomorphism_algebra(
    odd3, K3.full_tag(), rationality.character_field(odd3), 1
)
if alg3.dim != trace_formula_dim(odd3, K3.full_tag()):
    sys.exit("End of the odd part at p = 3 disagrees with the trace formula")
expect("hom-support", lambda: alg3.expand({2: Matrix.identity(K3, odd3.dim)}))

# a resolvent inverse replaced by Id: the coefficients of zeta are its
# conjugates, which are not rational
rb3 = rationality.RestrictionBasis(K3.full_tag())
rb3.Vinv = Matrix.identity(K3, rb3.d)
expect("subfield-coefficient", lambda: rb3.expand(K3.zeta()))

# a dimension of 3 n is not m^2 n
alg3.center_basis()
alg3.dim = 3 * alg3.n
expect("m-squared-n", lambda: alg3.m)

# End of the even part at p = 5 over its character field Q(sqrt 5) is
# quaternion-shaped, with one Hom line at sigma_4: a norm searcher that
# returns 0 is no split certificate, and A + E_01 at sigma_4 does not square
# to a scalar
even5 = weil.even_odd_split(w5)[0]
tag5 = SubfieldTag(K5, [4])
alg5 = rationality.endomorphism_algebra(even5, tag5, tag5, 1)
if alg5.dim != trace_formula_dim(even5, tag5):
    sys.exit("End of the even part at p = 5 disagrees with the trace formula")
expect("split-certificate", lambda: rationality.certify_division_quaternion(alg5, lambda u, c: K5.zero()))
bent = alg5.hom_bases[4][0].copy()
bent.rows[0][1] = bent.rows[0][1] + K5.one()
alg5.hom_bases[4] = [bent]
expect("square-scalar", lambda: rationality.quaternion_scalar(alg5))

# theta replaced by a rational: sigma_4 fixes it, so theta Id no longer
# confines the centre to the sigma_1 block
alg5 = rationality.endomorphism_algebra(even5, tag5, tag5, 1)
alg5.rb.theta = K5.from_int(2)
expect("centre-theta", alg5.center_basis)

# a trace to Q that returns its argument: the entries of the trace form of
# Q(sqrt 5) are not rational
honest_trace = rationality.trace_to_subfield
rationality.trace_to_subfield = lambda x, tag: x
expect("trace-form", lambda: rationality._totally_positive(K5.one(), tag5))
rationality.trace_to_subfield = honest_trace

# the translation H1 = <rho(f1, 0)> of the scalar-extension test, doubled
# after the isotypic quotient is taken: e_u^2 != e_u; then the quotient's
# projector replaced by 0: the blocks no longer sum to it
honest_quotient = theta.isotypic_quotient


def doubling_quotient(pair_, pi1):
    quot = honest_quotient(pair_, pi1)
    g = pair_.h1_gens["g"]
    g.rows = [[e + e for e in r] for r in g.rows]
    return quot


def zero_quotient(pair_, pi1):
    quot = honest_quotient(pair_, pi1)
    return {**quot, "projector": Matrix.zeros(K3, pair_.dim, pair_.dim)}


for name, quotient in (("block-idempotent", doubling_quotient), ("block-sum", zero_quotient)):
    theta.isotypic_quotient = quotient
    expect(name, lambda: theta.theta_scalar_extension_check(heis, ("Y", 0, 0), ("T",), K3.full_tag()))
theta.isotypic_quotient = honest_quotient

# F_3[z]/(z + 1) claims n = 5, but z = -1 is no 5th root of unity: g = 1
expect("gauss-square", lambda: gauss_sum(5, CoeffField(MODULAR, 5, 3, (1, 1))))

# diag(0, 1) has no inverse
singular = Matrix(K3, [[K3.zero(), K3.zero()], [K3.zero(), K3.one()]])
expect("matrix-inverse", lambda: singular.inverse(), ZeroDivisionError)

# a Hilbert symbol that is -1 at 2 alone: an odd number of ramified places
honest_hilbert = symbols.hilbert_symbol
symbols.hilbert_symbol = lambda a, b, v: -1 if v == 2 else 1
expect("product-formula", lambda: symbols.quaternion_ramification(-1, -1))
symbols.hilbert_symbol = honest_hilbert

# a Hensel lift that returns 3, and 3^2 != 17 mod 2^12
honest_hensel = symbols._hensel_sqrt
symbols._hensel_sqrt = lambda u, precision: 3
expect("z2-hensel", lambda: symbols.is_square_in_Z2(17))
symbols._hensel_sqrt = honest_hensel

# 5 = 5 mod 8 is no square in Z_2, but 1^2 = 5 mod 4
expect("z2-root", lambda: symbols.is_square_in_Z2(5, precision=2))

# every class of Q_2^x claimed a square
honest_square = symbols.is_square_in_Z2
symbols.is_square_in_Z2 = lambda u, precision=12: True
expect("z2-classes", symbols.compute_A_for_Q2)
symbols.is_square_in_Z2 = honest_square

# x^2 + 1 = (x - 1)(x + 1) + 2
expect("exact-division", lambda: fields._zpoly_exact_div([1, 0, 1], [1, 1]))

# Phi_7 over F_2 with the order of 2 mod 7 taken as 4: 7 does not divide
# 2^4 - 1, and zeta = g^2 in F_16 has no order 7
honest_order = fields._mult_order
fields._mult_order = lambda a, n: 4
expect("zeta-order", lambda: fields._least_irreducible_factor(7, 2))

# and F_16 built on the reducible (x + 1)(x^3 + x + 1): zeta = x^2 has order
# 7 in F_2 x F_8, but its orbit polynomial has coefficients outside F_2
honest_irreducible = fields._least_irreducible
fields._least_irreducible = lambda ell, d: (1, 0, 1, 1, 1)
expect("min-poly-coefficient", lambda: fields._least_irreducible_factor(7, 2))
fields._least_irreducible = honest_irreducible
fields._mult_order = honest_order

# a Hom solve that loses one basis matrix: the full Weil rep at p = 5 has two
# constituents, so each Hom_K(^u V, V) with u a square is a plane, not a line
honest_space = rationality.intertwiner_space
rationality.intertwiner_space = lambda src, tgt: honest_space(src, tgt)[1:]
expect(
    "hom-dimension",
    lambda: rationality.endomorphism_algebra(w5, K5.full_tag(), tag5, 2),
)
rationality.intertwiner_space = honest_space

# N(2) at p = 3 with one entry of its image negated: it is no longer N(1)^2,
# the product along its word
n2 = token_n(Matrix(fq, [[fq.from_int(2)]]))


def bent_n2(psi_, space, tok):
    c, cols = honest_phases(psi_, space, tok)
    return (c, [[(i, -s, k) for i, s, k in cols[0]]] + cols[1:]) if tok == n2 else (c, cols)


rationality.token_phases = bent_n2
expect("word-image", lambda: rationality.character_field(weil.weil_rep(psi, sp)))
rationality.token_phases = honest_phases

# the odd part at p = 3 declared as two constituents: End_K(V) is a line
tag3 = rationality.character_field(odd3)
expect("end-dimension", lambda: rationality.endomorphism_algebra(odd3, K3.full_tag(), tag3, 2))
"""


def test_certificates_raise_under_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import weildescent

    src = Path(weildescent.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "rho-exponent", "rho-t0-exponent", "parity-leak", "generation", "symplectic",
        "gram-schmidt-solve",
        "zero-inverse", "norm-outside", "r-tau-power", "no-witness", "sqrt-minus-one",
        "datum-entries", "omega-m-alpha", "projector-central", "cocycle-column", "word-element",
        "commutant", "zero-column", "zero-image", "semilinearity", "twist-w0", "orbit-multiplicity",
        "span",
        "span-dependent",
        "datum-cocycle", "datum-rank", "fixed-space-inverse", "descended-entry", "hom-support",
        "subfield-coefficient", "m-squared-n", "split-certificate", "square-scalar", "centre-theta",
        "trace-form",
        "block-idempotent", "block-sum", "gauss-square", "matrix-inverse", "product-formula",
        "z2-hensel", "z2-root", "z2-classes", "exact-division", "zeta-order",
        "min-poly-coefficient", "hom-dimension", "word-image", "end-dimension",
    ]


def test_trace_pair_dimension_refuses_order_zero_in_k():
    from weildescent.errors import InvalidCharacteristic
    from weildescent.fields import MODULAR, field_make
    from weildescent.weil import _trace_pair_dimension

    K = field_make(MODULAR, 13, 3)
    with pytest.raises(InvalidCharacteristic):
        _trace_pair_dimension(K, [(K.one(), K.one(), 2184)])
