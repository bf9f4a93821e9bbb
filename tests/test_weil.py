"""The Schroedinger model: exact Heisenberg matrices, Weil generator
images, the measured metaplectic cocycle, even/odd split, and the twisting
identities."""

import random

import pytest

from weildescent.errors import IdentityFailure
from weildescent.fields import GaloisAut, field_make, MODULAR, RATIONAL
from weildescent.finite import (
    HeisElem,
    SymplecticSpace,
    TOKEN_W,
    char_twist,
    fq_field,
    psi_standard,
    sp_enumerate,
    token_m,
)
from weildescent.linalg import Matrix, intertwiner_space
from weildescent.weil import (
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
    pairs = heisenberg_hom_check(model3["heis"], exhaustive=True)
    assert pairs == 27 * 27


def test_heisenberg_random_q5(model5):
    rng = random.Random(0)
    heisenberg_hom_check(model5["heis"], exhaustive=False, rng=rng, samples=150)


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


def test_cocycle_exhaustive_sp2f3(model3):
    sp = model3["space"]
    els = list(sp_enumerate(sp, 100))
    cert = cocycle_certificate(model3["weil"], [(a, b) for a in els for b in els])
    assert cert.all_pm_one()
    assert cert.summary()["pairs"] == 576


def test_cocycle_seeded_sp2f5(model5):
    sp = model5["space"]
    els = list(sp_enumerate(sp, 1000))
    rng = random.Random(0)
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(200)]
    cert = cocycle_certificate(model5["weil"], pairs)
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
    c1 = cocycle_certificate(model5["weil"], p1)
    c2 = cocycle_certificate(model5["weil"], p2)
    assert [x[2] for x in c1.pairs] == [x[2] for x in c2.pairs]


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
    psi, sp = model["psi"], model["space"]
    K = psi.coeff
    for u in K.galois_exponents():
        if u != 1:
            assert semilinearity_check(psi, sp, GaloisAut(K, u))


def test_twist_identities_q5(model5):
    psi, sp = model5["psi"], model5["space"]
    fq = sp.fq
    for c in (2, 3, 4):
        report = weil_twist_check(psi, sp, fq.from_int(c))
        assert all(report.values())


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
    assert cocycle_certificate(w, pairs).all_pm_one()
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
    assert cocycle_certificate(w, pairs).all_pm_one()


def test_marked_rep_images_invertible(model5):
    for rep in (model5["weil"], model5["heis"], model5["even"], model5["odd"]):
        for tok in rep.gen_names:
            assert rep.image(tok).is_invertible()


def test_intertwining_detects_wrong_model(model3):
    # breaking the character wrecks the intertwining relation
    sp, psi = model3["space"], model3["psi"]
    fq = sp.fq
    w = weil_rep(psi, sp)
    wrong = weil_rep(char_twist(psi, fq.from_int(2)), sp)
    w._images[TOKEN_W] = wrong.image(TOKEN_W)
    with pytest.raises(IdentityFailure):
        intertwining_check(w, model3["heis"])


def test_bfs_matches_canonical_up_to_sign(model5):
    from weildescent.weil import bfs_matrices

    w = model5["weil"]
    mats = bfs_matrices(w, 10**4)
    rng = random.Random(9)
    keys = rng.sample(list(mats), 12)  # BFS insertion order is deterministic
    K = w.field
    for key in keys:
        g, bfs_mat = mats[key]
        canonical = weil_op(w, g)
        assert bfs_mat == canonical or bfs_mat == canonical.scale(K.from_int(-1))


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
        heisenberg_hom_check(model3["heis"], exhaustive=True)


# Run with python -O: every check below must still raise IdentityFailure.
OPTIMIZED_SCRIPT = """
import sys
from weildescent import weil
from weildescent.descent import DescentDatum, build_weil, odd_obstruction_check, sqrt_minus_p
from weildescent.errors import DatumInvalid, IdentityFailure
from weildescent.theta import CommutingPair, isotypic_projector
from weildescent.fields import MODULAR, RATIONAL, CoeffField, cyclotomic_poly, field_make
from weildescent.finite import SpElement, SymplecticSpace, TOKEN_W, fq_field, psi_standard, token_n
from weildescent.linalg import Matrix

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


weil.rho_monomial = corrupted
expect("rho-exponent", lambda: weil.heisenberg_hom_check(weil.heisenberg_rep(psi, sp), True))
weil.rho_monomial = honest

w = weil.weil_rep(psi, sp)
even, odd = weil.even_odd_split(w)
tok = token_n(Matrix(fq, [[fq.one()]]))
leak = w.image(tok).copy()
leak.rows[1][1] = psi.coeff.zeta_pow(2) * leak.rows[1][1]
w._images[tok] = leak
expect("parity-leak", lambda: even.image(tok))

borel = weil.weil_rep(psi, sp)
borel.gen_names = tuple(t for t in borel.gen_names if t != TOKEN_W)
expect("generation", lambda: weil.bfs_matrices(borel, 10**4))

o, z = fq.one(), fq.zero()
expect("symplectic", lambda: SpElement(sp, Matrix(fq, [[o, o], [z, fq.from_int(2)]])))

expect("zero-inverse", lambda: psi.coeff.zero().inv(), ZeroDivisionError)

# F_2[z]/Phi_7 is not a field: 1 + z + z^5 has a norm outside F_2
ring = CoeffField(MODULAR, 7, 2, tuple(c % 2 for c in cyclotomic_poly(7)))
expect("norm-outside", lambda: ring.from_coeffs([1, 1, 0, 0, 0, 1]).inv())

# an odd block whose every image is Id: r_tau^2 = Id, not -Id
_, _, w5 = build_weil(5, 1, 1)
odd5 = weil.even_odd_split(w5)[1]
odd5._make = lambda key: Matrix.identity(odd5.field, odd5.dim)
expect("r-tau-power", lambda: odd_obstruction_check(odd5))

# zeta_40^5 is a primitive 8th root of unity, not i
expect("sqrt-minus-one", lambda: sqrt_minus_p(field_make(RATIONAL, 40), 5))

# a datum on {1, 4} given over the stabilizer {1, 2, 3, 4}
K5 = w5.field
expect(
    "datum-entries",
    lambda: DescentDatum(odd5, {4: Matrix.identity(K5, odd5.dim)}, K5.full_tag()),
    DatumInvalid,
)

# the parity pair with H2 swapped after construction: the projector onto
# the trivial isotypic part no longer commutes with H2
K3 = psi.coeff
flip = Matrix(K3, [[K3.one(), K3.zero()], [K3.zero(), K3.from_int(-1)]])
pair = CommutingPair(K3, 2, {"c": flip}, {"t": Matrix.identity(K3, 2)})
pair.h2_gens = {"t": Matrix(K3, [[K3.zero(), K3.one()], [K3.one(), K3.zero()]])}
expect("projector-central", lambda: isotypic_projector(pair, {"c": Matrix.identity(K3, 1)}))
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
        "rho-exponent", "parity-leak", "generation", "symplectic", "zero-inverse",
        "norm-outside", "r-tau-power", "sqrt-minus-one", "datum-entries",
        "projector-central",
    ]
