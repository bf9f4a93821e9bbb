"""Character fields, iso testing, restriction of scalars, endomorphism
algebras, orbit decomposition."""

import pytest

from weildescent.descent import build_weil, solve_norm_equation
from weildescent.errors import NotFoundWithinBound, NotIrreducible
from weildescent.fields import (
    GaloisAut,
    MODULAR,
    RATIONAL,
    SubfieldTag,
    apply_aut,
    field_make,
    subfield_membership,
    subfield_of_values,
    trace_to_subfield,
)
from weildescent.finite import SymplecticSpace, fq_field, psi_standard
from weildescent.linalg import Matrix
from weildescent.rationality import (
    certify_division_quaternion,
    certifying_names,
    character_field,
    endomorphism_algebra,
    iso_test,
    orbit_decomposition,
    restrict_scalars,
)
from weildescent.weil import (
    _trace_pair_dimension,
    class_traces,
    even_odd_split,
    heisenberg_rep,
    parity_data,
    weil_rep,
)

SWEEP_BOUND = 10**5


def _end(rep, tag, constituents=1, field_tag=None):
    """End of rep over the tagged subfield, with its dimension checked
    against the trace formula on the class_traces table of rep; field_tag
    defaults to character_field(rep)."""
    alg = endomorphism_algebra(rep, tag, field_tag or character_field(rep), constituents)
    terms = [
        (trace_to_subfield(t, tag), trace_to_subfield(ti, tag), w)
        for t, ti, w in class_traces(rep, SWEEP_BOUND)
    ]
    assert alg.dim == _trace_pair_dimension(rep.field, terms)
    return alg


def test_class_traces_heisenberg(model3):
    terms = class_traces(model3["heis"], SWEEP_BOUND)
    K = model3["heis"].field
    assert len(terms) == 27 and all(w == 1 for _, _, w in terms)
    assert [t for t, _, _ in terms].count(K.from_int(3)) == 1  # only the identity
    # character field of rho_psi is all of K (Stone-von Neumann rigidity)
    assert subfield_of_values([t for t, _, _ in terms]).stabilizer == frozenset({1})


def test_character_fields_intro_table(model3, model5, model9):
    # odd prime power: Q[sqrt(p*)]; even power: Q
    t3 = character_field(model3["odd"])
    assert t3.stabilizer == frozenset({1})  # Q(zeta_3) = Q[sqrt(-3)]
    t5e = character_field(model5["even"])
    t5o = character_field(model5["odd"])
    assert t5e.stabilizer == t5o.stabilizer == frozenset({1, 4})
    t9 = character_field(model9["even"])
    assert t9.stabilizer == frozenset({1, 2})  # the whole group: Q


def test_heisenberg_character_field_is_K(model5):
    tag = character_field(model5["heis"])
    assert tag.stabilizer == frozenset({1})


def test_iso_test_self(model5):
    T = iso_test(model5["weil"], model5["weil"])
    assert T is not None and T.is_invertible()


def test_iso_test_semilinear_conjugate(model5):
    # ^sigma(omega_psi) ~ omega_{psi^sigma}, token by token (intertwiner Id)
    from weildescent.finite import char_twist

    psi, sp = model5["psi"], model5["space"]
    K = psi.coeff
    sigma = GaloisAut(K, 3)
    conj = model5["weil"].conjugate(sigma)
    other = weil_rep(char_twist(psi, sp.fq.from_int(3)), sp)
    T = iso_test(conj, other)
    assert T is not None and T.is_invertible()
    for tok in conj.gen_names:
        assert conj.image(tok) == other.image(tok)


def test_iso_test_nonsquare_twist_fails(model5):
    # omega^-_{psi} vs omega^-_{psi^2}: 2 is not a square mod 5
    from weildescent.finite import char_twist

    psi, sp = model5["psi"], model5["space"]
    w2 = weil_rep(char_twist(psi, sp.fq.from_int(2)), sp)
    _, odd2 = even_odd_split(w2)
    assert iso_test(model5["odd"], odd2) is None


def test_iso_test_square_twist_succeeds(model5):
    from weildescent.finite import char_twist

    psi, sp = model5["psi"], model5["space"]
    w4 = weil_rep(char_twist(psi, sp.fq.from_int(4)), sp)
    _, odd4 = even_odd_split(w4)
    T = iso_test(model5["odd"], odd4)
    assert T is not None and T.is_invertible()


def test_iso_test_heisenberg_rigidity(model9):
    rep = model9["heis"]
    K = rep.field
    for u in K.galois_exponents():
        if u == 1:
            continue
        assert iso_test(rep.conjugate(GaloisAut(K, u)), rep) is None


def test_restrict_scalars_dims(model3):
    rho = model3["heis"]
    K = rho.field
    r = restrict_scalars(rho, K.full_tag())
    assert r.dim == 6  # dim 3 times [Q(zeta_3) : Q] = 2
    assert r.image(rho.gen_names[0]).nrows == 6
    top = restrict_scalars(rho, K.top_tag())
    assert top.dim == 3 and top.image(rho.gen_names[0]) == rho.image(rho.gen_names[0])


def test_restrict_scalars_entries_live_downstairs(model5):
    odd = model5["odd"]
    K = odd.field
    tag = SubfieldTag(K, [4])
    r = restrict_scalars(odd, tag)
    assert r.dim == 4  # 2 x [K : Q(sqrt 5)]
    for tok in r.gen_names:
        for row in r.image(tok).rows:
            for e in row:
                assert subfield_membership(e, tag)


def test_restrict_scalars_basis_independent(model3):
    rho = model3["heis"]
    K = rho.field
    r1 = restrict_scalars(rho, K.full_tag())
    r2 = restrict_scalars(rho, K.full_tag(), shifted_basis=True)
    T = iso_test(r1, r2)
    assert T is not None and T.is_invertible()


def test_end_algebra_heisenberg_restriction(model3, model5):
    # D = K acting by scalars: n = [K:Q], m = 1, commutative
    for model, n in ((model3, 2), (model5, 4)):
        rho = model["heis"]
        alg = _end(rho, rho.field.full_tag())
        assert alg.dim == n
        assert alg.n == n and alg.m == 1
        assert alg.is_commutative()


def test_end_algebra_completeness_guard(model3):
    # the certified dimension equals the semilinear count; for the full
    # field tag (no descent) End = K and dim over K-as-itself is 1
    rho = model3["heis"]
    alg = _end(rho, rho.field.top_tag())
    assert alg.dim == 1 and alg.m == 1 and alg.n == 1


def test_end_algebra_odd_q5_quaternion(model5):
    odd = model5["odd"]
    K = odd.field
    tag = SubfieldTag(K, [4])  # Q[sqrt 5], the character field
    alg = _end(odd, tag)
    assert alg.dim == 4
    assert alg.n == 1 and alg.m == 2
    assert not alg.is_commutative()

    def searcher(u, c):
        try:
            lam, _ = solve_norm_equation(K, K.top_tag(), tag, c, 10)
            return lam
        except NotFoundWithinBound:
            return None

    verdict, cert = certify_division_quaternion(alg, searcher)
    assert verdict is True and cert[0] == "cm-positivity"


def test_end_algebra_even_q5_is_split_scalar(model5):
    even = model5["even"]
    K = even.field
    tag = SubfieldTag(K, [4])
    alg = _end(even, tag)
    # even part descends to its character field: En over Q[sqrt5] has the
    # split structure M_2-like dimension 4 but with a norm solution
    assert alg.dim == 4 and alg.m == 2 and alg.n == 1

    def searcher(u, c):
        try:
            lam, _ = solve_norm_equation(K, K.top_tag(), tag, c, 10)
            return lam
        except NotFoundWithinBound:
            return None

    verdict, cert = certify_division_quaternion(alg, searcher)
    assert verdict is False and cert[0] == "split"


def test_orbit_decomposition_heisenberg(model3, model5):
    for model, n in ((model3, 2), (model5, 4)):
        rho = model["heis"]
        orb = orbit_decomposition(rho, rho.field.full_tag())
        assert orb.m == 1 and orb.n == n
        assert all(len(c) == 1 for c in orb.classes)


def test_orbit_decomposition_odd_q5_over_Q(model5):
    odd = model5["odd"]
    K = odd.field
    orb = orbit_decomposition(odd, K.full_tag())
    # over Q: two iso classes {psi, psi^4} and {psi^2, psi^3}, multiplicity 2
    assert orb.n == 2 and orb.m == 2
    assert sorted(map(tuple, orb.classes)) == [(1, 4), (2, 3)]
    alg = _end(odd, K.full_tag())
    assert alg.dim == orb.m * orb.m * orb.n == 8


def test_orbit_decomposition_requires_irreducible(model3):
    w = model3["weil"]  # reducible: even + odd
    with pytest.raises(NotIrreducible):
        orbit_decomposition(w, w.field.full_tag())


def test_scalar_extension_of_restriction(model3):
    # (V|_R) tensor K ~ sum of Galois conjugates, via explicit blocks
    rho = model3["heis"]
    K = rho.field
    orb = orbit_decomposition(rho, K.full_tag())
    assert [p.rank() for p in orb.idempotents] == [3, 3]


def test_modular_rationality_via_iso(model5):
    # modular mode: rationality field of the odd part by iso testing
    fq = fq_field(5, 1)
    sp = SymplecticSpace(fq, 1)
    Km = field_make(MODULAR, 5, 7)
    psi = psi_standard(fq, Km)
    w = weil_rep(psi, sp)
    _, odd = even_odd_split(w)
    fixing = [
        u
        for u in Km.galois_exponents()
        if iso_test(odd.conjugate(GaloisAut(Km, u)), odd) is not None
    ]
    assert sorted(fixing) == [1, 4]  # F_49, the modular character field


def test_odd_trace_oracle_q5(model5):
    # trace of the m(2)-image on the odd part: computed independently as
    # the legendre-signed sum over fixed points of y -> 2y on the odd basis
    from weildescent.finite import token_m
    from weildescent.linalg import Matrix

    sp = model5["space"]
    fq = sp.fq
    odd = model5["odd"]
    K = odd.field
    block = odd.image(token_m(Matrix(fq, [[fq.from_int(2)]])))
    # oracle: full matrix is legendre(2) * permutation y -> 2^T y = 2y;
    # odd-basis vectors are delta_y - delta_{-y} over representatives, so
    # the diagonal entry at rep r is sign * [2r = r] - sign * [2r = -r]
    from weildescent.finite import legendre

    sign = legendre(fq.from_int(2))
    pts = sp.y_points()
    acc = 0
    for r_idx in parity_data(sp)[3]:
        r = pts[r_idx]
        two_r = tuple(fq.from_int(2) * c for c in r)
        if two_r == r:
            acc += sign
        if two_r == tuple(-c for c in r):
            acc -= sign
    assert block.trace() == K.from_int(acc)


def test_orbit_decomposition_trivial_over_K(model3):
    rho = model3["heis"]
    orb = orbit_decomposition(rho, rho.field.top_tag())
    assert (orb.m, orb.n) == (1, 1)


def test_character_equals_rationality_field(model5):
    # Prop: for absolutely simple reps, the trace field equals the fixed
    # field of {sigma : ^sigma V ~ V}, computed both ways
    odd = model5["odd"]
    K = odd.field
    trace_tag = character_field(odd)
    fixing = [
        u
        for u in K.galois_exponents()
        if iso_test(odd.conjugate(GaloisAut(K, u)), odd) is not None
    ]
    assert frozenset(fixing) == trace_tag.stabilizer


@pytest.mark.parametrize("part", ["full", "even", "odd", "heisenberg"])
@pytest.mark.parametrize(
    "p, f, m, ell",
    [
        (3, 1, 1, None), (5, 1, 1, None), (7, 1, 1, None), (11, 1, 1, None),
        (13, 1, 1, None), (3, 2, 1, None), (3, 1, 2, None),
        (13, 1, 1, 3), (11, 1, 1, 23), (7, 1, 1, 29),
    ],
)
def test_character_field_equals_class_trace_field(p, f, m, ell, part):
    # the witnesses on the generators decide the same field as the traces
    # of the whole sweep: one per class of Sp, one per element of H(W)
    psi, space, w = build_weil(p, f, m, ell=ell)
    even, odd = even_odd_split(w)
    rep = {"full": w, "even": even, "odd": odd, "heisenberg": heisenberg_rep(psi, space)}[part]
    terms = class_traces(rep, SWEEP_BOUND)
    assert character_field(rep) == subfield_of_values([t for t, _, _ in terms])


def test_heis_traces_are_class_functions(model3):
    from weildescent.finite import heis_enumerate
    from weildescent.weil import _heis_trace

    sp, psi = model3["space"], model3["psi"]
    els = heis_enumerate(sp)
    import random

    rng = random.Random(0)
    for _ in range(100):
        h, k = rng.choice(els), rng.choice(els)
        conj = k * h * k.inverse()
        assert _heis_trace(psi, sp, conj) == _heis_trace(psi, sp, h)


def test_orbit_idempotents_central_in_commutant(model3):
    # the block idempotents commute with the whole commutant of the
    # restricted representation (computed by a dense exact solve)
    from weildescent.linalg import intertwiner_space

    rho = model3["heis"]
    K = rho.field
    orb = orbit_decomposition(rho, K.full_tag())
    restricted = restrict_scalars(rho, K.full_tag())
    commutant = intertwiner_space(
        restricted.gens_images(), restricted.gens_images()
    )
    assert len(commutant) == 2  # End(rho_psi + rho_psi^2) = K x K: n m^2 = 2
    for P in orb.idempotents:
        for T in commutant:
            assert P * T == T * P


def _center_from_table(alg):
    "The centre and commutativity read off the full structure-constant table."
    s = alg.structure_constants()
    rows = [
        [s[i][k][c] - s[k][i][c] for i in range(alg.dim)]
        for k in range(alg.dim)
        for c in range(alg.dim)
    ]
    commutative = all(s[i][k] == s[k][i] for i in range(alg.dim) for k in range(alg.dim))
    return Matrix(alg.rep.field, rows).nullspace(), commutative


def _weil_part(part, p, ell=None):
    """The full Weil rep of Sp(2, F_p), or its even or odd part, over Q or
    F_ell, with its character field.  "conjugated" is the full rep
    conjugated by D = diag(1, zeta, 1, ...), so that End_K(V) has a basis
    matrix that sigma_u moves; the omega(m_alpha) witness of character_field
    does not hold in that basis, so its field is the full rep's."""
    fq = fq_field(p, 1)
    K = field_make(MODULAR if ell else RATIONAL, p, ell)
    w = weil_rep(psi_standard(fq, K), SymplecticSpace(fq, 1))
    if part == "conjugated":
        D = Matrix.identity(K, w.dim)
        D.rows[1][1] = K.zeta()
        Dinv = D.inverse()
        return w.derive("D w D^-1", lambda k: D * w.image(k) * Dinv), character_field(w)
    rep = w if part == "full" else even_odd_split(w)[part == "odd"]
    return rep, character_field(rep)


@pytest.mark.parametrize(
    "part,subfield",
    [
        # (p, ell): the odd part
        ((5, None), "Q"),
        ((5, None), "char"),
        ((7, None), "Q"),
        ((7, None), "char"),
        ((5, 7), "char"),
        ("heisenberg", "Q"),
        # two constituents: Hom_K(^u V, V) is a plane at every square u
        pytest.param(("full", 5, None), "Q", id="full-p5-Q"),
        pytest.param(("full", 5, None), "char", id="full-p5-char"),
        # quaternion-shaped over Q(sqrt 5): one Hom line at sigma_4
        pytest.param(("even", 5, None), "char", id="even-p5-char"),
        pytest.param(("full", 5, 13), "char", id="full-p5-ell13-char"),
        pytest.param(("conjugated", 5, None), "Q", id="conjugated-p5-Q"),
    ],
)
def test_generator_centre_matches_structure_constants(model3, part, subfield):
    # the centre solved on the sigma_1 block is the rref kernel basis of the
    # full commutator table, entry for entry
    if part == "heisenberg":
        rep = model3["heis"]
        field_tag = character_field(rep)
    else:
        part, p, ell = part if len(part) == 3 else ("odd", *part)
        rep, field_tag = _weil_part(part, p, ell)
    tag = rep.field.full_tag() if subfield == "Q" else field_tag
    alg = _end(rep, tag, 2 if part in ("full", "conjugated") else 1, field_tag)
    if part == "conjugated":
        # the sigma_1 block is not fixed by the other sigma_v of the support
        K = rep.field
        assert any(
            B.map(GaloisAut(K, v)) != B for B in alg.hom_bases[1] for v in alg.hom_bases
        )
    center, commutative = _center_from_table(alg)
    assert alg.center_basis() == center
    assert alg.is_commutative() == commutative
    assert alg.m**2 * alg.n == alg.dim


def _rref_span_coordinates(basis_mats, M):
    "Coordinates of M in the span of the matrices, by one rref of [basis | M]."
    K = M.field
    cols = [[e for r in b.rows for e in r] for b in basis_mats]
    rhs = [e for r in M.rows for e in r]
    red, pivots = Matrix(K, [list(col) + [r] for col, r in zip(zip(*cols), rhs)]).rref()
    k = len(basis_mats)
    assert k not in pivots
    out = [K.zero()] * k
    for r, p in enumerate(pivots):
        out[p] = red.rows[r][k]
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_span_coordinates_match_rref_on_theta_hom(p):
    # theta_lift's expansions: H2 and D1 images of each Hom(pi1, V) basis map
    from weildescent.linalg import intertwiner_space, span_coordinates
    from weildescent.theta import parity_pair, sign_characters

    _, _, rep = build_weil(p, 1, 1)
    pair = parity_pair(rep)
    for pi1 in sign_characters(rep.field):
        src, tgt = [pi1["c"]], [pair.h1_gens["c"]]
        hom = intertwiner_space(src, tgt)
        coordinates = span_coordinates(hom)
        targets = [g2 * phi for g2 in pair.h2_gens.values() for phi in hom]
        targets += [phi * d for d in intertwiner_space(src, src) for phi in hom]
        for M in targets:
            assert coordinates(M) == _rref_span_coordinates(hom, M)


def test_span_coordinates_match_rref_on_end_hom_basis(model5):
    # the full Weil rep at p = 5 over Q: Hom(^u V, V) is a plane for every
    # square u, and the products of basis elements expand in it
    from weildescent.linalg import span_coordinates

    alg = _end(model5["weil"], model5["weil"].field.full_tag(), 2)
    assert {len(h) for h in alg.hom_bases.values()} == {2}
    checked = 0
    for u, homs in alg.hom_bases.items():
        coordinates = span_coordinates(homs)
        for i in range(alg.dim):
            for k in range(alg.dim):
                M = alg.multiply(alg.basis_element(i), alg.basis_element(k)).get(u)
                if M is not None:
                    assert coordinates(M) == _rref_span_coordinates(homs, M)
                    checked += 1
    assert checked == alg.dim**2


def test_span_coordinates_refuse_outside_and_dependent(model3):
    from weildescent.errors import IdentityFailure
    from weildescent.linalg import span_coordinates

    K = model3["weil"].field
    one = Matrix.identity(K, 2)
    flip = Matrix(K, [[K.one(), K.zero()], [K.zero(), K.from_int(-1)]])
    assert span_coordinates([one, flip])(one.scale(K.from_int(3))) == [K.from_int(3), K.zero()]
    with pytest.raises(IdentityFailure, match="outside the span"):
        span_coordinates([one])(flip)
    with pytest.raises(IdentityFailure, match="dependent"):
        span_coordinates([one, one.scale(K.zeta())])


@pytest.mark.parametrize(
    "part, p, f, m, ell",
    [
        ("odd", 7, 1, 1, None),
        ("odd", 13, 1, 1, None),
        ("even", 5, 2, 1, None),
        ("full", 7, 1, 1, None),
        ("full", 5, 1, 2, None),
        ("odd", 7, 1, 1, 29),
        ("full", 7, 1, 1, 5),
    ],
)
def test_witness_hom_bases_match_the_solve_on_every_generator(part, p, f, m, ell):
    # each Hom_K(^u V, V) of the End algebra over the prime field, read off
    # End_K(V) . omega(m_alpha) or solved on the certifying generators, is
    # the basis of one solve over every declared generator, matrix for matrix
    from weildescent.linalg import intertwiner_space

    _, _, w = build_weil(p, f, m, ell=ell)
    rep = w if part == "full" else even_odd_split(w)[part == "odd"]
    K = rep.field
    field_tag = character_field(rep)
    alg = endomorphism_algebra(rep, K.full_tag(), field_tag, 2 if part == "full" else 1)
    for u in K.galois_exponents():
        dense = intertwiner_space(rep.conjugate(GaloisAut(K, u)).gens_images(), rep.gens_images())
        assert alg.hom_bases.get(u, []) == dense
        if u != 1 and u in field_tag.stabilizer:
            assert rep.witnesses[u] is not None  # the witness route, not a solve


@pytest.mark.parametrize("part", ["full", "even", "odd"])
@pytest.mark.parametrize(
    "p, f, ell",
    [
        (3, 1, None), (5, 1, None), (7, 1, None), (11, 1, None), (13, 1, None),
        (3, 2, None), (5, 2, None),
        # ell a nonsquare mod p, so that some sigma_u moves the field
        (23, 1, 11), (7, 1, 5), (5, 1, 3), (11, 1, 7),
        (11, 1, 23), (13, 1, 3), (7, 1, 29),
    ],
)
def test_certifying_generators_keep_a_trace_witness(p, f, ell, part):
    # Gerardin: sigma_u fixes the character field exactly when u is a square
    # in F_q; every other u moves the trace of M(g), N(1) or W0
    _, space, w = build_weil(p, f, 1, ell=ell)
    rep = w if part == "full" else even_odd_split(w)[part == "odd"]
    K, fq = rep.field, space.fq
    assert len(certifying_names(rep)) == 3
    squares = {u for u in K.galois_exponents() if fq.sqrt(fq.from_int(u)) is not None}
    assert character_field(rep).stabilizer == squares
    traces = [rep.image(g).trace() for g in certifying_names(rep)]
    for u in set(K.galois_exponents()) - squares:
        sigma = GaloisAut(K, u)
        assert any(apply_aut(sigma, t) != t for t in traces)
