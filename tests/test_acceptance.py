"""Acceptance suite: one test per criterion, one printed PASS/FAIL line
each (run with -s to see them inline).  Every assertion is exact
(tolerance zero); the only bounded statements are the height-20 norm
searches, as stated.

Criterion 4's first clause asserts quaternion_ramification(-1,-5) = {5,inf}
verbatim, as originally requested.  That target is mathematically
unsatisfiable: -1 is a square mod 5 (z = 7 solves z^2 = -1 mod 25), so
(-1,-5)_5 = +1 and the true set is {2,inf} -- which the product formula,
(-1,-1)_2 = -1, and the brute-force oracle all force.  The assertion is
kept as written and marked strict-xfail rather than silently corrected;
the true value is pinned in test_symbols."""

import random
import time

import pytest

from weildescent.descent import (
    build_weil,
    odd_obstruction_check,
    realise_even,
    realise_full,
    realise_modular,
    realise_odd,
)
from weildescent.fields import (
    GaloisAut,
    RATIONAL,
    SubfieldTag,
    apply_aut,
    field_make,
    trace_to_subfield,
)
from weildescent.finite import (
    SymplecticSpace,
    char_twist,
    fq_field,
    psi_standard,
    sp_enumerate,
    token_m,
)
from weildescent.linalg import Matrix, intertwiner_space
from weildescent.rationality import (
    character_field,
    endomorphism_algebra,
    iso_test,
    orbit_decomposition,
)
from weildescent.symbols import (
    INF,
    compute_A_for_Q2,
    hilbert_symbol,
    p2_field_tables,
    product_formula_holds,
    quaternion_ramification,
)
from weildescent.theta import (
    parity_pair,
    sign_characters,
    theta_galois_equivariance,
    theta_lift,
    theta_unitarity,
)
from weildescent.weil import (
    _trace_pair_dimension,
    class_traces,
    cocycle_certificate,
    even_odd_split,
    heisenberg_rep,
    intertwining_check,
    semilinearity_check,
    weil_rep,
)


def _end_matches_trace_formula(rep, tag, constituents):
    """End of rep over the tagged subfield, and whether its dimension is the
    trace formula's on the class_traces table of rep."""
    alg = endomorphism_algebra(rep, tag, character_field(rep), constituents)
    terms = [
        (trace_to_subfield(t, tag), trace_to_subfield(ti, tag), w)
        for t, ti, w in class_traces(rep, 10**5)
    ]
    return alg, alg.dim == _trace_pair_dimension(rep.field, terms)


def report(num, label, ok, extra=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{label}]: {verdict}{' - ' + extra if extra else ''}")
    assert ok, f"criterion {num} ({label})"


def test_criterion_1_intro_table_character_fields():
    t0 = time.monotonic()
    expected = {
        (3, 1): frozenset({1}),  # Q[sqrt(-3)] = Q(zeta_3)
        (5, 1): frozenset({1, 4}),  # Q[sqrt(5)]
        (7, 1): frozenset({1, 2, 4}),  # Q[sqrt(-7)]
        (3, 2): frozenset({1, 2}),  # Q
    }
    ok = True
    for (p, f), stab in expected.items():
        _, _, rep = build_weil(p, f, 1)
        even, odd = even_odd_split(rep)
        ok = ok and character_field(even).stabilizer == stab
        ok = ok and character_field(odd).stabilizer == stab
    elapsed = time.monotonic() - t0
    report(1, "intro-table character fields", ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_2a_even_q9_descends_to_Q():
    t0 = time.monotonic()
    res = realise_even(3, 2, 1)
    ok = res.rep.dim == 5
    ok = ok and res.target.stabilizer == frozenset({1, 2})
    ok = ok and all(
        e.is_rational() for t in res.rep.gen_names for r in res.images[t].rows for e in r
    )
    ok = ok and res.transcript["round_trip_isomorphism"]
    elapsed = time.monotonic() - t0
    report(2, "q=9 even part: 5x5 over Q", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_2b_full_q7_descends_to_sqrt_minus7():
    from weildescent.fields import gauss_sum

    t0 = time.monotonic()
    res = realise_full(7, 1, 1)
    K = res.rep.field
    g7 = gauss_sum(7)
    ok = res.rep.dim == 7
    ok = ok and res.target.stabilizer == frozenset({1, 2, 4})
    ok = ok and all(
        apply_aut(GaloisAut(K, u), g7) == g7 for u in res.target.stabilizer
    )  # the target field is Q[sqrt(-7)]
    ok = ok and res.transcript["round_trip_isomorphism"]
    elapsed = time.monotonic() - t0
    report(2, "q=7 full Weil over Q[sqrt(-7)]", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_2c_odd_q5_norm_equation_realisation():
    t0 = time.monotonic()
    res, info = realise_odd(5, 1, 1)
    big = res.rep.field
    ok = big.n == 20 and res.target.stabilizer == frozenset({1, 9})
    lam_json = info["norm_lambda"]
    ok = ok and lam_json is not None
    # re-verify N(lambda) = -1 exactly from the serialized value
    from weildescent.fields import cyclonum_from_json

    lam = cyclonum_from_json(lam_json, big)
    gen = info["norm_transcript"]["tower_generator"]
    ok = ok and lam * apply_aut(GaloisAut(big, gen), lam) == big.from_int(-1)
    ok = ok and res.transcript["round_trip_isomorphism"]
    ok = ok and info["schur_index"] == 2
    elapsed = time.monotonic() - t0
    report(
        2, "q=5 odd over Q[sqrt5,sqrt-5] via N(lambda)=-1", ok and elapsed < 120,
        f"{elapsed:.1f}s",
    )


def test_criterion_2d_odd_q3_over_sqrt_minus3():
    t0 = time.monotonic()
    res, info = realise_odd(3, 1, 1)
    ok = res.rep.dim == 1
    ok = ok and res.target.stabilizer == frozenset({1})  # Q(zeta_3) = Q[sqrt(-3)]
    ok = ok and res.transcript["round_trip_isomorphism"]
    ok = ok and info["schur_index"] == 1
    elapsed = time.monotonic() - t0
    report(2, "q=3 odd over Q[sqrt(-3)]", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_3_obstruction_suite():
    ok = True
    for p, f in ((5, 1), (3, 2), (13, 1)):
        _, _, rep = build_weil(p, f, 1)
        _, odd = even_odd_split(rep)
        rec = odd_obstruction_check(odd, bound=20)
        ok = ok and rec["r_tau_power_is_minus_id"]
        ok = ok and rec["cm_field"] and rec["obstruction_present"]
        search = rec["norm_search"]
        ok = ok and search["bound"] == 20
        ok = ok and search.get("definite_obstruction", False)
    report(3, "r_tau^(2^k_a) = -Id and CM norm obstruction", ok, "q in {5,9,13}")


def test_criterion_4_quaternion_invariants_sound_part():
    ok = quaternion_ramification(-1, -3) == {3, INF}
    ok = ok and hilbert_symbol(-1, -1, 2) == -1
    rng = random.Random(0)
    for _ in range(100):
        a = rng.choice([-1, 1]) * rng.randint(1, 60)
        b = rng.choice([-1, 1]) * rng.randint(1, 60)
        ok = ok and product_formula_holds(a, b)
    report(4, "quaternion invariants (sound clauses)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="unsatisfiable target: (-1,-5)_5 = +1 since -1 = 2^2 mod 5, so the"
    " set is {2,inf}, not {5,inf}; the requested value is kept verbatim",
)
def test_criterion_4_requested_literal_minus1_minus5():
    ok = quaternion_ramification(-1, -5) == {5, INF}
    report(4, "quaternion_ramification(-1,-5) = {5,inf} (as requested)", ok)


def test_criterion_5_stone_von_neumann():
    ok = True
    for p, f in ((3, 1), (5, 1), (3, 2)):
        fq = fq_field(p, f)
        sp = SymplecticSpace(fq, 1)
        K = field_make(RATIONAL, p)
        rho = heisenberg_rep(psi_standard(fq, K), sp)
        comm = intertwiner_space(rho.gens_images(), rho.gens_images())
        ok = ok and len(comm) == 1
        for u in K.galois_exponents():
            if u != 1:
                ok = ok and iso_test(rho.conjugate(GaloisAut(K, u)), rho) is None
    report(5, "Stone-von Neumann: commutant K, H(rho) = {id}", ok, "q in {3,5,9}")


def test_criterion_6_weil_property_suite():
    ok = True
    # cocycle: exhaustive on Sp(2,F_3)
    # (the column certificate takes the dimension of the commutant of rho)
    psi3, sp3, rep3 = build_weil(3, 1, 1)
    rho3 = heisenberg_rep(psi3, sp3)
    comm3 = len(intertwiner_space(rho3.gens_images(), rho3.gens_images()))
    els3 = list(sp_enumerate(sp3, 100))
    cert3 = cocycle_certificate(rep3, [(a, b) for a in els3 for b in els3], comm3)
    ok = ok and cert3.all_pm_one() and cert3.summary()["pairs"] == 576
    # cocycle: 200 seeded pairs in Sp(2,F_5)
    psi5, sp5, rep5 = build_weil(5, 1, 1)
    rho5 = heisenberg_rep(psi5, sp5)
    comm5 = len(intertwiner_space(rho5.gens_images(), rho5.gens_images()))
    els5 = list(sp_enumerate(sp5, 1000))
    rng = random.Random(0)
    pairs = [(rng.choice(els5), rng.choice(els5)) for _ in range(200)]
    ok = ok and cocycle_certificate(rep5, pairs, comm5).all_pm_one()
    # intertwining on generators x spanning h
    for psi, sp, rep in (
        (psi5, sp5, rep5),
        (psi_standard(sp3.fq, rep3.field), sp3, rep3),
    ):
        ok = ok and intertwining_check(rep, heisenberg_rep(psi, sp))
    # semilinearity for every sigma, and the square-twist conjugation
    K5 = rep5.field
    for u in K5.galois_exponents():
        if u != 1:
            ok = ok and semilinearity_check(rep5, GaloisAut(K5, u))
    fq5 = sp5.fq
    m2 = rep5.image(token_m(Matrix(fq5, [[fq5.from_int(2)]])))
    rep5_4 = weil_rep(char_twist(psi5, fq5.from_int(4)), sp5)
    for tok in rep5.gen_names:
        ok = ok and rep5_4.image(tok) * m2 == m2 * rep5.image(tok)
    report(6, "cocycle/intertwining/semilinearity/conjugation", ok)


def test_criterion_7_scalar_extension_structure():
    ok = True
    for p, expected_n in ((3, 2), (5, 4)):
        fq = fq_field(p, 1)
        sp = SymplecticSpace(fq, 1)
        K = field_make(RATIONAL, p)
        psi = psi_standard(fq, K)
        rho = heisenberg_rep(psi, sp)
        alg, traced = _end_matches_trace_formula(rho, K.full_tag(), 1)
        orb = orbit_decomposition(rho, K.full_tag())
        ok = ok and traced and (orb.m, orb.n) == (1, expected_n) == (alg.m, alg.n)
        # blocks match the Galois orbit {rho_{psi^u}}: the u-component of
        # the conjugate equals the psi^u-model on the nose
        for u in K.galois_exponents():
            conj = rho.conjugate(GaloisAut(K, u))
            twisted = heisenberg_rep(char_twist(psi, fq.from_int(u)), sp)
            ok = ok and all(
                conj.image(t) == twisted.image(t) for t in rho.gen_names
            )
    _, _, rep5 = build_weil(5, 1, 1)
    _, odd5 = even_odd_split(rep5)
    K5 = rep5.field
    alg, traced = _end_matches_trace_formula(odd5, SubfieldTag(K5, [4]), 1)
    ok = ok and traced and alg.dim == 4 and alg.m == 2 and not alg.is_commutative()
    report(7, "(m,n) = (1,p-1) for rho|_Q; quaternion End for odd q=5", ok)


def test_criterion_8_theta_suite():
    ok = True
    for p, dims in ((3, (2, 1)), (5, (3, 2))):
        fq = fq_field(p, 1)
        sp = SymplecticSpace(fq, 1)
        K = field_make(RATIONAL, p)
        psi = psi_standard(fq, K)
        rep = weil_rep(psi, sp)
        pair = parity_pair(rep)
        triv, sgn = sign_characters(K)
        lt, ls = theta_lift(pair, triv), theta_lift(pair, sgn)
        ok = ok and (lt.dim, ls.dim) == dims
        ok = ok and lt.checks["irr"] and ls.checks["irr"]
        uni = theta_unitarity(lt, ls)
        ok = ok and uni["comparable"] and not uni["isomorphic"]
        for u in K.galois_exponents():
            if u == 1:
                continue
            rep_sigma = weil_rep(char_twist(psi, fq.from_int(u)), sp)
            verdict = theta_galois_equivariance(rep, rep_sigma, GaloisAut(K, u))
            ok = ok and verdict == {"trivial": True, "sign": True}
    report(8, "theta lifts: dims, (Uni), Galois equivariance", ok, "q in {3,5}")


def test_criterion_9_modular_mode():
    res, info = realise_modular(5, 1, 1, 7, "odd")
    Km = res.rep.field
    ok = Km.char == 7 and Km.degree == 4
    ok = ok and res.target.stabilizer == frozenset({1, 4})  # F_49, the char field
    # char field computed independently via iso testing
    _, _, repm = build_weil(5, 1, 1, ell=7)
    _, oddm = even_odd_split(repm)
    fixing = [
        u
        for u in Km.galois_exponents()
        if iso_test(oddm.conjugate(GaloisAut(Km, u)), oddm) is not None
    ]
    ok = ok and sorted(fixing) == [1, 4]
    from weildescent.fields import cyclonum_from_json

    lam = cyclonum_from_json(info["norm_lambda"], Km)
    gen = info["norm_transcript"]["tower_generator"]
    ok = ok and lam * apply_aut(GaloisAut(Km, gen), lam) == Km.from_int(-1)
    ok = ok and res.transcript["round_trip_isomorphism"]
    report(9, "modular ell=7, p=5: odd part over F_49, norm solved", ok)


def test_criterion_10_p2_tables():
    even_expect = {
        "full": "Q",
        "class3": "Q(sqrt(-2))",
        "class5": "Q(sqrt(-1))",
        "classMinus1": "Q(sqrt(2))",
        "squaresOnly": "Q(zeta_8)",
    }
    odd_index = {"full": 2, "class3": 1, "class5": 1, "classMinus1": 2, "squaresOnly": 1}
    ok = True
    for A, name in even_expect.items():
        t = p2_field_tables(A)
        ok = ok and t["even"]["char_field"] == name
        ok = ok and t["odd"]["schur_index"] == odd_index[A]
    t = p2_field_tables("full")
    ok = ok and t["odd"]["realisations"] == ["Q(sqrt(-2))", "Q(sqrt(-1))"]
    t = p2_field_tables("classMinus1")
    ok = ok and t["odd"]["realisations"] == ["Q(zeta_8)"]
    ok = ok and t["odd"]["char_field"] == "Q(sqrt(2))"
    ok = ok and compute_A_for_Q2() == "squaresOnly"
    report(10, "p=2 decision tables and A(Q_2)", ok)
