"""Semilinear descent data and the explicit realisations of the Weil
representation and its even/odd parts over their predicted fields.

A descent datum on a representation V over K assigns to each sigma in a
subgroup Gamma of Gal(K/target) a matrix R_sigma; the semilinear action is
v -> R_sigma . sigma(v).  Validity means exactly:

    cocycle        R_{sigma tau} = R_sigma . sigma(R_tau)
    equivariance   R_sigma . sigma(rho(g)) = rho(g) . R_sigma

Every part in both characteristics gets its datum from descent_datum:
Gamma = <sigma_gen> of order ord, R_gen = lambda . omega(m_alpha) with
alpha^2 = 1/gen in F_q (the root with alpha^ord = 1 if any, else the least)
and R_{gen^(j+1)} = R_{gen^j} . sigma_{gen^j}(R_gen); lambda = 1 unless
omega(m_alpha)^ord = -Id, when N(lambda) = -1.  Each R_u is kept as the
monomial form (perm, vals) it is born in, and the chain, the validation and
the fixed-space rows read it with no matrix product.  The parts differ only
in the target: the 2'-part (full rep), the square stabilizer (even part,
odd part for q = 3 mod 4, modular parts), a subfield of Q(zeta_4p) (odd
part of Schur index 2).

Fixed points are extracted by one exact nullspace computation over the
prime field (restriction of scalars), never by Galois averaging: rows for
the generators of the stabilizer only, in native prime-field numbers
(Fractions or ints mod ell).  The solve works for any valid datum and
certifies itself through the rank, which Speiser's lemma fixes in advance.
One elimination over K picks the basis U of the fixed space and inverts it.

The odd part carries the quaternionic obstruction: r_tau^(2^k_a) = -Id,
so descending past the CM field needs lambda with N(lambda) = -1, which a
totally-positive norm form rules out exactly (the bounded search plus the
PSD certificate are the two honest outcomes)."""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ConfigInvalid,
    DatumInvalid,
    IdentityFailure,
    NotFoundWithinBound,
    RankDeficiency,
)
from .fields import (
    GaloisAut,
    SubfieldTag,
    _mult_order,
    apply_aut,
    embed,
    field_make,
    gauss_sum,
    greedy_generators,
    subfield_membership,
    trace_to_subfield,
    MODULAR,
    RATIONAL,
)
from .finite import SymplecticSpace, fq_field, psi_standard, token_m
from .linalg import Matrix, ldl_psd, monomial_form, pivot_inverse, twisted_commutes, twisted_product
from .weil import MarkedRep, even_odd_split, generators_json, weil_rep


class DescentDatum:
    """Family {R_u} over the stabilizer exponents of the target tag, each
    R_u the monomial form (perm, vals) of linalg.monomial_form: column j
    nonzero only at row perm[j], with value vals[j]."""

    def __init__(self, rep: MarkedRep, entries, target: SubfieldTag):
        self.rep = rep
        self.entries = dict(entries)  # exponent u -> monomial form over rep.field
        self.target = target
        if 1 not in self.entries:
            self.entries[1] = list(range(rep.dim)), [rep.field.one()] * rep.dim
        if set(self.entries) != set(target.stabilizer):
            raise DatumInvalid(
                f"entries {sorted(self.entries)} are not the stabilizer "
                f"{sorted(target.stabilizer)} of the target"
            )

    def validate(self):
        """The cocycle R_uv = R_u sigma_u(R_v) and the equivariance
        R_u sigma_u(rho(g)) = rho(g) R_u on the generators, exactly, on the
        monomial forms of the R_u: permutations composed and values
        compared, with no matrix product."""
        K = self.rep.field
        for u, Ru in self.entries.items():
            su = GaloisAut(K, u)
            for v, Rv in self.entries.items():
                if twisted_product(Ru, su, Rv) != self.entries[(u * v) % K.n]:
                    raise DatumInvalid(f"cocycle fails at ({u}, {v})")
            for g in self.rep.gen_names:
                if not twisted_commutes(Ru, su, self.rep.image(g)):
                    raise DatumInvalid(f"equivariance fails at sigma_{u}, {g}")
        return {
            "semilinearity": "structural (matrix composed with entrywise sigma)",
            "cocycle_pairs": len(self.entries) ** 2,
            "equivariance_checks": len(self.entries) * len(self.rep.gen_names),
        }


class DescentResult:
    def __init__(self, rep, target, basis, inverse, images, transcript):
        self.rep = rep
        self.target = target
        self.basis = basis  # N x N over K, columns = fixed vectors
        self.inverse = inverse  # basis^-1
        self.images = images  # generator key -> matrix over K with entries in target
        self.transcript = transcript

    def to_marked_rep(self) -> MarkedRep:
        "The descended model as a rep: U^-1 . rho(g) . U for every element g."
        U, Uinv = self.basis, self.inverse
        return self.rep.derive(
            f"{self.rep.label} over {self.target!r}",
            lambda k: Uinv * self.rep.image(k) * U,
        )

    def to_json(self):
        return {
            "label": self.rep.label,
            "dim": self.rep.dim,
            "target": self.target.to_json(),
            "generators": generators_json((str(k), self.images[k]) for k in self.rep.gen_names),
            "transcript": self.transcript,
        }


def fixed_points(datum: DescentDatum) -> DescentResult:
    """Solve for the simultaneous fixed vectors of all R_u . sigma_u over
    the prime field (on the generators of the stabilizer, once validate has
    certified the cocycle), extract a K-basis U of the fixed space, and
    conjugate the generator images into the target subfield.  One
    pivot_inverse picks U among the folded fixed vectors and gives U^-1.
    The descended model is certified by U itself: U . U^-1 = Id is checked
    exactly, so D(g) = U^-1 . rho(g) . U satisfies U . D(g) = rho(g) . U
    for every generator g, and U is an isomorphism onto the original."""
    transcript = {"datum": datum.validate()}
    rep = datum.rep
    K = rep.field
    dk = K.degree
    N = rep.dim
    null = _fixed_space(K, N, datum.entries)
    dt = datum.target.degree_over_prime()
    if len(null) != N * dt:
        raise RankDeficiency(
            f"fixed space has prime dimension {len(null)}, expected {N * dt}"
        )
    transcript["fixed_space_prime_dim"] = len(null)

    # column k: the k-th prime-field fixed vector, folded into K^N
    folded = Matrix(
        K, [[K.from_coeffs(vec[i * dk : (i + 1) * dk]) for vec in null] for i in range(N)]
    )
    # the pivot columns are the folded vectors independent of those before them
    found = pivot_inverse(folded)
    if found is None:
        raise RankDeficiency("fixed space does not span over K")
    pivots, Uinv = found
    U = Matrix(K, [[row[j] for j in pivots] for row in folded.rows])
    if not (U * Uinv).is_identity():
        raise IdentityFailure("fixed-space basis is not invertible")
    images = {}
    for g in rep.gen_names:
        img = Uinv * (rep.image(g) * U)
        for row in img.rows:
            for e in row:
                if not subfield_membership(e, datum.target):
                    raise IdentityFailure("descended entry escapes the target subfield")
        images[g] = img
    transcript["entries_in_target"] = True
    transcript["round_trip_isomorphism"] = True
    return DescentResult(rep, datum.target, U, Uinv, images, transcript)


def _fixed_space(K, N, entries):
    """Prime-field basis of the vectors of K^N fixed by every
    v -> R_u . sigma_u(v), R_u = entries[u] a monomial form, each coordinate
    written on the power basis of K.  entries is a cocycle on a group of
    exponents, so u -> R_u sigma_u is a homomorphism and the rows of a
    greedy generating set of the group suffice.  The rows hold native prime-field numbers
    (Fractions, or ints mod ell) and the basis is the reduced-echelon kernel
    basis of the system, the one every exact elimination of it returns."""
    char, dk = K.char, K.degree
    size = N * dk
    rows = []
    for u in greedy_generators(K, entries):
        sigma = GaloisAut(K, u)
        images = [apply_aut(sigma, K.zeta_pow(b)) for b in range(dk)]
        blocks = {}  # c -> columns b of c . sigma_u(zeta^b), on the power basis
        perm, vals = entries[u]
        col_of = dict(zip(perm, range(N)))  # row i of R_u is nonzero at column col_of[i]
        for i in range(N):
            j = col_of[i]
            c = vals[j]
            block = [[0] * size for _ in range(dk)]
            if c not in blocks:
                prods = [c * w for w in images]
                blocks[c] = [y.nums if char else y.as_fractions() for y in prods]
            for b, col in enumerate(blocks[c]):
                for a, x in enumerate(col):
                    block[a][j * dk + b] = x
            for a in range(dk):
                x = block[a][i * dk + a] - 1
                block[a][i * dk + a] = x % char if char else x
            rows.extend(block)
    return _prime_kernel(rows, size, char)


def _prime_kernel(m, ncols, char):
    """Reduced-echelon kernel basis of the rows m over Q (char 0) or F_char:
    Gauss-Jordan in place, with the leftmost nonzero column and the topmost
    nonzero row as pivot, then one vector per free column."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        prow = m[r]
        nz = [(j, x) for j, x in enumerate(prow) if x]
        if prow[col] != 1:
            inv = pow(prow[col], -1, char) if char else 1 / Fraction(prow[col])
            nz = [(j, x * inv % char if char else x * inv) for j, x in nz]
            for j, x in nz:
                prow[j] = x
        for i, row in enumerate(m):
            c = row[col]
            if i == r or not c:
                continue
            for j, x in nz:
                row[j] = (row[j] - c * x) % char if char else row[j] - c * x
        pivots.append(col)
        if len(pivots) == len(m):
            break
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -m[r][f] % char if char else -m[r][f]
        basis.append(v)
    return basis


def _subfield_q_basis(tag: SubfieldTag):
    "Prime-field basis of the tagged subfield: the fixed space of the trivial 1 x 1 datum."
    K = tag.field
    one = [0], [K.one()]
    null = _fixed_space(K, 1, dict.fromkeys(tag.stabilizer, one))
    if len(null) != tag.degree_over_prime():
        raise RankDeficiency(
            f"subfield has prime dimension {len(null)}, expected {tag.degree_over_prime()}"
        )
    return [K.from_coeffs(v) for v in null]


# ---------------------------------------------------------------------------
# The descent data


def _odd_part_exponents(K):
    "Odd-order elements of the Galois group (the 2' part)."
    return [u for u in K.galois_exponents() if _mult_order(u, K.n) % 2 == 1]


def _square_stabilizer(rep):
    "{u in Gal : u, embedded in F_q, is a square} -- the character-field stabilizer."
    fq = rep.space.fq
    K = rep.field
    out = []
    for u in K.galois_exponents():
        e = fq.from_int(u % fq.p)
        if fq.sqrt(e) is not None:
            out.append(u)
    return out


def _m_alpha_sign(block: MarkedRep, gen: int, ord_: int):
    """(alpha, r0, s): alpha^2 = 1/gen in F_q, the root with alpha^ord = 1
    when there is one and the least root otherwise; r0 the monomial form of
    omega(m_alpha); s = +-1 with r0^ord = s . Id.  A non-monomial
    omega(m_alpha) raises DatumInvalid."""
    space = block.space
    fq = space.fq
    K = block.field
    alpha = fq.sqrt(fq.from_int(pow(gen % fq.p, -1, fq.p)))
    if alpha is None:
        raise IdentityFailure(f"1/{gen} is not a square in F_q")
    if alpha**ord_ != fq.one() and (-alpha) ** ord_ == fq.one():
        alpha = -alpha
    r0 = monomial_form(block.image(token_m(Matrix.identity(fq, space.m).scale(alpha))))
    if r0 is None:
        raise DatumInvalid("omega(m_alpha) is not monomial")
    sigma_1, one = GaloisAut(K, 1), K.one()
    power = r0
    for _ in range(ord_ - 1):
        power = twisted_product(power, sigma_1, r0)
    perm, vals = power
    if perm == list(range(block.dim)):
        if all(v == one for v in vals):
            return alpha, r0, 1
        if all(v == -one for v in vals):
            return alpha, r0, -1
    raise DatumInvalid("r0^ord is not a sign")


def descent_datum(block: MarkedRep, target: SubfieldTag, bound: int):
    """The descent datum of a rep over the target subfield: with gen the
    least generator of the (cyclic) stabilizer and ord its order,
    R_gen = lambda . r0 for (alpha, r0, s) = _m_alpha_sign(block, gen, ord);
    lambda = 1 when s = 1, and solves N(lambda) = -1 down to the target
    when s = -1.  Returns (datum, lambda, norm transcript or None)."""
    K = block.field
    gen = _quotient_generator(K, [1], sorted(target.stabilizer))
    ord_ = len(target.stabilizer)
    lam = K.one()
    if ord_ == 1:
        return DescentDatum(block, {}, target), lam, None
    _, r0, sign = _m_alpha_sign(block, gen, ord_)
    norm_transcript = None
    if sign == -1:
        lam, norm_transcript = solve_norm_equation(
            K, K.top_tag(), target, K.from_int(-1), bound
        )
    # R_{gen^(j+1)} = R_{gen^j} . sigma_{gen^j}(R_gen), exact by construction
    entries = {}
    rgen = r0[0], [lam * v for v in r0[1]]
    e, Rcur = gen, rgen
    while e != 1:
        entries[e] = Rcur
        Rcur = twisted_product(Rcur, GaloisAut(K, e), rgen)
        e = (e * gen) % K.n
    return DescentDatum(block, entries, target), lam, norm_transcript


# ---------------------------------------------------------------------------
# Odd-part obstruction


def odd_obstruction_check(rep_odd: MarkedRep, bound: int = 20):
    """The CM obstruction of the odd part (q = 1 mod 4): constructs r_tau,
    verifies r_tau^(2^k_a) = -Id exactly, certifies that L = K^(2'-part) is
    CM, and that the bounded search for N(lambda) = -1 in the CM tower
    L / L_0 fails (with the definite-form certificate when available)."""
    fq = rep_odd.space.fq
    K = rep_odd.field
    p, f = fq.p, fq.f
    assert fq.q % 4 == 1, "obstruction concerns the q = 1 mod 4 case"
    k = 0
    t = p - 1
    while t % 2 == 0:
        t //= 2
        k += 1
    g0 = fq_field(p, 1).primitive_element().index()
    sigma_gen = pow(g0, (p - 1) // 2**k, p)  # generates the 2-Sylow
    a = 1 if f % 2 == 0 else 2
    tau = pow(sigma_gen, a, p)
    k_a = k - a + 1
    order = 2**k_a
    if _mult_order(tau, p) != order:
        raise IdentityFailure(f"tau = {tau} does not have order 2^k_a = {order}")
    alpha, _, sign = _m_alpha_sign(rep_odd, tau, order)
    if sign != -1:
        raise IdentityFailure("r_tau^(2^k_a) != -Id")
    # L = fixed field of the odd part; CM since -1 acts on it nontrivially
    odd_exps = _odd_part_exponents(K)
    L_tag = SubfieldTag(K, odd_exps)
    if (K.n - 1) % K.n in L_tag.stabilizer:
        raise IdentityFailure("L must be CM for odd p: complex conjugation fixes it")
    L0_tag = SubfieldTag(K, odd_exps + [K.n - 1])
    search = None
    try:
        solve_norm_equation(K, L_tag, L0_tag, K.from_int(-1), bound)
        raise DatumInvalid("norm -1 found in a CM tower (impossible)")
    except NotFoundWithinBound as exc:
        search = exc.args[0]
    return {
        "p": p,
        "f": f,
        "k": k,
        "a": a,
        "k_a": k_a,
        "tau": tau,
        "alpha": list(alpha.coeffs),
        "r_tau_power_is_minus_id": True,
        "L_tag": L_tag.to_json(),
        "cm_field": True,
        "norm_search": search,
        "obstruction_present": True,
        "schur_index": 2,
    }


# ---------------------------------------------------------------------------
# Norm equations


def _quotient_generator(K, top_stab, bottom_stab):
    "Least exponent generating the cyclic quotient bottom/top."
    n = K.n
    size = len(bottom_stab) // len(top_stab)

    def coset(u):
        return frozenset((u * t) % n for t in top_stab)

    for u in sorted(bottom_stab):
        seen = {coset(1)}
        x = u
        while coset(x) != coset(1):
            seen.add(coset(x))
            x = (x * u) % n
        if len(seen) == size:
            return u
    raise ConfigInvalid(
        f"the quotient of {sorted(bottom_stab)} by {sorted(top_stab)} is not cyclic"
    )


def solve_norm_equation(
    K, top_tag: SubfieldTag, bottom_tag: SubfieldTag, target, bound: int = 20
):
    """lambda in the top field with N_{top/bottom}(lambda) = target, by
    deterministic bounded search over the top field's basis.  Raises
    NotFoundWithinBound (with a transcript; definite_obstruction = True when
    the exact PSD certificate already excludes every lambda).  Modular
    towers are searched exhaustively, where the norm is surjective."""
    assert top_tag.field == K and bottom_tag.field == K
    assert top_tag.stabilizer <= bottom_tag.stabilizer, "not a subfield tower"
    gen = _quotient_generator(K, sorted(top_tag.stabilizer), sorted(bottom_tag.stabilizer))
    ord_ = len(bottom_tag.stabilizer) // len(top_tag.stabilizer)

    def norm(lam):
        acc = lam
        x = lam
        e = gen
        for _ in range(ord_ - 1):
            x = apply_aut(GaloisAut(K, e), lam)
            acc = acc * x
            e = (e * gen) % K.n
        return acc

    transcript = {"tower_generator": gen, "degree": ord_, "bound": bound}
    basis = _subfield_q_basis(top_tag)
    if K.char:
        count = 0
        ell = K.char
        dim = len(basis)
        for idx in range(ell**dim):
            lam = K.zero()
            for i in range(dim):
                c = (idx // ell**i) % ell
                if c:
                    lam = lam + K.from_int(c) * basis[i]
            if lam.is_zero():
                continue
            count += 1
            if norm(lam) == target:
                transcript["tried"] = count
                return lam, transcript
        transcript["tried"] = count
        raise NotFoundWithinBound(transcript)

    if ord_ == 2 and _definitely_unsolvable(K, basis, gen, bottom_tag, target):
        transcript["definite_obstruction"] = True
        transcript["tried"] = 0
        raise NotFoundWithinBound(transcript)

    tried = 0
    dim = len(basis)
    for support in _support_patterns(dim, bound):
        lam = K.zero()
        den = support[-1]
        for i, c in support[0]:
            lam = lam + K.from_fraction(Fraction(c, den)) * basis[i]
        if lam.is_zero():
            continue
        tried += 1
        if norm(lam) == target:
            transcript["tried"] = tried
            return lam, transcript
    transcript["tried"] = tried
    transcript["search"] = "supports of size <= 2, heights and denominators <= bound"
    raise NotFoundWithinBound(transcript)


def _support_patterns(dim, bound):
    "Deterministic stream of (coefficient support, denominator) shells."
    for h in range(1, bound + 1):
        for d in range(1, h + 1):
            for i in range(dim):
                for c in range(-h, h + 1):
                    if abs(c) == h or d == h:
                        if c:
                            yield ([(i, c)], d)
            for i in range(dim):
                for j in range(i + 1, dim):
                    for c1 in range(-h, h + 1):
                        for c2 in range(-h, h + 1):
                            if c1 and c2 and (max(abs(c1), abs(c2)) == h or d == h):
                                yield ([(i, c1), (j, c2)], d)


def _definitely_unsolvable(K, basis, gen, bottom_tag, target):
    """PSD certificate for quadratic towers: if the rational form
    Tr(N(lambda)) is PSD and Tr(target) < 0, no lambda at any height works."""
    tg = trace_to_subfield(target, K.full_tag())
    if not tg.is_rational():
        return False
    # Tr_{bottom/Q}(target) differs from Tr_{K/Q}(target) by a positive
    # factor, so only the sign matters
    if tg.as_fraction() >= 0:
        return False
    sigma = GaloisAut(K, gen)
    n = len(basis)
    gram = []
    full = K.full_tag()
    for i in range(n):
        row = []
        for j in range(n):
            x = basis[i] * apply_aut(sigma, basis[j]) + basis[j] * apply_aut(
                sigma, basis[i]
            )
            t = trace_to_subfield(x, full)
            if not t.is_rational():
                raise IdentityFailure("trace of a norm-form entry is not rational")
            row.append(t.as_fraction() / 2)
        gram.append(row)
    return ldl_psd(gram)


# ---------------------------------------------------------------------------
# Realisation drivers


def build_weil(p, f, m, twist=1, ell=None):
    "Convenience: (psi, space, full Weil rep) for the given parameters."
    fq = fq_field(p, f)
    space = SymplecticSpace(fq, m)
    K = field_make(RATIONAL, p) if ell is None else field_make(MODULAR, p, ell)
    psi = psi_standard(fq, K)
    if twist != 1:
        from .finite import char_twist

        psi = char_twist(psi, fq.from_int(twist))
    return psi, space, weil_rep(psi, space)


def realise_full(p, f, m, twist=1) -> DescentResult:
    "Model of the full Weil representation over L (the 2'-part descent)."
    _, _, rep = build_weil(p, f, m, twist)
    target = SubfieldTag(rep.field, _odd_part_exponents(rep.field))
    # ord is odd, so alpha is the odd-order root, r0^ord = Id and no norm
    # is searched (bound 0)
    datum, _, _ = descent_datum(rep, target, 0)
    return fixed_points(datum)


def realise_even(p, f, m, twist=1) -> DescentResult:
    "Model of the even part over its character field."
    _, _, rep = build_weil(p, f, m, twist)
    even, _ = even_odd_split(rep)
    target = SubfieldTag(rep.field, _square_stabilizer(even))
    # r0^ord = Id on the even part in characteristic 0 (ord is odd when
    # q = 3 mod 4), so no norm is searched (bound 0)
    datum, _, _ = descent_datum(even, target, 0)
    return fixed_points(datum)


def _embed_rep(rep: MarkedRep, big) -> MarkedRep:
    "rep with its coefficients embedded into the larger cyclotomic field big."
    return rep.derive(
        rep.label + f" over {big!r}",
        lambda k: rep.image(k).map(lambda c: embed(c, big), field=big),
        field=big,
    )


def sqrt_minus_p(big, p):
    "sqrt(-p) inside Q(zeta_4p): the Gauss sum times i when p = 1 mod 4."
    g = embed(gauss_sum(p), big)
    if p % 4 == 3:
        return g
    i = big.zeta_pow(p)  # zeta_4 inside zeta_4p
    if i * i != big.from_int(-1):
        raise IdentityFailure(f"zeta_4p^{p} is not a square root of -1")
    return i * g


def realise_odd(p, f, m, twist=1, bound: int = 20):
    """Model of the odd part over the predicted realisation field:
    the character field itself when p = 3 mod 4 and f odd (Schur index 1),
    otherwise char-field adjoined sqrt(-p) (Schur index 2), via the
    norm-equation repair of the datum inside Q(zeta_4p)."""
    q = p**f
    _, _, rep = build_weil(p, f, m, twist)
    _, odd = even_odd_split(rep)
    if q % 4 == 3:
        target = SubfieldTag(odd.field, _square_stabilizer(odd))
        datum, _, _ = descent_datum(odd, target, bound)
        return fixed_points(datum), {"schur_index": 1, "norm_lambda": None, "obstruction": None}
    obstruction = odd_obstruction_check(odd, bound)
    big = field_make(RATIONAL, 4 * p)
    odd_big = _embed_rep(odd, big)
    char_stab_small = _square_stabilizer(odd)
    root = sqrt_minus_p(big, p)
    target_stab = [
        w
        for w in big.galois_exponents()
        if (w % p) in char_stab_small
        and apply_aut(GaloisAut(big, w), root) == root
    ]
    target = SubfieldTag(big, target_stab)
    datum, lam, norm_transcript = descent_datum(odd_big, target, bound)
    result = fixed_points(datum)
    return result, {
        "schur_index": 2,
        "norm_lambda": lam.to_json() if norm_transcript else None,
        "norm_transcript": norm_transcript,
        "obstruction": obstruction,
    }


def realise_modular(p, f, m, ell, part="odd", twist=1, bound: int = 20):
    """Modular even or odd part over its character field F_ell[sqrt(p*)]:
    the same datum as in characteristic 0, except the norm equation is
    always solvable (every finite-field norm is surjective)."""
    _, _, rep = build_weil(p, f, m, twist, ell=ell)
    even, odd = even_odd_split(rep)
    block = odd if part == "odd" else even
    target = SubfieldTag(rep.field, _square_stabilizer(block))
    datum, lam, norm_transcript = descent_datum(block, target, bound)
    result = fixed_points(datum)
    return result, {"norm_lambda": lam.to_json(), "norm_transcript": norm_transcript}
