"""Character fields, isomorphism testing, restriction of scalars,
endomorphism algebras and Galois-orbit decompositions for the exact matrix
representations built by this package.

The character field and the endomorphism algebra are certified on the
certifying generators of a rep (certifying_names): at m = 1 the three
tokens M(g), N(1) and W0, of whose images every declared image is
certified to be a product; the declared generators at m >= 2 and for
H(W).

The endomorphism algebra of a restriction V|_R (V over a cyclotomic K) is
computed through its semilinear decomposition

    End_{R[G]}(V|_R)  =  (+)_{sigma in Gal(K/R)}  Hom_K(^sigma V, V) . sigma

with no dense nullspace in (dim . [K:Q])^2 unknowns.  Gerardin's
decomposition (J. Algebra 46, 1977) fixes every summand: omega = omega+ (+)
omega-, two non-isomorphic absolutely irreducible parts, and
^sigma_u omega_psi = omega_{psi^u} is isomorphic to omega_psi exactly when
u is a square in F_q, by omega(m_alpha) with alpha^2 = 1/u, the in-witness
that character_field checks.  So End_K(V) (u = 1) is the one exact solve,
checked to have the number of constituents as its dimension; at every
square u the summand is End_K(V) . omega(m_alpha); at a nonsquare u it is 0
for an absolutely irreducible V, whose trace sigma_u moves, and one solve
for the full representation.  Nothing sweeps the group; in characteristic
ell the count needs ell prime to |G|.  The centre lies in the sigma_1
block Hom_K(V, V): theta Id commutes with x = sum M_u sigma_u only if
M_u = 0 wherever sigma_u moves theta, which it does at every u != 1 of the
Hom support (checked).  So the centre is the commutant of the A_{v,s}
sigma_v in c [K:R] coordinates, for c the number of constituents, and
commutativity is read from it (Z(A) = A); the full structure-constant
table is an oracle only."""

from __future__ import annotations

from .errors import IdentityFailure, NotIrreducible
from .fields import (
    GaloisAut,
    SubfieldTag,
    apply_aut,
    subfield_membership,
    trace_to_subfield,
)
from .descent import _subfield_q_basis
from .linalg import (
    Matrix,
    intertwiner_space,
    invertible_element,
    kernel_basis,
    kernel_form,
    ldl_psd,
    monomial_form,
    span_coordinates,
    twisted_commutes,
)
from .finite import TOKEN_W, _token, token_m
from .weil import MarkedRep, _signed_permutation, token_phases


def certifying_names(rep: MarkedRep):
    """The certifying generators of rep: declared generators whose images
    have every declared image as a product, certified once on the model's
    own rep that rep derives from (MarkedRep.derive: every derived rep is
    multiplicative on the images, so it inherits the products).  They are
    (M(g), N(1), W0) for a Weil representation at m = 1
    (_gl1_certifying_tokens), and the declared generators at m >= 2, which
    are already few, and for H(W)."""
    root = rep
    while root.parent is not None:
        root = root.parent
    if root.certifying is None:
        if root.group == "sp" and root.space.m == 1:
            root.certifying = _gl1_certifying_tokens(root.psi, root.space)
        else:
            root.certifying = root.gen_names
    return root.certifying


def _gl1_certifying_tokens(psi, space):
    """(M(g), N(1), W0), g = fq.primitive_element(), once every other M(a)
    and N(b) token of weil_rep(psi, space) at m = 1 is certified to have as
    image the product of the M(g) and N(1) images along its word;
    IdentityFailure otherwise.  The images are compared on the phase forms
    of token_phases, signed monomial forms with one entry s zeta_n^k per
    column (_signed_permutation refuses any other M or N image, and a
    scalar other than 1 is refused), and multiplied there: rows, signs and
    exponents mod n, no CycloNum.  The words come from the relations of the
    Schroedinger model, where M(a) f(y) = legendre(a) f(a y) and
    N(b) f(y) = psi((1/2) b y^2) f(y):

        M(g^k) = M(g)^k,
        M(g)^k N(b) M(g)^-k = N(g^2k b), so N(g^2j) = M(g)^j N(1) M(g)^-j,
        N(s + t) = N(s) N(t),

    with M(g)^-j = M(g)^(q-1-j), and a nonsquare b = s + t the sum of two
    nonzero squares (x^2 + y^2 takes every value of F_q, and a nonsquare
    value needs x, y != 0): s is the least nonzero square in counting order
    with b - s a nonzero square."""
    fq, n, q = space.fq, psi.coeff.n, space.fq.q

    def form(a, tag):
        tok = _token(tag, fq, (a,), 1)
        c, cols = token_phases(psi, space, tok)
        if c != psi.coeff.one():
            raise IdentityFailure(f"the image of {tok} has the scalar {c!r}, not 1")
        return tok, _signed_permutation(tok, cols)

    def times(a, b):  # A B: column j of B is s zeta^k at row r, column r of A
        return [(a[r][0], a[r][1] * s, (a[r][2] + k) % n) for r, s, k in b]

    (g_tok, mg), (n1_tok, n1) = form(fq.exp[1], "M"), form(1, "N")
    powers = [[(j, 1, 0) for j in range(q)]]  # M(g)^k
    while len(powers) < q - 1:
        powers.append(times(mg, powers[-1]))
    words = {fq.exp[2 * j]: times(powers[j], times(n1, powers[-j])) for j in range(q // 2)}
    squares = sorted(words)
    for b in range(1, q):
        if b not in words:
            s = next(s for s in squares if fq.add[b][fq.neg[s]] in squares)
            words[b] = times(words[s], words[fq.add[b][fq.neg[s]]])
    for a in range(1, q):
        for tag, word in ("M", powers[fq.log[a]]), ("N", words[a]):
            tok, found = form(a, tag)
            if found != word:
                raise IdentityFailure(f"the image of {tok} is not the product along its word")
    return g_tok, n1_tok, TOKEN_W


def character_field(rep: MarkedRep) -> SubfieldTag:
    """The character field of rep: the subfield fixed by the Galois
    exponents u whose sigma_u fixes every trace.  Each u != 1 is decided by
    one exact witness on the certifying generators of rep (certifying_names:
    M(g), N(1) and W0 at m = 1, every declared generator at m >= 2 and for
    H(W)), whatever the size of the group:

    out: sigma_u moves tr rep(g) for a certifying generator g.  That trace
         lies in the character field, so sigma_u does not fix it;
    in:  T = rep(M(alpha I_m)) with alpha^2 = 1/u in F_q is monomial (so
         invertible) and T sigma_u(rep(g)) = rep(g) T on every certifying
         generator (_square_class_witness).  Every declared image is a
         product of certifying images (certified by certifying_names), so T
         conjugates sigma_u of every product of declared images to the
         product itself, and those products are the images of the group up
         to the sign of the section: sigma_u fixes every trace.

    For the Weil representations the witnesses are those of Gerardin
    (J. Algebra 46, 1977): sigma_u omega_psi = omega_{psi^u}, which
    conjugation by omega(m_alpha) carries back to omega_psi when u is a
    square, and a Gauss-sum generator trace separates the two otherwise.
    For H(W), sigma_u (u != 1) moves tr rho(0, t) = q^m psi(t).  An exponent
    with neither witness raises IdentityFailure.  Each in-witness is kept
    in rep.witnesses for endomorphism_algebra."""
    K = rep.field
    traces = [rep.image(g).trace() for g in certifying_names(rep)]
    fixing = [1]
    for u in K.galois_exponents()[1:]:  # sorted: sigma_1 is the identity
        sigma = GaloisAut(K, u)
        if any(apply_aut(sigma, t) != t for t in traces):
            continue
        if _square_class_witness(rep, sigma) is None:
            raise IdentityFailure(
                f"sigma_{u} moves no generator trace, and no omega(m_alpha) with"
                f" alpha^2 = 1/{u} carries ^sigma_{u} rep to rep"
            )
        fixing.append(u)
    return SubfieldTag(K, fixing)


def _square_class_witness(rep: MarkedRep, sigma: GaloisAut):
    """The monomial form of T = rep(M(alpha I_m)), alpha^2 = 1/u the least
    square root in F_q, when T sigma_u(rep(g)) = rep(g) T on every
    certifying generator g; None when there is no such alpha (u a
    nonsquare, or rep a representation of H(W)), T is not monomial or T
    fails on some g.  Decided once per rep and u, and kept in
    rep.witnesses."""
    u = sigma.exponent
    if u not in rep.witnesses:
        fq = rep.space.fq
        alpha = fq.sqrt(fq.from_int(u).inv()) if rep.group == "sp" else None
        T = None
        if alpha is not None:
            T = monomial_form(rep.image(token_m(Matrix.identity(fq, rep.space.m).scale(alpha))))
        if T is not None and not all(
            twisted_commutes(T, sigma, rep.image(g)) for g in certifying_names(rep)
        ):
            T = None
        rep.witnesses[u] = T
    return rep.witnesses[u]


def iso_test(rep1: MarkedRep, rep2: MarkedRep):
    """Invertible T with T rho1(g) = rho2(g) T on the declared generators,
    or None.  Both reps must be marked on the same generating set; for Weil
    sections that makes the test sign-free (token images carry no cocycle)."""
    assert rep1.gen_names == rep2.gen_names, "reps marked on different generators"
    assert rep1.field == rep2.field
    if rep1.dim != rep2.dim:
        return None
    basis = intertwiner_space(rep1.gens_images(), rep2.gens_images())
    return invertible_element(basis)


# ---------------------------------------------------------------------------
# Restriction of scalars


class RestrictionBasis:
    "Power basis theta^k of K over the tagged subfield, with the resolvent solver."

    def __init__(self, tag: SubfieldTag, shifted: bool = False):
        K = tag.field
        self.tag = tag
        self.K = K
        self.exps = sorted(tag.stabilizer)
        self.d = len(self.exps)
        theta = K.zeta()
        if shifted:
            theta = theta + K.one()
        self.theta = theta
        self.powers = [theta**k for k in range(self.d)]
        self.auts = [GaloisAut(K, u) for u in self.exps]
        V = Matrix(
            K,
            [[apply_aut(s, self.powers[k]) for k in range(self.d)] for s in self.auts],
        )
        self.Vinv = V.inverse()

    def expand(self, x):
        "Coefficients r_k in the subfield with x = sum r_k theta^k."
        vec = [apply_aut(s, x) for s in self.auts]
        r = self.Vinv.mul_vec(vec)
        for c in r:
            if not subfield_membership(c, self.tag):
                raise IdentityFailure(f"coefficient {c!r} of {x!r} is outside {self.tag!r}")
        return r


def restrict_scalars(
    rep: MarkedRep, tag: SubfieldTag, shifted_basis: bool = False
) -> MarkedRep:
    """View the K-representation as a representation over the tagged
    subfield R: dimension multiplies by [K:R], entries stay in R (as
    elements of K passing the membership test)."""
    K = rep.field
    assert tag.field == K
    rb = RestrictionBasis(tag, shifted=shifted_basis)
    d = rb.d
    n = rep.dim

    def restricted(mat):
        out = Matrix.zeros(K, n * d, n * d)
        for j in range(n):
            for i in range(n):
                a = mat.rows[i][j]
                if a.is_zero():
                    continue
                for k in range(d):
                    r = rb.expand(a * rb.powers[k])
                    for l in range(d):
                        out.rows[i * d + l][j * d + k] = r[l]
        return out

    return rep.derive(f"{rep.label}|_{tag!r}", lambda k: restricted(rep.image(k)), dim=n * d)


# ---------------------------------------------------------------------------
# Endomorphism algebras


class EndAlgebra:
    """End_{R[G]}(V|_R) presented by semilinear basis elements
    (sigma_u, theta^j A): n = centre dimension, m^2 n = total dimension."""

    def __init__(self, rep, tag, hom_bases, rb):
        self.rep = rep
        self.tag = tag
        self.rb = rb
        self.hom_bases = hom_bases  # u -> list of Hom_K(^u V, V) basis matrices
        self._coordinates = {u: span_coordinates(homs) for u, homs in hom_bases.items()}
        self.basis_index = [
            (u, t, j)
            for u in sorted(hom_bases)
            for t in range(len(hom_bases[u]))
            for j in range(rb.d)
        ]
        self.dim = len(self.basis_index)
        self._structure = None
        self._center = None
        self.division_certificate = None

    # an element is a dict u -> K-matrix, meaning sum M_u . sigma_u

    def basis_element(self, idx):
        u, t, j = self.basis_index[idx]
        return {u: self.hom_bases[u][t].scale(self.rb.powers[j])}

    def multiply(self, e1, e2):
        out = {}
        K = self.rep.field
        for u, M in e1.items():
            su = GaloisAut(K, u)
            for v, N in e2.items():
                w = (u * v) % K.n
                term = M * N.map(lambda c: apply_aut(su, c))
                out[w] = out[w] + term if w in out else term
        return out

    def expand(self, elem):
        "Coordinates of an algebra element over the basis (entries in R)."
        K = self.rep.field
        for w, M in elem.items():
            if w not in self.hom_bases and not M.is_zero():
                raise IdentityFailure(f"product escaped the Hom support at sigma_{w}")
        coords = [K.zero()] * self.dim
        pos = 0
        for u in sorted(self.hom_bases):
            homs = self.hom_bases[u]
            M = elem.get(u)
            if M is None:
                pos += len(homs) * self.rb.d
                continue
            cs = self._coordinates[u](M)
            for t, c in enumerate(cs):
                r = self.rb.expand(c)
                for j in range(self.rb.d):
                    coords[pos + t * self.rb.d + j] = r[j]
            pos += len(homs) * self.rb.d
        return coords

    def structure_constants(self):
        if self._structure is None:
            n = self.dim
            self._structure = [
                [
                    self.expand(
                        self.multiply(self.basis_element(i), self.basis_element(k))
                    )
                    for k in range(n)
                ]
                for i in range(n)
            ]
        return self._structure

    def is_commutative(self):
        "Z(A) = A exactly when A is commutative."
        return self.n == self.dim

    def center_basis(self):
        """Basis (coordinate vectors over R) of the centre, solved on the
        sigma_1 block.  theta Id and the A_{v,s} sigma_v generate the algebra
        over R (theta^j A_{v,s} sigma_v = (theta Id)^j A_{v,s} sigma_v), and
        for x = sum M_u sigma_u

            theta x - x theta = sum_u (theta - sigma_u(theta)) M_u sigma_u,

        so a central x has M_u = 0 wherever sigma_u moves theta: checked for
        every u != 1 of the Hom support.  The centre is then the kernel of the
        commutators with the A_{v,s} sigma_v in the coordinates theta^j A_{1,t},
        which come first in basis_index, padded with zeros; theta Id commutes
        with that block.  The commutator of theta^j A_{1,t} with A sigma_v is

            (theta^j P - sigma_v(theta)^j Q) sigma_v,  P = A_{1,t} A,
                                                        Q = A sigma_v(A_{1,t}),

        so P and Q are expanded in Hom_K(^v V, V) once for all j."""
        if self._center is None:
            K = self.rep.field
            rb = self.rb
            for u in self.hom_bases:
                if u != 1 and apply_aut(GaloisAut(K, u), rb.theta) == rb.theta:
                    raise IdentityFailure(
                        f"sigma_{u} fixes theta: theta Id does not confine the centre to sigma_1"
                    )
            ones = self.hom_bases[1]
            rows = []
            for v in sorted(self.hom_bases):
                sv = GaloisAut(K, v)
                conj_powers = [apply_aut(sv, th) for th in rb.powers]
                conj_ones = [B.map(sv) for B in ones]
                for A in self.hom_bases[v]:
                    cols = []
                    for B, B_v in zip(ones, conj_ones):
                        p = self._coordinates[v](B * A)
                        q = self._coordinates[v](A * B_v)
                        for th, th_v in zip(rb.powers, conj_powers):
                            cs = [th * a - th_v * b for a, b in zip(p, q)]
                            cols.append([r for c in cs for r in rb.expand(c)])
                    rows.extend(list(r) for r in zip(*cols) if any(not c.is_zero() for c in r))
            pad = [K.zero()] * (self.dim - len(ones) * rb.d)
            self._center = [
                list(x) + pad for x in kernel_basis(K, rows, len(ones) * rb.d)
            ]
        return self._center

    @property
    def n(self):
        return len(self.center_basis())

    @property
    def m(self):
        m2, rest = divmod(self.dim, self.n)
        m = 1
        while m * m < m2:
            m += 1
        if rest or m * m != m2:
            raise IdentityFailure(f"dimension {self.dim} is not m^2 n for n = {self.n}")
        return m

    def to_json(self):
        return {
            "field_tag": self.tag.to_json(),
            "dim_over_R": self.dim,
            "n": self.n,
            "m": self.m,
            "center_dim": self.n,
            "commutative": self.is_commutative(),
            "is_division": self.division_certificate,
        }


def endomorphism_algebra(
    rep: MarkedRep, tag: SubfieldTag, field_tag: SubfieldTag, constituents: int
) -> EndAlgebra:
    """End of rep restricted to the tagged subfield.  rep is the sum of
    `constituents` pairwise non-isomorphic absolutely irreducible parts (2
    for a full Weil representation, 1 for a part or for H(W)) and field_tag
    is its character field.  Every Hom_K(^u V, V) is taken on the
    certifying generators of rep, whose images have every declared image as
    a product (certifying_names), so an operator that intertwines them
    intertwines every declared image:

    - End_K(V) (u = 1) is one exact solve, and IdentityFailure unless its
      dimension is `constituents`;
    - for sigma_u fixing field_tag with the in-witness T of character_field
      (_square_class_witness: monomial, T sigma_u(rep(g)) = rep(g) T), it is
      End_K(V) . T: E T intertwines ^u V with V for E in End_K(V), and
      X T^-1 is in End_K(V) for X in Hom_K(^u V, V).  The basis is
      kernel_form of the E T, the basis the solve would return;
    - for sigma_u moving the trace of a certifying image and one
      constituent, it is 0: V and ^u V are irreducible with different
      traces, so Schur's lemma leaves no nonzero map;
    - otherwise (two constituents outside field_tag, or a rep without the
      in-witness) it is one exact solve, and IdentityFailure unless its
      dimension is `constituents` for sigma_u fixing field_tag and 0
      otherwise.

    Irreducibility of the constituents needs ell prime to |G| in
    characteristic ell, as Gerardin's count does."""
    K = rep.field
    gens = [rep.image(g) for g in certifying_names(rep)]
    traces = [A.trace() for A in gens]
    hom_bases = {}
    for u in sorted(tag.stabilizer):  # sigma_1 first
        sigma = GaloisAut(K, u)
        fixes = u in field_tag.stabilizer
        if u != 1 and fixes:
            T = _square_class_witness(rep, sigma)
            if T is not None:
                hom_bases[u] = kernel_form([_times_form(E, T) for E in hom_bases[1]])
                continue
        if not fixes and constituents == 1 and any(apply_aut(sigma, t) != t for t in traces):
            continue
        conj = gens if u == 1 else [A.map(lambda c: apply_aut(sigma, c)) for A in gens]
        basis = intertwiner_space(conj, gens)
        expected = constituents if fixes else 0
        if len(basis) != expected:
            raise IdentityFailure(f"dim Hom_K(^{u} V, V) = {len(basis)} != {expected}")
        if basis:
            hom_bases[u] = basis
    return EndAlgebra(rep, tag, hom_bases, RestrictionBasis(tag))


def _times_form(E: Matrix, T) -> Matrix:
    "E T for T the monomial form (perm, vals): column j is column perm[j] of E times vals[j]."
    perm, vals = T
    return Matrix(E.field, [[row[i] * v for i, v in zip(perm, vals)] for row in E.rows])


def quaternion_scalar(alg: EndAlgebra):
    """For a rank-4 algebra (K/R quadratic, one Hom line at the nontrivial
    sigma): the scalar c with (A . sigma)^2 = c Id, whose norm class decides
    division vs split."""
    nontrivial = [u for u in alg.hom_bases if u != 1]
    assert len(nontrivial) == 1 and len(alg.hom_bases[nontrivial[0]]) == 1
    u = nontrivial[0]
    A = alg.hom_bases[u][0]
    K = alg.rep.field
    su = GaloisAut(K, u)
    sq = A * A.map(lambda c: apply_aut(su, c))
    c = sq.rows[0][0]
    if sq != Matrix.identity(K, sq.nrows).scale(c):
        raise IdentityFailure("(A . sigma)^2 is not a scalar")
    return u, c


def certify_division_quaternion(alg: EndAlgebra, norm_searcher=None):
    """Attach a division/split certificate to a quaternion-shaped End
    algebra: split constructively when the norm equation N(lambda) = c has a
    (bounded-search) solution; division when c fails exact total
    positivity while every norm from the CM extension is totally positive."""
    u, c = quaternion_scalar(alg)
    K = alg.rep.field
    if norm_searcher is not None:
        lam = norm_searcher(u, c)
        if lam is not None:
            if lam * apply_aut(GaloisAut(K, u), lam) != c:
                raise IdentityFailure("split certificate: lambda sigma(lambda) != c")
            alg.division_certificate = False
            return False, ("split", lam)
    if u == (K.n - 1) % K.n and not _totally_positive(c, alg.tag):
        # sigma_u is complex conjugation: norms lambda sigma(lambda) are
        # totally positive, c is not, so c is not a norm
        alg.division_certificate = True
        return True, ("cm-positivity", c)
    alg.division_certificate = None
    return None, ("undetermined", c)


def _totally_positive(c, tag):
    """Exact total positivity of c in the tagged (totally real) subfield:
    the rational trace form z -> Tr_{R/Q}(c z^2) is PSD iff c is totally
    nonnegative."""
    K = tag.field
    basis = _subfield_q_basis(tag)
    n = len(basis)
    qtag = SubfieldTag(K, K.galois_exponents())
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            val = trace_to_subfield(c * basis[i] * basis[j], qtag)
            if not val.is_rational():
                raise IdentityFailure("trace-form entry is not rational")
            row.append(val.as_fraction())
        gram.append(row)
    return ldl_psd(gram)


# ---------------------------------------------------------------------------
# Orbit decomposition of a restriction of scalars


class OrbitDecomposition:
    def __init__(self, rep, tag, m, n, classes, idempotents, transcript):
        self.rep = rep
        self.tag = tag
        self.m = m
        self.n = n
        self.classes = classes  # list of lists of exponents u
        self.idempotents = idempotents
        self.transcript = transcript

    def to_json(self):
        return {
            "m": self.m,
            "n": self.n,
            "classes": self.classes,
            "checks": self.transcript,
        }


def orbit_decomposition(rep: MarkedRep, tag: SubfieldTag) -> OrbitDecomposition:
    """Multiplicity m, orbit size n, and explicit central idempotents
    cutting the isotypic blocks of (rep|_R) tensored back up to K.

    rep must be absolutely irreducible over K (commutant = K, checked);
    the idempotents come from the explicit semilinear component maps of the
    restriction, not from factoring polynomials."""
    K = rep.field
    end_K = intertwiner_space(rep.gens_images(), rep.gens_images())
    if len(end_K) != 1:
        raise NotIrreducible(f"commutant has dimension {len(end_K)} over K")
    exps = sorted(tag.stabilizer)
    # stabilizer H = {u : ^u rep ~ rep} and its cosets = iso classes
    H = []
    for u in exps:
        conj = rep.conjugate(GaloisAut(K, u))
        if iso_test(conj, rep) is not None:
            H.append(u)
    classes = []
    seen = set()
    for u in exps:
        if u in seen:
            continue
        cls = sorted((u * h) % K.n for h in H)
        seen.update(cls)
        classes.append(cls)
    n = len(classes)
    m = len(H)
    if m * n != len(exps):
        raise IdentityFailure(f"m n = {m} . {n} != [K:R] = {len(exps)}")

    restricted = restrict_scalars(rep, tag)
    rb = RestrictionBasis(tag)
    d, N = rb.d, rep.dim
    # component maps Phi_u : V|_R (x) K -> ^u V,  theta^l e_i -> sigma_u(theta^l) e_i
    phis = {}
    for u in exps:
        su = GaloisAut(K, u)
        out = Matrix.zeros(K, N, N * d)
        for i in range(N):
            for l in range(d):
                out.rows[i][i * d + l] = apply_aut(su, rb.powers[l])
        phis[u] = out
    stacked = Matrix(K, [row for u in exps for row in phis[u].rows])
    stacked_inv = stacked.inverse()
    transcript = {}
    # equivariance Phi_u rho|_R = ^u rho Phi_u
    for u in exps:
        su = GaloisAut(K, u)
        for g in rep.gen_names:
            lhs = phis[u] * restricted.image(g)
            rhs = rep.image(g).map(lambda c: apply_aut(su, c)) * phis[u]
            if lhs != rhs:
                raise IdentityFailure(f"component map Phi_{u} not equivariant at {g}")
    transcript["component_maps_equivariant"] = True
    idempotents = []
    total = Matrix.zeros(K, N * d, N * d)
    for cls in classes:
        P = Matrix.zeros(K, N * d, N * d)
        for u in cls:
            pos = exps.index(u)
            inj = Matrix.zeros(K, N * len(exps), N)
            for i in range(N):
                inj.rows[pos * N + i][i] = K.one()
            P = P + stacked_inv * inj * phis[u]
        idempotents.append(P)
        total = total + P
        if P * P != P:
            raise IdentityFailure(f"block projector of {cls} is not idempotent")
        for g in rep.gen_names:
            if P * restricted.image(g) != restricted.image(g) * P:
                raise IdentityFailure(f"block projector of {cls} is not central at {g}")
    if not total.is_identity():
        raise IdentityFailure("block projectors do not sum to the identity")
    transcript["idempotents"] = "sum to identity, central, idempotent"
    # multiplicity: dim Hom(^u V, V|_R over K) = m for each class member
    for cls in classes:
        u = cls[0]
        conj = rep.conjugate(GaloisAut(K, u))
        hom = intertwiner_space(conj.gens_images(), restricted.gens_images())
        if len(hom) != m:
            raise IdentityFailure(f"multiplicity {len(hom)} of ^{u} V != m = {m}")
    transcript["block_multiplicities"] = m
    return OrbitDecomposition(rep, tag, m, n, classes, idempotents, transcript)
