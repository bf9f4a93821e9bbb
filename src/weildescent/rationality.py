"""Character fields, isomorphism testing, restriction of scalars,
endomorphism algebras and Galois-orbit decompositions for the exact matrix
representations built by this package.

The endomorphism algebra of a restriction V|_R (V over a cyclotomic K) is
computed through its semilinear decomposition

    End_{R[G]}(V|_R)  =  (+)_{sigma in Gal(K/R)}  Hom_K(^sigma V, V) . sigma

each summand being a small exact intertwiner solve on the declared
generators, instead of one dense nullspace in (dim . [K:Q])^2 unknowns.
Each solve is checked against Gerardin's decomposition (J. Algebra 46,
1977): omega = omega+ (+) omega-, two non-isomorphic absolutely irreducible
parts, and ^sigma_u omega_psi = omega_{psi^u} is isomorphic to omega_psi
exactly when u is a square in F_q, that is when sigma_u fixes the
character field (character_field, decided by witnesses on the generators).
So dim Hom_K(^u V, V) is the number of constituents there and 0 elsewhere,
as for the absolutely irreducible rho_psi of H(W).  Nothing sweeps the
group; in characteristic ell the count needs ell prime to |G|.  The
centre lies in the sigma_1 block Hom_K(V, V): theta Id commutes with
x = sum M_u sigma_u only if M_u = 0 wherever sigma_u moves theta, which
it does at every u != 1 of the Hom support (checked).  So the centre is
the commutant of the A_{v,s} sigma_v in c [K:R] coordinates, for c the
number of constituents, and commutativity is read from it (Z(A) = A);
the full structure-constant table is an oracle only."""

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
    ldl_psd,
    monomial_form,
    span_coordinates,
    twisted_commutes,
)
from .finite import token_m
from .weil import MarkedRep


def character_field(rep: MarkedRep) -> SubfieldTag:
    """The character field of rep: the subfield fixed by the Galois
    exponents u whose sigma_u fixes every trace.  Each u != 1 is decided by
    one exact witness, whatever the size of the group:

    out: sigma_u moves tr rep(g) for a declared generator g.  That trace
         lies in the character field, so sigma_u does not fix it;
    in:  T = rep(M(alpha I_m)) with alpha^2 = 1/u in F_q is monomial (so
         invertible) and T sigma_u(rep(g)) = rep(g) T on every declared
         generator.  Then T conjugates sigma_u of every product of generator
         images to the product itself, and those products are the images
         of the group up to the sign of the section: sigma_u fixes every
         trace.

    For the Weil representations the witnesses are those of Gerardin
    (J. Algebra 46, 1977): sigma_u omega_psi = omega_{psi^u}, which
    conjugation by omega(m_alpha) carries back to omega_psi when u is a
    square, and a Gauss-sum generator trace separates the two otherwise.
    For H(W), sigma_u (u != 1) moves tr rho(0, t) = q^m psi(t).  An exponent
    with neither witness raises IdentityFailure."""
    K = rep.field
    traces = [rep.image(g).trace() for g in rep.gen_names]
    fixing = [1]
    for u in K.galois_exponents()[1:]:  # sorted: sigma_1 is the identity
        sigma = GaloisAut(K, u)
        if any(apply_aut(sigma, t) != t for t in traces):
            continue
        _check_square_class_witness(rep, sigma)
        fixing.append(u)
    return SubfieldTag(K, fixing)


def _check_square_class_witness(rep: MarkedRep, sigma: GaloisAut):
    "The in-witness of character_field for sigma, or IdentityFailure."
    u = sigma.exponent
    fq = rep.space.fq
    alpha = fq.sqrt(fq.from_int(u).inv()) if rep.group == "sp" else None
    if alpha is None:
        raise IdentityFailure(
            f"sigma_{u} moves no generator trace and has no omega(m_alpha) witness"
        )
    T = monomial_form(rep.image(token_m(Matrix.identity(fq, rep.space.m).scale(alpha))))
    if T is None:
        raise IdentityFailure(f"omega(m_{alpha!r}) is not monomial")
    for g in rep.gen_names:
        if not twisted_commutes(T, sigma, rep.image(g)):
            raise IdentityFailure(
                f"omega(m_{alpha!r}) does not carry ^sigma_{u} rep to rep at {g}"
            )


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
    is its character field.  Each Hom_K(^u V, V) is one exact solve on the
    declared generators; IdentityFailure unless its dimension is
    `constituents` for sigma_u fixing the character field and 0 otherwise."""
    K = rep.field
    hom_bases = {}
    for u in sorted(tag.stabilizer):
        conj = rep.conjugate(GaloisAut(K, u))
        basis = intertwiner_space(conj.gens_images(), rep.gens_images())
        expected = constituents if u in field_tag.stabilizer else 0
        if len(basis) != expected:
            raise IdentityFailure(f"dim Hom_K(^{u} V, V) = {len(basis)} != {expected}")
        if basis:
            hom_bases[u] = basis
    return EndAlgebra(rep, tag, hom_bases, RestrictionBasis(tag))


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
