"""Character fields, isomorphism testing, restriction of scalars,
endomorphism algebras and Galois-orbit decompositions for the exact matrix
representations built by this package.

The endomorphism algebra of a restriction V|_R (V absolutely irreducible
over a cyclotomic K) is computed through its semilinear decomposition

    End_{R[G]}(V|_R)  =  (+)_{sigma in Gal(K/R)}  Hom_K(^sigma V, V) . sigma

each summand being a small exact intertwiner solve, instead of one dense
nullspace in (dim . [K:Q])^2 unknowns.  Completeness of the resulting basis
is certified independently by the character dimension formula
dim End = (1/|G|) sum tr(g) tr(g^-1), evaluated exactly (in its
section-independent form for the metaplectic sweeps).  The character field
and this formula read one table, weil.class_traces: the terms
(tr g, tr g^-1, weight), one per conjugacy class of Sp weighted by its size,
or one per element of the Heisenberg group.  In characteristic ell the
formula gives the dimension only mod ell, so End algebras of dimension at
least ell are refused.  The centre is the commutant of the algebra
generators theta Id and A_{u,t} sigma_u, which is also how commutativity is
read (Z(A) = A); the full structure-constant table is an oracle only."""

from __future__ import annotations

from .errors import ConfigInvalid, IdentityFailure, NotIrreducible, TooLarge
from .fields import (
    GaloisAut,
    SubfieldTag,
    apply_aut,
    subfield_membership,
    subfield_of_values,
    trace_to_subfield,
)
from .descent import _subfield_q_basis
from .linalg import Matrix, intertwiner_space, invertible_element, kernel_basis, ldl_psd
from .weil import MarkedRep, _trace_pair_dimension, class_traces


DEFAULT_SP_BOUND = 10**5


def character_field(rep: MarkedRep, bound: int = DEFAULT_SP_BOUND) -> SubfieldTag:
    """Subfield generated by the traces of class_traces, one per conjugacy
    class of Sp (class_traces says why they generate the field of all
    traces, signs of the Weil section included).

    Groups larger than the bound fall back to seeded random words plus an
    exact certification of every Galois exponent by iso_test (which, for
    the absolutely simple parts built here, computes the same field).  The
    fallback itself refuses when the matrices are too big for its dense
    intertwiner solves: exactness at desk scale is the contract."""
    try:
        terms = class_traces(rep, bound)
    except TooLarge:
        if rep.dim > 32:
            raise
        return _character_field_sampled(rep)
    return trace_field(rep.field, terms)


def trace_field(K, terms) -> SubfieldTag:
    "Subfield of K generated by the traces t of a class_traces table."
    return subfield_of_values([t for t, _, _ in terms] + [K.one()])


def _character_field_sampled(rep: MarkedRep):
    import random

    from .weil import weil_op
    from .finite import token_to_sp

    rng = random.Random(0)
    gens = [token_to_sp(rep.space, t) for t in rep.gen_names]
    traces = [rep.field.one()]
    for _ in range(200):  # seeded random words
        g = gens[rng.randrange(len(gens))]
        for _ in range(rng.randrange(1, 6)):
            g = g * gens[rng.randrange(len(gens))]
        traces.append(weil_op(rep, g).trace())
    sampled = subfield_of_values(traces)
    K = rep.field
    fixing = [
        u
        for u in K.galois_exponents()
        if iso_test(rep.conjugate(GaloisAut(K, u)), rep) is not None
    ]
    certified = SubfieldTag(K, fixing)
    # sampled traces only ever see a subfield of the certified one
    if not certified.stabilizer <= sampled.stabilizer:
        raise IdentityFailure(
            f"iso_test fixes {sorted(certified.stabilizer)}, outside the stabilizer"
            f" {sorted(sampled.stabilizer)} of the sampled traces"
        )
    return certified


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
            cs = _expand_in_span(homs, M)
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

    def generators(self):
        """theta Id and the A_{u,t} sigma_u: every basis element
        theta^j A_{u,t} sigma_u is the product (theta Id)^j (A_{u,t} sigma_u),
        so they generate the algebra over R."""
        K = self.rep.field
        theta = {1: Matrix.identity(K, self.rep.dim).scale(self.rb.theta)}
        return [theta] + [{u: A} for u in sorted(self.hom_bases) for A in self.hom_bases[u]]

    def center_basis(self):
        """Basis (coordinate vectors over R) of the centre: the x with
        x g = g x for every generator g."""
        if self._center is None:
            basis = [self.basis_element(i) for i in range(self.dim)]
            rows = []
            for g in self.generators():
                cols = []
                for b in basis:
                    comm = self.multiply(b, g)
                    for w, M in self.multiply(g, b).items():
                        comm[w] = comm[w] - M if w in comm else -M
                    cols.append(self.expand(comm))
                rows.extend(list(r) for r in zip(*cols) if any(not c.is_zero() for c in r))
            self._center = kernel_basis(self.rep.field, rows, self.dim)
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


def _expand_in_span(basis_mats, M):
    "Coordinates of M in the K-span of the given matrices."
    K = M.field
    cols = [
        [b.rows[i][j] for i in range(b.nrows) for j in range(b.ncols)]
        for b in basis_mats
    ]
    rhs = [M.rows[i][j] for i in range(M.nrows) for j in range(M.ncols)]
    aug = Matrix(K, [list(col) + [r] for col, r in zip(zip(*cols), rhs)])
    red, pivots = aug.rref()
    k = len(basis_mats)
    if k in pivots:
        raise IdentityFailure("matrix outside the span")
    out = [K.zero()] * k
    for r, p in enumerate(pivots):
        out[p] = red.rows[r][k]
    return out


def endomorphism_algebra(rep: MarkedRep, tag: SubfieldTag, terms) -> EndAlgebra:
    """End of rep restricted to the tagged subfield, with its dimension
    certified by the trace formula on terms, the class_traces table of rep.
    Refuses (ConfigInvalid) in characteristic ell when the dimension is at
    least ell, where the formula, evaluated in K, only gives it mod ell."""
    K = rep.field
    rb = RestrictionBasis(tag)
    hom_bases = {}
    for u in sorted(tag.stabilizer):
        conj = rep.conjugate(GaloisAut(K, u))
        basis = intertwiner_space(conj.gens_images(), rep.gens_images())
        if basis:
            hom_bases[u] = basis
    alg = EndAlgebra(rep, tag, hom_bases, rb)
    if K.char and alg.dim >= K.char:
        raise ConfigInvalid(
            f"semilinear basis dim {alg.dim} >= ell = {K.char}: the character"
            " formula gives the End dimension only mod ell"
        )
    projected = [(trace_to_subfield(t, tag), trace_to_subfield(ti, tag), w) for t, ti, w in terms]
    expected = _trace_pair_dimension(K, projected)
    if alg.dim != expected:
        raise IdentityFailure(
            f"semilinear basis dim {alg.dim} != character-formula dim {expected}"
        )
    return alg


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
