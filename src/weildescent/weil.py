"""The Schroedinger model over K = Q(zeta_p) (or its modular analogue):
the Heisenberg representation rho_psi and the Weil operators omega~ on
functions Y -> K, dimension q^m, as exact matrices.

Index set: the points of Y in counting order.  On the delta basis:

    rho(x+y, t) delta_{y0} = psi(t + <y0, x> - (1/2)<y, x>) delta_{y0 - y}

    M(a) image:  column y0 carries legendre(det a) at row a^-T y0
    N(b) image:  diagonal psi((1/2) y^T b y)
    W0 image:    S^-m * [psi(-y . y0)]  with  S = sum_u psi((1/2) u^2)

The W0 normalization is the normalised-measure convention made finite:
mu gives X total mass 1, so Omega_mu(psi o Q) = q^-m sum_x psi(Q(x)) and
S^-m = Omega^-1 q^-m.  Every entry stays inside K: this model needs no
auxiliary fourth root of unity.

omega~(g) is defined through the canonical factorization word of g; it is a
genuine representation only up to the +-1 metaplectic cocycle, which is
measured (never assumed) by cocycle_certificate.  By Schur's lemma one
column decides each value: when every token image intertwines rho (a),
the commutant of rho is K (b) and each word evaluates to its element (c),
omega~(g) omega~(h) omega~(gh)^-1 commutes with rho and so is a scalar
lambda, read off omega~(g) omega~(h) e_0 = lambda omega~(gh) e_0 with
omega~(gh) e_0 != 0 (d).

Every token image is one scalar c times a matrix P whose nonzero entries are
signed powers +-zeta^k, computed in that form on the F_q index tables
(token_phases), as rho_monomial computes rho: a sign per column for M(a),
psi-values for N(b) and S^-m times psi-values for W0.  The dense image
(weil_generator_image) is its expansion, as rho_matrix is rho_monomial's.
The certificates run on the phase form.  A column is integer phase
coordinates in Z[x]/(x^n - 1), x standing for zeta_n, on which P acts by
signed cyclic shifts and sums; only W0 has a scalar, so a word's scalar is a
power of c_W that the cocycle certificate clears by multiplying with the
integral S^m, and a column enters K only as its canonical reduction, to be
compared.  Elements of Sp are F_q index tuples there (finite.sp_word).
Premise (a), Galois semilinearity and the twisting identities compare the
(sign, exponent) entries of P.

class_traces gives the character data of a rep of Sp or H(W) as one table
of terms (tr g, tr g^-1, weight), one per conjugacy class of Sp or per
element of H(W).  No command reads it: the character field and the End
algebra are certified on the certifying generators (rationality), and the
tests read the field of the class traces and the trace formula
_trace_pair_dimension as their oracles, as they read weil_op."""

from __future__ import annotations

from itertools import product
from operator import itemgetter

from ._kernel import lpoly_mul, lpoly_rem, zpoly_mul, zpoly_rem
from .errors import CocycleViolation, IdentityFailure, InvalidCharacteristic
from .fields import CoeffField, GaloisAut, apply_aut
from .finite import (
    AdditiveCharacter,
    FqElem,
    HeisElem,
    SpClasses,
    SpElement,
    SymplecticSpace,
    TOKEN_W,
    _index_det_inverse,
    _index_product,
    char_galois,
    char_twist,
    heis_enumerate,
    legendre,
    sp_classes,
    sp_factor,
    sp_word,
    token_indices,
    token_m,
    token_n,
)
from .linalg import Matrix


class MarkedRep:
    """A representation of Sp(W) (group "sp") or of the Heisenberg group H(W)
    (group "heis") by exact dim x dim matrices over field, marked on the
    declared generators gen_names.

    One rule makes every image: image(key) returns the cached matrix or
    computes make(key), where make maps any element key (a generator word
    token of Sp, a generator key of H) to its matrix.  The Schroedinger
    model's own reps (heisenberg_rep, weil_rep) make images from the model
    formulas; every other rep is derived from a parent by derive, with a
    make that transforms parent.image(key): the even and odd blocks, Galois
    conjugates, restrictions of scalars, scalar extensions and descended
    models.  So each of them has the image of any element, not only of its
    generators.  space is the symplectic space of the model, psi its central
    character (None on a derived rep, which is no longer rho_psi).

    parent is the rep a derived rep was made from, None for the model's
    own.  certifying and witnesses hold what rationality has certified: on
    a model's own rep its certifying generators (rationality.certifying_
    names), and on any rep the isomorphisms ^sigma_u rep -> rep, by u."""

    def __init__(self, field, dim, gen_names, label, make, group, space, psi, parent=None):
        self.field = field
        self.dim = dim
        self.gen_names = tuple(gen_names)
        self.label = label
        self.group = group
        self.space = space
        self.psi = psi
        self._make = make
        self._images = {}
        self.parent = parent
        self.certifying = None
        self.witnesses = {}

    def image(self, key) -> Matrix:
        if key not in self._images:
            self._images[key] = self._make(key)
        return self._images[key]

    def gens_images(self):
        return [self.image(k) for k in self.gen_names]

    def derive(self, label, make, field=None, dim=None) -> "MarkedRep":
        """The rep of the same group with image rule make (field and dim
        default to ours).  make must be multiplicative on the images, as
        every derived rep of the package is: conjugation by a fixed matrix
        or by a Galois automorphism, restriction of scalars, and the even
        and odd blocks.  A block is the restriction to a subspace that the
        image preserves (_block_image refuses a leak by IdentityFailure), and
        restricting a product of operators that preserve a subspace is the
        product of the restrictions.  So a product identity between the
        parent's images holds between ours, and the certifying generators
        of the model's own rep are ours."""
        field, dim = field or self.field, dim or self.dim
        return MarkedRep(
            field, dim, self.gen_names, label, make, self.group, self.space, None, self
        )

    def conjugate(self, sigma: GaloisAut) -> "MarkedRep":
        "Entrywise Galois conjugate ^sigma(rep)."
        return self.derive(
            f"^{sigma!r}({self.label})",
            lambda k: self.image(k).map(lambda e: apply_aut(sigma, e)),
        )

    def to_json(self):
        return {
            "label": self.label,
            "dim": self.dim,
            "field": {"n": self.field.n, "char": self.field.char},
            "generators": generators_json((_key_json(k), self.image(k)) for k in self.gen_names),
        }


def generators_json(images):
    """The "generators" list of a report, [{"token", "matrix"}], from
    (token, Matrix) pairs.  Equal entries, across all the matrices, get one
    to_json() dict, so that the report writer encodes each distinct value
    once per depth."""
    shared = {}

    def entry(e):
        key = e.nums, e.den
        found = shared.get(key)
        if found is None:
            found = shared[key] = e.to_json()
        return found

    return [
        {"token": token, "matrix": [[entry(e) for e in row] for row in m.rows]}
        for token, m in images
    ]


def _key_json(key):
    if key[0] in ("M", "N"):
        return [key[0], [[list(e.coeffs) for e in row] for row in key[1]]]
    return list(key)


def _heis_from_key(space, key):
    """The element of H(W) behind a generator key of heisenberg_rep.  ("T",)
    is the central (0, t) with t the least element in counting order with
    Tr_{F_q/F_p}(t) != 0 (t = 1 unless p | f), so that psi_c(t) != 1 for
    every twist c in F_p^x."""
    fq = space.fq
    if key == ("T",):
        t = next(c for c in fq.elements() if c.trace_to_prime())
        return HeisElem(space, space.zero_vector(), t)
    tag, i, j = key
    v = list(space.zero_vector())
    pos = i if tag == "X" else space.m + i
    v[pos] = fq.one() if j == 0 else fq.gen() ** j
    return HeisElem(space, tuple(v), fq.zero())


# ---------------------------------------------------------------------------
# Heisenberg representation


def rho_monomial(psi: AdditiveCharacter, space: SymplecticSpace, h: HeisElem):
    """rho(h) in monomial exponent form (perm, exps): column col of rho(h)
    has its one nonzero entry zeta_p^exps[col] in row perm[col].  Computed
    coordinate by coordinate of y0 on the F_q index tables."""
    fq, m, q = space.fq, space.m, space.fq.q
    add, mul, neg = fq.add, fq.mul, fq.neg
    x = [c.idx for c in h.w[:m]]
    y = [c.idx for c in h.w[m:]]
    yx = 0
    for a, b in zip(y, x):
        yx = add[yx][mul[a][b]]
    perm, dots = [0], [0]  # per column y0: the index of y0 - y, and -y0.x
    for i in range(m):
        step, ny, nx = q**i, neg[y[i]], mul[neg[x[i]]]
        perm = [k + step * add[c][ny] for c in range(q) for k in perm]
        dots = [add[d][nx[c]] for c in range(q) for d in dots]
    base = add[add[h.t.idx][mul[space.half.idx][yx]]]  # adds t + (1/2) y.x
    ex = psi.exponents
    return perm, [ex[base[d]] for d in dots]


def rho_matrix(psi: AdditiveCharacter, space: SymplecticSpace, h: HeisElem) -> Matrix:
    "rho(h) as a dense matrix: the expansion of rho_monomial."
    perm, exps = rho_monomial(psi, space, h)
    n = len(perm)
    out = Matrix.zeros(psi.coeff, n, n)
    for col, (row, e) in enumerate(zip(perm, exps)):
        out.rows[row][col] = psi.values[e]
    return out


def heisenberg_rep(psi: AdditiveCharacter, space: SymplecticSpace) -> MarkedRep:
    "Schroedinger model of the Heisenberg group with central character psi."
    assert space.fq.p % 2 == 1
    fq = space.fq
    gens = []
    for i in range(space.m):
        for j in range(fq.f):
            gens.append(("X", i, j))
    for i in range(space.m):
        for j in range(fq.f):
            gens.append(("Y", i, j))
    gens.append(("T",))
    return MarkedRep(
        psi.coeff,
        fq.q**space.m,
        gens,
        f"heisenberg({psi!r})",
        lambda key: rho_matrix(psi, space, _heis_from_key(space, key)),
        "heis",
        space,
        psi,
    )


# ---------------------------------------------------------------------------
# Weil generator images


def _weil_gauss_scalar(psi: AdditiveCharacter, space: SymplecticSpace):
    "S = sum_u psi((1/2) u^2); Omega_mu(psi o Q_W0) = q^-m S^m."
    fq = space.fq
    acc = psi.coeff.zero()
    half = space.half
    for u in fq.elements():
        acc = acc + psi(half * u * u)
    return acc


def token_phases(psi: AdditiveCharacter, space: SymplecticSpace, tok):
    """The image of tok as c . P, with every nonzero entry of P a signed
    power s . zeta_n^k, n = K.n: returns (c, cols), cols[j] the (row, s, k)
    of the nonzero entries of column j.  Computed on the F_q index tables,
    with y, y0 running over Y in counting order:

        M(a):  c = 1, column y0 holds legendre(det a) at row a^-T y0
        N(b):  c = 1, diagonal psi((1/2) y^T b y)
        W0:    c = S^-m, entry (y, y0) psi(-y . y0)

    A psi-exponent e is the zeta_n-exponent (n / p) e."""
    fq, m, q = space.fq, space.m, space.fq.q
    add, mul, neg = fq.add, fq.mul, fq.neg
    K = psi.coeff
    ex, step = psi.exponents, K.n // fq.p
    pts = [[(k // q**i) % q for i in range(m)] for k in range(q**m)]

    def dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = add[acc][mul[a][b]]
        return acc

    if tok[0] == "M":
        det, ainv = _index_det_inverse(fq, [e.idx for row in tok[1] for e in row], m)
        s = legendre(fq.elems[det])
        ainvt = [ainv[i::m] for i in range(m)]
        rows = [sum(dot(r, y0) * q**i for i, r in enumerate(ainvt)) for y0 in pts]
        return K.one(), [[(row, s, 0)] for row in rows]
    if tok[0] == "N":
        b = [[e.idx for e in row] for row in tok[1]]
        half = mul[space.half.idx]
        return K.one(), [
            [(j, 1, step * ex[half[dot(y, [dot(r, y) for r in b])]])] for j, y in enumerate(pts)
        ]
    c = _weil_gauss_scalar(psi, space).inv() ** m
    return c, [[(i, 1, step * ex[neg[dot(y, y0)]]) for i, y in enumerate(pts)] for y0 in pts]


def weil_generator_image(psi: AdditiveCharacter, space: SymplecticSpace, token) -> Matrix:
    """The image of a Weil token as a dense matrix: the expansion of
    token_phases, each entry c . s . zeta_n^k taken from psi.values."""
    c, cols = token_phases(psi, space, token)
    K = psi.coeff
    step = K.n // psi.fq.p
    values = psi.values if c == K.one() else [c * v for v in psi.values]
    out = Matrix.zeros(K, len(cols), len(cols))
    entries = {}  # (s, k) -> c . s . zeta_n^k
    for j, col in enumerate(cols):
        for i, s, k in col:
            if (s, k) not in entries:
                v = values[k // step]
                entries[s, k] = v if s == 1 else -v
            out.rows[i][j] = entries[s, k]
    return out


def _gl_generator_tokens(space: SymplecticSpace):
    "Declared M/N/W generating tokens (all tokens of GL_1 when m = 1)."
    fq, m = space.fq, space.m
    toks = []
    if m == 1:
        for a in fq.elements()[1:]:
            toks.append(token_m(Matrix(fq, [[a]])))
        for b in fq.elements()[1:]:
            toks.append(token_n(Matrix(fq, [[b]])))
    else:
        one, zero = fq.one(), fq.zero()
        # GL_m generators: diag(g,1,...), adjacent transposition, transvection
        g = fq.primitive_element()
        diag = Matrix.identity(fq, m)
        diag.rows[0][0] = g
        toks.append(token_m(diag))
        perm = Matrix.zeros(fq, m, m)
        perm.rows[0][1] = one
        perm.rows[1][0] = one
        for i in range(2, m):
            perm.rows[i][i] = one
        toks.append(token_m(perm))
        trans = Matrix.identity(fq, m)
        trans.rows[0][1] = one
        toks.append(token_m(trans))
        for i in range(m):
            for j in range(i, m):
                b = Matrix.zeros(fq, m, m)
                b.rows[i][j] = one
                b.rows[j][i] = one
                toks.append(token_n(b))
    toks.append(TOKEN_W)
    return toks


def weil_rep(psi: AdditiveCharacter, space: SymplecticSpace) -> MarkedRep:
    "The Weil operators omega~ through the canonical factorization section."
    assert space.fq.p % 2 == 1
    return MarkedRep(
        psi.coeff,
        space.fq.q**space.m,
        _gl_generator_tokens(space),
        f"weil({psi!r})",
        lambda key: weil_generator_image(psi, space, key),
        "sp",
        space,
        psi,
    )


def weil_op(rep: MarkedRep, g: SpElement) -> Matrix:
    "Canonical omega~(g): the dense product of the token images along sp_factor(g)."
    out = Matrix.identity(rep.field, rep.dim)
    for tok in sp_factor(g):
        out = out * rep.image(tok)
    return out


# ---------------------------------------------------------------------------
# Even/odd split


def parity_data(space: SymplecticSpace):
    "Representatives of {y, -y} pairs, in counting order."
    pts = space.y_points()
    neg_index = [space.vector_index(tuple(-c for c in y)) for y in pts]
    even_reps = [i for i, j in enumerate(neg_index) if i <= j]
    odd_reps = [i for i, j in enumerate(neg_index) if i < j]
    return pts, neg_index, even_reps, odd_reps


def _block_image(full: Matrix, reps, neg_index, sign) -> Matrix:
    """Matrix of a parity-commuting operator on the even (sign 1) or odd
    (sign -1) basis: delta_0 and delta_r +- delta_{-r} over representatives r,
    each image read off the nonzero entries of columns r and -r."""
    K = full.field
    n = len(reps)
    out = Matrix.zeros(K, n, n)
    pos = {rr: rowpos for rowpos, rr in enumerate(reps)}
    z = K.zero()
    for colpos, r in enumerate(reps):
        # image of the basis vector supported on {r, -r}, as {row: value}
        other = neg_index[r]
        vec = {}
        for j, s in [(r, 1)] if other == r else [(r, 1), (other, sign)]:
            for i, row in enumerate(full.rows):
                e = row[j]
                if not e.is_zero():
                    e = e if s == 1 else -e
                    vec[i] = vec[i] + e if i in vec else e
        for i, c in vec.items():
            if c.is_zero():
                continue
            if i in pos:
                out.rows[pos[i]][colpos] = c
            # consistency: the image must again be even/odd
            j = neg_index[i]
            if j != i and vec.get(j, z) != (c if sign == 1 else -c):
                raise IdentityFailure("parity block leak: operator not equivariant")
    return out


def even_odd_split(rep: MarkedRep):
    "Even and odd subrepresentations, dims (q^m + 1)/2 and (q^m - 1)/2."
    _, neg_index, even_reps, odd_reps = parity_data(rep.space)

    def block(name, reps, sign):
        return rep.derive(
            f"weil-{name}({rep.psi!r})",
            lambda k: _block_image(rep.image(k), reps, neg_index, sign),
            dim=len(reps),
        )

    return block("even", even_reps, 1), block("odd", odd_reps, -1)


def parity_matrix(space: SymplecticSpace, K: CoeffField) -> Matrix:
    pts = space.y_points()
    n = len(pts)
    out = Matrix.zeros(K, n, n)
    one = K.one()
    for col, y in enumerate(pts):
        out.rows[space.vector_index(tuple(-c for c in y))][col] = one
    return out


# ---------------------------------------------------------------------------
# Cocycle certificate


class CocycleCert:
    def __init__(self, pairs):
        self.pairs = pairs  # list of (g, h, lam) with lam = +-1

    def all_pm_one(self):
        return all(lam in (1, -1) for _, _, lam in self.pairs)

    def summary(self):
        return {
            "pairs": len(self.pairs),
            "plus": sum(1 for *_, lam in self.pairs if lam == 1),
            "minus": sum(1 for *_, lam in self.pairs if lam == -1),
        }


def _nonzero_phases(psi: AdditiveCharacter, space: SymplecticSpace, tok):
    "token_phases(psi, space, tok), refusing a zero image by IdentityFailure."
    c, cols = token_phases(psi, space, tok)
    if c.is_zero() or not any(cols):
        raise IdentityFailure(f"the image of {tok} is 0")
    return c, cols


def _monomial_entries(cols):
    """[(row, s, k)] per column, its one entry s . zeta^k, when the cols of
    token_phases are those of a signed monomial P (one entry per column,
    the rows a permutation); None otherwise."""
    if all(len(col) == 1 for col in cols) and len({col[0][0] for col in cols}) == len(cols):
        return [col[0] for col in cols]
    return None


def _phase_op(cols, n):
    """x -> P x on phase coordinates, for P given by the cols of
    token_phases.  x holds n integers per entry, entry y at x[y n : (y + 1) n]
    standing for sum_t x[y n + t] zeta_n^t, so an entry s . zeta_n^k of P
    moves coordinate t of x_j to coordinate t + k mod n of row y, signed.
    A monomial P (M, N) is one gather plus a sign; any other P (W0) is one
    gather-and-sum per coordinate of P x, over the coordinates moved there."""
    size = len(cols) * n
    mono = _monomial_entries(cols)
    if mono is not None:
        source, sign = [0] * size, [0] * size
        for j, (y, s, k) in enumerate(mono):
            for t in range(n):
                source[y * n + (t + k) % n], sign[y * n + (t + k) % n] = j * n + t, s
        gather = itemgetter(*source)
        if -1 not in sign:
            return gather
        if 1 not in sign:
            return lambda x: [-v for v in gather(x)]
        return lambda x: [s * v for s, v in zip(sign, gather(x))]
    # coordinate of P x -> the indices in x moved there with sign +1, -1
    plus, minus = [[] for _ in range(size)], [[] for _ in range(size)]
    for j, col in enumerate(cols):
        for y, s, k in col:
            moved = plus if s == 1 else minus
            for t in range(n):
                moved[y * n + (t + k) % n].append(j * n + t)
    if not any(minus) and all(len(a) > 1 for a in plus):
        gathers = [itemgetter(*a) for a in plus]
        return lambda x: [sum(gather(x)) for gather in gathers]

    def apply(x):
        get = x.__getitem__
        return [sum(map(get, a)) - sum(map(get, b)) for a, b in zip(plus, minus)]

    return apply


class _Columns:
    """omega~(g) applied to e_0 along the word sp_word(g), on integer phase
    coordinates, for the cocycle certificate.  An element of Sp is a
    row-major tuple of F_q indices; products and words are computed on the
    F_q tables.  Each token image is c . P (token_phases), P with entries 0
    and +-zeta^k, so P acts on integer coordinates in Z[x]/(x^n - 1), x
    standing for zeta = zeta_n, by a gather and a sign (M, N) or a
    gather-and-sum per coordinate (W0), as _phase_op builds it.

    Only W0 carries a scalar, c_W = S^-m; an M or N image with another
    scalar is refused by IdentityFailure.  So omega~(g) = c_W^k P_g, k the
    number of W0 tokens in the word of g, and for a pair (g, h) with
    e = k_g + k_h - k_gh the identity omega~(g) omega~(h) e_0 =
    lam omega~(gh) e_0 reads c_W^e x = lam u, with x = P_g P_h e_0 and
    u = P_gh e_0 integral.  Write c_W^-|e| = N / d, N integral and d a
    positive integer; c_W^-1 = S^m is itself integral (S is a sum of
    zeta-powers), so d = 1 for the model's W0.  For e > 0, c_W^e = d / N
    and the identity is d x = lam N u; for e < 0 it is N x = lam d u.
    Either way it is multiplied by N or d, nonzero elements of the field K
    (N != 0 since c_W != 0; in F_ell[zeta_p], S^2 = +-q is prime to ell),
    so the new identity holds exactly when the old one does, in
    characteristic 0 and ell alike.  N^e u is made once per (gh, e); for
    e < 0 the factor N goes on the per-pair side.  The two integral vectors
    are compared on their canonical reductions by K.modulus (zpoly_rem, or
    lpoly_rem mod ell): x -> zeta is a ring homomorphism Z[x] -> K that
    sends x^n - 1 to 0, and the remainder by the defining polynomial is the
    canonical form of an image.  No CycloNum is made per pair.

    Caches the word of every element with its operators and W0 count, its
    column P_g e_0, the reduced target of every (gh, e), and the element
    and operator of every token.  Premise (a) for tokens outside the
    declared generators, (c) and (d) of cocycle_value are checked here."""

    def __init__(self, rep: MarkedRep):
        self.rep = rep
        K, space = rep.field, rep.space
        self.declared = set(rep.gen_names)
        self.rho_gens = None  # made for the first undeclared token
        self.tokens = {}  # token -> (its element, 1 for W0 and 0 otherwise, x -> P x)
        self.words = {}  # element -> (the operators along its word, last first; W0 count)
        self.cols = {}  # element g -> P_g e_0
        self.targets = {}  # (gh, e) -> P_gh e_0 times its factor for e, reduced; its negative
        self.factors = {}  # e -> (factor of the pair side, of the target), None for 1
        self.w_scalar = None  # c_W, from the W0 token
        n = space.dim
        self.identity = tuple(int(i == j) for i in range(n) for j in range(n))
        self.e0 = (1,) + (0,) * (rep.dim * K.n - 1)

    def _token(self, tok):
        if tok not in self.tokens:
            rep = self.rep
            g = token_indices(rep.space, tok)
            c, cols = _nonzero_phases(rep.psi, rep.space, tok)
            if tok not in self.declared:
                # premise (a) for a token outside the declared generators: at
                # m >= 2, sp_word uses M(a) and N(b) for every a and b
                if self.rho_gens is None:
                    keys = heisenberg_rep(rep.psi, rep.space).gen_names
                    self.rho_gens = _rho_generators(rep.psi, rep.space, keys)
                _check_intertwines(rep.psi, rep.space, tok, g, cols, self.rho_gens)
            if tok == TOKEN_W:
                self.w_scalar = c
            elif c != rep.field.one():
                raise IdentityFailure(f"the image of {tok} has the scalar {c!r}, not 1")
            self.tokens[tok] = (g, int(tok == TOKEN_W), _phase_op(cols, rep.field.n))
        return self.tokens[tok]

    def _word(self, x):
        "(the operators P along sp_word(x), last token first; its W0 count k)."
        if x not in self.words:
            space = self.rep.space
            prod, ops, k = self.identity, [], 0
            for tok in sp_word(space, x):
                elem, is_w, op = self._token(tok)
                prod = _index_product(space.fq, prod, elem, space.dim)
                ops.append(op)
                k += is_w
            if prod != x:  # premise (c)
                raise IdentityFailure(
                    f"sp_word gives a word for another element than"
                    f" {SpElement.from_indices(space, x)!r}"
                )
            ops.reverse()
            self.words[x] = ops, k
        return self.words[x]

    def column(self, x):
        "P_x e_0 as phase coordinates."
        if x not in self.cols:
            v = self.e0
            for op in self._word(x)[0]:
                v = op(v)
            self.cols[x] = v
        return self.cols[x]

    def _factors(self, e):
        "(factor of the pair side, factor of the target) for the W0 count difference e."
        if e not in self.factors:
            if e == 0:
                self.factors[e] = None, None
            else:
                r = self.w_scalar.inv() ** abs(e)  # c_W^-|e| = N / d
                num, den = list(r.nums), [r.den] if r.den != 1 else None
                self.factors[e] = (den, num) if e > 0 else (num, den)
        return self.factors[e]

    def _reduced(self, v, factor):
        "The canonical coordinates in K of the entries of the phase vector v times factor."
        K = self.rep.field
        n, mod, ell = K.n, K.modulus, K.char
        out = []
        for a in range(0, len(v), n):
            block = v[a : a + n]
            if ell:
                out += lpoly_rem(lpoly_mul(block, factor, ell) if factor else block, mod, ell)
            else:
                out += zpoly_rem(zpoly_mul(block, factor) if factor else block, mod)
        return out

    def _target(self, xy, e, g, h):
        "(P_gh e_0 times its factor for e, reduced; its negative), refusing a zero column."
        if (xy, e) not in self.targets:
            u = self._reduced(self.column(xy), self._factors(e)[1])
            if not any(u):  # premise (d)
                raise IdentityFailure(f"omega~(gh) e_0 = 0 at g = {g!r}, h = {h!r}")
            ell = self.rep.field.char
            self.targets[xy, e] = u, [(-c) % ell for c in u] if ell else [-c for c in u]
        return self.targets[xy, e]

    def value(self, g: SpElement, h: SpElement) -> int:
        x, y = g.indices(), h.indices()
        xy = _index_product(g.space.fq, x, y, g.space.dim)
        ops, k = self._word(x)
        e = k + self._word(y)[1] - self._word(xy)[1]
        u, minus_u = self._target(xy, e, g, h)
        w = self.column(y)
        for op in ops:
            w = op(w)
        w = self._reduced(w, self._factors(e)[0])
        if w == u:
            return 1
        if w == minus_u:
            return -1
        K = self.rep.field
        d = K.degree
        i = next(i for i in range(0, len(u), d) if any(u[i : i + d]))
        ratio = K.from_zeta_coords(w[i : i + d]) / K.from_zeta_coords(u[i : i + d])
        raise CocycleViolation(
            f"omega~(g) omega~(h) e_0 = lambda omega~(gh) e_0 fails for lambda = +-1"
            f" (entry {i // d} gives {ratio!r})"
        )


def cocycle_value(rep: MarkedRep, g: SpElement, h: SpElement) -> int:
    """lam(g,h) = omega~(g) omega~(h) omega~(gh)^-1, which must be +-1, read
    off the column e_0: +1 when omega~(g) omega~(h) e_0 = omega~(gh) e_0,
    -1 when it is the negative, CocycleViolation otherwise.

    The reading is a certificate under Schur's lemma, given four premises:
    (a) every token image intertwines rho, omega(s) rho(v) = rho(s.v)
    omega(s) (intertwining_check on the declared generators; the tokens
    outside them, which sp_word uses at m >= 2, are checked by _Columns as
    they first appear); (b) the commutant of rho is K (cocycle_certificate
    requires it); (c) each word sp_word(g) evaluates to g over F_q, checked
    by _Columns as the product of the token elements on the F_q tables;
    (d) omega~(gh) e_0 != 0, checked by _Columns on its reduced coordinates.
    Then omega~(g) omega~(h) omega~(gh)^-1 commutes with rho (rho being a
    representation of H, as heisenberg_hom_check certifies), so it is a
    scalar lambda, and one nonzero column decides lambda.  (c) and (d)
    raise IdentityFailure.

    The scalars are compared through the W0 count: only W0 carries one,
    c_W = S^-m, so both sides are integral vectors once multiplied by a
    power of c_W^-1 = S^m, which is exact in characteristic 0 and ell
    alike (see _Columns), and they are compared on their canonical
    reductions by the defining polynomial of K, never as CycloNums.

    Empirically this section measures identically +1 on every finite
    group tested (exhaustively on Sp(2,F_3) and Sp(2,F_5)): the double
    cover of a finite symplectic group splits, and the canonical word
    section lands on the linear model.  Nothing downstream relies on
    that; everything treats omega~ as projective and keeps measuring."""
    return _Columns(rep).value(g, h)


def cocycle_certificate(rep: MarkedRep, pairs, commutant_dim: int) -> CocycleCert:
    """lam(g, h) for every pair, as cocycle_value reads it, with the column
    and word of each element computed once.  commutant_dim is the dimension
    of the commutant of rho that the caller solved (premise (b)); the caller
    has also run intertwining_check (premise (a)).  Unless commutant_dim is 1,
    Schur's lemma does not apply and no column is read: IdentityFailure."""
    if commutant_dim != 1:
        raise IdentityFailure(
            f"the commutant of rho has dimension {commutant_dim}, not 1: no column decides lambda"
        )
    cols = _Columns(rep)
    return CocycleCert([(g, h, cols.value(g, h)) for g, h in pairs])


# ---------------------------------------------------------------------------
# Property checks (exact identities from the model)


def _rho_generators(psi: AdditiveCharacter, space: SymplecticSpace, keys):
    "(key, h, rho_monomial(h)) for the Heisenberg generator keys."
    out = []
    for hk in keys:
        h = _heis_from_key(space, hk)
        out.append((hk, h, rho_monomial(psi, space, h)))
    return out


def _check_intertwines(psi: AdditiveCharacter, space: SymplecticSpace, tok, g, cols, rho_gens):
    """omega~(tok) rho(h) = rho(g.h) omega~(tok) for g = token_indices(tok)
    and every h of rho_gens (from _rho_generators); raises IdentityFailure.
    g . (w, t) = (g w, t) is computed on the F_q tables.
    omega~(tok) = c . P with cols the columns of P (token_phases), so it is
    P that is compared, column by column on its (sign, exponent) entries,
    with rho in monomial form: column j of P rho(h) is column perm[j] of P
    shifted by the exponent of rho(h) there, and column j of rho(g.h) P is
    column j of P moved and shifted by rho(g.h).  A monomial P (M, N) costs
    O(n) per h, a dense one (W0) O(n^2)."""
    n = psi.coeff.n
    step = n // space.fq.p  # psi-exponent e is the zeta_n-exponent step . e
    fq, dim = space.fq, space.dim
    add, mul = fq.add, fq.mul
    rows = [[mul[a] for a in g[i : i + dim]] for i in range(0, dim * dim, dim)]
    for hk, h, (perm, exps) in rho_gens:
        gw = []
        for row in rows:
            acc = 0
            for r, c in zip(row, h.w):
                acc = add[acc][r[c.idx]]
            gw.append(fq.elems[acc])
        perm2, exps2 = rho_monomial(psi, space, HeisElem(space, gw, h.t))
        for j, col in enumerate(cols):
            e = step * exps[j]
            lhs = {i: (s, (k + e) % n) for i, s, k in cols[perm[j]]}
            rhs = {perm2[i]: (s, (k + step * exps2[i]) % n) for i, s, k in col}
            if lhs != rhs:
                raise IdentityFailure(f"intertwining fails at {tok}, {hk}")


def intertwining_check(wrep: MarkedRep, hrep: MarkedRep):
    """omega~(g) rho(h) = rho(g.h) omega~(g), with omega~(g) != 0, for the
    declared Weil generators g and Heisenberg generators h, exactly.

    No inverse is taken.  When the commutant of rho is K, rho and rho o g^-1
    are irreducible, so by Schur's lemma a nonzero intertwiner between them
    is invertible, and omega~(g) rho(h) omega~(g)^-1 = rho(g.h) follows."""
    rho_gens = _rho_generators(hrep.psi, hrep.space, hrep.gen_names)
    for tok in wrep.gen_names:
        g = token_indices(wrep.space, tok)
        cols = _nonzero_phases(wrep.psi, wrep.space, tok)[1]
        _check_intertwines(hrep.psi, hrep.space, tok, g, cols, rho_gens)
    return True


def semilinearity_check(rep: MarkedRep, sigma: GaloisAut):
    """sigma(omega~_psi(tok)) = omega~_{psi^sigma}(tok) on every declared
    token, for rep = weil_rep(psi, space), on the phase forms: sigma maps
    c . s . zeta_n^k to sigma(c) . s . zeta_n^(u k), u its exponent, so the
    scalar of the psi^sigma image must be sigma(c) and its (row, s, k)
    entries those of rep with every k multiplied by u mod n."""
    psi, space = rep.psi, rep.space
    psi2 = char_galois(sigma, psi)
    u, n = sigma.exponent, psi.coeff.n
    for tok in rep.gen_names:
        c, cols = token_phases(psi, space, tok)
        c2, cols2 = token_phases(psi2, space, tok)
        moved = [[(i, s, u * k % n) for i, s, k in col] for col in cols]
        if apply_aut(sigma, c) != c2 or moved != cols2:
            raise IdentityFailure(f"semilinearity fails at {tok}")
    return True


def _signed_permutation(tok, cols):
    "_monomial_entries(cols), refusing a P that is not monomial by IdentityFailure."
    mono = _monomial_entries(cols)
    if mono is None:
        raise IdentityFailure(f"the image of {tok} is not monomial")
    return mono


def _times_monomial(cols, mono, n):
    """The columns of X M, for X given by cols and M by _signed_permutation:
    column j is column r_j of X times s_j zeta^k_j."""
    return [sorted((i, s * t, (k + kk) % n) for i, t, kk in cols[r]) for r, s, k in mono]


def _monomial_times(mono, cols, n):
    "The columns of M X: row i of X moved to row r_i and multiplied by s_i zeta^k_i."
    return [
        sorted((mono[i][0], mono[i][1] * t, (mono[i][2] + kk) % n) for i, t, kk in col)
        for col in cols
    ]


def _same_image(c1, cols1, c2, cols2):
    """c1 P1 == c2 P2 for phase forms with rows sorted: equal scalars and
    columns, or opposite scalars and columns of opposite signs."""
    if c1 == c2:
        return cols1 == cols2
    return c1 == -c2 and cols1 == [[(i, -s, k) for i, s, k in col] for col in cols2]


def weil_twist_check(psi: AdditiveCharacter, space: SymplecticSpace, gamma: FqElem):
    """Exact finite-case forms of the twisting identities: on every declared
    M(a) and N(b) token, the M-image is psi-independent (the Hilbert symbol
    is trivial here) and omega_{psi^gamma}(N(b)) = omega_psi(N(gamma b)); the
    W0-image satisfies

        omega_{psi^gamma}(W0) = omega_psi(W0) M(gamma^-1)

    with the scalar identity Omega_mu(psi^gamma o Q) =
    legendre(gamma)^m Omega_mu(psi o Q), and conjugation by M(gamma)
    realises the square-twist on every generator.

    Every image is compared on its phase form c . P (token_phases), as a
    table of (row, sign, exponent) entries, with no dense matrix: the M
    tables are equal, the psi^gamma table of N(b) is the psi table of
    N(gamma b), W0 M(gamma^-1) is a signed column permutation of W0, and
    X M(gamma) and M(gamma) X are signed moves of the rows and columns of
    X.  The M images, being monomial, are read by _signed_permutation."""
    fq, m, n = space.fq, space.m, psi.coeff.n
    psig = char_twist(psi, gamma)
    toks = _gl_generator_tokens(space)
    report = {}
    for tok in toks:
        if tok[0] == "M" and token_phases(psi, space, tok) != token_phases(psig, space, tok):
            raise IdentityFailure(f"M-image depends on psi at {tok}")
    report["m_identity"] = True
    for tok in toks:
        if tok[0] == "N":
            gamma_b = token_n(Matrix(fq, [list(r) for r in tok[1]]).scale(gamma))
            if token_phases(psig, space, tok) != token_phases(psi, space, gamma_b):
                raise IdentityFailure(f"N-twist identity fails at {tok}")
    report["n_identity"] = True
    eye = Matrix.identity(fq, m)
    c1, lhs = token_phases(psig, space, TOKEN_W)
    c2, w0 = token_phases(psi, space, TOKEN_W)
    m_inv = token_m(eye.scale(gamma.inv()))
    cm, mcols = token_phases(psi, space, m_inv)
    rhs = _times_monomial(w0, _signed_permutation(m_inv, mcols), n)
    report["w_identity"] = _same_image(c1, [sorted(col) for col in lhs], c2 * cm, rhs)
    if not report["w_identity"]:
        raise IdentityFailure("W0-twist identity fails")
    s = _weil_gauss_scalar(psi, space)
    sg = _weil_gauss_scalar(psig, space)
    chi = psi.coeff.from_int(legendre(gamma) ** m)
    report["omega_scalar"] = (sg**m) == chi * (s**m)
    if not report["omega_scalar"]:
        raise IdentityFailure("Omega_{w,gamma} scalar identity fails")
    # conjugation by M(gamma) realises psi -> psi^(gamma^2) on all generators:
    # omega_{psi^(gamma^2)}(tok) M(gamma) = M(gamma) omega_psi(tok), the
    # scalar of M(gamma) on both sides
    psigg = char_twist(psi, gamma * gamma)
    m_gamma = token_m(eye.scale(gamma))
    mono = _signed_permutation(m_gamma, token_phases(psi, space, m_gamma)[1])
    for tok in toks:
        c1, x1 = token_phases(psigg, space, tok)
        c2, x2 = token_phases(psi, space, tok)
        if not _same_image(c1, _times_monomial(x1, mono, n), c2, _monomial_times(mono, x2, n)):
            raise IdentityFailure(f"square-twist conjugation fails at {tok}")
    report["square_twist_conjugation"] = True
    # the quadratic-sum convention behind Omega^psi_{1,gamma} = legendre
    tot, tot_g = psi.coeff.zero(), psi.coeff.zero()
    for u in fq.elements():
        tot = tot + psi(u * u)
        tot_g = tot_g + psi(gamma * u * u)
    report["legendre_sum"] = tot_g == psi.coeff.from_int(legendre(gamma)) * tot
    if not report["legendre_sum"]:
        raise IdentityFailure("legendre character-sum identity fails")
    return report


# ---------------------------------------------------------------------------
# Sweeps (the Heisenberg group, the conjugacy classes of Sp)


def _monomial_product(a, b, p):
    "AB in monomial exponent form (perm, exps), exponents mod p, for A = a, B = b."
    pa, ea = a
    pb, eb = b
    return [pa[k] for k in pb], [(ea[k] + e) % p for k, e in zip(pb, eb)]


def heisenberg_hom_check(rep: MarkedRep):
    """rho(h1 h2) = rho(h1) rho(h2) exactly for every pair of H(W), and the
    central character rho(0, t) = psi(t) Id.  Returns the number of pairs
    certified, q^(2(2m+1)); every failure raises IdentityFailure.

    Everything is checked on the monomial exponent form of rho_monomial, of
    which rho_matrix is the dense expansion.  If column j of A sits in row
    pa[j] as zeta^ea[j], and likewise B with (pb, eb), then column j of AB
    sits in row pa[pb[j]] as zeta^(ea[pb[j]] + eb[j]).  A monomial matrix
    is determined by its permutation and its entries, and zeta_p has exact
    order p in the coefficient field (Q(zeta_p), or F_ell[zeta_p] with
    ell != p), so k -> zeta_p^k is injective on Z/p: the matrices are equal
    exactly when the permutations agree and the exponents agree mod p.

    A vector w of W is a tuple of F_q indices with id sum w_k q^k, and
    (w, t) has id q id(w) + t, the order of heis_enumerate; sums and the
    form are lookups in the F_q tables.  With ex(t) = psi.exponent(t) and
    [w, v] = (1/2)<w, v>, it checks
    (I) rho(0, 0) = Id;
    (C) ex(a) + ex(b) = ex(a + b) mod p for all a, b in F_q: q^2 lookups;
    (B) rho(w, 0) rho(b, 0) = psi([w, b]) rho(w + b, 0) for every w and each
        b of the F_p-basis g^j e_i, g^j f_i (j < f, g the class of X) of W,
        the X and Y generators of heisenberg_rep: 2mf q^(2m) products;
    (A) rho(w, t) = psi(t) rho(w, 0) for every (w, t): the same
        permutation, the exponents shifted by ex(t).

    By (C), psi is a homomorphism.  Let P(v) say rho(w, 0) rho(v, 0) =
    psi([w, v]) rho(w + v, 0) for all w: (I) is P(0), (B) is P(b).  P(v)
    and P(b) give P(v + b), since for every w

        rho(w, 0) rho(v + b, 0) = psi(-[v, b]) rho(w, 0) rho(v, 0) rho(b, 0)
            = psi([w, v] - [v, b]) rho(w + v, 0) rho(b, 0)
            = psi([w, v] - [v, b] + [w + v, b]) rho(w + v + b, 0)

    by P(b) at v, P(v) and P(b) at w + v, and [ , ] is bilinear.  Sums of
    basis vectors exhaust W, so P holds on W, and with c = [w, w']

        rho(w, t) rho(w', t') = psi(t + t') rho(w, 0) rho(w', 0)   (A)
                              = psi(t + t' + c) rho(w + w', 0)     P(w')
                              = rho((w, t)(w', t'))                 (A).

    (A) and (I) give the central character."""
    space, psi = rep.space, rep.psi
    fq, m = space.fq, space.m
    p, q, elems = fq.p, fq.q, fq.elems
    add, mul, neg, half = fq.add, fq.mul, fq.neg, space.half.idx
    vecs = [ds[::-1] for ds in product(range(q), repeat=space.dim)]

    def heis(i):
        return HeisElem(space, [elems[c] for c in vecs[i // q]], elems[i % q])

    def form(i):
        return rho_monomial(psi, space, heis(i))

    ex = [psi.exponent(t) for t in elems]
    forms = [form(q * s) for s in range(len(vecs))]  # rho(w, 0)
    ident = list(range(rep.dim))
    if forms[0] != (ident, [0] * rep.dim):  # (I)
        raise IdentityFailure("central character fails: rho(0, 0) != Id")
    for a in range(q):  # (C)
        for b in range(q):
            if (ex[a] + ex[b]) % p != ex[add[a][b]]:
                raise IdentityFailure(
                    f"heisenberg hom fails at t = {elems[a]!r}, {elems[b]!r}:"
                    " psi(a) psi(b) != psi(a + b)"
                )
    # b = X^j (index a = p^j) at coordinate k, with vector id a q^k
    basis = [(k, p**j) for k in range(space.dim) for j in range(fq.f)]
    for s, w in enumerate(vecs):  # (B)
        for k, a in basis:
            pairing = neg[mul[w[m + k]][a]] if k < m else mul[w[k - m]][a]  # <w, b>
            perm, exps = _monomial_product(forms[s], forms[q**k * a], p)
            perm1, exps1 = forms[s + q**k * (add[w[k]][a] - w[k])]  # rho(w + b, 0)
            c = ex[mul[half][pairing]]
            if perm != perm1 or exps != [(x + c) % p for x in exps1]:
                raise IdentityFailure(
                    f"heisenberg hom fails at {heis(q * s)!r}, {heis(q**(k + 1) * a)!r}"
                )
    for s, (perm0, exps0) in enumerate(forms):  # (A)
        for t in range(1, q):
            perm, exps = form(q * s + t)
            if perm != perm0 or exps != [(x + ex[t]) % p for x in exps0]:
                raise IdentityFailure(
                    f"heisenberg hom fails at {heis(q * s + t)!r}:"
                    " rho(w, t) != psi(t) rho(w, 0)"
                )
    return (len(vecs) * q) ** 2


def _tree_images(rep: MarkedRep, classes: SpClasses):
    """image(i): omega~ of element i of classes, up to sign, as the product
    of the token images along its tree path.  Each prefix of a path is
    multiplied once per call and shared by the paths through it."""
    images = {0: Matrix.identity(rep.field, rep.dim)}

    def image(i):
        path = []
        while i not in images:
            path.append(i)
            i = classes.parent[i]
        mat = images[i]
        for j in reversed(path):
            mat = images[j] = mat * rep.image(classes.tokens[classes.via[j]])
        return mat

    return image


def _heis_trace(psi: AdditiveCharacter, space: SymplecticSpace, h: HeisElem):
    "tr rho(h): the diagonal entries of its monomial form."
    perm, exps = rho_monomial(psi, space, h)
    acc = psi.coeff.zero()
    for col, (row, e) in enumerate(zip(perm, exps)):
        if row == col:
            acc = acc + psi.values[e]
    return acc


def class_traces(rep: MarkedRep, bound: int):
    """The character data of rep as the terms (t, t_inv, weight) of the
    trace formula _trace_pair_dimension: t = tr rep(g), t_inv = tr rep(g)^-1,
    and weight elements of the group share the term, so the weights sum to
    |G|.  The t generate the character field (the tests' oracle for
    rationality.character_field); projected to a subfield R, the terms give
    dim End over R (its oracle for rationality.endomorphism_algebra).

    For Sp, one term per conjugacy class of sp_classes (refused by TooLarge
    when |Sp| exceeds bound), weighted by its size: t = tr omega~(g) and
    t_inv = c_g^-1 tr omega~(g^-1), with c_g the scalar of
    omega~(g) omega~(g^-1) = c_g Id.  omega~ is projective with a +-1
    cocycle (the premise the cocycle certificate measures), so the image of
    x g x^-1 is e A omega~(g) A^-1 with A = omega~(x) and e = +-1, and its
    inverse is e^-1 A omega~(g)^-1 A^-1.  Hence t is the same on the whole
    orbit up to sign, and a Galois automorphism fixes t exactly when it
    fixes -t: the representatives generate the field of all traces.  The
    product T(t) T(t_inv), T = Tr_{K/R}, is the same on the whole orbit
    exactly: T is linear over R, which contains e, so the signs cancel.
    Neither needs the orbits of sp_classes to be whole classes.

    For H(W), one term of weight 1 per element, read off rho_monomial."""
    if rep.group == "heis":
        space, psi = rep.space, rep.psi
        return [
            (_heis_trace(psi, space, h), _heis_trace(psi, space, h.inverse()), 1)
            for h in heis_enumerate(space)
        ]
    classes = sp_classes(rep.space, rep.gen_names, bound)
    image = _tree_images(rep, classes)
    K = rep.field
    terms = []
    for g, size in classes.classes:
        mat, minv = image(g), image(classes.inverse[g])
        # mat * minv = c * Id with c a scalar: read entry (0,0)
        c = K.zero()
        for k in range(mat.ncols):
            c = c + mat.rows[0][k] * minv.rows[k][0]
        terms.append((mat.trace(), c.inv() * minv.trace(), size))
    return terms


def _trace_pair_dimension(K, terms):
    """dim End = (1/|G|) sum_g tr(g) tr(g^-1) from the terms
    (tr(g), tr(g^-1), weight): weight elements of G for each term, so that
    |G| is the sum of the weights; raises InvalidCharacteristic when |G| is
    0 in K, and IdentityFailure unless the quotient is an integer."""
    total, order = K.zero(), 0
    for t1, t2, weight in terms:
        total = total + t1 * t2 * weight
        order += weight
    if K.from_int(order).is_zero():
        raise InvalidCharacteristic(f"|G| = {order} is 0 in {K!r}")
    dim = total / order
    if not dim.is_rational() or dim.as_fraction().denominator != 1:
        raise IdentityFailure(f"End-algebra dimension {dim!r} is not an integer")
    return int(dim.as_fraction())
