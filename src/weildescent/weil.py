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
The certificates run on the phase form.  A column is a scalar times integer
phase coordinates in Z[x]/(x^n - 1), x standing for zeta_n, on which P acts
by signed cyclic shifts and sums; it enters K only to be compared.  Premise
(a) and Galois semilinearity compare the (sign, exponent) entries of P.

class_traces gives the character data of a rep of Sp or H(W) as one table
of terms (tr g, tr g^-1, weight), one per conjugacy class of Sp or per
element of H(W).  No command reads it: the character field and the End
algebra are certified on the declared generators (rationality), and the
tests read the field of the class traces and the trace formula
_trace_pair_dimension as their oracles, as they read weil_op."""

from __future__ import annotations

from itertools import product

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
    char_galois,
    char_twist,
    heis_enumerate,
    legendre,
    sp_classes,
    sp_act_heis,
    sp_factor,
    token_m,
    token_n,
    token_to_sp,
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
    character (None on a derived rep, which is no longer rho_psi)."""

    def __init__(self, field, dim, gen_names, label, make, group, space, psi):
        self.field = field
        self.dim = dim
        self.gen_names = tuple(gen_names)
        self.label = label
        self.group = group
        self.space = space
        self.psi = psi
        self._make = make
        self._images = {}

    def image(self, key) -> Matrix:
        if key not in self._images:
            self._images[key] = self._make(key)
        return self._images[key]

    def gens_images(self):
        return [self.image(k) for k in self.gen_names]

    def derive(self, label, make, field=None, dim=None) -> "MarkedRep":
        "The rep of the same group with image rule make (field and dim default to ours)."
        field, dim = field or self.field, dim or self.dim
        return MarkedRep(field, dim, self.gen_names, label, make, self.group, self.space, None)

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
            "generators": [
                {
                    "token": _key_json(k),
                    "matrix": [[e.to_json() for e in row] for row in self.image(k).rows],
                }
                for k in self.gen_names
            ],
        }


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
        a = Matrix(fq, [list(r) for r in tok[1]])
        s = legendre(a.det())
        ainvt = [[e.idx for e in row] for row in a.inverse().transpose().rows]
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


def _phase_op(cols, n):
    """x -> P x on phase coordinates, for P given by the cols of
    token_phases.  x holds n integers per entry, entry y at x[y n : (y + 1) n]
    standing for sum_t x[y n + t] zeta_n^t, so an entry s . zeta_n^k of P
    moves coordinate t of x_j to coordinate t + k mod n of row y, signed.
    A monomial P (M, N) moves each coordinate to one place; any other P
    (W0) sums, at each coordinate of P x, the coordinates moved there."""
    # coordinate of P x -> the indices in x moved there with sign +1, -1
    plus, minus = [[] for _ in range(len(cols) * n)], [[] for _ in range(len(cols) * n)]
    for j, col in enumerate(cols):
        for y, s, k in col:
            moved = plus if s == 1 else minus
            for t in range(n):
                moved[y * n + (t + k) % n].append(j * n + t)
    if all(len(a) + len(b) == 1 for a, b in zip(plus, minus)):
        moves = [(1, a[0]) if a else (-1, b[0]) for a, b in zip(plus, minus)]
        return lambda x: [s * x[i] for s, i in moves]

    def apply(x):
        get = x.__getitem__
        return [sum(map(get, a)) - sum(map(get, b)) for a, b in zip(plus, minus)]

    return apply


class _Columns:
    """omega~(g) applied to vectors along the word sp_factor(g), on integer
    phase coordinates.  Each token image is c . P (token_phases), P with
    entries 0 and +-zeta^k, so a vector is kept as a scalar of K times
    integer coordinates in Z[x]/(x^n - 1), x standing for zeta = zeta_n:
    the M and N images act by a sign and a cyclic shift per column, W0 by
    signed shifted sums (_phase_op), and the scalars c multiply along the
    word.  A vector enters K only to be compared: reduced by the defining
    polynomial (mod ell in the modular case), then scaled.  Caches the
    word of every element with its scalar, its column omega~(g) e_0, and
    the element and operator of every token."""

    def __init__(self, rep: MarkedRep):
        self.rep = rep
        self.declared = set(rep.gen_names)
        self.rho_gens = None  # made for the first undeclared token
        self.tokens = {}  # token -> (token_to_sp(token), c, x -> P x)
        self.words = {}  # matrix key of g -> (sp_factor(g), product of its c)
        self.cols = {}  # matrix key of g -> omega~(g) e_0 as (scalar, coordinates)
        self.col_values = {}  # matrix key of g -> omega~(g) e_0 in K
        K, space = rep.field, rep.space
        self.e0 = (K.one(), [1] + [0] * (rep.dim * K.n - 1))
        self.identity = SpElement(space, Matrix.identity(space.fq, space.dim), _checked=True)

    def _token(self, tok):
        if tok not in self.tokens:
            rep = self.rep
            g = token_to_sp(rep.space, tok)
            c, cols = _nonzero_phases(rep.psi, rep.space, tok)
            if tok not in self.declared:
                # premise (a) for a token outside the declared generators: at
                # m >= 2, sp_factor uses M(a) and N(b) for every a and b
                if self.rho_gens is None:
                    keys = heisenberg_rep(rep.psi, rep.space).gen_names
                    self.rho_gens = _rho_generators(rep.psi, rep.space, keys)
                _check_intertwines(rep.psi, rep.space, tok, g, cols, self.rho_gens)
            self.tokens[tok] = (g, c, _phase_op(cols, rep.field.n))
        return self.tokens[tok]

    def _word(self, g: SpElement):
        "(sp_factor(g), the product of the token scalars c along it)."
        key = g.mat.to_key()
        if key not in self.words:
            word = sp_factor(g)
            h, c = self.identity, self.rep.field.one()
            for tok in word:
                elem, ct, _ = self._token(tok)
                h, c = h * elem, ct * c
            if h != g:  # premise (c)
                raise IdentityFailure(f"sp_factor gives a word for another element than {g!r}")
            self.words[key] = word, c
        return self.words[key]

    def apply(self, g: SpElement, v):
        "omega~(g) v, v and the result as (scalar, coordinates)."
        word, c = self._word(g)
        s, x = v
        for tok in reversed(word):
            x = self.tokens[tok][2](x)
        return s * c, x

    def column(self, g: SpElement):
        "omega~(g) e_0 as (scalar, coordinates)."
        key = g.mat.to_key()
        if key not in self.cols:
            self.cols[key] = self.apply(g, self.e0)
        return self.cols[key]

    def _in_field(self, v):
        "The entries of v = (scalar, coordinates) in K."
        s, x = v
        K = self.rep.field
        n = K.n
        return [K.from_zeta_coords(x[a : a + n]) * s for a in range(0, len(x), n)]

    def value(self, g: SpElement, h: SpElement) -> int:
        gh = g * h
        key = gh.mat.to_key()
        if key not in self.col_values:
            self.col_values[key] = self._in_field(self.column(gh))
        u = self.col_values[key]
        nonzero = [i for i, e in enumerate(u) if not e.is_zero()]
        if not nonzero:  # premise (d)
            raise IdentityFailure(f"omega~(gh) e_0 = 0 at g = {g!r}, h = {h!r}")
        w = self._in_field(self.apply(g, self.column(h)))
        if w == u:
            return 1
        if w == [-e for e in u]:
            return -1
        i = nonzero[0]
        raise CocycleViolation(
            f"omega~(g) omega~(h) e_0 = lambda omega~(gh) e_0 fails for lambda = +-1"
            f" (entry {i} gives {w[i] / u[i]!r})"
        )


def cocycle_value(rep: MarkedRep, g: SpElement, h: SpElement) -> int:
    """lam(g,h) = omega~(g) omega~(h) omega~(gh)^-1, which must be +-1, read
    off the column e_0: +1 when omega~(g) omega~(h) e_0 = omega~(gh) e_0,
    -1 when it is the negative, CocycleViolation otherwise.

    The reading is a certificate under Schur's lemma, given four premises:
    (a) every token image intertwines rho, omega(s) rho(v) = rho(s.v)
    omega(s) (intertwining_check on the declared generators; the tokens
    outside them, which sp_factor uses at m >= 2, are checked here as they
    first appear); (b) the commutant of rho is K (cocycle_certificate
    requires it); (c) each word sp_factor(g) evaluates to g over F_q,
    checked here as the product of the token elements; (d) omega~(gh) e_0
    != 0, checked here.  Then omega~(g) omega~(h) omega~(gh)^-1 commutes
    with rho (rho being a representation of H, as heisenberg_hom_check
    certifies), so it is a scalar lambda, and one nonzero column decides
    lambda.  (c) and (d) raise IdentityFailure.

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
    """omega~(tok) rho(h) = rho(g.h) omega~(tok) for g = token_to_sp(tok) and
    every h of rho_gens (from _rho_generators); raises IdentityFailure.
    omega~(tok) = c . P with cols the columns of P (token_phases), so it is
    P that is compared, column by column on its (sign, exponent) entries,
    with rho in monomial form: column j of P rho(h) is column perm[j] of P
    shifted by the exponent of rho(h) there, and column j of rho(g.h) P is
    column j of P moved and shifted by rho(g.h).  A monomial P (M, N) costs
    O(n) per h, a dense one (W0) O(n^2)."""
    n = psi.coeff.n
    step = n // space.fq.p  # psi-exponent e is the zeta_n-exponent step . e
    for hk, h, (perm, exps) in rho_gens:
        perm2, exps2 = rho_monomial(psi, space, sp_act_heis(g, h))
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
        g = token_to_sp(wrep.space, tok)
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


def weil_twist_check(psi: AdditiveCharacter, space: SymplecticSpace, gamma: FqElem):
    """Exact finite-case forms of the twisting identities: on every declared
    M(a) and N(b) token, the M-image is psi-independent (the Hilbert symbol
    is trivial here) and omega_{psi^gamma}(N(b)) = omega_psi(N(gamma b)); the
    W0-image satisfies

        omega_{psi^gamma}(W0) = omega_psi(W0) M(gamma^-1)

    with the scalar identity Omega_mu(psi^gamma o Q) =
    legendre(gamma)^m Omega_mu(psi o Q), and conjugation by M(gamma)
    realises the square-twist on every generator."""
    fq, m = space.fq, space.m
    psig = char_twist(psi, gamma)
    rep = weil_rep(psi, space)
    repg = weil_rep(psig, space)
    report = {}
    for tok in rep.gen_names:
        if tok[0] == "M" and rep.image(tok) != repg.image(tok):
            raise IdentityFailure(f"M-image depends on psi at {tok}")
    report["m_identity"] = True
    for tok in rep.gen_names:
        if tok[0] == "N":
            gamma_b = token_n(Matrix(fq, [list(r) for r in tok[1]]).scale(gamma))
            if repg.image(tok) != rep.image(gamma_b):
                raise IdentityFailure(f"N-twist identity fails at {tok}")
    report["n_identity"] = True
    ginv = gamma.inv()
    eye = Matrix.identity(fq, m)
    lhs = repg.image(TOKEN_W)
    rhs = rep.image(TOKEN_W) * rep.image(token_m(eye.scale(ginv)))
    report["w_identity"] = lhs == rhs
    if lhs != rhs:
        raise IdentityFailure("W0-twist identity fails")
    s = _weil_gauss_scalar(psi, space)
    sg = _weil_gauss_scalar(psig, space)
    chi = psi.coeff.from_int(legendre(gamma) ** m)
    report["omega_scalar"] = (sg**m) == chi * (s**m)
    if not report["omega_scalar"]:
        raise IdentityFailure("Omega_{w,gamma} scalar identity fails")
    # conjugation by M(gamma) realises psi -> psi^(gamma^2) on all generators
    repgg = weil_rep(char_twist(psi, gamma * gamma), space)
    mg = rep.image(token_m(eye.scale(gamma)))
    for tok in rep.gen_names:
        if repgg.image(tok) * mg != mg * rep.image(tok):
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
