"""Finite fields F_q of odd characteristic, additive characters valued in a
cyclotomic coefficient field, symplectic spaces with the standard
polarisation, the Heisenberg group, factorization of symplectic
matrices into the Siegel-parabolic generators M(a), N(b) and the fixed
Weyl element W0, and the conjugacy classes of Sp(W).

An FqElem is an index in counting order, and F_q arithmetic is lookup in
the add, neg, mul (log/antilog) and inv tables its FqField builds once;
.coeffs gives the coefficient vector on the power basis of the modulus,
which is what the wire format carries.  The hot loops (drawing and listing
Sp(W), the factorization sp_word, the class sweep) hold a matrix as a
row-major tuple of indices and multiply, factor and reduce it on the tables,
every reduction by one Gauss-Jordan (_gauss_jordan); SpElement, a Matrix
of FqElem, is the public form.

Coordinates: W = X + Y with X = span(e_1..e_m), Y = span(f_1..f_m) and
<e_i, f_j> = delta_ij.  A vector is a length-2m tuple of FqElem, X-part
first.  The standard generators, as 2m x 2m block matrices acting on
column vectors:

    M(a) = [[a, 0], [0, a^-T]]     a in GL_m
    N(b) = [[I, b], [0, I]]        b symmetric
    W0   = [[0, -I], [I, 0]]       e_i -> f_i, f_i -> -e_i
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import IdentityFailure, TooLarge, ZeroTwist
from .fields import CoeffField, GaloisAut, _least_irreducible, is_prime
from .linalg import Matrix


class FqField:
    """F_q, q = p^f with p odd, on a deterministic irreducible modulus.

    An element is its index in counting order: the base-p digits of the
    index are its coefficients on the power basis 1, X, ..., X^(f-1) modulo
    the modulus.  All arithmetic is lookup in tables built once per field
    from small-integer arithmetic on digit vectors: addition and negation
    digit-wise mod p, multiplication and inversion through the discrete
    logarithm to the least primitive element g in counting order
    (exp[k] = index of g^k, log its inverse), traces through the Frobenius
    x -> x^p = exp[p log x].  Each table has at most q^2 entries, and the
    size cap keeps q small."""

    def __init__(self, p: int, f: int):
        assert is_prime(p) and p % 2 == 1, "characteristic must be an odd prime"
        assert f >= 1
        self.p = p
        self.f = f
        self.q = q = p**f
        self.modulus = _least_irreducible(p, f)
        weights = [p**i for i in range(f)]
        self.digits = [d[::-1] for d in product(range(p), repeat=f)]
        # row a of the add table is row a - p^i, with digit i of every
        # entry raised by one, for i the lowest nonzero digit of a
        raise_digit = [
            [k + w if (k // w) % p < p - 1 else k - (p - 1) * w for k in range(q)]
            for w in weights
        ]
        self.add = [list(range(q))]
        for a in range(1, q):
            i = next(i for i, w in enumerate(weights) if (a // w) % p)
            self.add.append([raise_digit[i][k] for k in self.add[a - weights[i]]])
        self.neg = [row.index(0) for row in self.add]
        self.exp = self._powers_of_least_primitive()
        self.log = [None] * q
        for k, e in enumerate(self.exp):
            self.log[e] = k
        exp2 = self.exp + self.exp
        logs = self.log[1:]
        self.mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self.inv = [None] + [self.exp[-la % (q - 1)] for la in logs]
        self.trace = [0] * q
        for a, la in enumerate(logs, 1):
            acc = 0
            for w in weights:  # the conjugates a^(p^i)
                acc = self.add[acc][self.exp[la * w % (q - 1)]]
            if acc >= p:
                raise IdentityFailure(f"trace of element {a} of F_{q} is not in F_{p}")
            self.trace[a] = acc
        self.elems = [FqElem(self, k) for k in range(q)]

    def _powers_of_least_primitive(self):
        """[index of g^k for k < q - 1] for the least element g of
        multiplicative order q - 1, by repeated multiplication by g on digit
        vectors; g X^j mod the modulus comes from shifting by X."""
        p, f, q = self.p, self.f, self.q
        low = self.modulus[:f]  # X^f = -sum low[i] X^i

        def index(vec):
            return sum(c * p**i for i, c in enumerate(vec))

        def times_x(vec):
            top = vec[-1]
            return [(c - top * m) % p for c, m in zip([0] + vec[:-1], low)]

        for k in range(2, q):
            cols = [list(self.digits[k])]  # g X^j for j < f
            for _ in range(f - 1):
                cols.append(times_x(cols[-1]))
            powers, vec = [1], [1] + [0] * (f - 1)
            while True:
                vec = [sum(v * col[i] for v, col in zip(vec, cols)) % p for i in range(f)]
                e = index(vec)
                if e == 1:
                    break
                powers.append(e)
            if len(powers) == q - 1:
                return powers
        raise AssertionError("unreachable: F_q^x is cyclic")

    def __repr__(self):
        return f"F_{self.q}"

    def __eq__(self, other):
        return isinstance(other, FqField) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash(("Fq", self.p, self.f))

    def zero(self):
        return self.elems[0]

    def one(self):
        return self.elems[1]

    def from_int(self, k: int):
        return self.elems[k % self.p]

    def from_coeffs(self, coeffs):
        "Element with the given coefficients on the power basis."
        return self.elems[sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))]

    def gen(self):
        "The class of X (a root of the modulus); only meaningful for f > 1."
        assert self.f > 1
        return self.elems[self.p]

    def primitive_element(self):
        "Least multiplicative generator of F_q^x in counting order."
        return self.elems[self.exp[1]]

    def element(self, index: int):
        "index-th element in counting order: digits of index base p."
        return self.elems[index]

    def elements(self):
        return list(self.elems)

    def sqrt(self, a):
        "Least square root in counting order, or None."
        for k in range(self.q):
            if self.mul[k][k] == a.idx:
                return self.elems[k]
        return None


@lru_cache(maxsize=None)
def fq_field(p: int, f: int) -> FqField:
    return FqField(p, f)


class FqElem:
    """Element of F_q, held as its index in counting order.  A field makes
    each of its elements once, and every operation returns one of those."""

    __slots__ = ("field", "idx")

    def __init__(self, field, idx):
        self.field = field
        self.idx = idx

    @property
    def coeffs(self):
        "Coefficients on the power basis: the base-p digits of the index."
        return self.field.digits[self.idx]

    def is_zero(self):
        return self.idx == 0

    def __add__(self, o):
        f = self.field
        return f.elems[f.add[self.idx][o.idx]]

    def __neg__(self):
        f = self.field
        return f.elems[f.neg[self.idx]]

    def __sub__(self, o):
        f = self.field
        return f.elems[f.add[self.idx][f.neg[o.idx]]]

    def __mul__(self, o):
        f = self.field
        if isinstance(o, int):
            o = f.from_int(o)
        return f.elems[f.mul[self.idx][o.idx]]

    __rmul__ = __mul__

    def __pow__(self, e: int):
        f = self.field
        if self.idx == 0:
            if e < 0:
                raise ZeroDivisionError("zero has no inverse in F_q")
            return f.elems[1 if e == 0 else 0]
        return f.elems[f.exp[f.log[self.idx] * e % (f.q - 1)]]

    def inv(self):
        if self.idx == 0:
            raise ZeroDivisionError("zero has no inverse in F_q")
        f = self.field
        return f.elems[f.inv[self.idx]]

    def __truediv__(self, o):
        return self * o.inv()

    def __eq__(self, o):
        return self is o or (
            isinstance(o, FqElem) and self.idx == o.idx and self.field == o.field
        )

    def __hash__(self):
        return self.idx

    def __repr__(self):
        if self.field.f == 1:
            return str(self.idx)
        return "Fq" + str(list(self.coeffs))

    def index(self) -> int:
        "Position in the field's counting order."
        return self.idx

    def trace_to_prime(self) -> int:
        "Tr_{F_q/F_p} as an integer in [0, p)."
        return self.field.trace[self.idx]


def legendre(gamma: FqElem) -> int:
    "Quadratic character of F_q^x: +1 on squares, -1 otherwise."
    if gamma.is_zero():
        raise ZeroTwist("legendre symbol of zero")
    # the squares are the even powers of a primitive element
    return 1 if gamma.field.log[gamma.idx] % 2 == 0 else -1


class AdditiveCharacter:
    """psi_c(x) = zeta_p^(Tr(c x)), valued in a coefficient field containing
    zeta_p.  Every nontrivial character of F_q is one of these."""

    def __init__(self, fq: FqField, coeff: CoeffField, twist: FqElem):
        if twist.is_zero():
            raise ZeroTwist("additive character must be nontrivial")
        assert coeff.n % fq.p == 0, "coefficient field must contain zeta_p"
        self.fq = fq
        self.coeff = coeff
        self.twist = twist
        shift = coeff.n // fq.p
        self.values = [coeff.zeta_pow(shift * k) for k in range(fq.p)]
        self.exponents = [fq.trace[c] for c in fq.mul[twist.idx]]

    def exponent(self, x: FqElem) -> int:
        "k in [0, p) with psi(x) = zeta_p^k."
        return self.exponents[x.idx]

    def __call__(self, x: FqElem):
        return self.values[self.exponent(x)]

    def __eq__(self, o):
        return (
            isinstance(o, AdditiveCharacter)
            and (self.fq, self.coeff, self.twist) == (o.fq, o.coeff, o.twist)
        )

    def __hash__(self):
        return hash(("psi", self.fq.p, self.fq.f, self.twist))

    def __repr__(self):
        return f"psi_{self.twist!r}"


def psi_standard(fq: FqField, coeff: CoeffField) -> AdditiveCharacter:
    return AdditiveCharacter(fq, coeff, fq.one())


def char_twist(psi: AdditiveCharacter, gamma: FqElem) -> AdditiveCharacter:
    "psi^gamma(t) = psi(gamma t)."
    if gamma.is_zero():
        raise ZeroTwist("twist by zero")
    return AdditiveCharacter(psi.fq, psi.coeff, psi.twist * gamma)


def char_galois(sigma: GaloisAut, psi: AdditiveCharacter) -> AdditiveCharacter:
    "psi^sigma(t) = sigma(psi(t)), realised as the twist by sigma's exponent."
    assert sigma.field == psi.coeff
    u = sigma.exponent % psi.fq.p
    return char_twist(psi, psi.fq.from_int(u))


# ---------------------------------------------------------------------------
# Symplectic space, Sp(W), Heisenberg group


class SymplecticSpace:
    "W = F_q^2m with the standard form; X-part coordinates first."

    def __init__(self, fq: FqField, m: int):
        assert m >= 1
        self.fq = fq
        self.m = m
        self.dim = 2 * m
        self.half = fq.from_int(pow(2, -1, fq.p))

    def __repr__(self):
        return f"W(dim {self.dim} over {self.fq!r})"

    def __eq__(self, o):
        return isinstance(o, SymplecticSpace) and (self.fq, self.m) == (o.fq, o.m)

    def __hash__(self):
        return hash(("W", self.fq.p, self.fq.f, self.m))

    def pairing(self, v, w):
        "<v, w> = sum x_i y'_i - y_i x'_i."
        m = self.m
        acc = self.fq.zero()
        for i in range(m):
            acc = acc + v[i] * w[m + i] - v[m + i] * w[i]
        return acc

    def gram(self):
        z, o = self.fq.zero(), self.fq.one()
        m = self.m
        rows = []
        for i in range(m):
            rows.append([z] * m + [o if j == i else z for j in range(m)])
        for i in range(m):
            rows.append([-o if j == i else z for j in range(m)] + [z] * m)
        return Matrix(self.fq, rows)

    def zero_vector(self):
        return (self.fq.zero(),) * self.dim

    def y_points(self):
        "All of Y = F_q^m in counting order (the model's index set)."
        q, m = self.fq.q, self.m
        pts = []
        for k in range(q**m):
            pts.append(tuple(self.fq.element((k // q**i) % q) for i in range(m)))
        return pts

    def vector_index(self, pt):
        "Inverse of y_points ordering."
        q = self.fq.q
        return sum(c.idx * q**i for i, c in enumerate(pt))


class SpElement:
    """Element of Sp(W); the symplectic relation is checked on construction.
    An element made from_indices builds its Matrix of FqElem on the first
    read of mat, which only equality, hashing, repr and the blocks need."""

    def __init__(self, space: SymplecticSpace, mat: Matrix, _checked=False):
        self.space = space
        self._mat = mat
        self._indices = None  # the tuple from_indices was given
        if not _checked:
            J = space.gram()
            if mat.transpose() * J * mat != J:
                raise IdentityFailure("matrix is not symplectic")

    @classmethod
    def from_indices(cls, space: SymplecticSpace, x):
        "The element with the row-major tuple x of F_q indices, taken as symplectic."
        g = cls(space, None, _checked=True)
        g._indices = x
        return g

    @property
    def mat(self) -> Matrix:
        if self._mat is None:
            n, elems, x = self.space.dim, self.space.fq.elems, self._indices
            rows = [[elems[c] for c in x[i : i + n]] for i in range(0, n * n, n)]
            self._mat = Matrix(self.space.fq, rows)
        return self._mat

    def indices(self):
        "The row-major tuple of the F_q indices of the entries."
        return self._indices or tuple(e.idx for row in self.mat.rows for e in row)

    def __mul__(self, o):
        assert self.space == o.space
        return SpElement(self.space, self.mat * o.mat, _checked=True)

    def inverse(self):
        return SpElement(self.space, self.mat.inverse(), _checked=True)

    def apply(self, v):
        return tuple(self.mat.mul_vec(list(v)))

    def __eq__(self, o):
        return isinstance(o, SpElement) and self.space == o.space and self.mat == o.mat

    def __hash__(self):
        return hash(self.mat.to_key())

    def __repr__(self):
        return f"Sp{[[e for e in r] for r in self.mat.rows]!r}"

    def blocks(self):
        m = self.space.m
        idx = list(range(m)), list(range(m, 2 * m))
        A = self.mat.submatrix(idx[0], idx[0])
        B = self.mat.submatrix(idx[0], idx[1])
        C = self.mat.submatrix(idx[1], idx[0])
        D = self.mat.submatrix(idx[1], idx[1])
        return A, B, C, D

    def is_identity(self):
        return self.mat.is_identity()


class HeisElem:
    "(w, t) with (w,t)(w',t') = (w + w', t + t' + (1/2)<w, w'>)."

    def __init__(self, space: SymplecticSpace, w, t: FqElem):
        self.space = space
        self.w = tuple(w)
        self.t = t

    def __mul__(self, o):
        assert self.space == o.space
        s = self.space
        w = tuple(a + b for a, b in zip(self.w, o.w))
        t = self.t + o.t + s.half * s.pairing(self.w, o.w)
        return HeisElem(s, w, t)

    def inverse(self):
        return HeisElem(self.space, tuple(-a for a in self.w), -self.t)

    def __eq__(self, o):
        return (
            isinstance(o, HeisElem)
            and self.space == o.space
            and self.w == o.w
            and self.t == o.t
        )

    def __hash__(self):
        return hash((self.w, self.t))

    def __repr__(self):
        return f"H({list(self.w)!r}, {self.t!r})"


def heis_enumerate(space: SymplecticSpace):
    q = space.fq.q
    pts = []
    for k in range(q**space.dim):
        w = tuple(space.fq.element((k // q**i) % q) for i in range(space.dim))
        for t in space.fq.elements():
            pts.append(HeisElem(space, w, t))
    return pts


def sp_act_heis(g: SpElement, h: HeisElem) -> HeisElem:
    "g . (w, t) = (g w, t); an automorphism of H since the form is invariant."
    return HeisElem(h.space, g.apply(h.w), h.t)


# ---------------------------------------------------------------------------
# Generators and factorization


def token_m(a: Matrix):
    return ("M", a.to_key())


def token_n(b: Matrix):
    return ("N", b.to_key())


TOKEN_W = ("W",)


def _token(tag, fq: FqField, a, m: int):
    "The token (tag, a) for an m x m matrix a given as a row-major index tuple."
    elems = fq.elems
    return (tag, tuple(tuple(elems[c] for c in a[i : i + m]) for i in range(0, m * m, m)))


def token_indices(space: SymplecticSpace, token):
    "The element of Sp(W) that token names, as a row-major tuple of F_q indices."
    fq, m = space.fq, space.m
    n = 2 * m
    out = [0] * (n * n)
    if token == TOKEN_W:  # [[0, -I], [I, 0]]
        for i in range(m):
            out[i * n + m + i] = fq.neg[1]
            out[(m + i) * n + i] = 1
        return tuple(out)
    a = [e.idx for row in token[1] for e in row]
    if token[0] == "M":  # [[a, 0], [0, a^-T]]
        ainv = _index_det_inverse(fq, a, m)[1]
        for i in range(m):
            for j in range(m):
                out[i * n + j] = a[i * m + j]
                out[(m + i) * n + m + j] = ainv[j * m + i]
        return tuple(out)
    assert token[0] == "N" and all(a[i * m + j] == a[j * m + i] for i in range(m) for j in range(m))
    for i in range(m):  # [[I, b], [0, I]]
        out[i * n + i] = out[(m + i) * n + m + i] = 1
        for j in range(m):
            out[i * n + m + j] = a[i * m + j]
    return tuple(out)


def token_to_sp(space: SymplecticSpace, token) -> SpElement:
    return SpElement.from_indices(space, token_indices(space, token))


def eval_word(space: SymplecticSpace, word) -> SpElement:
    g = SpElement(space, Matrix.identity(space.fq, space.dim), _checked=True)
    for tok in word:
        g = g * token_to_sp(space, tok)
    return g


# ---------------------------------------------------------------------------
# Matrices over F_q as row-major tuples of indices, on the F_q tables


def _index_product(fq: FqField, x, y, n: int):
    "x . y for n x n matrices over F_q given as row-major index tuples."
    add, mul = fq.add, fq.mul
    cols = [y[j::n] for j in range(n)]
    out = []
    for i in range(0, n * n, n):
        row = [mul[a] for a in x[i : i + n]]
        for col in cols:
            acc = 0
            for r, b in zip(row, col):
                acc = add[acc][r[b]]
            out.append(acc)
    return tuple(out)


def _gauss_jordan(fq: FqField, rows):
    """(reduced row echelon form, pivot columns, det) of rows of F_q indices of
    one length, by Gauss-Jordan on the tables: leftmost column, topmost row.
    det is that of the first len(rows) columns, 0 unless all are pivots."""
    add, mul, neg, inv = fq.add, fq.mul, fq.neg, fq.inv
    rows, nr = list(rows), len(rows)  # rows are replaced, never edited in place
    pivots, det = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for k in range(r, nr):
            if rows[k][c]:
                break
        else:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            det = neg[det]
        det = mul[det][rows[r][c]]
        scale = mul[inv[rows[r][c]]]
        pivot = rows[r] = [scale[v] for v in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[c]:
                factor = mul[neg[row[c]]]
                rows[k] = [add[v][factor[w]] for v, w in zip(row, pivot)]
        pivots.append(c)
    if pivots[:nr] != list(range(nr)):
        det = 0
    return rows, pivots, det


def _index_det_inverse(fq: FqField, a, n: int):
    "(det a, a^-1 or None when det a = 0) for an n x n row-major index tuple a: [a | I] reduced."
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    red, _, det = _gauss_jordan(fq, [list(a[i * n : (i + 1) * n]) + eye[i] for i in range(n)])
    return det, tuple(v for row in red for v in row[n:]) if det else None


@lru_cache(maxsize=None)
def _inverse_shuffle(m: int):
    """Entry (i, j) of g^-1 = [[D^T, -B^T], [-C^T, A^T]] for a symplectic
    g = [[A, B], [C, D]]: (position in g, negated), row-major."""
    n = 2 * m
    return tuple(
        ((j + m) % n * n + (i + m) % n, (i < m) != (j < m)) for i in range(n) for j in range(n)
    )


def _sp_inverse(fq: FqField, m: int, x):
    "The inverse of x in Sp(W), as index tuples: an index shuffle plus the neg table."
    neg = fq.neg
    return tuple(neg[x[pos]] if flip else x[pos] for pos, flip in _inverse_shuffle(m))


def _symmetric_indices(q: int, m: int):
    "All symmetric m x m index tuples over F_q, in counting order of the upper triangle."
    slots = [(i, j) for i in range(m) for j in range(i, m)]
    for k in range(q ** len(slots)):
        s = [0] * (m * m)
        for idx, (i, j) in enumerate(slots):
            s[i * m + j] = s[j * m + i] = (k // q**idx) % q
        yield tuple(s)


def sp_word(space: SymplecticSpace, x):
    """Canonical word in M(a), N(b), W0 evaluating to the element x of Sp(W),
    given as a row-major tuple of F_q indices; computed on the F_q tables.

    With x = [[A, B], [C, D]]: C = 0 gives the parabolic word
    M(A) N(A^-1 B); invertible C gives N(A C^-1) W0 M(C) N(C^-1 D); a
    singular nonzero C is first repaired by the least symmetric s with
    det(C - sA) != 0, pulled out as the lower unipotent
    N'(s) = M(-I) W0 N(-s) W0.  Identity M and zero N tokens are left out."""
    fq, m = space.fq, space.m
    n = 2 * m
    A, B, C, D = (
        tuple(x[(r + i) * n + c + j] for i in range(m) for j in range(m))
        for r, c in ((0, 0), (0, m), (m, 0), (m, m))
    )
    word = []
    if not any(C):
        if A != tuple(int(i == j) for i in range(m) for j in range(m)):
            word.append(_token("M", fq, A, m))
        b = _index_product(fq, _index_det_inverse(fq, A, m)[1], B, m)
        if any(b):
            word.append(_token("N", fq, b, m))
        return word
    cinv = _index_det_inverse(fq, C, m)[1]
    if cinv is not None:
        b1 = _index_product(fq, A, cinv, m)
        if any(b1):
            word.append(_token("N", fq, b1, m))
        word += [TOKEN_W, _token("M", fq, C, m)]
        b2 = _index_product(fq, cinv, D, m)
        if any(b2):
            word.append(_token("N", fq, b2, m))
        return word
    add, neg = fq.add, fq.neg
    for s in _symmetric_indices(fq.q, m):
        sa = _index_product(fq, s, A, m)
        if _index_det_inverse(fq, tuple(add[c][neg[t]] for c, t in zip(C, sa)), m)[0]:
            minus_eye = tuple(neg[int(i == j)] for i in range(m) for j in range(m))
            word = [_token("M", fq, minus_eye, m), TOKEN_W]
            if any(s):
                word.append(_token("N", fq, tuple(neg[c] for c in s), m))
            word.append(TOKEN_W)
            lower = token_indices(space, word[0])  # this is N'(s)
            for tok in word[1:]:
                lower = _index_product(fq, lower, token_indices(space, tok), n)
            return word + sp_word(space, _index_product(fq, _sp_inverse(fq, m, lower), x, n))
    raise AssertionError("no symmetric repair found; q >= 3 guarantees one")


def sp_factor(g: SpElement):
    "Canonical word in M(a), N(b), W0 evaluating to g exactly: sp_word on its indices."
    return sp_word(g.space, g.indices())


def sp_order(m: int, q: int) -> int:
    order = q ** (m * m)
    for i in range(1, m + 1):
        order *= q ** (2 * i) - 1
    return order


def sp_order_within(space: SymplecticSpace, bound: int) -> int:
    "|Sp(W)|; raises TooLarge when it exceeds bound."
    total = sp_order(space.m, space.fq.q)
    if total > bound:
        raise TooLarge(f"|Sp| = {total} exceeds bound {bound}")
    return total


def sp_enumerate(space: SymplecticSpace, bound: int):
    """Every element of Sp(W) exactly once, in the deterministic order given
    by enumerating symplectic bases (e'_1, f'_1, e'_2, f'_2, ...): the index
    tuples of _symplectic_bases, each made an SpElement."""
    sp_order_within(space, bound)
    q = space.fq.q
    # digit tuples (c_0, c_1, ...) in counting order: c_0 varies fastest
    for x in _symplectic_bases(space, lambda k: (ds[::-1] for ds in product(range(q), repeat=k))):
        yield SpElement.from_indices(space, x)


def sp_sample(space: SymplecticSpace, rng) -> SpElement:
    """A uniform element of Sp(W) drawn with rng, without listing the group:
    symplectic Gram-Schmidt with a uniform nonzero e'_1, a uniform f'_1 with
    <e'_1, f'_1> = 1, then the same on their orthogonal complement.  The
    number of choices at each step does not depend on the earlier ones, and
    symplectic bases correspond one to one to elements of Sp(W).  The draw
    runs on index tuples (_symplectic_bases) and is made an SpElement."""
    q = space.fq.q

    def draws(k):
        while True:
            yield [rng.randrange(q) for _ in range(k)]

    return SpElement.from_indices(space, next(_symplectic_bases(space, draws)))


def _symplectic_bases(space: SymplecticSpace, digits):
    """The elements of Sp(W) whose columns are symplectic bases
    (e'_1, f'_1, e'_2, f'_2, ...), as row-major F_q index tuples: each e'_i a
    nonzero vector orthogonal to the earlier pairs, each f'_i one of those
    with <e'_i, f'_i> = 1.  The candidates for a vector are particular +
    sum_i c_i basis_i over the reduced-echelon basis of its (affine)
    solution space, solved by _gauss_jordan, with (c_0, c_1, ...) the F_q
    indices that digits(len(basis)) yields, in its order."""
    fq, m, dim = space.fq, space.m, space.dim
    add, mul, neg = fq.add, fq.mul, fq.neg

    def solutions(rows, rhs):
        "A solution of rows . v = rhs and the reduced-echelon basis of the kernel."
        red, pivots, _ = _gauss_jordan(fq, [row + [b] for row, b in zip(rows, rhs)])
        row_of = dict(zip(pivots, red))  # pivot column -> its reduced row
        if dim in row_of:
            raise IdentityFailure("a symplectic Gram-Schmidt system has no solution")
        part = [row_of[c][dim] if c in row_of else 0 for c in range(dim)]
        basis = [
            [neg[row_of[c][free]] if c in row_of else int(c == free) for c in range(dim)]
            for free in range(dim)
            if free not in row_of
        ]
        return part, basis

    def combinations(part, basis):
        for ds in digits(len(basis)):
            v = part
            for d, b in zip(ds, basis):
                if d:
                    v = [add[a][mul[d][x]] for a, x in zip(v, b)]
            yield v

    def rec(chosen):
        if len(chosen) == dim:
            cols = chosen[0::2] + chosen[1::2]
            yield tuple(c[i] for i in range(dim) for c in cols)
            return
        # row v holds the coefficients of w -> <v, w>
        pairing = [[neg[c] for c in v[m:]] + v[:m] for v in chosen]
        for e in combinations(*solutions(pairing, [0] * len(chosen))):
            if any(e):
                rows = pairing + [[neg[c] for c in e[m:]] + e[:m]]
                for f in combinations(*solutions(rows, [0] * len(chosen) + [1])):
                    yield from rec(chosen + [e, f])

    return rec([])


# ---------------------------------------------------------------------------
# Conjugacy classes


class SpClasses:
    """The conjugacy classes of Sp(W) with a spanning tree of the Cayley
    graph of the generating tokens.  Element i is a row-major tuple of F_q
    indices, elements[0] is the identity and the ids are in breadth-first
    order, so a tree path is as short as any word in the tokens.

    elements[i] = elements[parent[i]] . token_to_sp(tokens[via[i]]);
    right[i * len(tokens) + t] is the id of elements[i] . token_to_sp(tokens[t]);
    inverse[i] is the id of elements[i]^-1; class_of[i] is the index of the
    class of element i in classes, a list of (representative, size) with
    the least id of the class as representative."""

    def __init__(self, tokens, elements, parent, via, right, inverse, class_of, classes):
        self.tokens = tokens
        self.elements = elements
        self.parent = parent
        self.via = via
        self.right = right
        self.inverse = inverse
        self.class_of = class_of
        self.classes = classes


def _right_multiplier(fq: FqField, s, n: int):
    """x -> x . s on row-major index tuples of n x n matrices over F_q.
    Entry (i, j) of x . s sums x_ik s_kj over the nonzero s_kj of column j.
    Layer d takes the d-th nonzero of every column (0 where a column has
    fewer), so the product is one mul-table lookup per entry and layer,
    summed by the add table."""
    cols = [[(k, s[k * n + j]) for k in range(n) if s[k * n + j]] for j in range(n)]
    layers = [
        [
            (i * n + col[d][0], fq.mul[col[d][1]]) if d < len(col) else (0, fq.mul[0])
            for i in range(n)
            for col in cols
        ]
        for d in range(max(map(len, cols)))
    ]
    first, rest = layers[0], layers[1:]
    add = fq.add

    def times(x):
        out = [row[x[pos]] for pos, row in first]
        for layer in rest:
            out = [add[a][row[x[pos]]] for a, (pos, row) in zip(out, layer)]
        return tuple(out)

    return times


def sp_classes(space: SymplecticSpace, tokens, bound: int) -> SpClasses:
    """Every element of Sp(W) and its conjugacy class, from the tokens that
    generate it, on row-major tuples of F_q indices: no SpElement is made.

    A breadth-first walk of the Cayley graph multiplies each element on the
    right by each token (the add and mul tables of F_q), and records the
    spanning tree and the right-multiplication table.  Reaching fewer than
    |Sp| elements raises IdentityFailure: the tokens do not generate.  The
    inverse is the block formula g^-1 = [[D^T, -B^T], [-C^T, A^T]] of a
    symplectic g = [[A, B], [C, D]] (_sp_inverse).
    Conjugation by a token s needs no further product,
    s^-1 g s = inv(R_s(inv(R_s(g)))) with R_s(g) = g s, and the orbits under
    conjugation by the generating tokens are the conjugacy classes.
    Refuses (TooLarge) when |Sp| exceeds bound, before walking."""
    total = sp_order_within(space, bound)
    fq, m, n = space.fq, space.m, space.dim
    tokens = tuple(tokens)
    movers = [_right_multiplier(fq, token_indices(space, t), n) for t in tokens]
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    elements, parent, via, right = [ident], [None], [None], []
    index = {ident: 0}
    for i, x in enumerate(elements):  # elements grows while it is walked
        for t, times in enumerate(movers):
            y = times(x)
            k = index.get(y)
            if k is None:
                k = index[y] = len(elements)
                elements.append(y)
                parent.append(i)
                via.append(t)
            right.append(k)
    if len(elements) != total:
        raise IdentityFailure(f"generators reach {len(elements)} of the {total} elements of Sp")
    inverse = [index[_sp_inverse(fq, m, x)] for x in elements]
    T = len(tokens)
    class_of = [None] * len(elements)
    classes = []
    for g in range(len(elements)):
        if class_of[g] is not None:
            continue
        c = class_of[g] = len(classes)
        orbit = [g]
        for x in orbit:  # orbit grows while it is walked
            for t in range(T):
                y = inverse[right[inverse[right[x * T + t]] * T + t]]
                if class_of[y] is None:
                    class_of[y] = c
                    orbit.append(y)
        classes.append((g, len(orbit)))
    return SpClasses(tokens, elements, parent, via, right, inverse, class_of, classes)
