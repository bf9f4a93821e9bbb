"""Exact dense linear algebra over the package's field elements.

A Matrix is rows of field elements (CycloNum, or FqElem: an index into the
lookup tables of its FqField); the field handle supplies zero()/one() and
elements do their own exact arithmetic.  A product tests each entry of
either factor for zero once, so a product with a monomial factor (the
Heisenberg, M(a), N(b) and parity images) costs O(n^2).  Over a modular
field F_ell[zeta_p] the product runs on packed integers (_kernel.lmat_mul):
each entry is one int, each output entry one int sum over its nonzero
terms, unpacked and reduced once, with no CycloNum arithmetic; over Q(zeta_n)
and F_q the elements multiply and add themselves.  Every elimination
is the one Gauss-Jordan _gauss_jordan, with deterministic pivoting
(leftmost column, topmost row): rref, rank, nullspace and det read it, and
pivot_inverse reads the pivots of a matrix and the inverse of its pivot
columns off one rref of [a | I], so ranks, nullspace bases and inverses
are reproducible.

Intertwiner systems T*A_i = B_i*T get a dedicated solver.  The generator
pairs whose images are both monomial (exactly one nonzero per row and
column: the Heisenberg, M(a), N(b) and parity images) tie the entries of T
into weighted classes by union-find -- the q^2m-entry commutant systems of
the Stone-von Neumann checks would be far too big for Gauss.  The other
pairs (the Fourier image) give one elimination whose unknowns are the live
classes, not the entries.  The basis returned is the reduced-echelon kernel
basis of the dense system in every entry, which _dense_intertwiners keeps
as the oracle."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ._kernel import lmat_mul
from .errors import FieldMismatch, IdentityFailure
from .fields import CoeffField, CycloNum


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        assert all(len(r) == self.ncols for r in self.rows)

    # --- constructors

    @staticmethod
    def identity(field, n):
        z, o = field.zero(), field.one()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(field, nrows, ncols):
        z = field.zero()
        return Matrix(field, [[z] * ncols for _ in range(nrows)])

    def copy(self):
        return Matrix(self.field, self.rows)

    # --- basics

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def to_key(self):
        return tuple(tuple(r) for r in self.rows)

    def __hash__(self):
        return hash(self.to_key())

    def __repr__(self):
        return "Matrix(%d x %d over %r)" % (self.nrows, self.ncols, self.field)

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        o = self.field.one()
        return all(
            (self.rows[i][j] == o) if i == j else self.rows[i][j].is_zero()
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    def is_monomial(self):
        "Exactly one nonzero entry in every row and every column."
        return monomial_form(self) is not None

    # --- arithmetic

    def __add__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Matrix(
            self.field,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(self.field, [[-e for e in r] for r in self.rows])

    def scale(self, c):
        return Matrix(self.field, [[c * e for e in r] for r in self.rows])

    def __mul__(self, other):
        assert self.ncols == other.nrows
        f = self.field
        if isinstance(f, CoeffField) and f.char:
            return _modular_product(self, other)
        z = f.zero()
        # the nonzero entries of each row of the right factor, found once
        # per product: a monomial right factor costs O(n^2) in all
        bnz = [[(j, b) for j, b in enumerate(rb) if not b.is_zero()] for rb in other.rows]
        out = []
        for ra in self.rows:
            row = [z] * other.ncols
            for k, a in enumerate(ra):
                if a.is_zero():
                    continue
                for j, b in bnz[k]:
                    c = row[j]
                    row[j] = a * b if c is z else c + a * b
            out.append(row)
        return Matrix(self.field, out)

    def mul_vec(self, v):
        assert self.ncols == len(v)
        z = self.field.zero()
        out = []
        for r in self.rows:
            acc = z
            for a, x in zip(r, v):
                if not a.is_zero() and not x.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return out

    def transpose(self):
        return Matrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def trace(self):
        assert self.nrows == self.ncols
        acc = self.field.zero()
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def map(self, fn, field=None):
        return Matrix(field or self.field, [[fn(e) for e in r] for r in self.rows])

    def col(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def submatrix(self, row_idx, col_idx):
        return Matrix(
            self.field, [[self.rows[i][j] for j in col_idx] for i in row_idx]
        )

    @staticmethod
    def from_cols(field, cols):
        n = len(cols[0])
        return Matrix(field, [[c[i] for c in cols] for i in range(n)])

    # --- elimination

    def rref(self):
        "Reduced row echelon form; returns (rref matrix, pivot column list)."
        red, pivots, _ = _gauss_jordan(self.field, self.rows)
        return Matrix(self.field, red), pivots

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        "Deterministic basis of the right kernel, as a list of vectors."
        red, pivots = self.rref()
        return _rref_kernel(red, pivots, self.ncols)

    def inverse(self):
        "The inverse, from one rref of [self | I]; ZeroDivisionError when singular."
        assert self.nrows == self.ncols
        found = pivot_inverse(self)
        if found is None:
            raise ZeroDivisionError("matrix is not invertible")
        return found[1]

    def det(self):
        "The determinant, read off the Gauss-Jordan that reduces the rows."
        assert self.nrows == self.ncols
        return _gauss_jordan(self.field, self.rows)[2]

    def is_invertible(self):
        return self.nrows == self.ncols and not self.det().is_zero()

    def kron(self, other):
        rows = []
        for ra in self.rows:
            for rb in other.rows:
                row = []
                for a in ra:
                    row.extend(a * b for b in rb)
                rows.append(row)
        return Matrix(self.field, rows)


def _modular_product(a: Matrix, b: Matrix) -> Matrix:
    "a b over F_ell[zeta_p], on the packed coefficient tuples of _kernel.lmat_mul."
    f = a.field
    if b.field is not f:
        raise FieldMismatch(f"{f} vs {b.field}")
    z = f.zero()
    rows = lmat_mul(
        [[e.nums for e in r] for r in a.rows],
        [[e.nums for e in r] for r in b.rows],
        f.modulus,
        f.char,
    )
    return Matrix(f, [[z if t == z.nums else CycloNum(f, t, 1) for t in r] for r in rows])


def _gauss_jordan(field, rows):
    """(reduced rows, pivot columns, det) of rows of field elements of one
    length, by Gauss-Jordan: leftmost column, topmost row.  det is that of
    the first len(rows) columns, 0 unless all are pivots: the product of the
    pivots as found, negated once per row swap."""
    one = field.one()
    rows, nr = [list(r) for r in rows], len(rows)
    pivots, det = [], one
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((k for k in range(r, nr) if not rows[k][c].is_zero()), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            det = -det
        det = det * rows[r][c]
        if rows[r][c] != one:
            inv = rows[r][c].inv()
            rows[r] = [inv * e for e in rows[r]]
        pivot = rows[r]
        for k, row in enumerate(rows):
            if k != r and not row[c].is_zero():
                f = row[c]
                rows[k] = [a - f * b for a, b in zip(row, pivot)]
        pivots.append(c)
        if len(pivots) == nr:
            break
    if pivots[:nr] != list(range(nr)):
        det = field.zero()
    return rows, pivots, det


def pivot_inverse(a: Matrix):
    """(pivots, B^-1) for a k x n matrix a: pivots are the pivot columns of
    a.rref() and B the k x k matrix of those columns of a; None when
    rank a < k.  One rref of [a | I_k]: the pivot chosen in a column depends
    only on the columns to its left, so the pivots are those of a, and the
    row operations that reduce a turn B into I, so they are B^-1."""
    k, n = a.nrows, a.ncols
    z, o = a.field.zero(), a.field.one()
    aug = [row + [o if i == j else z for j in range(k)] for i, row in enumerate(a.rows)]
    red, pivots = Matrix(a.field, aug).rref()
    if any(c >= n for c in pivots):
        return None
    return pivots, Matrix(a.field, [r[n:] for r in red.rows])


def _rref_kernel(red, pivots, ncols):
    "Kernel basis of a matrix with ncols columns from its reduced row echelon form red."
    z, o = red.field.zero(), red.field.one()
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [z] * ncols
        v[f] = o
        for r, p in enumerate(pivots):
            v[p] = -red.rows[r][f]
        basis.append(v)
    return basis


def kernel_basis(field, rows, ncols):
    """Deterministic basis of the right kernel of the given rows of length
    ncols: the unit vectors when there are no rows."""
    if not rows:
        return Matrix.identity(field, ncols).rows
    return Matrix(field, rows).nullspace()


# ---------------------------------------------------------------------------
# Intertwiner systems


def monomial_form(m: Matrix):
    """(perm, vals) of a monomial m, column j nonzero only at row perm[j]
    with value vals[j]; None when m is not monomial."""
    if m.nrows != m.ncols:
        return None
    perm, vals = [None] * m.ncols, [None] * m.ncols
    for i, row in enumerate(m.rows):
        nonzero = [j for j, e in enumerate(row) if not e.is_zero()]
        if len(nonzero) != 1 or perm[nonzero[0]] is not None:
            return None
        j = nonzero[0]
        perm[j], vals[j] = i, row[j]
    return perm, vals


def twisted_product(R, sigma, S):
    """The monomial form of R . sigma(S), for monomial forms R and S and
    sigma applied entrywise: column j of sigma(S) sits at row S's perm[j],
    and R moves that row on and scales it."""
    (pr, vr), (ps, vs) = R, S
    return [pr[i] for i in ps], [vr[i] * sigma(v) for i, v in zip(ps, vs)]


def twisted_commutes(R, sigma, A: Matrix) -> bool:
    """R . sigma(A) == A . R, for R the monomial form (perm, vals) of an
    invertible monomial matrix and sigma a field automorphism applied
    entrywise, checked entry by entry with no product of matrices.  With
    r_k = vals[k] at row perm[k], the entries at (perm[k], perm[j]) are
    r_k sigma(A[k, j]) and A[perm[k], perm[j]] r_j.  Only the nonzero
    A[k, j] are compared: (k, j) -> (perm[k], perm[j]) is a bijection of
    positions, so once it carries every nonzero entry of A to a nonzero
    entry, it carries the zeros to zeros."""
    perm, vals = R
    rows = A.rows
    for k, row in enumerate(rows):
        image = rows[perm[k]]
        rk = vals[k]
        for j, a in enumerate(row):
            if not a.is_zero() and rk * sigma(a) != vals[j] * image[perm[j]]:
                return False
    return True


def intertwiner_space(gens_a, gens_b):
    """Basis of {T : T A_i = B_i T} for invertible generator images A_i of a
    source rep and B_i of a target rep (T maps source to target).

    The pairs whose images are both monomial tie the entries of T into
    weighted classes by union-find; the remaining pairs give one elimination
    whose unknowns are the live classes, not the entries of T.  Each class is
    scaled to 1 at its last entry (row-major) and the classes are ordered by
    that entry, so the kernel basis of the elimination is the rref kernel
    basis of the dense system in every entry: the basis is the one
    _dense_intertwiners returns, matrix for matrix."""
    assert len(gens_a) == len(gens_b) and gens_a
    na, nb = gens_a[0].nrows, gens_b[0].nrows
    field = gens_a[0].field
    monomial, dense = [], []
    for A, B in zip(gens_a, gens_b):
        forms = monomial_form(A), monomial_form(B)
        if None in forms:
            dense.append((A, B))
        else:
            monomial.append(forms)
    var, coef, k = _monomial_classes(monomial, na, nb, field)
    if not k:
        return []
    basis = []
    for y in kernel_basis(field, _class_equations(dense, var, coef, k, na, nb, field), k):
        T = Matrix.zeros(field, nb, na)
        for x, (v, w) in enumerate(zip(var, coef)):
            if v >= 0 and not y[v].is_zero():
                T.rows[x // na][x % na] = w * y[v]
        basis.append(T)
    return basis


def _monomial_classes(pairs, na, nb, field):
    """Weighted union-find over the entries x = r * na + c of an nb x na
    matrix T under the monomial pairs: for A with column c nonzero at row
    pi(c), value alpha_c, and B with column r at tau(r), value beta_r, each
    pair says T[tau(r), pi(c)] = (beta_r / alpha_c) T[r, c].  Returns
    (var, coef, k): T[x] = coef[x] * y[var[x]] for the k class unknowns y,
    numbered by the last entry of their class, where coef is 1; var[x] = -1
    for an entry forced to 0 (a cycle of weights other than 1)."""
    one = field.one()
    n = na * nb
    root = list(range(n))
    wt = [one] * n  # T[x] = wt[x] * T[root[x]]
    members = [[x] for x in range(n)]
    dead = [False] * n

    def union(a, b, w):
        # T[b] = w * T[a]
        ra, rb = root[a], root[b]
        if ra == rb:
            if wt[b] != w * wt[a]:
                dead[ra] = True
            return
        # T[rb] = f * T[ra]
        f = w * wt[a] if wt[b] == one else w * wt[a] * wt[b].inv()
        if len(members[ra]) < len(members[rb]):
            ra, rb, f = rb, ra, f.inv()
        for y in members[rb]:
            root[y] = ra
            wt[y] = wt[y] * f
        members[ra].extend(members[rb])
        members[rb] = []
        dead[ra] = dead[ra] or dead[rb]

    inverses = {}  # each distinct weight alpha_c is inverted once per call
    for (pi, alpha), (tau, beta) in pairs:
        for a in alpha:
            if a not in inverses:
                inverses[a] = a.inv()
        alpha_inv = [inverses[a] for a in alpha]
        for r in range(nb):
            br, tr = beta[r], tau[r]
            for c in range(na):
                union(r * na + c, tr * na + pi[c], br * alpha_inv[c])

    live = sorted(
        max(members[x]) for x in range(n) if root[x] == x and not dead[x]
    )
    var, coef = [-1] * n, [None] * n
    for v, last in enumerate(live):
        scale = one if wt[last] == one else wt[last].inv()
        for y in members[root[last]]:
            var[y] = v
            coef[y] = wt[y] if scale is one else wt[y] * scale
    return var, coef, len(live)


def _class_equations(pairs, var, coef, k, na, nb, field):
    """The nonzero rows, in the k class unknowns, of (T A - B T)[i, j] = 0
    for the given pairs."""
    z = field.zero()
    rows = []
    for A, B in pairs:
        acols = [
            [(l, A.rows[l][j]) for l in range(na) if not A.rows[l][j].is_zero()]
            for j in range(na)
        ]
        brows = [[(l, b) for l, b in enumerate(r) if not b.is_zero()] for r in B.rows]
        for i in range(nb):
            for j in range(na):
                row = [z] * k
                for l, a in acols[j]:
                    x = i * na + l
                    if var[x] >= 0:
                        row[var[x]] = row[var[x]] + coef[x] * a
                for l, b in brows[i]:
                    x = l * na + j
                    if var[x] >= 0:
                        row[var[x]] = row[var[x]] - b * coef[x]
                if any(not e.is_zero() for e in row):
                    rows.append(row)
    return rows


def _dense_intertwiners(gens_a, gens_b, na, nb, field):
    nunk = nb * na
    rows = []
    z = field.zero()
    for A, B in zip(gens_a, gens_b):
        for i in range(nb):
            for j in range(na):
                row = [z] * nunk
                for k in range(na):
                    if not A.rows[k][j].is_zero():
                        row[i * na + k] = row[i * na + k] + A.rows[k][j]
                for l in range(nb):
                    if not B.rows[i][l].is_zero():
                        row[l * na + j] = row[l * na + j] - B.rows[i][l]
                rows.append(row)
    system = Matrix(field, rows) if rows else Matrix.zeros(field, 1, nunk)
    out = []
    for v in system.nullspace():
        T = Matrix(field, [[v[i * na + j] for j in range(na)] for i in range(nb)])
        out.append(T)
    return out


def kernel_form(mats):
    """The basis of the span of the given linearly independent matrices of
    one shape that intertwiner_space (and _dense_intertwiners) returns for a
    system with that solution space W, matrix for matrix.  The rref of a
    system picks its pivots greedily from the left, so entry f is free
    exactly when some element of W ends at f (row-major), and the basis
    vector of f is the element of W that is 1 at f and 0 at the other free
    entries, listed by f.  Those are the rows of the rref of W with the
    entries in reverse order, last row first.  Raises IdentityFailure for
    dependent matrices."""
    field, nr, nc = mats[0].field, mats[0].nrows, mats[0].ncols
    rows = [[e for r in M.rows for e in r][::-1] for M in mats]
    red, pivots, _ = _gauss_jordan(field, rows)
    if len(pivots) != len(mats):
        raise IdentityFailure("span basis is dependent")
    out = []
    for row in reversed(red):
        flat = row[::-1]
        out.append(Matrix(field, [flat[i * nc : (i + 1) * nc] for i in range(nr)]))
    return out


def span_coordinates(basis):
    """The map M -> [c_t] with M = sum_t c_t basis[t], for linearly
    independent matrices of one shape.  One pivot_inverse of the flattened
    basis picks k entries on which it is invertible and inverts it there;
    each M is solved on those entries and then checked on every entry.
    Raises IdentityFailure for a dependent basis and, from the map, for an M
    outside the span."""
    field = basis[0].field
    flat = [[e for r in b.rows for e in r] for b in basis]
    found = pivot_inverse(Matrix(field, flat))
    if found is None:
        raise IdentityFailure("span basis is dependent")
    # c S = (M at entries) with S[t][s] = basis[t] at entries[s]
    entries, Sinv = found
    solve = Sinv.transpose()
    support = [[(e, x) for e, x in enumerate(row) if not x.is_zero()] for row in flat]
    z = field.zero()

    def coordinates(M):
        target = [e for r in M.rows for e in r]
        coords = solve.mul_vec([target[e] for e in entries])
        acc = [z] * len(target)
        for c, nz in zip(coords, support):
            if not c.is_zero():
                for e, x in nz:
                    acc[e] = acc[e] + c * x
        if acc != target:
            raise IdentityFailure("matrix outside the span")
        return coords

    return coordinates


def invertible_element(basis):
    """Deterministic search for an invertible element in the span of the
    given square matrices; None if the bounded search finds none."""
    if not basis:
        return None
    field = basis[0].field
    for T in basis:
        if T.is_invertible():
            return T
    n = basis[0].nrows
    span_dim = len(basis)
    bound = max(n + 1, 3)
    for coeffs in product(range(bound), repeat=span_dim):
        if sum(coeffs) == 0:
            continue
        T = Matrix.zeros(field, n, n)
        for c, B in zip(coeffs, basis):
            if c:
                T = T + B.scale(field.from_int(c))
        if T.is_invertible():
            return T
    return None


# ---------------------------------------------------------------------------
# Rational PSD certificate (for the norm-equation fast path)


def ldl_psd(sym):
    """Exact positive-semidefiniteness of a symmetric matrix of Fractions
    via LDL^T: True iff the form is PSD."""
    n = len(sym)
    m = [[Fraction(sym[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = m[k][k]
        if piv < 0:
            return False
        if piv == 0:
            # PSD forces the whole pivot row/column to vanish
            if any(m[k][j] != 0 for j in range(k, n)):
                return False
            continue
        for i in range(k + 1, n):
            c = m[i][k] / piv
            if c == 0:
                continue
            for j in range(k, n):
                m[i][j] -= c * m[k][j]
    return True
