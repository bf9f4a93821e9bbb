"""Exact linear algebra: elimination, nullspaces, the intertwiner solver
against the dense one, and the rational PSD certificate."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from weildescent.descent import build_weil
from weildescent.errors import FieldMismatch
from weildescent.fields import MODULAR, RATIONAL, CycloNum, GaloisAut, field_make, prime_field
from weildescent.finite import FqField, fq_field
from weildescent.linalg import (
    Matrix,
    intertwiner_space,
    invertible_element,
    ldl_psd,
    monomial_form,
    pivot_inverse,
    twisted_commutes,
    twisted_product,
    _dense_intertwiners,
)
from weildescent.weil import even_odd_split

Q = prime_field(0)


def qmat(rows):
    return Matrix(Q, [[Q.from_fraction(Fraction(x)) for x in r] for r in rows])


def test_rref_rank_nullspace():
    m = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    null = m.nullspace()
    assert len(null) == 1
    assert all(c.is_zero() for c in m.mul_vec(null[0]))


def test_inverse_det():
    m = qmat([[2, 1], [1, 1]])
    assert (m * m.inverse()).is_identity()
    assert m.det().as_fraction() == 1
    assert qmat([[1, 2], [2, 4]]).det().is_zero()


def test_det_multiplicative_random():
    rng = random.Random(0)
    for _ in range(25):
        a = qmat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        b = qmat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        assert (a * b).det() == a.det() * b.det()


ELIMINATION_FIELDS = {
    "Q(zeta_5)": lambda: field_make(RATIONAL, 5),
    "F_3[zeta_13]": lambda: field_make(MODULAR, 13, 3),
    "F_9": lambda: fq_field(3, 2),
}


def _draw(field, rng):
    "A seeded element of the field, zero about a third of the time."
    if rng.randrange(3) == 0:
        return field.zero()
    if isinstance(field, FqField):
        return rng.choice(field.elements())
    return field.from_coeffs([rng.randint(-2, 2) for _ in range(field.degree)])


def _seeded(field, rng, nrows, ncols, deficient=False):
    """A seeded nrows x ncols matrix; with deficient, its last row is a
    combination of the others (zero when it is the only row)."""
    rows = [[_draw(field, rng) for _ in range(ncols)] for _ in range(nrows)]
    if deficient:
        last = [field.zero()] * ncols
        for row in rows[:-1]:
            c = _draw(field, rng)
            last = [x + c * y for x, y in zip(last, row)]
        rows[-1] = last
    return Matrix(field, rows)


def _leibniz_det(m):
    "det m as the signed sum over all permutations."
    n, acc = m.nrows, m.field.zero()
    for perm in permutations(range(n)):
        term = m.field.one()
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        swaps = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = acc - term if swaps % 2 else acc + term
    return acc


def _two_step_pivot_inverse(a):
    """The pivots of a.rref(), then the inverse of those columns by the rref
    of [B | I]; None below full row rank."""
    k = a.nrows
    pivots = a.rref()[1]
    if len(pivots) < k:
        return None
    z, o = a.field.zero(), a.field.one()
    aug = [[row[j] for j in pivots] + [o if i == t else z for t in range(k)] for i, row in enumerate(a.rows)]
    red, aug_pivots = Matrix(a.field, aug).rref()
    assert aug_pivots == list(range(k))
    return pivots, Matrix(a.field, [r[k:] for r in red.rows])


@pytest.mark.parametrize("name", list(ELIMINATION_FIELDS))
def test_det_matches_leibniz(name):
    field = ELIMINATION_FIELDS[name]()
    rng = random.Random(25)
    for n in range(1, 5):
        for deficient in (False, True, False):
            m = _seeded(field, rng, n, n, deficient)
            det = m.det()
            assert det == _leibniz_det(m)
            if deficient:
                assert det.is_zero()


@pytest.mark.parametrize("name", list(ELIMINATION_FIELDS))
def test_pivot_inverse_matches_two_step_path(name):
    field = ELIMINATION_FIELDS[name]()
    rng = random.Random(26)
    shapes = [(n, n, False) for n in range(1, 5)] + [(n, n, True) for n in range(1, 5)]
    shapes += [(2, 4, False), (3, 5, False), (3, 5, True), (4, 2, False), (3, 1, False)]
    nones = 0
    for nrows, ncols, deficient in shapes:
        a = _seeded(field, rng, nrows, ncols, deficient)
        found = pivot_inverse(a)
        assert found == _two_step_pivot_inverse(a)
        if found is None:
            nones += 1
            assert a.rank() < nrows
        else:
            pivots, inv = found
            B = a.submatrix(range(nrows), pivots)
            assert (B * inv).is_identity() and (inv * B).is_identity()
    # every deficient and tall matrix is below full row rank
    assert nones >= 7


PACKED_FIELDS = [(3, 13), (5, 13), (23, 11), (1009, 7)]


def _schoolbook(a, b):
    """The coefficient tuples of a b over F_ell[x]/(mod): every term a
    polynomial product, the sum reduced by long division, all mod ell."""
    f = a.field
    ell, mod, d = f.char, f.modulus, f.degree
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = [0] * (2 * d - 1)
            for k in range(a.ncols):
                for s, x in enumerate(a.rows[i][k].nums):
                    for t, y in enumerate(b.rows[k][j].nums):
                        acc[s + t] += x * y
            for top in range(2 * d - 2, d - 1, -1):
                c = acc[top] % ell
                for t in range(d + 1):
                    acc[top - d + t] -= c * mod[t]
            row.append(tuple(c % ell for c in acc[:d]))
        rows.append(row)
    return rows


def _random_modular(field, rng, nrows, ncols, density=0.6):
    z = field.zero()
    return Matrix(field, [
        [
            CycloNum(field, tuple(rng.randrange(field.char) for _ in range(field.degree)), 1)
            if rng.random() < density else z
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ])


def _monomial_modular(field, rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[field.zero()] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = field.zeta_pow(rng.randrange(field.n)) * field.from_int(rng.randrange(1, field.char))
    return Matrix(field, rows)


def _check_packed(a, b):
    prod = a * b
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert [[e.nums for e in r] for r in prod.rows] == _schoolbook(a, b)
    assert all(e.field is a.field and e.den == 1 for r in prod.rows for e in r)


@pytest.mark.parametrize("ell,p", PACKED_FIELDS)
def test_packed_modular_product_matches_schoolbook(ell, p):
    K = field_make(MODULAR, p, ell)
    rng = random.Random(ell * p)
    top = CycloNum(K, (ell - 1,) * K.degree, 1)
    # every coefficient ell - 1: each slot of the packed sums at its bound
    for width in (1, 2, 7, 33, 64):
        _check_packed(
            Matrix(K, [[top] * width for _ in range(2)]),
            Matrix(K, [[top] * 3 for _ in range(width)]),
        )
    # zero rows and columns
    a, b = _random_modular(K, rng, 5, 6), _random_modular(K, rng, 6, 4)
    a.rows[1] = [K.zero()] * 6
    for row in b.rows:
        row[2] = K.zero()
    _check_packed(a, b)
    _check_packed(Matrix.zeros(K, 3, 3), _random_modular(K, rng, 3, 3))
    # monomial factors on either side
    m = _monomial_modular(K, rng, 6)
    dense = _random_modular(K, rng, 6, 6, density=1.0)
    _check_packed(m, dense)
    _check_packed(dense, m)
    _check_packed(m, _monomial_modular(K, rng, 6))
    # 1 x n times n x 1 and n x 1 times 1 x n
    row, col = _random_modular(K, rng, 1, 9), _random_modular(K, rng, 9, 1)
    _check_packed(row, col)
    _check_packed(col, row)


def test_packed_modular_product_refuses_other_fields():
    K = field_make(MODULAR, 13, 3)
    rng = random.Random(27)
    a = _random_modular(K, rng, 3, 3, density=1.0)
    for other in (field_make(MODULAR, 13, 5), field_make(RATIONAL, 13)):
        b = Matrix.identity(other, 3)
        with pytest.raises(FieldMismatch):
            a * b
        with pytest.raises(FieldMismatch):
            b * a


def test_modular_product_makes_no_element_arithmetic(monkeypatch):
    # a 7 x 7 product over F_3[zeta_13] runs on packed ints, not CycloNum ops
    K = field_make(MODULAR, 13, 3)
    rng = random.Random(28)
    a, b = _random_modular(K, rng, 7, 7, 1.0), _random_modular(K, rng, 7, 7, 1.0)
    calls = []

    def spy(name):
        orig = getattr(CycloNum, name)

        def run(*args):
            calls.append(name)
            return orig(*args)

        return run

    for name in ("__mul__", "__rmul__", "__add__"):
        monkeypatch.setattr(CycloNum, name, spy(name))
    prod = a * b
    assert calls == []
    monkeypatch.undo()
    assert [[e.nums for e in r] for r in prod.rows] == _schoolbook(a, b)


def test_kron_and_trace():
    a = qmat([[1, 2], [0, 1]])
    b = qmat([[3]])
    assert a.kron(b).trace().as_fraction() == 6


def test_monomial_solver_matches_dense():
    K = field_make(RATIONAL, 5)
    rng = random.Random(1)
    n = 4
    for _ in range(15):
        # random monomial generator pairs
        def monomial():
            perm = list(range(n))
            rng.shuffle(perm)
            m = Matrix.zeros(K, n, n)
            for j, i in enumerate(perm):
                m.rows[i][j] = K.zeta_pow(rng.randrange(5))
            return m

        gens_a = [monomial() for _ in range(2)]
        gens_b = [monomial() for _ in range(2)]
        assert intertwiner_space(gens_a, gens_b) == _dense_intertwiners(
            gens_a, gens_b, n, n, K
        )


def test_intertwiner_space_is_equivalence_on_conjugates():
    K = field_make(RATIONAL, 3)
    base = [qmat_like(K, [[0, 1], [1, 0]]), qmat_like(K, [[1, 1], [0, 1]])]
    t = qmat_like(K, [[1, 2], [1, 1]])
    conj = [t * g * t.inverse() for g in base]
    basis = intertwiner_space(base, conj)
    T = invertible_element(basis)
    assert T is not None
    for g, h in zip(base, conj):
        assert T * g == h * T


FIELDS = [(RATIONAL, 5, None), (RATIONAL, 7, None), (MODULAR, 5, 7), (MODULAR, 7, 11)]


def _monomial(K, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    m = Matrix.zeros(K, n, n)
    for j, i in enumerate(perm):
        z = K.zeta_pow(rng.randrange(K.n))
        m.rows[i][j] = z if rng.randrange(2) else -z
    return m


def _dense(K, n, rng):
    return Matrix(
        K,
        [
            [K.from_int(rng.randint(-2, 2)) + K.zeta_pow(rng.randrange(K.n)) for _ in range(n)]
            for _ in range(n)
        ],
    )


def _block_sum(K, blocks):
    n = sum(b.nrows for b in blocks)
    out = Matrix.zeros(K, n, n)
    pos = 0
    for b in blocks:
        for i in range(b.nrows):
            out.rows[pos + i][pos : pos + b.ncols] = b.rows[i]
        pos += b.nrows
    return out


def _generator_sets(K, rng):
    """(name, gens_a, gens_b) with A_i = X_i + X_i + Y_i and B_i = P A_i P^-1:
    every image monomial, every image dense, one generator of each kind,
    and two with no intertwiner but 0."""
    kinds = {
        "monomial": (_monomial, _monomial),
        "dense": (_dense, _dense),
        "mixed": (_monomial, _dense),
    }
    for name, makers in kinds.items():
        gens_a = []
        for make in makers:
            x, y = make(K, 2, rng), make(K, 1, rng)
            gens_a.append(_block_sum(K, [x, x, y]))
        P = _monomial(K, 5, rng) if name != "dense" else _dense(K, 5, rng)
        while not P.is_invertible():
            P = _dense(K, 5, rng)
        Pinv = P.inverse()
        yield name, gens_a, [P * A * Pinv for A in gens_a]
    # scalars 1 and 2 on a monomial generator kill every class
    one = Matrix.identity(K, 3)
    d = _dense(K, 3, rng)
    yield "empty-classes", [one, d], [one.scale(K.from_int(2)), d]
    # unrelated dense images: the elimination leaves no kernel
    yield "empty-dense", [_monomial(K, 3, rng), _dense(K, 3, rng)], [
        _monomial(K, 3, rng),
        _dense(K, 3, rng),
    ]


@pytest.mark.parametrize("kind,n,ell", FIELDS)
def test_intertwiner_space_is_the_dense_basis(kind, n, ell):
    K = field_make(kind, n, ell)
    rng = random.Random(n * 100 + (ell or 0))
    seen = {}
    for name, gens_a, gens_b in _generator_sets(K, rng):
        dim = gens_a[0].nrows
        fast = intertwiner_space(gens_a, gens_b)
        assert fast == _dense_intertwiners(gens_a, gens_b, dim, dim, K), name
        for T in fast:
            for A, B in zip(gens_a, gens_b):
                assert T * A == B * T
        seen[name] = len(fast)
    # X + X + Y has commutant M_2(K) + K when X and Y are irreducible
    assert seen["monomial"] >= 5 and seen["dense"] >= 5 and seen["mixed"] >= 5
    assert seen["empty-classes"] == seen["empty-dense"] == 0


@pytest.mark.parametrize("p", [5, 7])
def test_intertwiner_space_galois_conjugates_odd_part(p):
    _, _, rep = build_weil(p, 1, 1)
    odd = even_odd_split(rep)[1]
    K = odd.field
    dims = []
    for u in K.galois_exponents():
        conj = odd.conjugate(GaloisAut(K, u)).gens_images()
        fast = intertwiner_space(conj, odd.gens_images())
        assert fast == _dense_intertwiners(conj, odd.gens_images(), odd.dim, odd.dim, K)
        dims.append(len(fast))
    # Hom(^u V, V) is a line for u in the character field's stabilizer, else 0
    assert sorted(set(dims)) == [0, 1] and dims[0] == 1


def qmat_like(K, rows):
    return Matrix(K, [[K.from_int(x) for x in r] for r in rows])


def test_ldl_psd():
    assert ldl_psd([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert ldl_psd([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert not ldl_psd([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not ldl_psd([[Fraction(-1)]])
    assert not ldl_psd([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


def test_twisted_monomial_checks_match_dense_products():
    # R sigma(A) = A R and R sigma(S) on monomial forms against the dense
    # products, for the odd block at p = 7 (W0 dense, M and N monomial)
    _, _, rep = build_weil(7, 1, 1)
    odd = even_odd_split(rep)[1]
    K = odd.field
    images = [odd.image(g) for g in odd.gen_names]
    monomials = [img for img in images if monomial_form(img) is not None]
    assert len(monomials) < len(images)  # W0 is not monomial
    for u in K.galois_exponents():
        sigma = GaloisAut(K, u)
        for R in monomials[:4]:
            form = monomial_form(R)
            for A in images:
                dense = R * A.map(sigma) == A * R
                assert twisted_commutes(form, sigma, A) == dense
            for S in monomials[:4]:
                perm, vals = monomial_form(R * S.map(sigma))
                assert twisted_product(form, sigma, monomial_form(S)) == (perm, vals)
    assert any(
        twisted_commutes(monomial_form(R), GaloisAut(K, 2), A) for R in monomials for A in images
    )
    assert monomial_form(qmat([[1, 1], [0, 1]])) is None
    assert monomial_form(qmat([[0, 2], [3, 0]])) == ([1, 0], [Q.from_int(3), Q.from_int(2)])
