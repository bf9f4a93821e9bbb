"""Exact arithmetic in the coefficient fields Q(zeta_n) and F_ell[zeta_p].

Elements are coefficient vectors on the power basis modulo a fixed defining
polynomial: the cyclotomic polynomial Phi_n over Q, or the deterministically
chosen least irreducible factor of Phi_p over F_ell.  No floating point
anywhere.  Subfields are encoded by their Galois stabilizers (subgroups of
the acting unit group), so subfield equality and fixed-field computations
are subgroup computations.

A rational element is stored as an integer coefficient vector with one
common positive denominator, fully reduced; a modular element as a vector
of residues with denominator 1.  This keeps the hot multiply/reduce loops in
plain integer arithmetic (see _kernel), and lets as_fraction, from_fraction
and from_coeffs move prime-field values in and out of either kind of field.
A product with a prime-field factor scales the other factor's coefficients
and skips the kernel.

A prime-field element is inverted in the prime field.  Any other inversion
uses the Galois structure instead of polynomial division: the
product of the conjugates sigma_u(x) over the Galois exponents u != 1 is
x^-1 up to the norm N(x), which lies in the prime field Q or F_ell, so
x^-1 = conj / N(x) in both characteristics.  A norm outside the prime field
(a defining polynomial that is not irreducible) raises IdentityFailure."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._kernel import lpoly_mul, lpoly_rem, zpoly_mul, zpoly_rem
from .errors import FieldMismatch, IdentityFailure, InvalidCharacteristic, ZeroInput

RATIONAL = "rational-cyclotomic"
MODULAR = "modular-cyclotomic"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    "Integer coefficients of Phi_n, ascending degree."
    if n == 1:
        return (-1, 1)
    # Phi_n = (X^n - 1) / prod_{d | n, d < n} Phi_d, exact integer division
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)
            num = _zpoly_exact_div(num, den)
    return tuple(num)


def _zpoly_exact_div(num, den):
    "Exact division of integer polynomials (den monic up to sign)."
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            assert c % lead == 0
            q = c // lead
            out[i - dd] = q
            for j in range(dd + 1):
                num[i - dd + j] -= q * den[j]
    if any(num):
        raise IdentityFailure(f"inexact division: remainder {num[:dd]}")
    return out


def _mult_order(a: int, n: int) -> int:
    assert gcd(a, n) == 1
    k, x = 1, a % n
    while x != 1:
        x = (x * a) % n
        k += 1
    return k


# ---------------------------------------------------------------------------
# irreducibility over F_ell: picks the canonical moduli of F_q and of the
# modular coefficient fields


@lru_cache(maxsize=None)
def _least_irreducible(ell: int, d: int) -> tuple:
    "First monic irreducible of degree d over F_ell in counting order."
    for k in range(ell**d):
        cand = [(k // ell**i) % ell for i in range(d)] + [1]
        if _lpoly_is_irreducible(cand, ell):
            return tuple(cand)
    raise AssertionError("unreachable: irreducibles exist in every degree")


def _lpoly_is_irreducible(f, ell):
    "Rabin test: f monic over F_ell."
    d = len(f) - 1
    if d == 1:
        return True

    def powmod(base, e):
        acc = [1]
        b = list(base)
        while e:
            if e & 1:
                acc = lpoly_rem(lpoly_mul(acc, b, ell), f, ell)
            b = lpoly_rem(lpoly_mul(b, b, ell), f, ell)
            e >>= 1
        return acc

    x = [0, 1]
    xq = powmod(x, ell**d)
    if _lvec(xq, d) != _lvec(x, d):
        return False
    for r in {p for p in range(2, d + 1) if d % p == 0 and is_prime(p)}:
        xe = powmod(x, ell ** (d // r))
        diff = [(a - b) % ell for a, b in zip(_lvec(xe, d), _lvec(x, d))]
        if not _lpoly_gcd_is_one(diff, f, ell):
            return False
    return True


def _lvec(v, d):
    v = list(v) + [0] * d
    return v[:d]


def _lpoly_gcd_is_one(a, b, ell):
    a = [c % ell for c in a]
    b = [c % ell for c in b]

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[deg(b)], -1, ell)
        c = (a[da] * inv) % ell
        shift = da - db
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - c * b[j]) % ell
    return deg(a) == 0


def _least_irreducible_factor(p: int, ell: int) -> tuple:
    "Ascending-coefficient-least monic irreducible factor of Phi_p over F_ell."
    d = _mult_order(ell, p)
    phi = [c % ell for c in cyclotomic_poly(p)]
    if d == p - 1:
        return tuple(phi)
    # build GF(ell^d) on the first irreducible monic polynomial of degree d
    h = list(_least_irreducible(ell, d))

    def fmul(a, b):
        return tuple(lpoly_rem(lpoly_mul(list(a), list(b), ell), h, ell))

    def fpow(a, e):
        acc = tuple(_lvec([1], d))
        b = a
        while e:
            if e & 1:
                acc = fmul(acc, b)
            b = fmul(b, b)
            e >>= 1
        return acc

    one = tuple(_lvec([1], d))
    zeta = None
    k = 2
    while zeta is None:
        g = tuple(_lvec([(k // ell**i) % ell for i in range(d)], d))
        e = fpow(g, (ell**d - 1) // p)
        if e != one:
            zeta = e
        k += 1
    if fpow(zeta, p) != one:
        raise IdentityFailure(f"zeta^{p} != 1 in the field of {ell}^{d} elements")
    # min polys of zeta^s over Frobenius-orbit representatives s
    seen, factors = set(), []
    for s in range(1, p):
        if s in seen:
            continue
        orbit = []
        t = s
        while t not in orbit:
            orbit.append(t)
            seen.add(t)
            t = (t * ell) % p
        poly = [one]  # coefficients in GF, ascending, starts as 1
        for t in orbit:
            root = fpow(zeta, t)
            new = [tuple(_lvec([0], d))] + poly
            for i in range(len(poly)):
                new[i] = tuple(
                    (a - b) % ell for a, b in zip(new[i], fmul(poly[i], root))
                )
            poly = new
        coeffs = []
        for c in poly:
            if any(c[1:]):
                raise IdentityFailure(f"min poly coefficient {c} not in F_{ell}")
            coeffs.append(c[0])
        factors.append(tuple(coeffs))
    factors.sort()
    return factors[0]


# ---------------------------------------------------------------------------


class CoeffField:
    """A coefficient field Q(zeta_n) or F_ell[zeta_p] with its canonical
    defining polynomial.  Instances are interned: field_make is the
    constructor to use."""

    def __init__(self, kind, n, char, modulus):
        self.kind = kind
        self.n = n
        self.char = char  # 0 for rational, ell for modular
        self.modulus = modulus  # ascending int coefficients, monic
        self.degree = len(modulus) - 1

    def __repr__(self):
        if self.char == 0:
            return f"Q(zeta_{self.n})" if self.n > 1 else "Q"
        return f"F_{self.char}(zeta_{self.n})[deg {self.degree}]"

    def __eq__(self, other):
        return (
            isinstance(other, CoeffField)
            and (self.kind, self.n, self.char) == (other.kind, other.n, other.char)
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.char))

    # --- element constructors

    def zero(self):
        return CycloNum(self, (0,) * self.degree, 1)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        if self.char:
            v = [0] * self.degree
            v[0] = k % self.char
            return CycloNum(self, tuple(v), 1)
        v = [0] * self.degree
        v[0] = k
        return CycloNum(self, tuple(v), 1)

    def from_fraction(self, q) -> "CycloNum":
        q = Fraction(q)
        if self.char:
            num = q.numerator % self.char
            den = pow(q.denominator % self.char, -1, self.char)
            return self.from_int(num * den)
        v = [0] * self.degree
        v[0] = q.numerator
        return CycloNum(self, tuple(v), q.denominator)

    def from_coeffs(self, coeffs):
        "Element from a vector of Fractions/ints on the power basis."
        coeffs = [Fraction(c) for c in coeffs]
        assert len(coeffs) <= self.degree or all(
            c == 0 for c in coeffs[self.degree :]
        )
        if self.char:
            v = [0] * self.degree
            for i, c in enumerate(coeffs[: self.degree]):
                v[i] = (c.numerator * pow(c.denominator, -1, self.char)) % self.char
            return CycloNum(self, tuple(v), 1)
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        v = [0] * self.degree
        for i, c in enumerate(coeffs[: self.degree]):
            v[i] = c.numerator * (den // c.denominator)
        return _normalized(self, v, den)

    def zeta_pow(self, k: int) -> "CycloNum":
        "zeta_n^k as a reduced element."
        k %= self.n
        v = [0] * (k + 1)
        v[k] = 1
        return self.from_zeta_coords(v)

    def from_zeta_coords(self, coords) -> "CycloNum":
        """sum_k coords[k] zeta_n^k for integers coords[k]: the coordinates
        reduced by the defining polynomial (mod ell in the modular case)."""
        if self.char:
            return CycloNum(self, tuple(lpoly_rem(coords, self.modulus, self.char)), 1)
        return _normalized(self, zpoly_rem(coords, self.modulus), 1)

    def zeta(self) -> "CycloNum":
        return self.zeta_pow(1)

    def galois_exponents(self):
        "Exponents of the Galois group acting as zeta -> zeta^u."
        if self.n == 1:
            return [1]
        if self.char == 0:
            return [u for u in range(1, self.n) if gcd(u, self.n) == 1]
        out, u = [], 1
        while True:
            out.append(u)
            u = (u * self.char) % self.n
            if u == 1:
                break
        return sorted(out)

    def full_tag(self):
        "Tag of the prime field (whole Galois group as stabilizer)."
        return SubfieldTag(self, frozenset(self.galois_exponents()))

    def top_tag(self):
        "Tag of the field itself (trivial stabilizer)."
        return SubfieldTag(self, frozenset([1]))


def field_make(kind: str, n: int, ell: int | None = None) -> CoeffField:
    """Canonical coefficient field, one object per (kind, n, ell) however
    the arguments are passed, so that fields compare by identity.

    rational: Q(zeta_n) defined by Phi_n.  modular: F_ell[zeta_n] for prime
    n, defined by the least irreducible factor of Phi_n over F_ell."""
    return _field_make(kind, n, ell)


@lru_cache(maxsize=None)
def _field_make(kind, n, ell):
    assert n >= 1
    if kind == RATIONAL:
        assert ell is None
        return CoeffField(RATIONAL, n, 0, cyclotomic_poly(n))
    assert kind == MODULAR
    assert ell is not None and is_prime(ell)
    if n % ell == 0:
        raise InvalidCharacteristic(f"ell = {ell} divides n = {n}")
    if n == 1:
        return CoeffField(MODULAR, 1, ell, ((ell - 1) % ell, 1))
    assert is_prime(n), "modular coefficient fields take n = p prime"
    return CoeffField(MODULAR, n, ell, _least_irreducible_factor(n, ell))


def prime_field(char: int) -> CoeffField:
    "Q (char 0) or F_ell, as a degree-1 coefficient field."
    if char == 0:
        return field_make(RATIONAL, 1)
    return field_make(MODULAR, 1, char)


def _normalized(field, nums, den):
    assert den != 0
    if den < 0:
        nums = [-c for c in nums]
        den = -den
    g = den
    for c in nums:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        nums = [c // g for c in nums]
        den //= g
    return CycloNum(field, tuple(nums), den)


class CycloNum:
    """Element of a CoeffField on the power basis, fully reduced.

    Equality is coefficient-wise on the canonical representative, so these
    are safe dict keys."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den=1):
        self.field = field
        self.nums = nums
        self.den = den

    # --- predicates

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        assert self.is_rational()
        if self.field.char:
            return Fraction(self.nums[0])
        return Fraction(self.nums[0], self.den)

    def as_fractions(self):
        return tuple(Fraction(c, self.den) for c in self.nums)

    # --- ring ops

    def _check(self, other):
        if not isinstance(other, CycloNum) or other.field is not self.field:
            raise FieldMismatch(f"{self.field} vs {getattr(other, 'field', other)}")

    def __add__(self, other):
        self._check(other)
        f = self.field
        if f.char:
            ell = f.char
            return CycloNum(
                f, tuple((a + b) % ell for a, b in zip(self.nums, other.nums)), 1
            )
        da, db = self.den, other.den
        L = da * db // gcd(da, db)
        ma, mb = L // da, L // db
        return _normalized(
            f, [a * ma + b * mb for a, b in zip(self.nums, other.nums)], L
        )

    def __neg__(self):
        f = self.field
        if f.char:
            return CycloNum(f, tuple((-c) % f.char for c in self.nums), 1)
        return CycloNum(f, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        self._check(other)
        f = self.field
        x, c = self, other
        if any(c.nums[1:]):
            x, c = c, x
        if not any(c.nums[1:]):
            # a prime-field factor c (zero included) scales x coefficientwise,
            # which is the reduced polynomial product
            k = c.nums[0]
            if f.char:
                return CycloNum(f, tuple((a * k) % f.char for a in x.nums), 1)
            return _normalized(f, [a * k for a in x.nums], x.den * c.den)
        if f.char:
            v = lpoly_rem(
                lpoly_mul(list(self.nums), list(other.nums), f.char),
                list(f.modulus),
                f.char,
            )
            return CycloNum(f, tuple(v), 1)
        v = zpoly_rem(zpoly_mul(list(self.nums), list(other.nums)), list(f.modulus))
        return _normalized(f, v, self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse: in the prime field directly, otherwise by
        the Galois norm: conj is the product of the other conjugates
        sigma_u(x), N(x) = x . conj lies in the prime field, and
        x^-1 = conj / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError(f"zero has no inverse in {self.field}")
        f = self.field
        if self.is_rational():
            return f.from_fraction(1 / self.as_fraction())
        conj = f.one()
        for u in f.galois_exponents():
            if u != 1:
                conj = conj * apply_aut(GaloisAut(f, u), self)
        norm = self * conj
        if not norm.is_rational():
            raise IdentityFailure(f"norm {norm!r} is not in the prime field")
        return conj * f.from_fraction(1 / norm.as_fraction())

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return self * other.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        acc, b = self.field.one(), self
        while e:
            if e & 1:
                acc = acc * b
            b = b * b
            e >>= 1
        return acc

    # --- identity

    def __eq__(self, other):
        return (
            isinstance(other, CycloNum)
            and self.field == other.field
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        if self.is_rational():
            return str(self.as_fraction()) if not self.field.char else str(self.nums[0])
        terms = []
        for i, c in enumerate(self.nums):
            if c:
                q = c if self.field.char else Fraction(c, self.den)
                terms.append(f"{q}*z^{i}" if i else f"{q}")
        return " + ".join(terms)

    # --- serialization per the wire format

    def to_json(self):
        if self.field.char:
            coeffs = [str(c) for c in self.nums]
        else:
            coeffs = [
                str(c) if self.den == 1 else f"{c}/{self.den}" for c in self.nums
            ]
        return {"n": self.field.n, "char": self.field.char, "coeffs": coeffs}


def cyclonum_from_json(obj, field=None) -> CycloNum:
    n, char = obj["n"], obj["char"]
    if field is None:
        field = (
            field_make(RATIONAL, n) if char == 0 else field_make(MODULAR, n, char)
        )
    assert field.n == n and field.char == char
    return field.from_coeffs([Fraction(c) for c in obj["coeffs"]])


# ---------------------------------------------------------------------------
# Galois action


class GaloisAut:
    "Field automorphism zeta -> zeta^u (Frobenius power in the modular case)."

    def __init__(self, field: CoeffField, exponent: int):
        exponent %= field.n
        assert gcd(exponent, field.n) == 1
        if field.char:
            assert exponent in field.galois_exponents(), (
                "modular automorphisms are powers of Frobenius"
            )
        self.field = field
        self.exponent = exponent

    def __call__(self, x: CycloNum) -> CycloNum:
        return apply_aut(self, x)

    def is_identity(self):
        return self.exponent == 1

    def __eq__(self, other):
        return (
            isinstance(other, GaloisAut)
            and self.field == other.field
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash(("aut", self.field.n, self.field.char, self.exponent))

    def __repr__(self):
        return f"sigma_{self.exponent}"


def apply_aut(sigma: GaloisAut, x: CycloNum) -> CycloNum:
    """Ring automorphism: zeta^i -> zeta^{u i}.  It fixes the prime field,
    so a prime-field x (zero included) is returned unchanged."""
    if sigma.field != x.field:
        raise FieldMismatch("automorphism and element fields differ")
    f = x.field
    n, u = f.n, sigma.exponent
    if u == 1 or x.is_rational():
        return x
    v = [0] * n
    for i, c in enumerate(x.nums):
        if c:
            v[(u * i) % n] += c
    if f.char:
        return CycloNum(f, tuple(lpoly_rem(v, list(f.modulus), f.char)), 1)
    return _normalized(f, zpoly_rem(v, list(f.modulus)), x.den)


def gauss_sum(p: int, field: CoeffField | None = None) -> CycloNum:
    """Quadratic Gauss sum g = sum_x zeta_p^(x^2) over x in F_p; the canonical
    square root of p* = (-1)^((p-1)/2) p.  The defining identity g^2 = p* is
    checked before returning."""
    assert is_prime(p) and p % 2 == 1
    if field is None:
        field = field_make(RATIONAL, p)
    assert field.n % p == 0
    shift = field.n // p
    g = field.zero()
    for x in range(p):
        g = g + field.zeta_pow(shift * ((x * x) % p))
    p_star = p if p % 4 == 1 else -p
    if g * g != field.from_int(p_star):
        raise IdentityFailure(f"Gauss sum does not square to p* = {p_star}")
    return g


# ---------------------------------------------------------------------------
# Subfields as Galois stabilizers


def _closure(field, gens):
    n = field.n
    group = set(field.galois_exponents())
    stab = {1}
    frontier = [g % n for g in gens]
    for g in frontier:
        assert g in group, f"exponent {g} not in the Galois group"
    while frontier:
        g = frontier.pop()
        if g in stab:
            continue
        stab.add(g)
        for h in list(stab):
            for prod in ((g * h) % n,):
                if prod not in stab:
                    frontier.append(prod)
    return frozenset(stab)


def greedy_generators(field, group):
    "The exponents of group, in increasing order, not generated by those before them."
    gens, span = [], frozenset([1])
    for u in sorted(group):
        if u not in span:
            gens.append(u)
            span = _closure(field, gens)
    return tuple(gens)


class SubfieldTag:
    """Subfield of the coefficient field encoded by the subgroup of Galois
    exponents fixing it.  Tags with equal stabilizers are the same subfield.
    gens is the greedy generating set of the stabilizer: an element is in
    the subfield when sigma_u fixes it for every u in gens.  gen_auts holds
    those sigma_u, built once with the tag for subfield_membership."""

    def __init__(self, field: CoeffField, stabilizer):
        self.field = field
        self.stabilizer = _closure(field, stabilizer)
        self.gens = greedy_generators(field, self.stabilizer)
        self.gen_auts = tuple(GaloisAut(field, u) for u in self.gens)

    def degree_over_prime(self) -> int:
        "Degree of the tagged subfield over Q (or F_ell)."
        return len(self.field.galois_exponents()) // len(self.stabilizer)

    def meet(self, other: "SubfieldTag") -> "SubfieldTag":
        "Compositum of the two subfields (intersection of stabilizers)."
        assert self.field == other.field
        return SubfieldTag(self.field, self.stabilizer & other.stabilizer)

    def __eq__(self, other):
        return (
            isinstance(other, SubfieldTag)
            and self.field == other.field
            and self.stabilizer == other.stabilizer
        )

    def __hash__(self):
        return hash((self.field.n, self.field.char, self.stabilizer))

    def __repr__(self):
        return f"tag(n={self.field.n}, stab={sorted(self.stabilizer)})"

    def to_json(self):
        return {"n": self.field.n, "stabilizer_gens": sorted(self.stabilizer)}


def subfield_of_values(values) -> SubfieldTag:
    "Tag of the subfield generated by the given values (Galois-theoretically)."
    values = list(values)
    assert values
    field = values[0].field
    stab = []
    for u in field.galois_exponents():
        sigma = GaloisAut(field, u)
        if all(apply_aut(sigma, v) == v for v in values):
            stab.append(u)
    return SubfieldTag(field, stab)


def subfield_membership(x: CycloNum, tag: SubfieldTag) -> bool:
    "sigma_u(x) == x on the generators of the tag's stabilizer."
    if x.field != tag.field:
        raise FieldMismatch("membership test across fields")
    return all(apply_aut(sigma, x) == x for sigma in tag.gen_auts)


def trace_to_subfield(x: CycloNum, tag: SubfieldTag) -> CycloNum:
    "Relative trace: sum of x over the tag's stabilizer."
    acc = tag.field.zero()
    for u in tag.stabilizer:
        acc = acc + apply_aut(GaloisAut(tag.field, u), x)
    return acc


def embed(x: CycloNum, big: CoeffField) -> CycloNum:
    "Embed Q(zeta_n) into Q(zeta_N) for n | N via zeta_n -> zeta_N^(N/n)."
    small = x.field
    assert small.char == big.char == 0, "embedding implemented for rational fields"
    assert big.n % small.n == 0
    step = big.n // small.n
    acc = big.zero()
    for i, c in enumerate(x.nums):
        if c:
            acc = acc + big.from_fraction(Fraction(c, x.den)) * big.zeta_pow(step * i)
    return acc


def tag_lift(tag: SubfieldTag, big: CoeffField) -> SubfieldTag:
    "The same subfield viewed inside a larger cyclotomic field."
    small = tag.field
    assert big.n % small.n == 0
    stab = [
        u
        for u in big.galois_exponents()
        if (u % small.n) in tag.stabilizer
    ]
    return SubfieldTag(big, stab)


def legendre_int(a: int, p: int) -> int:
    "Legendre symbol of a mod odd prime p, in {-1, 0, +1}."
    if p == 2 or not is_prime(p):
        raise ZeroInput(f"legendre_int needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1
