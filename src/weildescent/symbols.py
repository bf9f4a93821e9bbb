"""Quadratic Hilbert symbols over Q_v (every place, including 2 and the
real place), quaternion ramification sets over Q, and the decision tables
for character/realisation fields and Schur indices.

Symbols come from the closed-form unit formulas, with an independent
brute-force solubility oracle over Z/v^k for cross-validation: the two
routes catch each other's transcription errors."""

from __future__ import annotations

from fractions import Fraction

from .errors import IdentityFailure, ZeroInput
from .fields import (
    SubfieldTag,
    field_make,
    is_prime,
    legendre_int,
    tag_lift,
    RATIONAL,
)

INF = "inf"


def _val_unit(x: Fraction, v: int):
    "x = v^alpha * u with u a v-unit; returns (alpha, u as Fraction)."
    alpha = 0
    num, den = x.numerator, x.denominator
    while num % v == 0:
        num //= v
        alpha += 1
    while den % v == 0:
        den //= v
        alpha -= 1
    return alpha, Fraction(num, den)


def _unit_mod(u: Fraction, modulus: int) -> int:
    return (u.numerator * pow(u.denominator, -1, modulus)) % modulus


def hilbert_symbol(a, b, v) -> int:
    "Quadratic Hilbert symbol (a, b)_v in {+1, -1}."
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("hilbert symbol of zero")
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    assert is_prime(v)
    if v == 2:
        alpha, u = _val_unit(a, 2)
        beta, w = _val_unit(b, 2)
        eps_u = (_unit_mod(u, 4) - 1) // 2
        eps_w = (_unit_mod(w, 4) - 1) // 2
        om_u = ((_unit_mod(u, 8) ** 2 - 1) // 8) % 2
        om_w = ((_unit_mod(w, 8) ** 2 - 1) // 8) % 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    alpha, u = _val_unit(a, v)
    beta, w = _val_unit(b, v)
    e = alpha * beta * ((v - 1) // 2)
    s = (-1) ** e
    if beta % 2:
        s *= legendre_int(_unit_mod(u, v), v)
    if alpha % 2:
        s *= legendre_int(_unit_mod(w, v), v)
    return s


def hilbert_symbol_bruteforce(a, b, v, extra_precision: int = 3) -> int:
    """Solubility oracle: does a x^2 + b y^2 = z^2 have a primitive solution
    mod v^k (k past the Hensel bound)?  Real place: a sign check."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("hilbert symbol of zero")
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    # clear denominators by squares: (a,b) only depends on square classes
    a = a * a.denominator**2
    b = b * b.denominator**2
    an, bn = int(a), int(b)
    val = 0
    t = 4 * an * bn
    while t % v == 0:
        t //= v
        val += 1
    k = val + extra_precision
    mod = v**k
    squares = {(z * z) % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % v == 0 and y % v == 0:
                continue
            if (an * x * x + bn * y * y) % mod in squares:
                return 1
    # remaining primitive shapes: x = y = 0 mod v, z unit -> z^2 = 0 impossible
    return -1


def _places(a: Fraction, b: Fraction):
    "2, infinity and the primes dividing a numerator or denominator of a or b."
    support = {2, INF}
    for x in (a, b):
        for part in (abs(x.numerator), x.denominator):
            d = 2
            while d * d <= part:
                if part % d == 0:
                    support.add(d)
                    while part % d == 0:
                        part //= d
                d += 1
            if part > 1:
                support.add(part)
    return support


def quaternion_ramification(a, b):
    "{v : (a,b)_v = -1}; finite support, even cardinality by the product formula."
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("quaternion algebra with zero parameter")
    ram = {v for v in _places(a, b) if hilbert_symbol(a, b, v) == -1}
    if len(ram) % 2:
        raise IdentityFailure(
            f"product formula violated: ({a}, {b}) ramifies at {sorted(ram, key=str)}"
        )
    return ram


def product_formula_holds(a, b) -> bool:
    "Direct check that prod_v (a,b)_v = 1 over the support."
    prod = 1
    for v in _places(Fraction(a), Fraction(b)):
        prod *= hilbert_symbol(a, b, v)
    return prod == 1


# ---------------------------------------------------------------------------
# Field descriptions


def describe_subfield(tag: SubfieldTag) -> str:
    "Readable name for the small subfields appearing in the tables."
    K = tag.field
    deg = tag.degree_over_prime()
    if K.char:
        return f"F_{K.char}" if deg == 1 else f"F_{K.char}^{deg}"
    if deg == 1:
        return "Q"
    from .fields import GaloisAut, apply_aut, gauss_sum, embed

    parts = []
    candidates = []
    p = _odd_prime_of(K.n)
    if p:
        g = gauss_sum(p) if K.n == p else embed(gauss_sum(p), K)
        p_star = p if p % 4 == 1 else -p
        candidates.append((f"sqrt({p_star})", g))
        if K.n % 4 == 0:
            i = K.zeta_pow(K.n // 4)
            candidates.append(("sqrt(-1)", i))
            candidates.append((f"sqrt({-p_star})", i * g))
    elif K.n == 8:
        z = K.zeta()
        candidates = [
            ("sqrt(-1)", z * z),
            ("sqrt(2)", z + z.inv()),
            ("sqrt(-2)", z + z**3),
        ]
    for name, elt in candidates:
        if all(
            apply_aut(GaloisAut(K, u), elt) == elt for u in tag.stabilizer
        ):
            parts.append(name)
    if K.n == 8 and deg == 4:
        return "Q(zeta_8)"
    if not parts:
        return f"degree-{deg} subfield of Q(zeta_{K.n})"
    return "Q(" + ", ".join(parts) + ")"


def _odd_prime_of(n):
    m = n
    while m % 2 == 0:
        m //= 2
    return m if m > 1 and is_prime(m) else None


# ---------------------------------------------------------------------------
# Decision procedures (p odd)


def schur_index_decision(p: int, f: int):
    """Character fields, realisation fields and Schur indices of the even
    and odd Weil parts for q = p^f, p odd, as a pure decision procedure."""
    assert is_prime(p) and p % 2 == 1
    q_is_square = f % 2 == 0
    K = field_make(RATIONAL, p)
    big = field_make(RATIONAL, 4 * p)
    squares = [u for u in K.galois_exponents() if legendre_int(u, p) == 1]
    char_tag = (
        SubfieldTag(K, K.galois_exponents()) if q_is_square else SubfieldTag(K, squares)
    )
    char_big = tag_lift(char_tag, big)
    # sqrt(-p) stabilizer inside Q(zeta_4p)
    minus_p_stab = []
    for w in big.galois_exponents():
        lg = legendre_int(w % p, p)
        chi4 = 1 if w % 4 == 1 else -1
        fixes = (lg == 1) if p % 4 == 3 else (chi4 * lg == 1)
        if fixes:
            minus_p_stab.append(w)
    odd_real_tag = char_big.meet(SubfieldTag(big, minus_p_stab))
    easy = p % 4 == 3 and not q_is_square
    odd_index = 1 if easy else 2
    odd_real = char_big if easy else odd_real_tag
    return {
        "p": p,
        "f": f,
        "q": p**f,
        "char_field": {
            "tag": char_tag.to_json(),
            "name": describe_subfield(char_tag),
        },
        "even": {
            "realisation_tag": char_big.to_json(),
            "realisation_name": describe_subfield(char_big),
            "schur_index": 1,
        },
        "odd": {
            "realisation_tag": odd_real.to_json(),
            "realisation_name": describe_subfield(odd_real),
            "schur_index": odd_index,
        },
    }


# ---------------------------------------------------------------------------
# p = 2 tables (decision procedures only; no char-2 finite model exists)

A_CLASSES = ("full", "class3", "class5", "classMinus1", "squaresOnly")

_Z8 = None


def _zeta8_tags():
    global _Z8
    if _Z8 is None:
        K8 = field_make(RATIONAL, 8)
        _Z8 = {
            "Q": SubfieldTag(K8, [3, 5, 7]),
            "Q(sqrt(-2))": SubfieldTag(K8, [3]),
            "Q(sqrt(-1))": SubfieldTag(K8, [5]),
            "Q(sqrt(2))": SubfieldTag(K8, [7]),
            "Q(zeta_8)": SubfieldTag(K8, [1]),
        }
    return _Z8


def p2_field_tables(A: str):
    """Even/odd character and realisation fields over Q(zeta_8) plus the
    odd Schur index, per the classification by A = O_F^x2 cap Z_2^x."""
    assert A in A_CLASSES, f"A must be one of {A_CLASSES}"
    tags = _zeta8_tags()
    even_field = {
        "full": "Q",
        "class3": "Q(sqrt(-2))",
        "class5": "Q(sqrt(-1))",
        "classMinus1": "Q(sqrt(2))",
        "squaresOnly": "Q(zeta_8)",
    }[A]
    odd = {
        "full": {
            "char": "Q",
            "realisations": ["Q(sqrt(-2))", "Q(sqrt(-1))"],
            "index": 2,
        },
        "class3": {"char": "Q(sqrt(-2))", "realisations": ["Q(sqrt(-2))"], "index": 1},
        "class5": {"char": "Q(sqrt(-1))", "realisations": ["Q(sqrt(-1))"], "index": 1},
        "classMinus1": {
            "char": "Q(sqrt(2))",
            "realisations": ["Q(zeta_8)"],
            "index": 2,
        },
        "squaresOnly": {"char": "Q(zeta_8)", "realisations": ["Q(zeta_8)"], "index": 1},
    }[A]
    return {
        "A": A,
        "even": {
            "char_field": even_field,
            "realisation": even_field,
            "tag": tags[even_field].to_json(),
        },
        "odd": {
            "char_field": odd["char"],
            "char_tag": tags[odd["char"]].to_json(),
            "realisations": odd["realisations"],
            "realisation_tags": [tags[r].to_json() for r in odd["realisations"]],
            "schur_index": odd["index"],
        },
    }


def _hensel_sqrt(u: int, precision: int) -> int:
    "x with x^2 = u mod 2^precision, lifted from x = 1 for u = 1 mod 8."
    x = 1
    for j in range(3, precision):
        if (x * x - u) % (2 ** (j + 1)):
            x += 2**j >> 1
    return x


def is_square_in_Z2(u: int, precision: int = 12) -> bool:
    """Odd u: square in Z_2^x iff u = 1 mod 8; cross-checked mod 2^precision
    by Hensel lifting (u = 1 mod 8) or by the absence of any root."""
    assert u % 2 == 1
    criterion = u % 8 == 1
    mod = 2**precision
    if criterion:
        x = _hensel_sqrt(u, precision)
        if (x * x - u) % mod:
            raise IdentityFailure(f"Hensel lift {x} of sqrt({u}) fails mod 2^{precision}")
    elif any((x * x - u) % mod == 0 for x in range(mod)):
        raise IdentityFailure(f"{u} = {u % 8} mod 8 has a square root mod 2^{precision}")
    return criterion


def compute_A_for_Q2():
    "A = Z_2^x2 for F = Q_2: only the class of 1 consists of squares."
    classes = {1: 1, -1: 7, 3: 3, 5: 5}
    square_classes = [c for c, rep in classes.items() if is_square_in_Z2(rep)]
    if square_classes != [1]:
        raise IdentityFailure(f"square classes of Q_2^x are {square_classes}, not [1]")
    return "squaresOnly"
