"""Arithmetic kernel.

These four functions are the innermost loops of every cyclotomic and
finite-field operation in the package: dense integer polynomial product and
remainder by a monic integer polynomial, plus the mod-ell variants.

Conventions: polynomials are lists/tuples of ints, ascending degree,
trailing zeros allowed.  Moduli are monic (leading coefficient 1, or 1 mod
ell), so remainders never leave Z.
"""


def zpoly_mul(a, b):
    "Product of two integer polynomials (ascending coefficients)."
    la, lb = len(a), len(b)
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                out[i + j] += ai * b[j]
    return out


def zpoly_rem(a, mod):
    "Remainder of an integer polynomial by a monic integer polynomial."
    deg = len(mod) - 1
    r = list(a)
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            base = i - deg
            for j in range(deg):
                r[base + j] -= c * mod[j]
    del r[deg:]
    while len(r) < deg:
        r.append(0)
    return r


def lpoly_mul(a, b, ell):
    "Product mod ell."
    la, lb = len(a), len(b)
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                out[i + j] = (out[i + j] + ai * b[j]) % ell
    return out


def lpoly_rem(a, mod, ell):
    "Remainder mod ell by a polynomial monic mod ell."
    deg = len(mod) - 1
    r = [c % ell for c in a]
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            base = i - deg
            for j in range(deg):
                r[base + j] = (r[base + j] - c * mod[j]) % ell
    del r[deg:]
    while len(r) < deg:
        r.append(0)
    return r
