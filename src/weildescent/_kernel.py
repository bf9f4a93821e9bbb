"""Arithmetic kernel.

These functions are the innermost loops of every cyclotomic and
finite-field operation in the package: dense integer polynomial product and
remainder by a monic integer polynomial, the mod-ell variants, and the
matrix product over F_ell[x]/(mod) on packed integers.

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


def lmat_mul(a, b, mod, ell):
    """Product of an r x k matrix a and a k x c matrix b over F_ell[x]/(mod),
    entries coefficient tuples of residues of length d = deg mod; returns
    the rows of reduced coefficient tuples.

    Kronecker substitution: each entry is packed into one int, coefficient
    i in bits [w i, w (i + 1)), with 2^w > k d (ell - 1)^2.  A coefficient
    of the unreduced product of two entries is a sum of at most d products
    of residues, so each slot of an output entry, the int sum over its
    nonzero terms only, holds its coefficient exactly with no carry.  Each
    sum is unpacked into its 2d - 1 coefficients and reduced once."""
    d = len(mod) - 1
    w = (len(b) * d * (ell - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    shifts = [w * i for i in range(2 * d - 1)]
    zero = (0,) * d
    ncols = len(b[0]) if b else 0

    def pack(t):
        v = 0
        for c in reversed(t):
            v = (v << w) | c
        return v

    # the nonzero entries of each row of b, packed once
    bnz = [[(j, pack(e)) for j, e in enumerate(row) if any(e)] for row in b]
    out = []
    for row in a:
        acc = [0] * ncols
        for k, e in enumerate(row):
            if any(e):
                x = pack(e)
                for j, y in bnz[k]:
                    acc[j] += x * y
        out.append(
            [
                tuple(lpoly_rem([(v >> s) & mask for s in shifts], mod, ell)) if v else zero
                for v in acc
            ]
        )
    return out
