"""Output checks computed apart from the program.

Nothing here imports weildescent.  Each check takes the job's own parameters
(never the report's echo of them) and the parsed JSON report, and raises
CheckFailed on the first disagreement.  The expected values are closed forms
from the theory of the Weil representation, recomputed here from scratch:

* character fields: Q(sqrt(p*)) for odd f and Q for even f, inside the
  Galois group of the coefficient field (the powers of ell in the modular
  case), given as the stabiliser of the subfield;
* realisation fields: the character field for the even part; for the odd
  part the character field itself when p = 3 mod 4 and f is odd, otherwise
  the character field with sqrt(-p) adjoined inside Q(zeta_4p); the fixed
  field of the odd-order Galois elements for the full representation;
* endomorphism algebras End_{R[G]}(V|_R) = M_[K:F](D) restricted to R, so
  dim over R = [K:F]^2 [F:R] with centre F;
* the Howe/Gerardin identity |tr omega(g)|^2 = q^dim ker(g - 1), checked
  numerically at zeta_p = exp(2 pi i / p), and unitarity of the model;
* Galois invariance of descended entries under the benchmark's own action
  zeta^k -> zeta^(uk) reduced modulo Phi_n (or its least factor mod ell).
"""

from __future__ import annotations

import cmath
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd, isclose


class CheckFailed(Exception):
    "A report disagrees with the independently computed expectation."


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Number theory and polynomials, from first principles


def units(n):
    return [u for u in range(1, n) if gcd(u, n) == 1] if n > 1 else [1]


def squares_mod(p):
    return {(x * x) % p for x in range(1, p)}


def mult_order(a, n):
    k, x = 1, a % n
    while x != 1:
        x = (x * a) % n
        k += 1
    return k


def galois_group(n, ell):
    "Exponents u of zeta -> zeta^u: all units (char 0) or the powers of ell."
    if not ell:
        return set(units(n))
    return {pow(ell, k, n) for k in range(mult_order(ell, n))}


def _poly_divexact(num, den):
    "Exact quotient of integer polynomials (ascending), den monic."
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    _require(not any(num), "cyclotomic division left a remainder")
    return out


def cyclotomic(n):
    "Phi_n from x^n - 1 = prod over d | n of Phi_d."
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, cyclotomic(d))
    return poly


def _rem(v, mod, ell):
    "Remainder of v by the monic polynomial mod, over Q (ell = 0) or F_ell."
    v = list(v)
    deg = len(mod) - 1
    for i in range(len(v) - 1, deg - 1, -1):
        c = v[i]
        if c:
            for j in range(deg + 1):
                v[i - deg + j] -= c * mod[j]
    v = v[:deg] + [0] * (deg - len(v))
    return [c % ell for c in v] if ell else v


def least_factor_mod(p, ell):
    """Least monic irreducible factor of Phi_p over F_ell, comparing ascending
    coefficient tuples: the wire-format convention for modular fields."""
    phi = cyclotomic(p)
    d = mult_order(ell, p)
    for low in product(range(ell), repeat=d):
        cand = list(low) + [1]
        if not any(_rem(phi, cand, ell)):
            return cand
    raise CheckFailed(f"no degree-{d} factor of Phi_{p} mod {ell}")


def field_modulus(n, ell):
    return least_factor_mod(n, ell) if ell else cyclotomic(n)


def parse_coeffs(entry, n, ell):
    _require(entry.get("n") == n, f"entry over n = {entry.get('n')}, expected {n}")
    _require(entry.get("char") == (ell or 0), "entry in the wrong characteristic")
    vals = [Fraction(c) for c in entry["coeffs"]]
    return [int(c) % ell for c in vals] if ell else vals


def galois_act(coeffs, u, n, modulus, ell):
    "zeta^k -> zeta^(u k), reduced modulo the field's defining polynomial."
    v = [0] * n
    for k, c in enumerate(coeffs):
        v[(u * k) % n] += c
    return _rem(v, modulus, ell)


def rank_mod(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def legendre(a, p):
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


# ---------------------------------------------------------------------------
# Closed forms


def char_field_stab(p, f, ell=None):
    "Stabiliser of the character field of either parity part."
    group = galois_group(p, ell)
    if f % 2 == 0:
        return group
    return group & squares_mod(p)


def odd_order_stab(p):
    return {u for u in units(p) if mult_order(u, p) % 2 == 1}


def odd_part_realisation(p, f):
    """(n, stabiliser, Schur index) of the field the odd part is realised over
    in characteristic 0."""
    charstab = char_field_stab(p, f)
    if p % 4 == 3 and f % 2 == 1:
        return p, charstab, 1
    n = 4 * p

    def chi_minus_p(w):
        # sigma_w(sqrt(p*)) = (w/p) sqrt(p*), sigma_w(i) = chi_4(w) i and
        # sqrt(-p) is sqrt(p*) when p = 3 mod 4, i sqrt(p*) otherwise
        chi4 = 1 if w % 4 == 1 else -1
        return legendre(w, p) * (1 if p % 4 == 3 else chi4)

    stab = {w for w in units(n) if w % p in charstab and chi_minus_p(w) == 1}
    return n, stab, 2


def expected_tokens(p, f):
    "Declared generator tokens for m = 1, as (tag, coefficient tuple)."
    nonzero = [c for c in product(range(p), repeat=f) if any(c)]
    return {("M", c) for c in nonzero} | {("N", c) for c in nonzero} | {("W", None)}


def _token_from_json(tok):
    if tok[0] in ("M", "N"):
        _require(len(tok[1]) == 1 and len(tok[1][0]) == 1, "m = 1 tokens expected")
        return tok[0], tuple(tok[1][0][0])
    return tok[0], None


def _token_from_repr(text):
    # descend writes tokens as Python text: "('M', ((Fq[1, 0],),))", "('W',)"
    tag = text[2]
    if tag == "W":
        return "W", None
    return tag, tuple(int(x) for x in re.findall(r"\d+", text[4:]))


# ---------------------------------------------------------------------------
# Numeric model checks (build)


def _numeric(entry, n):
    zeta = cmath.exp(2j * cmath.pi / n)
    return sum(float(c) * zeta**k for k, c in enumerate(parse_coeffs(entry, n, None)))


def _matmul(a, b):
    n = len(b[0])
    out = []
    for row in a:
        acc = [0j] * n
        for k, x in enumerate(row):
            if x != 0:
                rb = b[k]
                for j in range(n):
                    acc[j] += x * rb[j]
        out.append(acc)
    return out


def _sp_matrix(tag, c, p):
    "2 x 2 matrix over F_p of a token (f = m = 1): M(a), N(b), W0."
    if tag == "M":
        a = c[0]
        return [[a, 0], [0, pow(a, -1, p)]]
    if tag == "N":
        return [[1, c[0]], [0, 1]]
    return [[0, p - 1], [1, 0]]


def _fp_mul(a, b, p):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) % p for j in range(2)] for i in range(2)]


HG_WORDS = 12  # seeded words checked besides the generators


def howe_gerardin(gens, p, seed):
    """|tr omega(g)|^2 = p^dim ker(g - 1) on every generator and on seeded
    words in them (the +-1 cocycle does not move |tr|)."""
    names = sorted(gens, key=repr)
    rng = random.Random(seed)
    samples = [[t] for t in names]
    samples += [[rng.choice(names) for _ in range(rng.randint(2, 4))] for _ in range(HG_WORDS)]
    for word in samples:
        mat, g = None, [[1, 0], [0, 1]]
        for tok in word:
            mat = gens[tok] if mat is None else _matmul(mat, gens[tok])
            g = _fp_mul(g, _sp_matrix(tok[0], tok[1], p), p)
        tr = sum(mat[i][i] for i in range(len(mat)))
        kernel = 2 - rank_mod([[g[0][0] - 1, g[0][1]], [g[1][0], g[1][1] - 1]], p)
        _require(
            isclose(abs(tr) ** 2, p**kernel, rel_tol=1e-9, abs_tol=1e-9),
            f"|tr omega({word})|^2 = {abs(tr) ** 2:.6g}, Howe/Gerardin gives {p ** kernel}",
        )


def check_build(job, rep):
    p, f = job["p"], job["f"]
    _require(f == 1, "the numeric model check covers f = 1")
    res = rep["results"]
    _require(res["dim"] == p and res["field"] == {"n": p, "char": 0}, "model size or field")
    gens = {}
    for g in res["generators"]:
        tok = _token_from_json(g["token"])
        mat = [[_numeric(e, p) for e in row] for row in g["matrix"]]
        _require(len(mat) == p and all(len(r) == p for r in mat), f"{tok}: not {p} x {p}")
        herm = [[x.conjugate() for x in col] for col in zip(*mat)]
        prod = _matmul(mat, herm)
        for i in range(p):
            for j in range(p):
                _require(
                    abs(prod[i][j] - (1 if i == j else 0)) < 1e-9, f"{tok}: not unitary"
                )
        gens[tok] = mat
    _require(set(gens) == expected_tokens(p, 1), "declared generators differ")
    howe_gerardin(gens, p, job["seed"])
    order = p * (p * p - 1)
    coc = res["cocycle"]
    # every pair when |Sp| <= 30, else the 50 seeded pairs of build's --pairs default
    pairs = order * order if order <= 30 else 50
    _require(coc["pairs"] == pairs == coc["plus"] + coc["minus"], "cocycle census")
    _require(all(t["pass"] for t in rep["transcript"]), "a transcript entry failed")


# ---------------------------------------------------------------------------
# Exact checks


VERIFY_CHECKS = {
    "heisenberg_homomorphism",
    "stone_von_neumann_commutant",
    "heisenberg_galois_rigidity",
    "weil_intertwines_heisenberg",
    "cocycle_values_pm1",
    "galois_semilinearity",
    "twisting_identities",
    "even_odd_split",
}


def check_verify(job, rep):
    p, f, m = job["p"], job["f"], job.get("m", 1)
    q = p**f
    tr = rep["transcript"]
    _require(all(t["pass"] is True for t in tr), "a transcript entry failed")
    by_name = {t["check"]: t.get("detail") for t in tr}
    _require(set(by_name) == VERIFY_CHECKS and len(tr) == len(VERIFY_CHECKS), "checks run")
    _require(rep["results"] == {"q": q, "m": m, "checks_run": len(tr)}, "results block")
    _require(
        by_name["heisenberg_homomorphism"]["pairs"] == q ** (2 * (2 * m + 1)),
        "the exhaustive Heisenberg check did not cover every pair",
    )
    _require(by_name["stone_von_neumann_commutant"]["dim"] == 1, "commutant is not scalar")
    _require(by_name["heisenberg_galois_rigidity"]["fixing"] == [], "a conjugate is isomorphic")
    split = by_name["even_odd_split"]
    _require(split == {"even": (q**m + 1) // 2, "odd": (q**m - 1) // 2}, "parity dims")


def _check_tag(tag, n, stab, what):
    _require(tag == {"n": n, "stabilizer_gens": sorted(stab)}, f"{what}: tag {tag}")


def check_character_field(job, rep):
    p, f, ell = job["p"], job["f"], job.get("ell")
    stab = char_field_stab(p, f, ell)
    res = rep["results"]
    _check_tag(res["tag"], p, stab, "character field")
    degree = len(galois_group(p, ell)) // len(stab)
    _require(res["degree_over_prime"] == degree, "degree of the character field")
    _require(res["part"] == job["part"], "part")


def check_end_algebra(job, rep):
    p, f, ell = job["p"], job["f"], job.get("ell")
    group = galois_group(p, ell)
    stab_f = char_field_stab(p, f, ell)
    stab_r = group if job["subfield"] == "Q" else stab_f
    res = rep["results"]
    _check_tag(res["field_tag"], p, stab_r, "subfield R")
    k_f = len(stab_f)
    f_r = len(stab_r) // len(stab_f)
    _require(res["dim_over_R"] == k_f * k_f * f_r, f"dim over R {res['dim_over_R']}")
    _require(res["n"] == res["center_dim"] == f_r, "centre is not the character field")
    _require(res["m"] == k_f, "matrix size [K:F]")
    _require(res["commutative"] == (k_f == 1), "commutativity")


def check_descend(job, rep):
    p, f, ell, part = job["p"], job["f"], job.get("ell"), job["part"]
    q = p**f
    res = rep["results"]
    dim = {"full": q, "even": (q + 1) // 2, "odd": (q - 1) // 2}[part]
    n, schur = p, None
    if ell:
        stab = char_field_stab(p, f, ell)
    elif part == "full":
        stab = odd_order_stab(p)
    elif part == "even":
        stab = char_field_stab(p, f)
    else:
        n, stab, schur = odd_part_realisation(p, f)
    _check_tag(res["target"], n, stab, "realisation field")
    _require(res["dim"] == dim, f"dimension {res['dim']}, expected {dim}")
    if schur is not None:
        _require(res["schur_index"] == schur, f"Schur index {res['schur_index']}")
    degree = len(galois_group(n, ell)) // len(stab)
    _require(
        res["transcript"]["fixed_space_prime_dim"] == dim * degree,
        "fixed space dimension over the prime field",
    )
    toks = {_token_from_repr(g["token"]) for g in res["generators"]}
    _require(toks == expected_tokens(p, f), "declared generators differ")
    modulus = field_modulus(n, ell)
    for g in res["generators"]:
        mat = g["matrix"]
        _require(len(mat) == dim and all(len(r) == dim for r in mat), "matrix shape")
        for row in mat:
            for entry in row:
                x = parse_coeffs(entry, n, ell)
                for u in stab:
                    _require(
                        galois_act(x, u, n, modulus, ell) == x,
                        f"entry of {g['token']} not fixed by sigma_{u}",
                    )
    _require(all(t["pass"] for t in rep["transcript"]), "a transcript entry failed")


def check_theta(job, rep):
    q = job["q"]
    res = rep["results"]
    dims = {lift["label"]: lift["dim"] for lift in res["lifts"]}
    _require(dims == {"trivial": (q + 1) // 2, "sign": (q - 1) // 2}, f"lift dims {dims}")
    for lift in res["lifts"]:
        checks = lift["checks"]
        _require(checks["irr"] is True, f"{lift['label']} lift is not irreducible")
        _require(
            checks["isotypic_dim"] == checks["factorization_rank"] == lift["dim"],
            f"{lift['label']}: factorization rank",
        )
    _require(
        res["unitarity"] == [
            {"pair": ["trivial", "sign"], "comparable": True, "isomorphic": False}
        ],
        "lifts of distinct characters must not be isomorphic",
    )


CHECKS = {
    "build": check_build,
    "verify": check_verify,
    "character-field": check_character_field,
    "end-algebra": check_end_algebra,
    "descend": check_descend,
    "theta": check_theta,
}


def check_report(job, code, rep):
    "Raise CheckFailed unless the job exited 0 with a report that checks out."
    _require(code == 0, f"exit code {code}: {rep.get('error')}")
    _require("error" not in rep and not rep.get("failed"), "report carries an error")
    _require(rep["command"] == job["verb"], "report of another verb")
    CHECKS[job["verb"]](job, rep)
