"""Command-line surface: reproducible experiments emitting machine-readable
JSON reports.

Verbs: build, verify, character-field, end-algebra, descend, norm-solve,
theta, hilbert, p2, table.  Reports are byte-identical across reruns with
the same config and seed (timing is added only under --timing).  Exit
codes: 0 ok, 1 certification failure, 2 config-invalid, 3 too-large,
4 not-found-within-bound."""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import lru_cache

from . import __version__
from .errors import (
    ConfigInvalid,
    IdentityFailure,
    NotFoundWithinBound,
    TooLarge,
    WeilError,
)
from .fields import (
    GaloisAut,
    MODULAR,
    RATIONAL,
    SubfieldTag,
    field_make,
    is_prime,
)
from .finite import sp_enumerate, sp_order, sp_sample
from .linalg import Matrix, intertwiner_space, monomial_form
from .rationality import character_field, endomorphism_algebra
from .descent import (
    build_weil,
    realise_even,
    realise_full,
    realise_modular,
    realise_odd,
    solve_norm_equation,
)
from .symbols import (
    A_CLASSES,
    INF,
    compute_A_for_Q2,
    describe_subfield,
    hilbert_symbol,
    p2_field_tables,
    quaternion_ramification,
    schur_index_decision,
)
from .theta import CommutingPair, theta_lift, theta_unitarity
from .weil import (
    cocycle_certificate,
    even_odd_split,
    heisenberg_hom_check,
    heisenberg_rep,
    intertwining_check,
    semilinearity_check,
    weil_twist_check,
)

SIZE_CAP = 200
DEFAULT_SP_BOUND = 10**5

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_TOO_LARGE = 3
EXIT_NOT_FOUND = 4


def _model_args(args, need_m=True):
    p, f, m = args.p, args.f, args.m
    if not (is_prime(p) and p % 2 == 1):
        raise ConfigInvalid(f"p = {p} must be an odd prime")
    if f < 1 or (need_m and m < 1):
        raise ConfigInvalid("f and m must be positive")
    q = p**f
    if need_m and q**m > args.cap and not args.force:
        raise ConfigInvalid(
            f"q^m = {q ** m} exceeds the size cap {args.cap}; pass --force to override"
        )
    ell = getattr(args, "ell", None)
    if ell is not None and (not is_prime(ell) or ell == 2 or ell == p):
        raise ConfigInvalid(f"ell = {ell} must be an odd prime different from p")
    if args.twist % p == 0:
        raise ConfigInvalid("twist must be a unit")
    if getattr(args, "pairs", 1) < 1:
        raise ConfigInvalid(f"--pairs {args.pairs} must be positive")
    return p, f, m, ell


def _int_list(text, flag):
    "Comma-separated integers of a CLI flag."
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigInvalid(f"{flag} takes comma-separated integers, not {text!r}") from None


def _tag_arg(K, text, flag, inside=None):
    """SubfieldTag of K whose stabilizer the Galois exponents of a flag
    generate; with inside, the stabilizer must lie inside that tag's."""
    exps = _int_list(text, flag)
    units = K.galois_exponents()
    bad = [u for u in exps if u % K.n not in units]
    if bad:
        raise ConfigInvalid(f"{flag}: exponents {bad} are not in the Galois group of {K}")
    tag = SubfieldTag(K, exps)
    if inside is not None and not tag.stabilizer <= inside.stabilizer:
        raise ConfigInvalid(
            f"{flag} {text}: stabilizer {sorted(tag.stabilizer)} is not inside "
            f"{sorted(inside.stabilizer)}"
        )
    return tag


def _part_rep(args):
    "(space, rep) of the model flags and --part of character-field and end-algebra."
    p, f, m, ell = _model_args(args)
    psi, space, rep = build_weil(p, f, m, args.twist, ell=ell)
    if args.part == "heisenberg":
        return space, heisenberg_rep(psi, space)
    if args.part == "full":
        return space, rep
    even, odd = even_odd_split(rep)
    return space, even if args.part == "even" else odd


def _transcript(report, name, ok, detail=None):
    entry = {"check": name, "pass": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    report["transcript"].append(entry)
    if not ok:
        report["failed"] = True


def _cocycle_pairs(space, rng, exhaustive, npairs):
    "All pairs of elements of Sp(W), or npairs pairs of uniform draws with rng."
    if exhaustive:
        els = list(sp_enumerate(space, DEFAULT_SP_BOUND))
        return [(a, b) for a in els for b in els]
    return [(sp_sample(space, rng), sp_sample(space, rng)) for _ in range(npairs)]


def cmd_build(args, report):
    p, f, m, ell = _model_args(args)
    psi, space, rep = build_weil(p, f, m, args.twist, ell=ell)
    rng = random.Random(args.seed)
    exhaustive = sp_order(m, p**f) <= 30
    pairs = _cocycle_pairs(space, rng, exhaustive, args.pairs)
    mode = "exhaustive" if exhaustive else f"{args.pairs} seeded pairs"
    # the premises (a) and (b) of the column certificate
    hrep = heisenberg_rep(psi, space)
    intertwining_check(rep, hrep)
    comm = intertwiner_space(hrep.gens_images(), hrep.gens_images())
    cert = cocycle_certificate(rep, pairs, len(comm))
    _transcript(report, "cocycle_values_pm1", cert.all_pm_one(), cert.summary())
    out = rep.to_json()
    out["cocycle"] = {"mode": mode, **cert.summary()}
    report["results"] = out
    return EXIT_OK


def cmd_verify(args, report):
    p, f, m, ell = _model_args(args)
    q = p**f
    order = sp_order(m, q)
    exhaustive = args.exhaustive or order <= 30
    if exhaustive and order**2 > DEFAULT_SP_BOUND:  # refuse before any work
        raise TooLarge(
            f"the {order ** 2} pairs of |Sp| = {order} exceed bound {DEFAULT_SP_BOUND}"
        )
    rng = random.Random(args.seed)
    psi, space, rep = build_weil(p, f, m, args.twist, ell=ell)
    hrep = heisenberg_rep(psi, space)
    K = rep.field

    npairs = heisenberg_hom_check(hrep)
    _transcript(report, "heisenberg_homomorphism", True, {"pairs": npairs})

    comm = intertwiner_space(hrep.gens_images(), hrep.gens_images())
    _transcript(report, "stone_von_neumann_commutant", len(comm) == 1, {"dim": len(comm)})
    # heisenberg_hom_check certified that the centre acts by the scalar psi(t),
    # so ^sigma_u rho and rho are isomorphic only if their central images agree
    centre = hrep.image(("T",))
    conj_hits = [
        u
        for u in K.galois_exponents()
        if u != 1 and hrep.conjugate(GaloisAut(K, u)).image(("T",)) == centre
    ]
    _transcript(report, "heisenberg_galois_rigidity", not conj_hits, {"fixing": conj_hits})

    intertwining_check(rep, hrep)
    _transcript(report, "weil_intertwines_heisenberg", True)

    pairs = _cocycle_pairs(space, rng, exhaustive, args.pairs)
    cert = cocycle_certificate(rep, pairs, len(comm))
    _transcript(report, "cocycle_values_pm1", cert.all_pm_one(), cert.summary())

    for u in K.galois_exponents():
        if u != 1:
            semilinearity_check(rep, GaloisAut(K, u))
    _transcript(report, "galois_semilinearity", True)

    twists = space.fq.elements()[1:3]  # q is odd: two nonzero elements
    for g in twists:
        weil_twist_check(psi, space, g)
    _transcript(report, "twisting_identities", True, {"twists": len(twists)})

    even, odd = even_odd_split(rep)
    dims_ok = even.dim == (q**m + 1) // 2 and odd.dim == (q**m - 1) // 2
    for tok in rep.gen_names:
        even.image(tok)
        odd.image(tok)
    _transcript(report, "even_odd_split", dims_ok, {"even": even.dim, "odd": odd.dim})
    report["results"] = {"q": q, "m": m, "checks_run": len(report["transcript"])}
    return EXIT_CHECK_FAILED if report.get("failed") else EXIT_OK


def cmd_character_field(args, report):
    _, target = _part_rep(args)
    tag = character_field(target)
    report["results"] = {
        "part": args.part,
        "tag": tag.to_json(),
        "name": describe_subfield(tag),
        "degree_over_prime": tag.degree_over_prime(),
    }
    return EXIT_OK


def cmd_end_algebra(args, report):
    space, target = _part_rep(args)
    K = target.field
    if args.subfield == "Q":
        tag = K.full_tag()
    elif args.subfield != "char":
        tag = _tag_arg(K, args.subfield, "--subfield")
    if target.group == "sp" and K.char:
        # Gerardin's count of the Hom dimensions describes the semisimple
        # reduction: refuse first
        order = sp_order(space.m, space.fq.q)
        if order % K.char == 0:
            raise ConfigInvalid(
                f"ell = {K.char} divides |Sp| = {order}: Gerardin's count of the"
                " Hom dimensions describes the semisimple reduction only"
            )
    field_tag = character_field(target)
    if args.subfield == "char":
        tag = field_tag
    alg = endomorphism_algebra(target, tag, field_tag, 2 if args.part == "full" else 1)
    report["results"] = alg.to_json()
    report["results"]["subfield_name"] = describe_subfield(tag)
    return EXIT_OK


def cmd_descend(args, report):
    p, f, m, ell = _model_args(args)
    if args.bound < 0:
        raise ConfigInvalid(f"--bound {args.bound} must be non-negative")
    extras = {}
    if ell is not None:
        if args.part == "full":
            raise ConfigInvalid("modular descent takes --part even or odd")
        result, extras = realise_modular(p, f, m, ell, args.part, args.twist, args.bound)
    elif args.part == "full":
        result = realise_full(p, f, m, args.twist)
    elif args.part == "even":
        result = realise_even(p, f, m, args.twist)
    elif args.part == "odd":
        result, extras = realise_odd(p, f, m, args.twist, args.bound)
    else:
        raise ConfigInvalid(f"unknown part {args.part}")
    out = result.to_json()
    out.update({k: v for k, v in extras.items() if k != "obstruction"})
    if extras.get("obstruction"):
        out["obstruction"] = extras["obstruction"]
    out["target_name"] = describe_subfield(result.target)
    report["results"] = out
    _transcript(report, "descent_certified", True, result.transcript)
    return EXIT_OK


def cmd_norm_solve(args, report):
    n, ell = args.n, args.ell
    if n < 2:
        raise ConfigInvalid(f"--n {n} must be at least 2")
    if args.bound < 0:
        raise ConfigInvalid(f"--bound {args.bound} must be non-negative")
    if ell is not None:
        if not is_prime(ell) or n % ell == 0:
            raise ConfigInvalid(f"--ell {ell} must be a prime not dividing n = {n}")
        if not is_prime(n):
            raise ConfigInvalid(f"--ell takes a prime n, not {n}")
    K = field_make(RATIONAL, n) if ell is None else field_make(MODULAR, n, ell)
    bottom = _tag_arg(K, args.bottom, "--bottom")
    top = _tag_arg(K, args.top, "--top", inside=bottom)
    target = K.from_int(args.target)
    if target.is_zero():
        raise ConfigInvalid(f"--target {args.target} is 0 in {K}: no nonzero lambda has norm 0")
    lam, transcript = solve_norm_equation(K, top, bottom, target, args.bound)
    report["results"] = {"lambda": lam.to_json(), "transcript": transcript}
    _transcript(report, "norm_verified", True, {"target": args.target})
    return EXIT_OK


def _read_pair(path):
    """The pair file of `theta --pair`: the field, dim, generator objects h1
    and h2 of invertible dim x dim matrices, and pi1, a list of {"label",
    "gens"} with one invertible matrix per h1 generator, all pi1 matrices of
    one size.  Returns (K, dim, h1, h2, [(label, gens)]), the label of
    pi1[i] defaulting to "pi<i>"; a file of any other shape is ConfigInvalid."""
    try:
        with open(path) as fh:
            desc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read the pair file: {exc}") from None

    def need(cond, what):
        if not cond:
            raise ConfigInvalid(f"pair file: {what}")

    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    need(isinstance(desc, dict), "the top level must be an object")
    need(
        all(k in desc for k in ("field", "dim", "h1", "h2", "pi1")),
        "needs the keys field, dim, h1, h2 and pi1",
    )
    fld, dim = desc["field"], desc["dim"]
    need(
        isinstance(fld, dict) and is_int(fld.get("n")) and is_int(fld.get("char")),
        "field needs integers n and char",
    )
    n, char = fld["n"], fld["char"]
    need(
        n >= 1 and (char == 0 or (is_prime(char) and n % char and (n == 1 or is_prime(n)))),
        "field must be Q(zeta_n), or F_ell[zeta_n] with n = 1 or a prime other than ell",
    )
    K = field_make(RATIONAL, n) if char == 0 else field_make(MODULAR, n, char)
    need(is_int(dim) and dim >= 1, "dim must be a positive integer")

    # a pair file repeats a few values many times: each distinct coefficient
    # list (of this file's n and char) is parsed once
    parsed = {}

    def entry(e, what):
        need(
            isinstance(e, dict)
            and (e.get("n"), e.get("char")) == (n, char)
            and isinstance(e.get("coeffs"), list)
            and len(e["coeffs"]) <= K.degree,
            f"{what} has an entry that is not an element of {K}",
        )
        coeffs = e["coeffs"]
        need(all(isinstance(c, str) for c in coeffs), f"{what} has an unreadable coefficient")
        key = tuple(coeffs)
        if key not in parsed:
            try:
                parsed[key] = K.from_coeffs(coeffs)
            except (ValueError, ZeroDivisionError):
                raise ConfigInvalid(f"pair file: {what} has an unreadable coefficient") from None
        return parsed[key]

    def matrix(rows, size, what):
        need(
            isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
            f"{what} must be a non-empty list of rows",
        )
        size = size or len(rows)
        need(
            len(rows) == size and all(len(r) == size for r in rows),
            f"{what} must be {size} x {size}",
        )
        mat = Matrix(K, [[entry(e, what) for e in r] for r in rows])
        # a monomial matrix (one nonzero entry per row and column) is
        # invertible; only the others need the determinant
        invertible = monomial_form(mat) is not None or not mat.det().is_zero()
        need(invertible, f"{what} must be invertible")
        return mat

    def gens(obj, size, what):
        need(isinstance(obj, dict) and obj, f"{what} must be a non-empty object of matrices")
        return {name: matrix(m, size, f"{what}.{name}") for name, m in obj.items()}

    h1 = gens(desc["h1"], dim, "h1")
    h2 = gens(desc["h2"], dim, "h2")
    need(isinstance(desc["pi1"], list), "pi1 must be a list")
    pi1 = []
    for i, rep in enumerate(desc["pi1"]):
        what = f"pi1[{i}]"
        need(
            isinstance(rep, dict) and isinstance(rep.get("gens"), dict),
            f"{what} must be an object with gens",
        )
        need(isinstance(rep.get("label", ""), str), f"{what}.label must be a string")
        need(set(rep["gens"]) == set(h1), f"{what}.gens must name the h1 generators")
        first = next(iter(rep["gens"].values()))
        size = len(first) if isinstance(first, list) else 0
        pi1.append((rep.get("label", f"pi{i}"), gens(rep["gens"], size, f"{what}.gens")))
    return K, dim, h1, h2, pi1


def cmd_theta(args, report):
    K, dim, h1, h2, pi1s = _read_pair(args.pair)
    try:
        pair = CommutingPair(K, dim, h1, h2)
    except IdentityFailure as exc:
        raise ConfigInvalid(f"pair file: {exc}") from None
    lifts = []
    results = []
    for label, pi1 in pi1s:
        lift = theta_lift(pair, pi1)
        lifts.append((label, lift))
        results.append({"label": lifts[-1][0], **lift.to_json()})
    uni = []
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            uni.append(
                {
                    "pair": [lifts[i][0], lifts[j][0]],
                    **theta_unitarity(lifts[i][1], lifts[j][1]),
                }
            )
    report["results"] = {"lifts": results, "unitarity": uni}
    return EXIT_OK


def cmd_hilbert(args, report):
    if args.a == 0 or args.b == 0:
        raise ConfigInvalid(f"the Hilbert symbol takes nonzero a and b, not ({args.a}, {args.b})")
    if args.place is not None:
        if args.place == "inf":
            v = INF
        elif args.place.isdecimal() and is_prime(int(args.place)):
            v = int(args.place)
        else:
            raise ConfigInvalid(f"place {args.place!r} must be a prime or 'inf'")
        s = hilbert_symbol(args.a, args.b, v)
        report["results"] = {"a": args.a, "b": args.b, "place": args.place, "symbol": s}
    else:
        ram = quaternion_ramification(args.a, args.b)
        report["results"] = {
            "a": args.a,
            "b": args.b,
            "ramification": sorted(str(v) for v in ram),
        }
    return EXIT_OK


def cmd_p2(args, report):
    if args.A == "auto":
        a_class = compute_A_for_Q2()
        report["results"] = {"A_for_Q2": a_class, **p2_field_tables(a_class)}
    else:
        report["results"] = p2_field_tables(args.A)
    return EXIT_OK


def cmd_table(args, report):
    ps = _int_list(args.p, "--p")
    fs = _int_list(args.f, "--f")
    if any(f < 1 for f in fs):
        raise ConfigInvalid(f"--f {args.f}: every exponent must be positive")
    rows = []
    for p in ps:
        if not (is_prime(p) and p % 2 == 1):
            raise ConfigInvalid(f"p = {p} must be an odd prime")
        for f in fs:
            rows.append(schur_index_decision(p, f))
    report["results"] = {"rows": rows}
    if args.csv:
        lines = ["q,char_field,even_realisation,odd_realisation,odd_index"]
        for r in rows:
            lines.append(
                "%d,%s,%s,%s,%d"
                % (
                    r["q"],
                    r["char_field"]["name"],
                    r["even"]["realisation_name"],
                    r["odd"]["realisation_name"],
                    r["odd"]["schur_index"],
                )
            )
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "character-field": cmd_character_field,
    "end-algebra": cmd_end_algebra,
    "descend": cmd_descend,
    "norm-solve": cmd_norm_solve,
    "theta": cmd_theta,
    "hilbert": cmd_hilbert,
    "p2": cmd_p2,
    "table": cmd_table,
}


@lru_cache(maxsize=None)
def make_parser():
    "The argument parser, built on first use and shared by every run."
    ap = argparse.ArgumentParser(
        prog="weil",
        description="Exact Weil representations, their Galois descent, and the"
        " associated field/index invariants.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, need_model=True):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="write the JSON report here")
        sp.add_argument("--timing", action="store_true")
        if need_model:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--f", type=int, default=1)
            sp.add_argument("--m", type=int, default=1)
            sp.add_argument("--twist", type=int, default=1)
            sp.add_argument("--ell", type=int, default=None)
            sp.add_argument("--cap", type=int, default=SIZE_CAP)
            sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("build", help="emit the Weil model as JSON")
    common(sp)
    sp.add_argument("--pairs", type=int, default=50, help="seeded Sp pairs for the cocycle")

    sp = sub.add_parser("verify", help="run the exact property suite")
    common(sp)
    sp.add_argument("--exhaustive", action="store_true", help="every Sp pair for the cocycle")
    sp.add_argument("--pairs", type=int, default=200, help="seeded Sp pairs for the cocycle")

    sp = sub.add_parser("character-field", help="character field of a part")
    common(sp)
    sp.add_argument(
        "--part", choices=["even", "odd", "full", "heisenberg"], default="odd"
    )

    sp = sub.add_parser("end-algebra", help="endomorphism algebra over a subfield")
    common(sp)
    sp.add_argument(
        "--part", choices=["even", "odd", "full", "heisenberg"], default="odd"
    )
    sp.add_argument(
        "--subfield",
        default="char",
        help="'char', 'Q', or comma-separated stabilizer generators",
    )

    sp = sub.add_parser("descend", help="realise a part over its predicted field")
    common(sp)
    sp.add_argument("--part", choices=["full", "even", "odd"], default="full")
    sp.add_argument("--bound", type=int, default=20)

    sp = sub.add_parser("norm-solve", help="bounded relative norm equation")
    common(sp, need_model=False)
    sp.add_argument("--n", type=int, required=True, help="ambient cyclotomic order")
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--top", required=True, help="stabilizer generators of the top")
    sp.add_argument("--bottom", required=True, help="stabilizer generators of the bottom")
    sp.add_argument("--target", type=int, default=-1)
    sp.add_argument("--bound", type=int, default=20)

    sp = sub.add_parser("theta", help="theta lifts for a commuting pair")
    common(sp, need_model=False)
    sp.add_argument("--pair", required=True, help="pair description JSON file")

    sp = sub.add_parser("hilbert", help="Hilbert symbol / ramification set")
    common(sp, need_model=False)
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("-v", "--place", default=None, help="prime or 'inf'")

    sp = sub.add_parser("p2", help="p = 2 field/index tables")
    common(sp, need_model=False)
    sp.add_argument("--A", choices=list(A_CLASSES) + ["auto"], default="auto")

    sp = sub.add_parser("table", help="character/realisation field table rows")
    common(sp, need_model=False)
    sp.add_argument("--p", required=True, help="comma-separated odd primes")
    sp.add_argument("--f", default="1", help="comma-separated exponents")
    sp.add_argument("--csv", default=None, help="also write a CSV artifact")

    return ap


def json_text(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2, default=str),
    written in one pass onto one list of pieces.  A list, tuple or dict met
    again at the same depth reuses the text of its first writing, so the
    entry dicts that a report's matrices share (weil.generators_json) are
    encoded once per depth.  Every container written is held until the end,
    so that its id names it throughout.  obj must hold no reference cycle."""
    quote = json.encoder.encode_basestring_ascii
    out = []
    written = {}  # (id, depth) -> [container, first piece, end, text or None]

    def literal(x):
        "The text of None, a bool, an int or a float; None for anything else."
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        if isinstance(x, int):
            return int.__repr__(x)
        if isinstance(x, float):
            if x != x:
                return "NaN"
            if x == float("inf"):
                return "Infinity"
            if x == -float("inf"):
                return "-Infinity"
            return float.__repr__(x)
        return None

    def key_text(k):
        text = k if isinstance(k, str) else literal(k)
        if text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        return quote(text)

    def write(o, depth):
        if isinstance(o, str):
            out.append(quote(o))
        elif isinstance(o, (list, tuple, dict)):
            key = (id(o), depth)
            seen = written.get(key)
            if seen is not None:
                if seen[3] is None:
                    seen[3] = "".join(out[seen[1] : seen[2]])
                out.append(seen[3])
                return
            start = len(out)
            if not o:
                out.append("{}" if isinstance(o, dict) else "[]")
            else:
                inner = "\n" + "  " * (depth + 1)
                sep = inner
                if isinstance(o, dict):
                    out.append("{")
                    for k, v in sorted(o.items()):
                        out.append(sep + key_text(k) + ": ")
                        sep = "," + inner
                        write(v, depth + 1)
                    out.append("\n" + "  " * depth + "}")
                else:
                    out.append("[")
                    for v in o:
                        out.append(sep)
                        sep = "," + inner
                        write(v, depth + 1)
                    out.append("\n" + "  " * depth + "]")
            written[key] = [o, start, len(out), None]
        else:
            text = literal(o)
            if text is None:
                write(str(o), depth)
            else:
                out.append(text)

    write(obj, 0)
    return "".join(out)


def run(argv):
    args = make_parser().parse_args(argv)
    report = {
        "version": __version__,
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("out", "timing")
        },
        "transcript": [],
    }
    t0 = time.time()
    try:
        code = COMMANDS[args.command](args, report)
    except ConfigInvalid as exc:
        report["error"] = {"kind": "config-invalid", "message": str(exc)}
        code = EXIT_CONFIG
    except TooLarge as exc:
        report["error"] = {"kind": "too-large", "message": str(exc)}
        code = EXIT_TOO_LARGE
    except NotFoundWithinBound as exc:
        report["error"] = {"kind": "not-found-within-bound", "transcript": exc.args[0]}
        code = EXIT_NOT_FOUND
    except WeilError as exc:
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        code = EXIT_CHECK_FAILED
    except AssertionError as exc:
        report["error"] = {"kind": "certification-failed", "message": str(exc)}
        code = EXIT_CHECK_FAILED
    if args.timing:
        report["timing_seconds"] = round(time.time() - t0, 3)
    text = json_text(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
