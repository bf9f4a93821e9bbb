"""The three workloads: job lists built from the seed.

A job is a dict with the verb, its argv for weildescent.cli.run and the
parameters the independent checks need.  The seed becomes the CLI --seed of
every job (it picks the sampled cocycle pairs of verify and build) and the
Howe/Gerardin words of the build check, and it shapes the theta pair file:
a seeded relabelling of the basis and a seeded twist of the character.
"""

from __future__ import annotations

import json
import random

RATIONAL, MODULAR = "rational", "modular"

# (verb, p, f, extra) per job; why each is there is in README.md
WORKLOADS = {
    "verify": [
        ("verify", 3, 1, {}),
        ("verify", 5, 1, {}),
        ("build", 7, 1, {}),
    ],
    "realise": [
        ("character-field", 11, 1, {"part": "odd"}),
        ("descend", 7, 1, {"part": "full"}),
        ("descend", 7, 1, {"part": "even"}),
        ("descend", 5, 1, {"part": "odd"}),
        ("descend", 3, 2, {"part": "odd"}),
        ("end-algebra", 7, 1, {"part": "odd", "subfield": "Q"}),
        ("theta", 7, 1, {}),
    ],
    "modular": [
        ("character-field", 11, 1, {"part": "odd", "ell": 23}),
        ("descend", 13, 1, {"part": "even", "ell": 3}),
        ("descend", 13, 1, {"part": "odd", "ell": 3}),
        ("descend", 11, 1, {"part": "odd", "ell": 23}),
        ("end-algebra", 7, 1, {"part": "odd", "subfield": "char", "ell": 29}),
    ],
}


def jobs(workload, seed, pair_dir):
    "Job dicts for one workload; writes the theta pair file into pair_dir."
    return [make_job(verb, p, f, extra, seed, pair_dir) for verb, p, f, extra in WORKLOADS[workload]]


def make_job(verb, p, f, extra, seed, pair_dir):
    "One job from a (verb, p, f, extra) entry; a theta job writes its pair file."
    job = {"verb": verb, "p": p, "f": f, "seed": seed, **extra}
    if verb == "theta":
        path = pair_dir / f"pair-p{p}-seed{seed}.json"
        path.write_text(json.dumps(parity_pair(p, seed)))
        job["q"] = p
        argv = ["theta", "--pair", str(path)]
    else:
        argv = [verb, "--p", str(p), "--f", str(f)]
        for flag in ("part", "subfield", "ell"):
            if flag in extra:
                argv += [f"--{flag}", str(extra[flag])]
    job["argv"] = argv + ["--seed", str(seed)]
    return job


def fields_used(job_list):
    """(kind, n, ell) coefficient fields and (p, f) finite fields the jobs
    construct; set-up builds exactly these."""
    # imported here, not at the top: the set-up interpreter imports this
    # module inside its timed window and should load only the program
    import checks

    coeff, finite = set(), set()
    for job in job_list:
        p, f, ell = job["p"], job["f"], job.get("ell")
        finite.add((p, f))
        kind = MODULAR if ell else RATIONAL
        coeff.update({(kind, p, ell), (kind, 1, ell)})
        if job["verb"] == "descend" and job.get("part") == "odd" and not ell:
            coeff.add((RATIONAL, checks.odd_part_realisation(p, f)[0], None))
    return sorted(coeff, key=repr), sorted(finite)


def construct(fields):
    "First use of the lru_cached constructors: field_make (Phi_n) and fq_field."
    from weildescent import fields as coefficient
    from weildescent.finite import fq_field

    kinds = {RATIONAL: coefficient.RATIONAL, MODULAR: coefficient.MODULAR}
    coeff, finite = fields
    for kind, n, ell in coeff:
        coefficient.field_make(kinds[kind], n, ell)
    for p, f in finite:
        fq_field(p, f)


# ---------------------------------------------------------------------------
# Theta input: the parity pair ({1, S}, Weil generators) for q = p, m = 1


def _zeta_power(k, p):
    "zeta_p^k on the power basis 1, zeta, ..., zeta^(p-2), as wire-format strings."
    k %= p
    if k == p - 1:
        coeffs = [-1] * (p - 1)
    else:
        coeffs = [0] * (p - 1)
        coeffs[k] = 1
    return {"n": p, "char": 0, "coeffs": [str(c) for c in coeffs]}


def _scalar(c, p):
    coeffs = [c] + [0] * (p - 2)
    return {"n": p, "char": 0, "coeffs": [str(x) for x in coeffs]}


def parity_pair(p, seed):
    """H1 = {1, S} with S f(y) = f(-y), H2 = the Weil generator images M(a),
    N(b) and the unnormalised Fourier matrix, all written from their
    formulas on a seeded relabelling of F_p with a seeded character twist c:

        M(a): delta_y -> (a/p) delta_(y/a)     N(b): diag psi_c(b y^2 / 2)
        F:    F[y, y0] = psi_c(-y y0)          psi_c(t) = zeta_p^(c t)

    Scaling F by the Gauss-sum normalisation changes no commutant, so the
    lifts are those of the Weil representation."""
    rng = random.Random(seed)
    perm = list(range(p))
    rng.shuffle(perm)
    c = rng.randrange(1, p)
    half = pow(2, -1, p)
    zero = _scalar(0, p)

    def mat(entries):
        rows = [[zero] * p for _ in range(p)]
        for (y, y0), val in entries.items():
            rows[perm[y]][perm[y0]] = val
        return rows

    def legendre(a):
        return 1 if pow(a, (p - 1) // 2, p) == 1 else -1

    h2 = {}
    for a in range(1, p):
        ainv = pow(a, -1, p)
        h2[f"M{a}"] = mat({((ainv * y) % p, y): _scalar(legendre(a), p) for y in range(p)})
    for b in range(1, p):
        h2[f"N{b}"] = mat({(y, y): _zeta_power(c * b * y * y * half, p) for y in range(p)})
    h2["F"] = mat({(y, y0): _zeta_power(-c * y * y0, p) for y in range(p) for y0 in range(p)})
    parity = mat({((-y) % p, y): _scalar(1, p) for y in range(p)})
    return {
        "field": {"n": p, "char": 0},
        "dim": p,
        "h1": {"c": parity},
        "h2": h2,
        "pi1": [
            {"label": "trivial", "gens": {"c": [[_scalar(1, p)]]}},
            {"label": "sign", "gens": {"c": [[_scalar(-1, p)]]}},
        ],
    }
