"""Largest isotypic quotients and theta (isotypic) lifts for commuting
pairs of finite matrix groups on the Weil space, with scalar-extension and
Galois-equivariance checks.

The spotlight pair is (Sp(W)-image, {1, S}) where S is the parity operator
f(y) -> f(-y): S equals the Weil operator of m(-1) normalised inside the
metaplectic preimage, its trivial/sign isotypic parts are exactly the even
and odd subspaces, and the lifts carry the Sp-side action."""

from __future__ import annotations

from .errors import IdentityFailure, TooLarge
from .fields import GaloisAut, apply_aut, cyclotomic_poly
from .linalg import Matrix, intertwiner_space, invertible_element, span_coordinates
from .rationality import restrict_scalars
from .weil import MarkedRep, _trace_pair_dimension, parity_matrix

# largest group the closures below enumerate
CLOSURE_BOUND = 4096


class CommutingPair:
    "Two commuting matrix groups on V = K^dim, given by generator dicts."

    def __init__(self, field, dim, h1_gens, h2_gens):
        self.field = field
        self.dim = dim
        self.h1_gens = dict(h1_gens)
        self.h2_gens = dict(h2_gens)
        for a in self.h1_gens.values():
            for b in self.h2_gens.values():
                if a * b != b * a:
                    raise IdentityFailure("the two actions do not commute")

    def h1_elements(self):
        "Full list of H1 matrices: the closure mirrored on the trivial 1 x 1 pi1."
        one = Matrix.identity(self.field, 1)
        return [gv for gv, _ in _mirrored_closure(self, dict.fromkeys(self.h1_gens, one))]


def _mirrored_closure(pair: CommutingPair, pi1_gens):
    """H1 elements with the matching pi1 matrices, certifying that pi1 is a
    well-defined representation of the group the V-side matrices generate."""
    field = pair.field
    ident_v = Matrix.identity(field, pair.dim)
    d1 = next(iter(pi1_gens.values())).nrows
    ident_p = Matrix.identity(field, d1)
    names = sorted(pair.h1_gens)
    seen = {ident_v.to_key(): (ident_v, ident_p)}
    frontier = [(ident_v, ident_p)]
    while frontier:
        nxt = []
        for gv, gp in frontier:
            for name in names:
                pv = gv * pair.h1_gens[name]
                pp = gp * pi1_gens[name]
                k = pv.to_key()
                if k in seen:
                    if seen[k][1] != pp:
                        raise IdentityFailure("pi1 is not well defined on H1")
                    continue
                if len(seen) >= CLOSURE_BOUND:
                    raise TooLarge(f"group closure exceeds {CLOSURE_BOUND} elements")
                seen[k] = (pv, pp)
                nxt.append((pv, pp))
        frontier = nxt
    return list(seen.values())


def isotypic_projector(pair: CommutingPair, pi1_gens):
    """Central projector onto the pi1-isotypic part of V:
    e = (d / (eps |H|)) sum_h tr_pi1(h^-1) rho(h), eps = dim End(pi1)."""
    field = pair.field
    mirrored = _mirrored_closure(pair, pi1_gens)
    size = len(mirrored)
    pi_index = {gv.to_key(): gp for gv, gp in mirrored}
    d1 = mirrored[0][1].nrows
    # chi(h) = tr pi1(h^-1), read off the closure: pi1 is a homomorphism
    chis = [pi_index[gv.inverse().to_key()].trace() for gv, _ in mirrored]
    terms = [(gp.trace(), chi, 1) for (_, gp), chi in zip(mirrored, chis)]
    eps = _trace_pair_dimension(field, terms)
    e = Matrix.zeros(field, pair.dim, pair.dim)
    for (gv, _), chi in zip(mirrored, chis):
        e = e + gv.scale(chi)
    scale = field.from_int(d1) * (field.from_int(eps * size)).inv()
    e = e.scale(scale)
    if e * e != e:
        raise IdentityFailure("projector is not idempotent")
    for g in list(pair.h1_gens.values()) + list(pair.h2_gens.values()):
        if e * g != g * e:
            raise IdentityFailure("projector is not central for the pair")
    return e


def isotypic_quotient(pair: CommutingPair, pi1_gens):
    """Exact splitting V = V[pi1] (+) V_pi1 by the isotypic projector e;
    both summands are stable under the whole pair.  One nullspace of e:
    the image of e has dimension dim - dim ker e."""
    e = isotypic_projector(pair, pi1_gens)
    kernel = e.nullspace()
    return {
        "projector": e,
        "isotypic_dim": pair.dim - len(kernel),
        "kernel_dim": len(kernel),
        "kernel_basis": kernel,
    }


class ThetaLift:
    def __init__(self, pair, pi1_gens, hom_basis, theta_images, d1_images, checks):
        self.pair = pair
        self.pi1_gens = pi1_gens
        self.hom_basis = hom_basis
        self.theta_images = theta_images  # h2 name -> matrix on Hom coords
        self.d1_images = d1_images
        self.checks = checks

    @property
    def dim(self):
        return len(self.hom_basis)

    def is_zero(self):
        return not self.hom_basis

    def to_json(self):
        return {"dim": self.dim, "checks": self.checks}


def theta_lift(pair: CommutingPair, pi1_gens) -> ThetaLift:
    """Theta(pi1) = Hom_{H1}(pi1, V) with H2 acting by post-composition and
    End(pi1) acting on the right, plus the exact factorization certificate
    V_pi1 ~ Theta(pi1) (x)_{D1} pi1."""
    field = pair.field
    names = sorted(pair.h1_gens)
    src = [pi1_gens[n] for n in names]
    tgt = [pair.h1_gens[n] for n in names]
    hom = intertwiner_space(src, tgt)
    checks = {"fin": True}
    if not hom:
        checks["isotypic_dim"] = 0
        return ThetaLift(pair, pi1_gens, [], {}, [], checks)
    d1 = src[0].nrows
    coordinates = span_coordinates(hom)
    theta_images = {}
    for name, g2 in sorted(pair.h2_gens.items()):
        cols = [coordinates(g2 * phi) for phi in hom]
        theta_images[name] = Matrix.from_cols(field, cols)
    d1_basis = intertwiner_space(src, src)
    d1_images = []
    for d in d1_basis:
        cols = [coordinates(phi * d) for phi in hom]
        d1_images.append((d, Matrix.from_cols(field, cols)))

    # factorization certificate: ev : Theta (x) pi1 -> V_pi1
    T = len(hom)
    ev_cols = []
    for t in range(T):
        for j in range(d1):
            ev_cols.append(hom[t].col(j))
    ev = Matrix.from_cols(field, ev_cols)
    quot = isotypic_quotient(pair, pi1_gens)
    # relations phi d (x) v - phi (x) d v vanish under ev
    rel_count = 0
    for t in range(T):
        for d, dmat in d1_images:
            left = coordinates(hom[t] * d)
            for j in range(d1):
                vec = [field.zero()] * (T * d1)
                for s in range(T):
                    vec[s * d1 + j] = vec[s * d1 + j] + left[s]
                for i in range(d1):
                    vec[t * d1 + i] = vec[t * d1 + i] - d.rows[i][j]
                out = ev.mul_vec(vec)
                if not all(c.is_zero() for c in out):
                    raise IdentityFailure("ev does not kill relations")
                rel_count += 1
    rank = ev.rank()
    if rank != quot["isotypic_dim"]:
        raise IdentityFailure("tensor factorization rank mismatch")
    for name, g2 in pair.h2_gens.items():
        if g2 * ev != ev * theta_images[name].kron(Matrix.identity(field, d1)):
            raise IdentityFailure("H2-equivariance of the factorization fails")
    for name in names:
        if pair.h1_gens[name] * ev != ev * Matrix.identity(field, T).kron(pi1_gens[name]):
            raise IdentityFailure("H1-equivariance of the factorization fails")
    checks.update(
        {
            "isotypic_dim": quot["isotypic_dim"],
            "relations_killed": rel_count,
            "factorization_rank": rank,
        }
    )
    # (Irr): irreducible as H2-D1 bimodule iff the joint commutant is scalar
    joint = list(theta_images.values()) + [m for _, m in d1_images]
    comm = intertwiner_space(joint, joint)
    checks["irr"] = len(comm) == 1
    return ThetaLift(pair, pi1_gens, hom, theta_images, d1_images, checks)


def theta_unitarity(lift1: ThetaLift, lift2: ThetaLift):
    "(Uni): nonzero lifts are isomorphic iff the inputs were; report verdict."
    if lift1.is_zero() or lift2.is_zero():
        return {"comparable": False}
    if lift1.dim != lift2.dim:
        return {"comparable": True, "isomorphic": False}
    names = sorted(lift1.theta_images)
    assert names == sorted(lift2.theta_images)
    basis = intertwiner_space(
        [lift1.theta_images[n] for n in names],
        [lift2.theta_images[n] for n in names],
    )
    T = invertible_element(basis)
    return {"comparable": True, "isomorphic": T is not None}


# ---------------------------------------------------------------------------
# The {1, S} pair on the Weil space


def parity_pair(rep: MarkedRep) -> CommutingPair:
    "H1 = {1, parity}, H2 = the declared Weil generator images."
    S = parity_matrix(rep.space, rep.field)
    h2 = {str(k): rep.image(k) for k in rep.gen_names}
    return CommutingPair(rep.field, rep.dim, {"c": S}, h2)


def sign_characters(field):
    "pi1 matrices for the trivial and sign characters of {1, c}."
    one = Matrix.identity(field, 1)
    return {"c": one}, {"c": one.scale(field.from_int(-1))}


def theta_galois_equivariance(rep_psi, rep_psi_sigma, sigma: GaloisAut):
    """^sigma Theta_psi(pi1) ~ Theta_{psi^sigma}(^sigma pi1) for both
    characters of the parity group, through the shared generator names."""
    out = {}
    for label, pi1 in zip(("trivial", "sign"), sign_characters(rep_psi.field)):
        lift1 = theta_lift(parity_pair(rep_psi), pi1)
        lift2 = theta_lift(parity_pair(rep_psi_sigma), pi1)
        names = sorted(lift1.theta_images)
        conj = [
            lift1.theta_images[n].map(lambda c: apply_aut(sigma, c)) for n in names
        ]
        basis = intertwiner_space(conj, [lift2.theta_images[n] for n in names])
        T = invertible_element(basis)
        out[label] = T is not None
    return out


# ---------------------------------------------------------------------------
# Scalar extension compatibility (restriction provenance route)


def theta_scalar_extension_check(rho: MarkedRep, h1_key, h2_key, tag):
    """For V = rho|_R with H1 the cyclic group generated by rho(h1_key) and
    H2 = <rho(h2_key)> commuting with it: the isotypic quotient of the
    faithful Q-irreducible pi1 of H1 matches the sum of the character
    blocks over K, block count = centre dimension of End(pi1)."""
    K = rho.field
    V_R = restrict_scalars(rho, tag)
    g1 = V_R.image(h1_key)
    g2 = V_R.image(h2_key)
    p = K.n
    pair = CommutingPair(K, V_R.dim, {"g": g1}, {"t": g2})
    # pi1 = companion matrix of the cyclotomic polynomial: the restriction
    # to Q of the order-p character
    comp = _companion(K, cyclotomic_poly(p))
    pi1 = {"g": comp}
    quot = isotypic_quotient(pair, pi1)
    e_Q = quot["projector"]
    # over K: one character block per unit exponent
    scale = K.from_int(p).inv()
    g_pows = [Matrix.identity(K, V_R.dim)]
    for _ in range(p - 1):
        g_pows.append(g_pows[-1] * g1)
    blocks = {}
    e_sum = Matrix.zeros(K, V_R.dim, V_R.dim)
    for u in K.galois_exponents():
        e_u = Matrix.zeros(K, V_R.dim, V_R.dim)
        for j in range(p):
            e_u = e_u + g_pows[j].scale(K.zeta_pow((-u * j) % p))
        e_u = e_u.scale(scale)
        if e_u * e_u != e_u:
            raise IdentityFailure(f"character block e_{u} is not idempotent")
        blocks[u] = e_u.rank()
        e_sum = e_sum + e_u
    if e_sum != e_Q:
        raise IdentityFailure("sum of character blocks differs from the Q-projector")
    theta_dim = len(
        intertwiner_space([comp], [g1])
    )
    report = {
        "isotypic_dim_over_R": quot["isotypic_dim"],
        "blocks_over_K": blocks,
        "block_count": len(blocks),
        "blocks_sum_matches": sum(blocks.values()) == quot["isotypic_dim"],
        "theta_hom_dim": theta_dim,
    }
    return report


def _companion(field, poly):
    "Companion matrix of a monic integer polynomial, over the field."
    d = len(poly) - 1
    out = Matrix.zeros(field, d, d)
    one = field.one()
    for i in range(1, d):
        out.rows[i][i - 1] = one
    for i in range(d):
        out.rows[i][d - 1] = field.from_int(-poly[i])
    return out
