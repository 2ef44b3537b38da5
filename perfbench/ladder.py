"""Seeded instance ladder for the benchmark, standard library only.

Every generator returns a ``format_version: 1`` instance object (a plain
dict, ready for ``linfty.instances.parse_instance``).  A candidate is built
on the Maurer-Cartan locus or off it as its ``on_locus`` argument asks, so
the expected verdict is known here, never taken from the program:

- identity homomorphisms offset by an inner automorphism exp(t ad x) are
  homomorphisms (``mc-zero``); one perturbed entry breaks the homomorphism
  identity, which is re-checked with the structure constants below;
- a Lie algebra plus the difference to a change-of-basis copy of itself is
  a Lie algebra (``mc-zero``); a perturbed copy fails Jacobi (checked);
- in a bundle of Lie algebras with zero anchor, a graph over the sub-frame
  is a subalgebroid exactly when it is a subalgebra at every point: the
  Borel family (a, b) = (2s, s^2) of sl(2) and the Heisenberg family with
  a = 0 lie on the locus, their perturbations do not.  Frame twists that
  preserve both the sub-frame and the complement carry one family onto the
  other pointwise, so the verdict survives the twist.

A generator takes two kinds of randomness: ``rng`` picks the shape of the
case (supports, coefficients, which entry is perturbed) and ``signs`` a
sign change of basis e_i -> s_i e_i applied last.  The sign change is an
isomorphism, so it keeps the verdict, and it changes no coefficient's size
or support, so it keeps the work: every intermediate coefficient of a
decision only changes sign.  The workloads draw shapes from a fixed seed and
signs from the workload seed, so every seed gives other inputs at the same
cost.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

Poly = dict  # exponent tuple -> Fraction

FORMAT_VERSION = 1


# ---------------------------------------------------------------------
# polynomials in n variables
# ---------------------------------------------------------------------
def pconst(n: int, c) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def padd(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def pscale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return {e: c * v for e, v in p.items()} if c else {}


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def shaped_poly(rng: random.Random, n: int, degrees: tuple[int, ...], bound: int = 2) -> Poly:
    """One term of each listed total degree, random variables and nonzero coefficients.

    The shape is fixed so that the work an instance costs varies little with the seed.
    """
    out: Poly = {}
    for degree in degrees:
        e = [0] * n
        for _ in range(degree if n else 0):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = Fraction(rng.choice([k for k in range(-bound, bound + 1) if k]))
    return out


def random_signs(rng: random.Random, dim: int) -> list[int]:
    return [rng.choice((-1, 1)) for _ in range(dim)]


def _signed(c, sign: int):
    return pscale(c, sign) if isinstance(c, dict) else c * sign


def flip_structure(C: dict, s: list) -> dict:
    """Structure constants {(i, j, k): c} in the basis s_i e_i."""
    return {(i, j, k): _signed(c, s[i] * s[j] * s[k]) for (i, j, k), c in C.items()}


def flip_map(F: dict, s: list) -> dict:
    """A map {(i, j): c} (c = coefficient of e_j in the image of e_i) in the basis s_i e_i."""
    return {(i, j): _signed(c, s[i] * s[j]) for (i, j), c in F.items()}


def terms_obj(p: Poly) -> list[dict]:
    return [
        {"exponents": list(e), "numer": c.numerator, "denom": c.denominator}
        for e, c in sorted(p.items())
    ]


# ---------------------------------------------------------------------
# Lie algebras by structure constants {(i, j, k): c} with i < j
# ---------------------------------------------------------------------
def _bracket(C: dict, dim: int, x: list, y: list) -> list:
    out = [Fraction(0)] * dim
    for (i, j, k), c in C.items():
        v = x[i] * y[j] - x[j] * y[i]
        if v:
            out[k] += c * v
    return out


def sl_n(n: int) -> tuple[int, dict]:
    """sl(n) on matrix units: E_ij (i != j) in row-major order, then H_i = E_ii - E_i+1,i+1."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    dim = len(offdiag) + n - 1

    def as_matrix(v):
        m = [[Fraction(0)] * n for _ in range(n)]
        for idx, (i, j) in enumerate(offdiag):
            m[i][j] += v[idx]
        for h in range(n - 1):
            c = v[len(offdiag) + h]
            m[h][h] += c
            m[h + 1][h + 1] -= c
        return m

    def as_vector(m):
        v = [m[i][j] for (i, j) in offdiag]
        acc = Fraction(0)
        for h in range(n - 1):
            acc += m[h][h]
            v.append(acc)
        return v

    C = {}
    for a, b in itertools.combinations(range(dim), 2):
        ea = as_matrix([Fraction(int(t == a)) for t in range(dim)])
        eb = as_matrix([Fraction(int(t == b)) for t in range(dim)])
        comm = [
            [sum(ea[i][t] * eb[t][j] - eb[i][t] * ea[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for k, c in enumerate(as_vector(comm)):
            if c:
                C[(a, b, k)] = c
    return dim, C


def heisenberg(n: int) -> tuple[int, dict]:
    """Heisenberg algebra of dimension 2n+1: (z, p_1..p_n, q_1..q_n), [p_i, q_i] = z."""
    return 2 * n + 1, {(1 + i, 1 + n + i, 0): Fraction(1) for i in range(n)}


SL2_HEF = (3, {(0, 1, 1): Fraction(2), (0, 2, 2): Fraction(-2), (1, 2, 0): Fraction(1)})
# frame (e, h, f): [e, h] = -2e, [e, f] = h, [h, f] = -2f
SL2_EHF = (3, {(0, 1, 0): Fraction(-2), (0, 2, 1): Fraction(1), (1, 2, 2): Fraction(-2)})
HEIS3 = heisenberg(1)


def jacobi_holds(dim: int, C: dict) -> bool:
    basis = [[Fraction(int(t == a)) for t in range(dim)] for a in range(dim)]
    for a, b, c in itertools.combinations(range(dim), 3):
        x, y, z = basis[a], basis[b], basis[c]
        total = [
            p + q + r
            for p, q, r in zip(
                _bracket(C, dim, x, _bracket(C, dim, y, z)),
                _bracket(C, dim, y, _bracket(C, dim, z, x)),
                _bracket(C, dim, z, _bracket(C, dim, x, y)),
            )
        ]
        if any(total):
            return False
    return True


def _matvec(M: list, v: list) -> list:
    return [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M))]


def is_homomorphism(dim: int, C: dict, F: list) -> bool:
    """F[i][j] = coefficient of e_j in F(e_i); checks F[x, y] = [Fx, Fy] on basis pairs."""
    image = [list(row) for row in F]  # image[i] = coordinates of F(e_i)
    cols = [[image[i][j] for i in range(dim)] for j in range(dim)]  # column-vector matrix

    for a, b in itertools.combinations(range(dim), 2):
        ea = [Fraction(int(t == a)) for t in range(dim)]
        eb = [Fraction(int(t == b)) for t in range(dim)]
        lhs = _matvec(cols, _bracket(C, dim, ea, eb))
        rhs = _bracket(C, dim, image[a], image[b])
        if lhs != rhs:
            return False
    return True


def _unipotent_exp(dim: int, C: dict, x: list, t: Fraction) -> list:
    """Matrix of exp(t ad x) as F[i][j] (coefficient of e_j in the image of e_i)."""
    basis = [[Fraction(int(s == a)) for s in range(dim)] for a in range(dim)]
    F = []
    for a in range(dim):
        term = basis[a]
        acc = list(term)
        k = 1
        while any(term):
            term = [c * t / k for c in _bracket(C, dim, x, term)]
            acc = [p + q for p, q in zip(acc, term)]
            k += 1
            if k > 4 * dim:
                raise ValueError("ad x is not nilpotent")
        F.append(acc)
    return F


def _nilpotent_element(rng: random.Random, dim: int, name: str) -> list:
    """An element with nilpotent adjoint action and a support fixed by the algebra."""
    coeffs = [-2, -1, 1, 2]
    if name.startswith("sl"):
        n = round((dim + 1) ** 0.5)
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        # strictly upper-triangular matrix: every E_ij with i < j, random nonzero entries
        x = [Fraction(0)] * dim
        for idx, (i, j) in enumerate(offdiag):
            if i < j:
                x[idx] = Fraction(rng.choice(coeffs))
        return x
    # Heisenberg: every element is ad-nilpotent; keep the centre out so the support is p, q only
    return [Fraction(0)] + [Fraction(rng.choice(coeffs)) for _ in range(dim - 1)]


# ---------------------------------------------------------------------
# instance objects
# ---------------------------------------------------------------------
def _structure_obj(C: dict, n_even: int) -> list[dict]:
    out = []
    for (i, j, k), c in sorted(C.items()):
        p = c if isinstance(c, dict) else pconst(n_even, c)
        if p:
            out.append({"i": i, "j": j, "k": k, "terms": terms_obj(p)})
    return out


def lie_algebra(dim: int, C: dict, candidate: dict | None = None) -> dict:
    obj = {"format_version": FORMAT_VERSION, "kind": "lie_algebra", "dimension": dim,
           "structure": _structure_obj(C, 0)}
    if candidate is not None:
        obj["candidate"] = {"structure": _structure_obj(candidate, 0), "anchor": []}
    return obj


def subalgebra(dim: int, C: dict, sub_rank: int, phi: dict | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION, "kind": "subalgebra", "dimension": dim,
        "sub_rank": sub_rank, "structure": _structure_obj(C, 0),
        "candidate": {"phi": [{"i": i, "j": j, "terms": terms_obj(pconst(0, c))}
                              for (i, j), c in sorted((phi or {}).items()) if c]},
    }


def tangent_rn(n: int) -> dict:
    return {
        "format_version": FORMAT_VERSION, "kind": "algebroid", "base_dim": n, "fiber_rank": n,
        "structure": [],
        "anchor": [{"i": i, "t": i, "terms": terms_obj(pconst(n, 1))} for i in range(n)],
    }


def homomorphism(dim: int, C: dict, offsets: dict) -> dict:
    block = {"base_dim": 0, "fiber_rank": dim, "structure": _structure_obj(C, 0), "anchor": []}
    return {
        "format_version": FORMAT_VERSION, "kind": "homomorphism",
        "source": block, "target": block,
        "bundle_map": [{"i": i, "j": i, "terms": terms_obj(pconst(0, 1))} for i in range(dim)],
        "base_map": [],
        "candidate": {"sigma": [], "phi": [{"i": i, "j": j, "terms": terms_obj(pconst(0, c))}
                                           for (i, j), c in sorted(offsets.items()) if c]},
    }


# ---------------------------------------------------------------------
# generated cases, on the locus or off it
# ---------------------------------------------------------------------
def algebra(name: str) -> tuple[int, dict]:
    """``sl<n>`` on matrix units or ``heisenberg-<2n+1>``."""
    if name.startswith("sl"):
        return sl_n(int(name[2:]))
    return heisenberg((int(name.split("-")[1]) - 1) // 2)


def identity_hom_case(rng: random.Random, name: str, on_locus: bool, signs: list) -> dict:
    """Identity homomorphism of sl(n) or Heisenberg offset by exp(t ad x) - id (perturbed if off)."""
    dim, C = algebra(name)
    x = _nilpotent_element(rng, dim, name)
    t = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
    F = _unipotent_exp(dim, C, x, t)
    if not on_locus:
        while True:
            i = rng.randrange(dim)
            G = [list(row) for row in F]
            G[i][i] += Fraction(rng.choice([-1, 1]), 3)
            if not is_homomorphism(dim, C, G):
                F = G
                break
    elif not is_homomorphism(dim, C, F):
        raise AssertionError("exp(t ad x) must be an automorphism")
    offsets = {(i, j): F[i][j] - (1 if i == j else 0) for i in range(dim) for j in range(dim)}
    return homomorphism(dim, flip_structure(C, signs), flip_map(offsets, signs))


def lie_candidate_case(rng: random.Random, dim: int, C: dict, on_locus: bool, signs: list) -> dict:
    """Candidate = (structure in a unipotent change of basis) - structure, perturbed if off."""
    A = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i, j in itertools.combinations(range(dim), 2):
        A[i][j] = Fraction(rng.choice([-1, 1]))
    Ainv = _unipotent_inverse(A)
    cols = [[A[r][c] for r in range(dim)] for c in range(dim)]  # cols[c] = A e_c
    C2 = {}
    for a, b in itertools.combinations(range(dim), 2):
        w = _matvec(Ainv, _bracket(C, dim, cols[a], cols[b]))
        for k, c in enumerate(w):
            if c:
                C2[(a, b, k)] = c
    if not on_locus:
        while True:
            a, b = sorted(rng.sample(range(dim), 2))
            key = (a, b, rng.randrange(dim))
            trial = dict(C2)
            trial[key] = trial.get(key, Fraction(0)) + rng.choice([-1, 1])
            trial = {k: v for k, v in trial.items() if v}
            if not jacobi_holds(dim, trial):
                C2 = trial
                break
    cand = {k: C2.get(k, Fraction(0)) - C.get(k, Fraction(0)) for k in set(C) | set(C2)}
    cand = {k: v for k, v in cand.items() if v}
    return lie_algebra(dim, flip_structure(C, signs), flip_structure(cand, signs))


def _unipotent_inverse(M: list) -> list:
    """Inverse of I + N with N nilpotent (entries are numbers or polynomials)."""
    n = len(M)
    poly = isinstance(M[0][0], dict)
    one = (lambda: pconst(_nvars(M), 1)) if poly else (lambda: Fraction(1))
    zero = (lambda: {}) if poly else (lambda: Fraction(0))
    add = padd if poly else (lambda a, b: a + b)
    mul = pmul if poly else (lambda a, b: a * b)
    neg = (lambda a: pscale(a, -1)) if poly else (lambda a: -a)
    N = [[(M[i][j] if i != j else zero()) for j in range(n)] for i in range(n)]
    inv = [[one() if i == j else zero() for j in range(n)] for i in range(n)]
    power = [row[:] for row in inv]
    for k in range(1, n):
        power = [[_dot(power[i], [N[t][j] for t in range(n)], add, mul, zero) for j in range(n)]
                 for i in range(n)]
        sign = neg if k % 2 else (lambda a: a)
        inv = [[add(inv[i][j], sign(power[i][j])) for j in range(n)] for i in range(n)]
    return inv


def _nvars(M: list) -> int:
    for row in M:
        for p in row:
            for e in p:
                return len(e)
    return 0


def _dot(row, col, add, mul, zero):
    acc = zero()
    for a, b in zip(row, col):
        acc = add(acc, mul(a, b))
    return acc


def split_case(rng: random.Random, family: str, base_dim: int, normal_rank: int,
               twist: bool, on_locus: bool, signs: list) -> dict:
    """Zero-anchor bundle of sl(2) (Borel split) or Heisenberg-3 (split span{z, p}) over R^(p+q).

    The sub-frame is the first two frame vectors, the complement the third.
    An optional polynomial twist diag(U, 1), U unipotent in the base
    coordinates, keeps both blocks; the candidate transforms as phi' = phi U.
    """
    dim, C = SL2_HEF if family == "sl2" else HEIS3
    p, q = base_dim, normal_rank
    n_even = p + q
    s = shaped_poly(rng, p, (1, 0) if p else (0,))
    if family == "sl2":
        a, b = pscale(s, 2), pmul(s, s)
        if not on_locus:
            b = padd(b, pconst(p, Fraction(rng.choice([-1, 1]), 3)))
    else:
        a, b = {}, shaped_poly(rng, p, (2, 0) if p else (0,))
        if not on_locus:
            a = shaped_poly(rng, p, (1,) if p else (0,))
    u = shaped_poly(rng, p, (1,)) if twist else {}
    # frame e'_0 = e_0, e'_1 = e_1 + u e_0, e'_2 = e_2 (u in base coordinates only)
    M = [[pconst(p, 1), u, {}], [{}, pconst(p, 1), {}], [{}, {}, pconst(p, 1)]]
    Minv = _unipotent_inverse(M)
    structure = {}
    for i, j in itertools.combinations(range(dim), 2):
        for k in range(dim):
            acc: Poly = {}
            for (x, y, z), c in C.items():
                for (aa, bb, sign) in ((x, y, 1), (y, x, -1)):
                    coeff = pmul(pmul(M[aa][i], M[bb][j]), Minv[k][z])
                    acc = padd(acc, pscale(coeff, c * sign))
            if acc:
                structure[(i, j, k)] = _pad(acc, n_even)
    # phi as a row over the sub-frame: phi'(e'_i) = sum_a phi(e_a) U[a][i]
    phi0 = [a, b]
    phi = [padd(*(pmul(phi0[aa], M[aa][i]) for aa in range(2))) for i in range(2)]
    structure = flip_structure(structure, signs)
    phi = [pscale(poly, signs[i] * signs[2]) for i, poly in enumerate(phi)]
    sigma = [shaped_poly(rng, p, (2, 0) if p else (0,)) for _ in range(q)]
    return {
        "format_version": FORMAT_VERSION, "kind": "subalgebroid",
        "base_dim": p, "normal_rank": q, "fiber_rank": dim, "sub_rank": 2,
        "structure": [{"i": i, "j": j, "k": k, "terms": terms_obj(poly)}
                      for (i, j, k), poly in sorted(structure.items())],
        "anchor": [],
        "candidate": {
            "sigma": [{"k": k, "terms": terms_obj(poly)} for k, poly in enumerate(sigma) if poly],
            "phi": [{"i": i, "j": 2, "terms": terms_obj(poly)} for i, poly in enumerate(phi) if poly],
        },
    }


def _pad(poly: Poly, n: int) -> Poly:
    return {e + (0,) * (n - len(e)): c for e, c in poly.items()}


def sl2_borel_case(rng: random.Random, on_locus: bool, signs: list) -> dict:
    """sl(2) in frame (h, e, f) split along span{h, e}; phi = (a, b) on the locus iff a^2 = 4b."""
    s = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    a, b = 2 * s, s * s
    if not on_locus:
        b += rng.choice([-1, 1])
    dim, C = SL2_HEF
    return subalgebra(dim, flip_structure(C, signs), 2, flip_map({(0, 2): a, (1, 2): b}, signs))


def sl2_e_split() -> dict:
    """sl(2) in frame (e, h, f) split along span{e}; its complement brackets land back in it."""
    return subalgebra(*SL2_EHF, 1)
