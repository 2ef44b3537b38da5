"""V-algebras and higher derived brackets.

A V-algebra is the graded Lie algebra of super vector fields on a chart,
split as an abelian summand (the image of the projection) plus the
bracket-closed kernel of the projection.  A square-zero degree-1 element of
the kernel induces the derived multibrackets on the abelian summand, an
extended structure on the shifted ambient plus the summand, and twisted
projections along degree-0 elements.  Everything is exact; the series
encountered terminate for polynomial inputs and a hard cap turns silent
divergence into a typed error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .signs import koszul_sign, shuffle_table
from .superfield import (
    CoordinateChart,
    SuperVectorField,
    _merge_into,
    super_commutator,
)

DEFAULT_SERIES_CAP = 64
DEFAULT_MAX_ARITY = 4


class SeriesCapExceeded(RuntimeError):
    """Bracket series did not terminate within the configured cap."""


class NotInAbelianPart(ValueError):
    """An argument expected in the abelian summand is not fixed by P."""


@dataclass(frozen=True)
class VAlgebra:
    """Split of the field algebra on a chart into abelian summand + kernel.

    ``project`` is the retraction P onto the summand; elements of the
    summand are realised as fields fixed by P, so the injection is the
    identity inclusion.  ``abelian_basis(degree)`` enumerates a basis of
    the summand in one degree (optionally capped in polynomial degree via
    ``poly_degree``); ``kernel_basis(poly_degree)`` enumerates monomial
    fields spanning the kernel up to that polynomial degree.
    """

    chart: CoordinateChart
    project: Callable[[SuperVectorField], SuperVectorField]
    abelian_basis: Callable[[int], list[SuperVectorField]]
    kernel_basis: Callable[[int], list[SuperVectorField]]

    def contains_in_abelian(self, v: SuperVectorField) -> bool:
        return self.project(v) == v

    def require_abelian(self, v: SuperVectorField) -> SuperVectorField:
        if not self.contains_in_abelian(v):
            raise NotInAbelianPart("element is not fixed by the projection")
        return v


@dataclass(frozen=True)
class LInftyElement:
    """Element of the abelian summand with its degree tag (None if mixed)."""

    value: SuperVectorField
    degree: int | None

    @staticmethod
    def of(valg: VAlgebra, v: SuperVectorField) -> "LInftyElement":
        valg.require_abelian(v)
        return LInftyElement(v, v.degree())

    def is_zero(self) -> bool:
        return self.value.is_zero()


@dataclass(frozen=True)
class MCDelta:
    """Degree-1 square-zero element of the kernel of P."""

    delta: SuperVectorField

    @staticmethod
    def of(valg: VAlgebra, delta: SuperVectorField) -> "MCDelta":
        if not delta.is_zero() and delta.degree() != 1:
            raise ValueError("delta must be homogeneous of degree 1")
        if not valg.project(delta).is_zero():
            raise ValueError("delta must lie in ker(P)")
        if not super_commutator(delta, delta).is_zero():
            raise ValueError("delta must satisfy [[delta, delta]] = 0")
        return MCDelta(delta)


# ---------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------
@dataclass
class VAlgebraReport:
    retraction_ok: bool = True
    abelian_ok: bool = True
    kernel_closed: bool = True
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.retraction_ok and self.abelian_ok and self.kernel_closed


def check_v_algebra(
    valg: VAlgebra,
    probe_degree_bound: int = 2,
    poly_degree_bound: int = 1,
) -> VAlgebraReport:
    """Verify P o I = id, abelianness of the summand and kernel closure.

    Probes run over all basis pairs with degree in [-1, probe_degree_bound]
    and polynomial degree up to the given bound; the report carries the
    first counterexample of each kind.
    """
    report = VAlgebraReport()
    abelian: list[SuperVectorField] = []
    for d in range(-1, probe_degree_bound + 1):
        abelian.extend(valg.abelian_basis(d))
    for a in abelian:
        if valg.project(a) != a:
            report.retraction_ok = False
            report.failures.append(f"P(I(a)) != a for a = {a!r}")
            break
    for a in abelian:
        done = False
        for b in abelian:
            if not super_commutator(a, b).is_zero():
                report.abelian_ok = False
                report.failures.append(f"[[I(a), I(b)]] != 0 for a = {a!r}, b = {b!r}")
                done = True
                break
        if done:
            break
    kernel = valg.kernel_basis(poly_degree_bound)
    for u in kernel:
        done = False
        for w in kernel:
            if not valg.project(super_commutator(u, w)).is_zero():
                report.kernel_closed = False
                report.failures.append(f"ker(P) not closed: [[{u!r}, {w!r}]]")
                done = True
                break
        if done:
            break
    return report


# ---------------------------------------------------------------------
# derived brackets
# ---------------------------------------------------------------------
class DerivedBrackets:
    """The derived brackets P[[...[[delta, a_1]], ...], a_k]] of one split, sharing work between calls.

    Three caches live as long as the object (one command): the argument
    values already checked to lie in the summand (numbered, and also found
    by object identity so a repeated argument is not hashed again), the
    chain prefixes [[...[[delta, a_1]], ...], a_i]] keyed by those numbers,
    and the finished brackets keyed by the argument tuple with its degree
    tags.  Every distinct argument value is checked once; values are
    compared exactly, so a cached result is the one a fresh evaluation
    would give.
    """

    def __init__(self, valg: VAlgebra, delta: MCDelta):
        self.valg = valg
        self._ids: dict[SuperVectorField, int] = {}
        # id(v) -> (v, number); holding v keeps its id from being reused
        self._by_object: dict[int, tuple[SuperVectorField, int]] = {}
        self._chains: dict[tuple[int, ...], SuperVectorField] = {(): delta.delta}
        self._brackets: dict[tuple[tuple[int, int | None], ...], LInftyElement] = {}

    def _new_object(self, v: SuperVectorField) -> int:
        """Number an argument object met for the first time; a value never seen is checked first."""
        ident = self._ids.get(v)
        if ident is None:
            self.valg.require_abelian(v)
            ident = self._ids[v] = len(self._ids)
        self._by_object[id(v)] = (v, ident)
        return ident

    def __call__(self, args: Sequence[LInftyElement]) -> LInftyElement:
        if not args:
            raise ValueError("arity must be at least 1")
        by_object = self._by_object
        ids = []
        key = []
        for a in args:
            v = a.value
            held = by_object.get(id(v))
            ident = held[1] if held is not None else self._new_object(v)
            ids.append(ident)
            key.append((ident, a.degree))
        ids, key = tuple(ids), tuple(key)
        hit = self._brackets.get(key)
        if hit is not None:
            return hit
        chains = self._chains
        w = chains[()]
        for i in range(1, len(ids) + 1):
            step = chains.get(ids[:i])
            if step is None:
                step = chains[ids[:i]] = super_commutator(w, args[i - 1].value)
            w = step
        value = self.valg.project(w)
        degree = value.degree()
        if degree is None:  # zero or mixed: the tag follows from the arguments' tags
            degs = [a.degree for a in args]
            degree = None if None in degs else 1 + sum(degs)  # type: ignore[arg-type]
        result = self._brackets[key] = LInftyElement(value, degree)
        return result


def derived_bracket(
    valg: VAlgebra, delta: MCDelta, args: Sequence[LInftyElement]
) -> LInftyElement:
    """The k-th derived bracket P[[...[[delta, a_1]], ...], a_k]], evaluated once."""
    return DerivedBrackets(valg, delta)(args)


def _ad_series(
    valg: VAlgebra, acc: SuperVectorField, w: SuperVectorField, x: LInftyElement, cap: int, what: str
) -> SuperVectorField:
    """acc + sum_{n>=1} (1/n!) P([...[w, x], ..., x]) with n brackets, for x of degree 0 in the summand.

    The caller supplies the n = 0 term as ``acc``.  The sum ends when the
    bracket chain reaches exact zero, guarded by the cap.
    """
    if x.degree not in (0, None) and not x.value.is_zero():
        raise ValueError(f"the {what} needs an element of degree 0")
    valg.require_abelian(x.value)
    n = 0
    while True:
        w = super_commutator(w, x.value)
        if w.is_zero():
            return acc
        n += 1
        if n > cap:
            raise SeriesCapExceeded(f"{what} did not terminate within {cap} brackets")
        acc = acc + valg.project(w).scale(Fraction(1, factorial(n)))


def twisted_projection(
    valg: VAlgebra,
    phi: LInftyElement,
    v: SuperVectorField,
    cap: int = DEFAULT_SERIES_CAP,
) -> SuperVectorField:
    """P applied to the exponential of bracketing with a degree-0 element: sum_n (1/n!) P([...[v, phi], ..., phi])."""
    return _ad_series(valg, valg.project(v), v, phi, cap, "twisted projection")


def mc_residual(
    valg: VAlgebra,
    delta: MCDelta,
    candidate: LInftyElement,
    cap: int = DEFAULT_SERIES_CAP,
) -> LInftyElement:
    """Maurer-Cartan residual sum_k (1/k!) m_k(v, ..., v) of a degree-0 candidate.

    This is the twisted projection of delta along the candidate; its n = 0
    term P(delta) vanishes because delta lies in ker(P), so it is not formed.
    """
    acc = _ad_series(valg, SuperVectorField.zero(valg.chart), delta.delta, candidate, cap, "MC series")
    return LInftyElement(acc, acc.degree() if not acc.is_zero() else 1)


# ---------------------------------------------------------------------
# extended structure on V[1] (+) a
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class ExtElement:
    """Element (v[1], a) of the extended algebra; v is stored unshifted.

    A homogeneous element has deg(v) - 1 == deg(a); the common shifted
    degree is the ``degree`` tag.
    """

    v: SuperVectorField
    a: SuperVectorField
    degree: int | None

    @staticmethod
    def of(
        valg: VAlgebra, v: SuperVectorField, a: SuperVectorField
    ) -> "ExtElement":
        valg.require_abelian(a)
        dv = None if v.is_zero() else v.degree()
        da = None if a.is_zero() else a.degree()
        shifted = dv - 1 if dv is not None else None
        if shifted is not None and da is not None and shifted != da:
            raise ValueError("components have incompatible degrees")
        return ExtElement(v, a, shifted if shifted is not None else da)

    def is_zero(self) -> bool:
        return self.v.is_zero() and self.a.is_zero()


def extended_bracket(
    valg: VAlgebra,
    delta: MCDelta,
    args: Sequence[ExtElement],
) -> ExtElement:
    """Structure maps of the extended algebra, any arity, flat (m_0 = 0).

    The four defining patterns are: the unary map on pairs, the binary map
    on two shifted fields, the chain started from one shifted field on
    summand arguments, and the plain derived bracket; every other argument
    pattern vanishes.  Mixed inputs expand multilinearly with Koszul
    reordering signs.
    """
    chart = valg.chart
    P = valg.project
    zero = SuperVectorField.zero(chart)
    if len(args) == 0:
        return ExtElement(zero, zero, None)
    for arg in args:
        valg.require_abelian(arg.a)
    if any(arg.degree is None and not arg.is_zero() for arg in args):
        raise ValueError("extended bracket needs homogeneous arguments")
    k = len(args)
    if k == 1:
        (x,) = args
        v_part = -super_commutator(delta.delta, x.v)
        a_part = P(x.v + super_commutator(delta.delta, x.a))
        deg = x.degree + 1 if x.degree is not None else None
        return ExtElement(v_part, a_part, deg)

    degs = tuple(0 if arg.degree is None else arg.degree for arg in args)
    v_total = zero
    a_total = zero
    # pattern (0, k): plain derived bracket of the summand components
    chain = delta.delta
    for arg in args:
        chain = super_commutator(chain, arg.a)
    a_total = a_total + P(chain)
    # pattern (1, k-1): one shifted field first, with the reordering sign
    for pos in range(k):
        x = args[pos]
        if x.v.is_zero():
            continue
        others = tuple(i for i in range(k) if i != pos)
        sign = koszul_sign((pos, *others), degs)
        chain = x.v
        for i in others:
            chain = super_commutator(chain, args[i].a)
        a_total = a_total + P(chain).scale(sign)
    # pattern (2, 0): only at arity 2
    if k == 2:
        x, y = args
        if not x.v.is_zero() and not y.v.is_zero():
            dv = x.v.degree()
            sign = -1 if dv % 2 else 1
            v_total = v_total + super_commutator(x.v, y.v).scale(sign)
    deg = 1 + sum(degs)
    return ExtElement(v_total, a_total, deg)


# ---------------------------------------------------------------------
# generalized Jacobi checker
# ---------------------------------------------------------------------
@dataclass
class AxiomReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def generalized_jacobi(
    m: Callable[[Sequence[LInftyElement]], LInftyElement],
    elements: Sequence[LInftyElement],
    chart: CoordinateChart,
    shuffles: dict | None = None,
) -> SuperVectorField:
    """Evaluate the arity-n coherence sum of a flat structure on a probe word.

    ``shuffles`` holds the signed shuffle tables (see ``signs.shuffle_table``);
    a caller checking many words passes one dict to read each table once.
    """
    n = len(elements)
    degs = tuple(e.degree if e.degree is not None else 0 for e in elements)
    shuffles = {} if shuffles is None else shuffles
    total: dict = {}
    for j in range(1, n + 1):
        for sign, (first, rest) in shuffle_table(shuffles, (j, n - j), degs):
            inner = m([elements[p] for p in first])
            terms = m([inner] + [elements[p] for p in rest]).value.terms
            _merge_into(total, terms if sign == 1 else {k: -c for k, c in terms.items()})
    return SuperVectorField._of(chart, total)


def check_linfty_axioms(
    m: Callable[[Sequence[LInftyElement]], LInftyElement],
    chart: CoordinateChart,
    max_arity: int,
    probes: Sequence[Sequence[LInftyElement]],
) -> AxiomReport:
    """Exact generalized-Jacobi check on each probe tuple of arity <= max_arity.

    The probes share one set of shuffle tables, which lives as long as the call.
    """
    report = AxiomReport()
    shuffles: dict = {}
    for probe in probes:
        if len(probe) > max_arity:
            continue
        residue = generalized_jacobi(m, probe, chart, shuffles)
        report.checked += 1
        if not residue.is_zero():
            report.failures.append(
                f"arity {len(probe)} identity fails on {[p.value for p in probe]!r}: {residue!r}"
            )
    return report
