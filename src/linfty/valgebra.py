"""V-algebras and higher derived brackets.

A V-algebra is the graded Lie algebra of super vector fields on a chart,
split as an abelian summand (the image of the projection) plus the
bracket-closed kernel of the projection.  The split itself is the only
data the brackets need: any object with a ``chart`` and a ``project``
(the retraction P onto the summand; in the package, ``SplitSetup``).
Elements of the summand are realised as fields fixed by P, so the
injection is the identity inclusion.  A square-zero degree-1 element of
the kernel induces the derived multibrackets on the summand and twisted
projections along degree-0 elements.  Everything is exact; the series
encountered terminate for polynomial inputs and a hard cap turns silent
divergence into a typed error.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING, Callable, Sequence

from .signs import shuffle_table
from .superfield import (
    CoordinateChart,
    Frozen,
    PreconditionError,
    Record,
    SuperVectorField,
    _merge_into,
    super_commutator,
)

if TYPE_CHECKING:
    from .subalgebroid import SplitSetup

DEFAULT_SERIES_CAP = 64


class SeriesCapExceeded(RuntimeError):
    """Bracket series did not terminate within the configured cap."""


class NotInAbelianPart(ValueError):
    """An argument expected in the abelian summand is not fixed by P."""


def require_abelian(split: SplitSetup, v: SuperVectorField) -> SuperVectorField:
    """``v`` itself, after checking that the split's projection fixes it."""
    if split.project(v) != v:
        raise NotInAbelianPart("element is not fixed by the projection")
    return v


class LInftyElement(Frozen):
    """Element of the abelian summand with its degree tag (None if mixed)."""

    __slots__ = _fields = ("value", "degree")

    def __init__(self, value: SuperVectorField, degree: int | None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "degree", degree)

    @staticmethod
    def of(split: SplitSetup, v: SuperVectorField) -> "LInftyElement":
        require_abelian(split, v)
        return LInftyElement(v, v.degree())

    def is_zero(self) -> bool:
        return self.value.is_zero()


class MCDelta(Frozen):
    """Degree-1 square-zero element of the kernel of P."""

    __slots__ = _fields = ("delta",)

    def __init__(self, delta: SuperVectorField):
        object.__setattr__(self, "delta", delta)

    @staticmethod
    def of(split: SplitSetup, delta: SuperVectorField) -> "MCDelta":
        if not delta.is_zero() and delta.degree() != 1:
            raise PreconditionError("delta must be homogeneous of degree 1")
        if not split.project(delta).is_zero():
            raise PreconditionError("delta must lie in ker(P)")
        if not super_commutator(delta, delta).is_zero():
            raise PreconditionError("delta must satisfy [[delta, delta]] = 0")
        return MCDelta(delta)


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

    def __init__(self, split: SplitSetup, delta: MCDelta):
        self.split = split
        self._ids: dict[SuperVectorField, int] = {}
        # id(v) -> (v, number); holding v keeps its id from being reused
        self._by_object: dict[int, tuple[SuperVectorField, int]] = {}
        self._chains: dict[tuple[int, ...], SuperVectorField] = {(): delta.delta}
        self._brackets: dict[tuple[tuple[int, int | None], ...], LInftyElement] = {}

    def _new_object(self, v: SuperVectorField) -> int:
        """Number an argument object met for the first time; a value never seen is checked first."""
        ident = self._ids.get(v)
        if ident is None:
            require_abelian(self.split, v)
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
        value = self.split.project(w)
        degree = value.degree()
        if degree is None:  # zero or mixed: the tag follows from the arguments' tags
            degs = [a.degree for a in args]
            degree = None if None in degs else 1 + sum(degs)  # type: ignore[arg-type]
        result = self._brackets[key] = LInftyElement(value, degree)
        return result


def derived_bracket(
    split: SplitSetup, delta: MCDelta, args: Sequence[LInftyElement]
) -> LInftyElement:
    """The k-th derived bracket P[[...[[delta, a_1]], ...], a_k]], evaluated once."""
    return DerivedBrackets(split, delta)(args)


def _ad_series(
    split: SplitSetup, acc: SuperVectorField, w: SuperVectorField, x: LInftyElement, cap: int, what: str
) -> SuperVectorField:
    """acc + sum_{n>=1} (1/n!) P([...[w, x], ..., x]) with n brackets, for x of degree 0 in the summand.

    The caller supplies the n = 0 term as ``acc``.  The sum ends when the
    bracket chain reaches exact zero, guarded by the cap.  The value's own
    degree is checked, not the tag, which is None for a mixed value.
    """
    if not x.value.is_zero() and x.value.degree() != 0:
        raise ValueError(f"the {what} needs an element of degree 0")
    require_abelian(split, x.value)
    n = 0
    while True:
        w = super_commutator(w, x.value)
        if w.is_zero():
            return acc
        n += 1
        if n > cap:
            raise SeriesCapExceeded(f"{what} did not terminate within {cap} brackets")
        acc = acc + split.project(w).scale(Fraction(1, factorial(n)))


def twisted_projection(
    split: SplitSetup,
    phi: LInftyElement,
    v: SuperVectorField,
    cap: int = DEFAULT_SERIES_CAP,
) -> SuperVectorField:
    """P applied to the exponential of bracketing with a degree-0 element: sum_n (1/n!) P([...[v, phi], ..., phi])."""
    return _ad_series(split, split.project(v), v, phi, cap, "twisted projection")


def mc_residual(
    split: SplitSetup,
    delta: MCDelta,
    candidate: LInftyElement,
    cap: int = DEFAULT_SERIES_CAP,
) -> LInftyElement:
    """Maurer-Cartan residual sum_k (1/k!) m_k(v, ..., v) of a degree-0 candidate.

    This is the twisted projection of delta along the candidate; its n = 0
    term P(delta) vanishes because delta lies in ker(P), so it is not formed.
    """
    acc = _ad_series(split, SuperVectorField.zero(split.chart), delta.delta, candidate, cap, "MC series")
    return LInftyElement(acc, acc.degree() if not acc.is_zero() else 1)


# ---------------------------------------------------------------------
# generalized Jacobi checker
# ---------------------------------------------------------------------
class AxiomReport(Record):
    __slots__ = _fields = ("checked", "failures")

    def __init__(self, checked: int = 0, failures: list[str] | None = None):
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


def generalized_jacobi(
    m: Callable[[Sequence[LInftyElement]], LInftyElement],
    elements: Sequence[LInftyElement],
    chart: CoordinateChart,
) -> SuperVectorField:
    """Evaluate the arity-n coherence sum of a flat structure on a probe word.

    The signed shuffles come from the process's tables (``signs.shuffle_table``).
    """
    n = len(elements)
    degs = tuple(e.degree if e.degree is not None else 0 for e in elements)
    total: dict = {}
    for j in range(1, n + 1):
        for sign, (first, rest) in shuffle_table((j, n - j), degs):
            inner = m([elements[p] for p in first])
            terms = m([inner] + [elements[p] for p in rest]).value.terms
            _merge_into(total, terms if sign == 1 else {k: -c for k, c in terms.items()})
    return SuperVectorField._of(chart, total)


def check_linfty_axioms(
    m: Callable[[Sequence[LInftyElement]], LInftyElement],
    chart: CoordinateChart,
    probes: Sequence[Sequence[LInftyElement]],
) -> AxiomReport:
    """Exact generalized-Jacobi check on each probe tuple."""
    report = AxiomReport()
    for probe in probes:
        residue = generalized_jacobi(m, probe, chart)
        report.checked += 1
        if not residue.is_zero():
            report.failures.append(
                f"arity {len(probe)} identity fails on {[p.value for p in probe]!r}: {residue!r}"
            )
    return report
