"""Reference constructions the tests check the package against; the CLI runs none of them.

- ``check_v_algebra``: the V-algebra axioms of a split (P o I = id, an
  abelian summand, a bracket-closed kernel), probed on monomial bases.
- ``extended_bracket``: the structure maps of the extended algebra on
  V[1] (+) a, whose MC residual splits into the structure residual and the
  twisted projection of the summed field.
- ``CEForm`` and ``ce_differential``: bundle-valued forms with the
  Cartan-type differential, identified with superfunctions.
- ``Derivation``: derivations with symbols and their transport onto fields.
- ``generic_anchor_apply``, ``generic_section_bracket`` and
  ``generic_graph_closure``: the classical route on ``SuperFunction``
  arithmetic (one product, sum or scaling object per partial result), as the
  package computed it before its term-map kernels; ``is_canonical_even``
  checks a term map those kernels wrap without the validated constructor.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from linfty.algebroid import AlgebroidData, SectionCalculus, _exponents_up_to, add_into
from linfty.signs import koszul_sign
from linfty.superfield import CoordinateChart, SuperFunction, SuperVectorField, super_commutator
from linfty.valgebra import MCDelta, require_abelian


# ---------------------------------------------------------------------
# V-algebra axioms of a split
# ---------------------------------------------------------------------
def kernel_basis(split, poly_degree: int = 1) -> list[SuperVectorField]:
    """Monomial fields annihilated by the projection, up to a poly bound."""
    chart = split.chart
    ne, no = chart.n_even, chart.n_odd
    out = []
    for e in _exponents_up_to(ne, poly_degree):
        for size in range(no + 1):
            for odd in itertools.combinations(range(no), size):
                for target in range(ne + no):
                    mono = SuperVectorField(chart, {(e, odd, target): 1})
                    if split.project(mono).is_zero():
                        out.append(mono)
    return out


@dataclass
class VAlgebraReport:
    retraction_ok: bool = True
    abelian_ok: bool = True
    kernel_closed: bool = True
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.retraction_ok and self.abelian_ok and self.kernel_closed


def check_v_algebra(split, probe_degree_bound: int = 2, poly_degree_bound: int = 1) -> VAlgebraReport:
    """Verify P o I = id, abelianness of the summand and kernel closure.

    ``split`` has a ``chart``, a ``project`` and an ``abelian_basis(degree)``.
    Probes run over all summand basis pairs with degree in [-1,
    probe_degree_bound] and over kernel monomials up to the polynomial
    bound; the report carries the first counterexample of each kind.
    """
    report = VAlgebraReport()
    abelian = [a for d in range(-1, probe_degree_bound + 1) for a in split.abelian_basis(d)]
    bad = next((a for a in abelian if split.project(a) != a), None)
    if bad is not None:
        report.retraction_ok = False
        report.failures.append(f"P(I(a)) != a for a = {bad!r}")
    pair = next(((a, b) for a in abelian for b in abelian if not super_commutator(a, b).is_zero()), None)
    if pair is not None:
        report.abelian_ok = False
        report.failures.append(f"[[I(a), I(b)]] != 0 for a = {pair[0]!r}, b = {pair[1]!r}")
    kernel = kernel_basis(split, poly_degree_bound)
    pair = next(
        ((u, w) for u in kernel for w in kernel if not split.project(super_commutator(u, w)).is_zero()), None
    )
    if pair is not None:
        report.kernel_closed = False
        report.failures.append(f"ker(P) not closed: [[{pair[0]!r}, {pair[1]!r}]]")
    return report


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
    def of(split, v: SuperVectorField, a: SuperVectorField) -> "ExtElement":
        require_abelian(split, a)
        dv = None if v.is_zero() else v.degree()
        shifted = dv - 1 if dv is not None else None
        da = None if a.is_zero() else a.degree()
        if shifted is not None and da is not None and shifted != da:
            raise ValueError("components have incompatible degrees")
        return ExtElement(v, a, shifted if shifted is not None else da)

    def is_zero(self) -> bool:
        return self.v.is_zero() and self.a.is_zero()


def extended_bracket(split, delta: MCDelta, args: Sequence[ExtElement]) -> ExtElement:
    """Structure maps of the extended algebra, any arity, flat (m_0 = 0).

    The four defining patterns are: the unary map on pairs, the binary map
    on two shifted fields, the chain started from one shifted field on
    summand arguments, and the plain derived bracket; every other argument
    pattern vanishes.  Mixed inputs expand multilinearly with Koszul
    reordering signs.
    """
    P = split.project
    zero = SuperVectorField.zero(split.chart)
    if not args:
        return ExtElement(zero, zero, None)
    for arg in args:
        require_abelian(split, arg.a)
    if any(arg.degree is None and not arg.is_zero() for arg in args):
        raise ValueError("extended bracket needs homogeneous arguments")
    k = len(args)
    if k == 1:
        (x,) = args
        deg = x.degree + 1 if x.degree is not None else None
        return ExtElement(-super_commutator(delta.delta, x.v), P(x.v + super_commutator(delta.delta, x.a)), deg)

    degs = tuple(0 if arg.degree is None else arg.degree for arg in args)
    # pattern (0, k): plain derived bracket of the summand components
    chain = delta.delta
    for arg in args:
        chain = super_commutator(chain, arg.a)
    a_total = P(chain)
    # pattern (1, k-1): one shifted field first, with the reordering sign
    for pos, x in enumerate(args):
        if x.v.is_zero():
            continue
        others = tuple(i for i in range(k) if i != pos)
        chain = x.v
        for i in others:
            chain = super_commutator(chain, args[i].a)
        a_total = a_total + P(chain).scale(koszul_sign((pos, *others), degs))
    # pattern (2, 0): only at arity 2
    v_total = zero
    if k == 2:
        x, y = args
        if not x.v.is_zero() and not y.v.is_zero():
            v_total = super_commutator(x.v, y.v).scale(-1 if x.v.degree() % 2 else 1)
    return ExtElement(v_total, a_total, 1 + sum(degs))


# ---------------------------------------------------------------------
# bundle-valued forms and the differential
# ---------------------------------------------------------------------
def _entry(chart: CoordinateChart, idx, val, arity: int) -> tuple[tuple[int, ...], SuperFunction]:
    """A checked tensor entry: a strictly increasing index tuple of the arity and an even polynomial value."""
    idx = tuple(idx)
    if len(idx) != arity or list(idx) != sorted(set(idx)):
        raise ValueError(f"index tuple must be strictly increasing of length {arity}")
    if not isinstance(val, SuperFunction):
        val = SuperFunction.constant(chart, val)
    if val.degrees() - {0}:
        raise ValueError("values must be even polynomials")
    return idx, val


@dataclass(frozen=True)
class CEForm:
    """Element of the degree-n exterior power of the dual bundle.

    Values are stored on strictly increasing frame index tuples with
    polynomial base coefficients; evaluation on arbitrary tuples is the
    antisymmetric extension.
    """

    chart: CoordinateChart
    degree: int
    values: Mapping[tuple[int, ...], SuperFunction]

    @staticmethod
    def build(chart: CoordinateChart, degree: int, values: Mapping) -> "CEForm":
        out: dict[tuple[int, ...], SuperFunction] = {}
        for idx, val in values.items():
            add_into(out, *_entry(chart, idx, val, degree))
        return CEForm(chart, degree, out)

    def evaluate(self, indices: tuple[int, ...]) -> SuperFunction:
        if len(indices) != self.degree:
            raise ValueError("wrong number of arguments")
        order = sorted(range(len(indices)), key=indices.__getitem__)
        val = self.values.get(tuple(indices[p] for p in order))
        if val is None or len(set(indices)) != len(indices):
            return SuperFunction.zero(self.chart)
        return val.scale(koszul_sign(order, (1,) * len(indices)))

    def is_zero(self) -> bool:
        return not self.values


def ce_differential(data: AlgebroidData, form: CEForm) -> CEForm:
    """Cartan-type differential on bundle forms (frame-triple enumeration)."""
    calc = SectionCalculus.of(data, form.chart)
    n = form.degree
    out: dict[tuple[int, ...], SuperFunction] = {}
    for idx in itertools.combinations(range(data.fiber_rank), n + 1):
        total = SuperFunction.zero(form.chart)
        for pos, u in enumerate(idx):
            inner = form.evaluate(idx[:pos] + idx[pos + 1 :])
            if not inner.is_zero():
                total = total + calc.anchor_apply(u, inner).scale(-1 if pos % 2 else 1)
        for pa, pb in itertools.combinations(range(n + 1), 2):
            rest = tuple(w for p, w in enumerate(idx) if p not in (pa, pb))
            for c, coeff in calc.structure.get((idx[pa], idx[pb]), {}).items():
                val = form.evaluate((c,) + rest)
                if not val.is_zero():
                    total = total + (coeff * val).scale(-1 if (pa + pb) % 2 else 1)
        add_into(out, idx, total)
    return CEForm(form.chart, n + 1, out)


def form_to_superfunction(form: CEForm) -> SuperFunction:
    """Canonical identification of bundle forms with superfunctions.

    Carries the sign (-1)^degree, which intertwines the Cartan differential
    with the action of the structure field exactly.
    """
    chart = form.chart
    sign = -1 if form.degree % 2 else 1
    total = SuperFunction.zero(chart)
    for idx, val in form.values.items():
        total = total + SuperFunction(chart, {((0,) * chart.n_even, idx): sign}) * val
    return total


def superfunction_to_form(f: SuperFunction, degree: int) -> CEForm:
    """Inverse of the canonical identification in one degree."""
    sign = -1 if degree % 2 else 1
    values: dict[tuple[int, ...], SuperFunction] = {}
    for (even, odd), c in f.terms.items():
        if len(odd) != degree:
            raise ValueError("superfunction is not homogeneous of the requested degree")
        add_into(values, odd, SuperFunction(f.chart, {(even, ()): c * sign}))
    return CEForm.build(f.chart, degree, values)


# ---------------------------------------------------------------------
# derivations with symbols (degree-shifted multilinear operators)
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class Derivation:
    """Degree-p derivation: antisymmetric body tensor plus its symbol.

    The body maps (p+1)-tuples of frame elements to frame coefficients;
    the symbol maps p-tuples to base vector field coefficients.  Both are
    stored on strictly increasing tuples with polynomial values.
    """

    degree: int
    body: Mapping[tuple[tuple[int, ...], int], SuperFunction]
    symbol: Mapping[tuple[tuple[int, ...], int], SuperFunction]

    @staticmethod
    def build(chart: CoordinateChart, degree: int, body=None, symbol=None) -> "Derivation":
        def canon(entries, arity):
            out: dict[tuple[tuple[int, ...], int], SuperFunction] = {}
            for (idx, target), val in (entries or {}).items():
                idx, val = _entry(chart, idx, val, arity)
                add_into(out, (idx, target), val)
            return out

        return Derivation(degree, canon(body, degree + 1), canon(symbol, degree))

    def is_zero(self) -> bool:
        return not self.body and not self.symbol


def derivation_to_field(chart: CoordinateChart, d: Derivation) -> SuperVectorField:
    """Body tensor to odd-target terms, symbol (negated) to base-target terms."""
    ne = chart.n_even
    terms: dict[tuple, object] = {}
    for tensor, offset, sign in ((d.body, ne, 1), (d.symbol, 0, -1)):
        for (idx, target), val in tensor.items():
            for (even, _), c in val.terms.items():
                key = (even, idx, offset + target)
                terms[key] = terms.get(key, 0) + sign * c
    return SuperVectorField(chart, terms)


def field_to_derivation(chart: CoordinateChart, X: SuperVectorField) -> Derivation:
    """Inverse transport; raises if the field is not of derivation shape."""
    if X.is_zero():
        return Derivation(0, {}, {})
    p = X.degree()
    if p is None:
        raise ValueError("field is not homogeneous")
    ne = chart.n_even
    body: dict[tuple[tuple[int, ...], int], SuperFunction] = {}
    symbol: dict[tuple[tuple[int, ...], int], SuperFunction] = {}
    for (even, odd, target), c in X.terms.items():
        if chart.target_is_odd(target):
            add_into(body, (odd, target - ne), SuperFunction(chart, {(even, ()): c}))
        else:
            add_into(symbol, (odd, target), SuperFunction(chart, {(even, ()): -c}))
    return Derivation(p, body, symbol)


def derivation_bracket(chart: CoordinateChart, d1: Derivation, d2: Derivation) -> Derivation:
    """Bracket transported through the field isomorphism (true by construction)."""
    bracket = super_commutator(derivation_to_field(chart, d1), derivation_to_field(chart, d2))
    return field_to_derivation(chart, bracket)


# ---------------------------------------------------------------------
# the classical route on SuperFunction arithmetic
# ---------------------------------------------------------------------
def is_canonical_even(f: SuperFunction) -> bool:
    """f is even and its term map is canonical: full-length exponent tuples, nonzero int or non-integral Fractions."""
    n_even = f.chart.n_even
    for (even, odd), c in f.terms.items():
        if odd or type(even) is not tuple or len(even) != n_even or min(even, default=0) < 0:
            return False
        if not (type(c) is int and c) and not (type(c) is Fraction and c.denominator > 1):
            return False
    return True


def generic_anchor_apply(calc: SectionCalculus, a: int, f: SuperFunction) -> SuperFunction:
    """rho_a(f) = sum_t b^t_a d f / d x_t, one SuperFunction per partial sum."""
    out = SuperFunction.zero(calc.chart)
    for t, b in calc.anchor.get(a, {}).items():
        out = out + b * f.partial(t)
    return out


def _times(f: SuperFunction, g: SuperFunction) -> SuperFunction:
    """f * g, as a scaling of f when g is a constant."""
    if len(g.terms) == 1:
        ((even, odd), c), = g.terms.items()
        if not odd and not any(even):
            return f.scale(c)
    return f * g


def generic_section_bracket(calc: SectionCalculus, u: dict, v: dict) -> dict:
    """[u, v]^c = u^a v^b C^c_ab + u^a rho_a(v^c) - v^b rho_b(u^c), added up with ``add_into``."""
    out: dict = {}
    for a, ua in u.items():
        for b, vb in v.items():
            cab = calc.structure.get((a, b))
            if cab is None:
                continue
            uv = ua * vb
            for c, cf in cab.items():
                add_into(out, c, _times(uv, cf))
    for x, y, sign in ((u, v, 1), (v, u, -1)):
        for a, xa in x.items():
            if a in calc.anchor:
                for c, yc in y.items():
                    add_into(out, c, (xa * generic_anchor_apply(calc, a, yc)).scale(sign))
    return out


def generic_graph_closure(setup, d) -> tuple[dict, dict]:
    """(anchor defects, closure defects) of the graph of a candidate, restricted along y_k -> sigma_k."""
    chart = setup.chart
    mapping = {
        k: SuperFunction(chart, {(e + (0,) * setup.normal_rank, ()): c for e, c in d.sigma.get(pos_k, {}).items()})
        for pos_k, k in enumerate(setup.normal_even_positions)
    }
    zero = SuperFunction.zero(chart)
    sections = {i: {i: SuperFunction.constant(chart, 1)} for i in setup.sub_indices}
    for (i, j), poly in d.phi.items():
        sections[i][j] = SuperFunction(chart, {(e + (0,) * setup.normal_rank, ()): c for e, c in poly.items()})
    anchor_defects, closure_defects = {}, {}
    for i in setup.sub_indices:
        for pos_k, k in enumerate(setup.normal_even_positions):
            defining = SuperFunction.even_var(chart, k) - mapping[k]
            total = zero
            for a, fa in sections[i].items():
                total = total + fa * generic_anchor_apply(setup.calculus, a, defining)
            total = total.substitute(mapping)
            if not total.is_zero():
                anchor_defects[(i, pos_k)] = total
    for i1, i2 in itertools.combinations(setup.sub_indices, 2):
        bracket = generic_section_bracket(setup.calculus, sections[i1], sections[i2])
        g = {c: f.substitute(mapping) for c, f in bracket.items()}
        for j in setup.comp_indices:
            defect = g.get(j, zero)
            for i in setup.sub_indices:
                if i in g and j in sections[i]:
                    defect = defect - sections[i][j] * g[i]
            if not defect.is_zero():
                closure_defects[(i1, i2, j)] = defect
    return anchor_defects, closure_defects
