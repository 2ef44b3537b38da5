"""Polynomial super vector fields on a split superdomain.

The chart carries even coordinates (base and normal, degree 0) and odd
coordinates (degree 1).  Superfunctions are finite sums of rational
multiples of (even monomial) * (sorted odd monomial); the Koszul sign of
sorting is absorbed into the coefficient, so equality is a term-map
comparison.  A super vector field is a finite sum of
(superfunction term) * d/d(coordinate) pieces.

A stored coefficient is a nonzero ``int`` when it is integral and a
``Fraction`` with denominator > 1 otherwise, never a float.  Nearly every
coefficient is integral, and int arithmetic skips the gcd normalisation
and the new object each ``Fraction`` operation pays for; ``Fraction(n) ==
n`` with equal hashes, so term maps compare and render the same either way.

All values are immutable after construction and every operation is pure.

The graded commutator is the kernel under every derived bracket, series and
cohomology differential.  It reads each operand as *rows*, one per term:
(even, odd, target, coefficient, degree parity, target - n_even), built the
first time a field is an operand and kept in the field's ``_rows`` slot, so
a reused operand (Q, a chain prefix, a series argument) is read once.  One
pair body, which calls no function (the partial derivative, the Koszul sign
of merging the odd parts, the exponent sum and the accumulation are written
out inline), expands f*(d_a g)*d_b; it runs over (X's rows, Y's rows) and
then, with the operands' roles swapped and the sign of the second term,
over (Y's rows, X's rows).  ``_monomial_partial`` and ``_monomial_product``
remain because ``SuperFunction.partial`` and ``__mul__`` use them.

The package's records derive from ``Record``, or from ``Frozen`` when hashable
and immutable: value ``==``, ``hash`` and ``repr`` over a class's ``_fields``.
They are not ``@dataclass``es, which ``exec``-compile up to six methods per class
at import (about 18 ms of each cold ``import linfty``, which every CLI run
pays) and whose module imports ``inspect`` (11-13 ms more).
"""
from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping


class ChartMismatchError(ValueError):
    """Operands live on different coordinate charts."""


class PreconditionError(ValueError):
    """The input fails a documented precondition of a decision: the CLI's exit 2, not a program fault."""


class Record:
    """A record: value ``==`` and ``repr`` over the attributes named in ``_fields``.

    A subclass declares ``__slots__``, ``_fields`` and an explicit ``__init__``.
    Records are mutable and unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record that hashes by value and refuses assignment and deletion: ``__init__`` uses ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class CoordinateChart(Frozen):
    """The coordinates of a chart, given by their dimensions and named from them.

    The even coordinates are ``base_dim`` base ones ``x1..`` then
    ``normal_rank`` normal ones ``y1..``; the odd ones are the frame
    ``xi1..``, of which the first ``sub_rank`` span the subbundle of a split
    (``None`` on a plain chart).  The dimensions keep charts of different
    splits with the same names (two sub-frame sizes, a plain chart and a
    split one) unequal, so each refuses the other's fields.  Every term map
    compares and hashes its chart, so equality tries identity first and the
    hash is computed once.
    """

    __slots__ = ("base_dim", "normal_rank", "fiber_rank", "sub_rank", "even_names", "odd_names", "_hash")
    _fields = __slots__[:4]

    def __init__(self, base_dim: int, normal_rank: int, fiber_rank: int, sub_rank: int | None = None):
        if sub_rank is not None and not 0 <= sub_rank <= fiber_rank:
            raise ValueError("sub rank out of range")
        object.__setattr__(self, "base_dim", base_dim)
        object.__setattr__(self, "normal_rank", normal_rank)
        object.__setattr__(self, "fiber_rank", fiber_rank)
        object.__setattr__(self, "sub_rank", sub_rank)
        evens = [f"x{t + 1}" for t in range(base_dim)] + [f"y{k + 1}" for k in range(normal_rank)]
        object.__setattr__(self, "even_names", tuple(evens))
        object.__setattr__(self, "odd_names", tuple([f"xi{i + 1}" for i in range(fiber_rank)]))
        object.__setattr__(self, "_hash", hash(self._values()))

    def __eq__(self, other):
        return self is other or Record.__eq__(self, other)

    def __hash__(self):
        return self._hash

    @property
    def n_even(self) -> int:
        return len(self.even_names)

    @property
    def n_odd(self) -> int:
        return len(self.odd_names)

    def target_name(self, target: int) -> str:
        if target < self.n_even:
            return self.even_names[target]
        return self.odd_names[target - self.n_even]

    def target_is_odd(self, target: int) -> bool:
        return target >= self.n_even


Coefficient = int | Fraction


def coefficient(c) -> Coefficient:
    """The canonical form of a rational: an ``int`` when integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Koszul sign of merging two disjoint sorted odd index tuples."""
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1


def _monomial_product(e1, o1, e2, o2):
    """(sign, even, odd) of the product of two monomials, or None if it vanishes.

    Repeated odd factors square to zero; otherwise the sign is the Koszul
    sign of sorting the odd union.
    """
    if not o2:
        sign, odd = 1, o1
    elif not o1:
        sign, odd = 1, o2
    else:
        if not set(o1).isdisjoint(o2):
            return None
        sign, odd = _merge_sign(o1, o2), tuple(sorted(o1 + o2))
    return sign, tuple(map(add, e1, e2)), odd


def _monomial_partial(even, odd, target: int, n_even: int):
    """(factor, even, odd) of the left derivative of a monomial, or None if it vanishes.

    Along an odd coordinate the factor is (-1)^(its position) and the index
    is removed; along an even one it is the exponent, which drops by one.
    """
    if target >= n_even:
        j = target - n_even
        if j not in odd:
            return None
        pos = odd.index(j)
        return (-1 if pos % 2 else 1), even, odd[:pos] + odd[pos + 1 :]
    e = even[target]
    if e == 0:
        return None
    return e, even[:target] + (e - 1,) + even[target + 1 :], odd


def _merge_into(out: dict, right: dict) -> dict:
    """Add a canonical term map into ``out``; a coefficient that cancels is dropped."""
    for k, c in right.items():
        old = out.get(k)
        if old is None:
            out[k] = c
        else:
            c += old
            if c:
                out[k] = coefficient(c)
            else:
                del out[k]
    return out


def _scaled(terms: dict, c: Coefficient) -> dict:
    """``c`` times a canonical term map, for a canonical nonzero ``c``."""
    if c == 1:
        return dict(terms)
    if c == -1:
        return {k: -v for k, v in terms.items()}
    return {k: coefficient(v * c) for k, v in terms.items()}


TermKey = tuple[tuple[int, ...], tuple[int, ...]]
FieldKey = tuple[tuple[int, ...], tuple[int, ...], int]


class _Terms(Frozen):
    """A chart and a canonical term map: what superfunctions and fields share.

    A key is (even exponents, sorted odd subset), followed for a field by
    the derivative target; ``_targets`` says how many targets a key carries.
    Equality is exact in type, so a function never equals a field.  A field
    that has been a commutator operand also holds its term rows in ``_rows``
    (unset until then; see ``super_commutator``).
    """

    __slots__ = ("chart", "terms", "_rows")
    _targets = 0

    def __init__(self, chart: CoordinateChart, terms: Mapping | None = None):
        canonical: dict = {}
        for key, c in (terms or {}).items():
            if len(key) != 2 + self._targets:
                raise ValueError(f"a {type(self).__name__} term key has {2 + self._targets} parts")
            c = coefficient(c)
            if c == 0:
                continue
            even = tuple(key[0])
            odd = tuple(key[1])
            if len(even) != chart.n_even:
                raise ValueError("even exponent tuple has wrong length")
            if any(e < 0 for e in even):
                raise ValueError("negative exponent")
            if list(odd) != sorted(set(odd)):
                raise ValueError("odd subset must be strictly increasing")
            if odd and (odd[0] < 0 or odd[-1] >= chart.n_odd):
                raise ValueError("odd index out of range")
            if not self._targets:
                key = (even, odd)
            elif 0 <= key[2] < chart.n_even + chart.n_odd:
                key = (even, odd, key[2])
            else:
                raise ValueError("derivative target out of range")
            c = coefficient(canonical.get(key, 0) + c)
            if c:
                canonical[key] = c
            else:
                canonical.pop(key, None)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def _of(cls, chart: CoordinateChart, terms: dict):
        """Wrap a term map that is canonical by construction, without the checks.

        Only the kernel calls this, on maps it built from validated operands:
        tuple keys, sorted odd indices, nonzero canonical coefficients (see
        the module docstring).
        """
        v = object.__new__(cls)
        object.__setattr__(v, "chart", chart)
        object.__setattr__(v, "terms", terms)
        return v

    @classmethod
    def zero(cls, chart: CoordinateChart):
        return cls._of(chart, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def _check(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(f"{type(self).__name__} operands on different charts")

    def __add__(self, other):
        self._check(other)
        return self._of(self.chart, _merge_into(dict(self.terms), other.terms))

    def __neg__(self):
        return self._of(self.chart, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = coefficient(c)
        if not c:
            return self.zero(self.chart)
        return self._of(self.chart, _scaled(self.terms, c))


class SuperFunction(_Terms):
    """Polynomial superfunction: finite map (even exponents, odd subset) -> Q."""

    __slots__ = ()
    __init__ = _Terms.__init__  # its own entry, so a tracer can wrap function construction alone

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(chart: CoordinateChart, c) -> "SuperFunction":
        return SuperFunction(chart, {((0,) * chart.n_even, ()): c})

    @staticmethod
    def even_var(chart: CoordinateChart, i: int) -> "SuperFunction":
        exps = [0] * chart.n_even
        exps[i] = 1
        return SuperFunction._of(chart, {(tuple(exps), ()): 1})

    @staticmethod
    def odd_var(chart: CoordinateChart, j: int) -> "SuperFunction":
        return SuperFunction(chart, {((0,) * chart.n_even, (j,)): 1})

    # -- structure ----------------------------------------------------
    def degrees(self) -> set[int]:
        return {len(odd) for (_, odd) in self.terms}

    # -- algebra ------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[TermKey, Coefficient] = {}
        for (e1, o1), c1 in self.terms.items():
            for (e2, o2), c2 in other.terms.items():
                product = _monomial_product(e1, o1, e2, o2)
                if product is None:
                    continue
                sign, even, odd = product
                key = (even, odd)
                c = c1 * c2 if sign == 1 else -(c1 * c2)
                old = out.get(key)
                out[key] = c if old is None else old + c
        return SuperFunction._of(
            self.chart, {k: coefficient(c) for k, c in out.items() if c}
        )

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------
    def partial(self, target: int) -> "SuperFunction":
        """Left partial derivative along the coordinate with the given index.

        Distinct monomials have distinct nonzero derivatives, so no terms merge.
        """
        chart = self.chart
        out: dict[TermKey, Coefficient] = {}
        for (even, odd), c in self.terms.items():
            d = _monomial_partial(even, odd, target, chart.n_even)
            if d is not None:
                factor, even, odd = d
                c = factor * c
                out[(even, odd)] = coefficient(c)
        return SuperFunction._of(chart, out)

    def substitute(self, mapping: Mapping[int, "SuperFunction"]) -> "SuperFunction":
        """Replace coordinates by superfunctions (key = target index).

        Even coordinates must be replaced by even values, odd ones by values
        of pure degree 1 (or zero); unlisted coordinates stay themselves.
        """
        chart = self.chart
        for t, val in mapping.items():
            degs = val.degrees()
            if chart.target_is_odd(t):
                if degs - {1}:
                    raise ValueError("odd coordinate must be replaced by a degree-1 value")
            else:
                if any(d % 2 for d in degs):
                    raise ValueError("even coordinate must be replaced by an even value")
        n_even = chart.n_even
        powers: dict[int, list[SuperFunction]] = {}  # mapped even index -> [value^1, value^2, ...]
        odd_values: dict[int, SuperFunction] = {}  # odd index -> its value, built on first use

        def power(i: int, e: int) -> SuperFunction:
            known = powers.setdefault(i, [mapping[i]])
            while len(known) < e:
                known.append(known[-1] * known[0])
            return known[e - 1]

        def odd_value(j: int) -> SuperFunction:
            if j not in odd_values:
                t = n_even + j
                odd_values[j] = mapping[t] if t in mapping else SuperFunction.odd_var(chart, j)
            return odd_values[j]

        total: dict[TermKey, Coefficient] = {}
        for (even, odd), c in self.terms.items():
            # unmapped even coordinates stay in the starting monomial
            start = tuple(0 if i in mapping else e for i, e in enumerate(even))
            acc = SuperFunction._of(chart, {(start, ()): c})
            for i, e in enumerate(even):
                if e and i in mapping:
                    acc = acc * power(i, e)
            for j in odd:
                acc = acc * odd_value(j)
            _merge_into(total, acc.terms)
        return SuperFunction._of(chart, total)

    def __repr__(self):
        return f"SuperFunction({render_function(self)})"


class SuperVectorField(_Terms):
    """Finite sum of (coefficient term) * d/d(coordinate), canonical form.

    The degree of a term is (number of odd factors in its coefficient) minus
    one if the derivative target is odd; a field is homogeneous when all its
    terms share one degree.
    """

    __slots__ = ()
    _targets = 1

    # -- structure ----------------------------------------------------
    def _term_degree(self, key: FieldKey) -> int:
        _, odd, target = key
        return len(odd) - (1 if self.chart.target_is_odd(target) else 0)

    def degrees(self) -> set[int]:
        return {self._term_degree(k) for k in self.terms}

    def degree(self) -> int | None:
        """The common degree of all terms, or None if mixed (0 is vacuous)."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            return None
        return ds.pop()

    def component(self, target: int) -> SuperFunction:
        """The coefficient superfunction of d/d(coordinate #target)."""
        return SuperFunction._of(
            self.chart,
            {(even, odd): c for (even, odd, t), c in self.terms.items() if t == target},
        )

    # -- algebra ------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"SuperVectorField({render_field(self)})"


def apply(X: SuperVectorField, f: SuperFunction) -> SuperFunction:
    """Graded derivation action of a field on a superfunction."""
    if X.chart is not f.chart and X.chart != f.chart:
        raise ChartMismatchError("field and function on different charts")
    out = SuperFunction.zero(X.chart)
    for (even, odd, target), c in X.terms.items():
        df = f.partial(target)
        if df.is_zero():
            continue
        mono = SuperFunction._of(X.chart, {(even, odd): c})
        out = out + mono * df
    return out


def _term_rows(V: SuperVectorField, n_even: int) -> list:
    """V's rows (even, odd, target, c, degree parity, target - n_even), built once and kept on V."""
    rows = [(even, odd, t, c, (len(odd) - (t >= n_even)) & 1, t - n_even) for (even, odd, t), c in V.terms.items()]
    object.__setattr__(V, "_rows", rows)
    return rows


def super_commutator(X: SuperVectorField, Y: SuperVectorField) -> SuperVectorField:
    """Graded commutator of derivations; second-order parts cancel exactly.

    For single terms f*d_a and g*d_b the bracket is
    f*(d_a g)*d_b - (-1)^(|X||Y|) g*(d_b f)*d_a; general fields expand
    bilinearly over their (automatically homogeneous) terms.  The expansion
    runs on each operand's term rows (``_rows``: even exponents, odd indices,
    target, coefficient, degree parity, target - n_even), which a field builds
    the first time it is an operand and keeps, so a reused operand (Q, a chain
    prefix, a series argument) never re-reads its term map.  One pair body
    adds f*(d_a g)*d_b to one output dict: first over X's rows outside and
    Y's inside, then over Y's rows outside and X's inside, where it adds
    g*(d_b f)*d_a times -(-1)^(|X||Y|).  So the d_b pieces are all added
    before the d_a pieces, and equal results also list their terms in equal
    order.
    """
    if X.chart is not Y.chart and X.chart != Y.chart:
        raise ChartMismatchError("fields on different charts")
    n_even = len(X.chart.even_names)
    xs = getattr(X, "_rows", None)
    if xs is None:
        xs = _term_rows(X, n_even)
    out: dict[FieldKey, Coefficient] = {}
    if not xs:  # a zero X, such as Q of an abelian algebra: Y's rows are not needed
        return SuperVectorField._of(X.chart, out)
    ys = getattr(Y, "_rows", None)
    if ys is None:
        ys = _term_rows(Y, n_even)
    # the second pass negates unless both terms are odd: flip > p1 & p2 exactly then
    for rows, cols, flip in ((xs, ys, 0), (ys, xs, 1)):
        for e1, o1, a, c1, p1, ja in rows:
            for e2, o2, b, c2, p2, _ in cols:
                # k is the derivative's factor, then times the merge sign
                if ja >= 0:
                    if ja not in o2:
                        continue
                    pos = o2.index(ja)
                    k = -1 if pos & 1 else 1
                    go = o2[:pos] + o2[pos + 1 :]
                else:
                    k = e2[a]
                    if not k:
                        continue
                    go = o2
                if o1 and go:
                    n = 0
                    for i in o1:
                        if i in go:
                            k = 0
                            break
                        for j in go:
                            if j > i:
                                break
                            n += 1
                    if not k:
                        continue
                    odd = tuple(sorted(o1 + go))
                    if n & 1:
                        k = -k
                else:
                    odd = o1 or go
                if ja >= 0:  # e1 is () on a chart without even coordinates
                    even = tuple(map(add, e1, e2)) if e1 else e1
                else:
                    s = list(map(add, e1, e2))
                    s[a] -= 1
                    even = tuple(s)
                key = (even, odd, b)
                c = c1 * c2 * (-k if flip > p1 & p2 else k)
                old = out.get(key)
                if old is not None:
                    c += old
                if not c:
                    del out[key]
                else:
                    out[key] = c.numerator if type(c) is not int and c.denominator == 1 else c
    return SuperVectorField._of(X.chart, out)


def is_homological(X: SuperVectorField) -> bool:
    """True iff X is homogeneous of odd degree and [[X, X]] vanishes."""
    if X.is_zero():
        return True
    d = X.degree()
    if d is None or d % 2 == 0:
        return False
    return super_commutator(X, X).is_zero()


# -- rendering --------------------------------------------------------
def _render_monomial(chart: CoordinateChart, even: tuple[int, ...], odd: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(even):
        if e == 1:
            parts.append(chart.even_names[i])
        elif e > 1:
            parts.append(f"{chart.even_names[i]}^{e}")
    parts.extend(chart.odd_names[j] for j in odd)
    return " ".join(parts)


def render_function(f: SuperFunction) -> str:
    if f.is_zero():
        return "0"
    bits = []
    for (even, odd), c in sorted(f.terms.items()):
        mono = _render_monomial(f.chart, even, odd)
        bits.append(f"{c}" + (f" {mono}" if mono else ""))
    return " + ".join(bits)


def render_field(X: SuperVectorField) -> str:
    if X.is_zero():
        return "0"
    bits = []
    for (even, odd, target), c in sorted(X.terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])):
        mono = _render_monomial(X.chart, even, odd)
        head = f"{c}" + (f" {mono}" if mono else "")
        bits.append(f"{head} d/d{X.chart.target_name(target)}")
    return " + ".join(bits)
