"""Exact truncated multivariate power series and series-valued matrices.

Every series in this package lives over three variable groups:

* deformation coordinates ``t0 .. t{r}``,
* Novikov variables ``Q0 .. Q{s-1}`` recording curve degrees,
* a single auxiliary variable ``q`` for descendent expansions.

Truncation is tracked per group by total degree within the group, so a
series "knows" which coefficients it certifies.  Coefficients are integer
numerators over one shared denominator in lowest terms, read back as
``fractions.Fraction``; an absent exponent is an exact zero.  All values
are exact rationals, never floats, and exponents are never negative.

Series objects are immutable: every operation returns a fresh object.
Arithmetic requires both operands to carry the same window, one interned
``SeriesSpec``; a lower window is derived with ``SeriesSpec.truncated``
and a series is put in a window with ``within``, never implicitly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping

from .errors import IncompatibleSeries, SchemaError, SingularMetric
from .record import Record

Exponent = tuple[int, ...]

RationalLike = Fraction | int


def format_rational(x: Fraction) -> str:
    """Serialize a rational as "p/q" with q > 0, lowest terms."""
    return f"{x.numerator}/{x.denominator}"


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or plain integer strings in ASCII digits; reject anything else."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"rational values must look like p/q, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise SchemaError(f"zero denominator in {text!r}") from exc


class SeriesSpec(Record):
    """Variable layout and per-group truncation orders.

    Variables are canonically named ``t0..t{num_t-1}``, ``Q0..Q{num_novikov-1}``
    and ``q``; exponent tuples list them in that order, ``q`` last.  An order
    may drop below zero after repeated differentiation, in which case no
    coefficient in that group is certified and the series stores no terms.
    Specs are interned, so equal windows are one object.
    """

    num_t: int
    num_novikov: int
    t_order: int
    novikov_order: int
    q_order: int

    _interned = {}
    __init__ = object.__init__  # __new__ builds, checks and interns

    def __new__(cls, num_t, num_novikov, t_order, novikov_order, q_order) -> "SeriesSpec":
        fields = num_t, num_novikov, t_order, novikov_order, q_order
        if not {int}.issuperset(map(type, fields)):
            raise TypeError("spec fields must be ints")
        spec = cls._interned.get(fields)
        if spec is None:
            if num_t < 0 or num_novikov < 0:
                raise ValueError("variable counts must be non-negative")
            spec = cls._interned[fields] = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(spec, name, value)
        return spec

    @property
    def vars(self) -> tuple[str, ...]:
        return (*[f"t{i}" for i in range(self.num_t)],
                *[f"Q{i}" for i in range(self.num_novikov)], "q")

    @property
    def nvars(self) -> int:
        return self.num_t + self.num_novikov + 1

    def degrees(self, exp: Exponent) -> tuple[int, int, int]:
        nt = self.num_t
        return sum(exp[:nt]), sum(exp[nt:-1]), exp[-1]

    def admits(self, exp: Exponent) -> bool:
        nt = self.num_t
        return (exp[-1] <= self.q_order and sum(exp[:nt]) <= self.t_order
                and sum(exp[nt:-1]) <= self.novikov_order)

    def truncated(self, t_order: int | None = None, novikov_order: int | None = None,
                  q_order: int | None = None) -> "SeriesSpec":
        """The spec with the given orders lowered, the others kept."""
        t = self.t_order if t_order is None else t_order
        n = self.novikov_order if novikov_order is None else novikov_order
        q = self.q_order if q_order is None else q_order
        if t > self.t_order or n > self.novikov_order or q > self.q_order:
            raise IncompatibleSeries("truncation can only lower orders")
        return SeriesSpec(self.num_t, self.num_novikov, t, n, q)

    def budget(self) -> int:
        """Largest total degree any stored monomial can have."""
        return max(self.t_order, 0) + max(self.novikov_order, 0) + max(self.q_order, 0)


def _exact(value: RationalLike) -> RationalLike:
    """The value itself, once it is known to be an int or Fraction (not a bool)."""
    if type(value) in (int, Fraction):
        return value
    raise TypeError(f"expected exact rationals (int or Fraction), got {type(value).__name__}")


class TruncatedSeries(Record):
    """A sparse exact power series truncated per variable group.

    Coefficients are stored as nonzero integer numerators ``nums`` over one
    shared denominator ``den``, in lowest terms: ``den > 0``,
    ``gcd(den, *nums.values()) == 1``, and the zero series has ``den == 1``.
    The form is canonical, so equality compares ``(spec, den, nums)``.
    """

    spec: SeriesSpec
    den: int
    nums: Mapping[Exponent, int]

    __init__ = object.__init__  # __new__ builds and fills the instance

    def __new__(cls, spec: SeriesSpec,
                coeffs: Mapping[Exponent, RationalLike]) -> "TruncatedSeries":
        nvars, admits = spec.nvars, spec.admits
        groups: dict[int, dict[Exponent, int]] = {}
        for exp, value in coeffs.items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length for {spec.vars}")
            if min(exp) < 0:
                raise ValueError(f"negative exponent in {exp}")
            if admits(exp) and _exact(value):
                groups.setdefault(value.denominator, {})[exp] = value.numerator
        return cls.over_lcm(spec, groups)

    @classmethod
    def over_lcm(cls, spec: SeriesSpec,
                 groups: dict[int, Mapping[Exponent, int]]) -> "TruncatedSeries":
        """The series whose numerators are kept per denominator: each group
        {exp: num} stands for num / den at the key den.  Every group is
        rescaled to the lcm of the keys once, then reduced by
        from_numerators, which trusts the numerators and exponents given.
        Groups are popped as they are merged, so no group outlives its merge
        and the caller's dict is left empty."""
        den = lcm(*groups)
        nums: dict[Exponent, int] = {}
        while groups:
            group_den, terms = groups.popitem()
            scale = den // group_den
            nums.update((exp, num * scale) for exp, num in terms.items())
        return cls.from_numerators(spec, nums, den)

    @classmethod
    def from_numerators(cls, spec: SeriesSpec, nums: dict[Exponent, int],
                        den: int) -> "TruncatedSeries":
        """Reduce numerators over den to lowest terms and wrap them.  Only the
        denominator is checked: the caller vouches for nonzero int numerators
        at in-window exponents."""
        if type(den) is not int or den <= 0:
            raise ValueError("the denominator must be a positive int")
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {exp: num // g for exp, num in nums.items()}
            den //= g
        series = object.__new__(cls)
        object.__setattr__(series, "spec", spec)
        object.__setattr__(series, "den", den)
        object.__setattr__(series, "nums", nums)
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec: SeriesSpec) -> "TruncatedSeries":
        return cls.from_numerators(spec, {}, 1)

    @classmethod
    def constant(cls, spec: SeriesSpec, value: RationalLike) -> "TruncatedSeries":
        return cls(spec, {(0,) * spec.nvars: value})

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict[Exponent, Fraction]:
        """Every stored coefficient as a reduced Fraction, in a fresh dict."""
        den = self.den
        return {exp: Fraction(num, den) for exp, num in self.nums.items()}

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.spec.nvars, 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    # -- arithmetic --------------------------------------------------------

    def _require_same_spec(self, other: "TruncatedSeries") -> None:
        if self.spec is not other.spec:
            raise IncompatibleSeries(f"{self.spec} vs {other.spec}")

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.__add__(other, -1)

    # self + sign * other in one merge: a difference never copies other.
    def __add__(self, other: "TruncatedSeries", sign: int = 1) -> "TruncatedSeries":
        self._require_same_spec(other)
        if not other.nums:
            return self
        if not self.nums:
            return other if sign == 1 else -other
        den = lcm(self.den, other.den)
        scale, other_scale = den // self.den, sign * (den // other.den)
        out = {exp: num * scale for exp, num in self.nums.items()}
        get = out.get
        for exp, num in other.nums.items():
            total = get(exp, 0) + num * other_scale
            if total:
                out[exp] = total
            else:
                del out[exp]
        return TruncatedSeries.from_numerators(self.spec, out, den)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries.from_numerators(
            self.spec, {exp: -num for exp, num in self.nums.items()}, self.den)

    def __mul__(self, other: "TruncatedSeries | RationalLike") -> "TruncatedSeries":
        """Product truncated to the common window.

        A one-term factor at the zero exponent scales the other operand.
        Otherwise the smaller operand's terms are grouped by degree triple.
        Each term of the larger operand skips the groups beyond its t,
        Novikov or q room, so no out-of-window product is ever formed.
        Exponents are packed into one int per term, a field of
        bit_length(budget) bits per variable; in-window sums never carry
        between fields, so adding the ints adds the exponents.  Integer
        products accumulate over the product of the two denominators.
        """
        if isinstance(other, (Fraction, int)):
            return self.scaled(other)
        self._require_same_spec(other)
        spec = self.spec
        a, b = (self, other) if len(self.nums) <= len(other.nums) else (other, self)
        if not a.nums:
            return a
        if len(a.nums) == 1 and a.constant_term:
            return b.scaled(a.constant_term)
        width = max(spec.budget(), 1).bit_length()
        shifts = [width * i for i in range(spec.nvars)]
        weights = [1 << s for s in shifts]
        mask = (1 << width) - 1
        groups = {}
        for exp, num in a.nums.items():
            groups.setdefault(spec.degrees(exp), []).append(
                (sum(map(mul, exp, weights)), num))
        t_order, n_order, q_order = spec.t_order, spec.novikov_order, spec.q_order
        out = {}
        get = out.get
        for eb, cb in b.nums.items():
            tb, nb, qb = spec.degrees(eb)
            t_room, n_room, q_room = t_order - tb, n_order - nb, q_order - qb
            pb = sum(map(mul, eb, weights))
            for (td, nd, qd), terms in groups.items():
                if td > t_room or nd > n_room or qd > q_room:
                    continue
                for pa, ca in terms:
                    key = pa + pb
                    out[key] = get(key, 0) + ca * cb
        nums = {tuple([key >> s & mask for s in shifts]): num
                for key, num in out.items() if num}
        return TruncatedSeries.from_numerators(spec, nums, a.den * b.den)

    def __rmul__(self, other: RationalLike) -> "TruncatedSeries":
        return self.scaled(other)

    def scaled(self, value: RationalLike) -> "TruncatedSeries":
        if not _exact(value):
            return TruncatedSeries.zero(self.spec)
        if value == 1:
            return self
        num = value.numerator
        return TruncatedSeries.from_numerators(
            self.spec, {exp: num * v for exp, v in self.nums.items()},
            value.denominator * self.den)

    def derivative(self, k: int) -> "TruncatedSeries":
        """Formal partial derivative in t_k, for k in 0..num_t - 1.  The t
        order drops by one: differentiating discards exactly one layer of
        certified coefficients."""
        if not 0 <= k < self.spec.num_t:
            raise IncompatibleSeries("no t variable at index %r" % (k,))
        spec = self.spec.truncated(t_order=self.spec.t_order - 1)
        # Lowering one exponent by one is injective and keeps the group
        # degree within the lowered order, so no term collides or leaves.
        out: dict[Exponent, int] = {}
        for exp, num in self.nums.items():
            e = exp[k]
            if e:
                out[exp[:k] + (e - 1,) + exp[k + 1 :]] = e * num
        return TruncatedSeries.from_numerators(spec, out, self.den)

    def within(self, spec: SeriesSpec) -> "TruncatedSeries":
        """This series in spec's window, on the same variables: the terms
        spec does not admit are dropped.  A wider window certifies nothing
        new; it lifts a series known whole, e.g. a q-free one into a q window."""
        if spec is self.spec:
            return self
        if (spec.num_t, spec.num_novikov) != (self.spec.num_t, self.spec.num_novikov):
            raise IncompatibleSeries("windows differ in their variables")
        admits = spec.admits
        return TruncatedSeries.from_numerators(
            spec, {exp: num for exp, num in self.nums.items() if admits(exp)}, self.den)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = [
            {"exp": list(exp), "value": format_rational(value)}
            for exp, value in sorted(self.coeffs.items())
        ]
        names, nt = self.spec.vars, self.spec.num_t
        return {
            "vars": {"t": list(names[:nt]), "Q": list(names[nt:-1]), "q": ["q"]},
            "trunc": {
                "t": self.spec.t_order,
                "Q": self.spec.novikov_order,
                "q": self.spec.q_order,
            },
            "terms": terms,
        }


# -- exact linear algebra over the rationals -------------------------------


def try_rational_inverse(rows: Iterable[Iterable[RationalLike]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse of a rational matrix; None when singular."""
    a = [[Fraction(_exact(x)) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class SeriesMatrix(Record):
    """A square matrix whose entries share one variable layout and truncation."""

    entries: tuple[tuple[TruncatedSeries, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        spec = rows[0][0].spec
        for row in rows:
            for entry in row:
                if entry.spec is not spec:
                    raise IncompatibleSeries("matrix entries disagree on spec")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def spec(self) -> SeriesSpec:
        return self.entries[0][0].spec

    @classmethod
    def identity(cls, spec: SeriesSpec, dim: int) -> "SeriesMatrix":
        return cls(tuple(
            tuple(TruncatedSeries.constant(spec, int(i == j)) for j in range(dim))
            for i in range(dim)
        ))

    def __add__(self, other: "SeriesMatrix", sign: int = 1) -> "SeriesMatrix":
        self._check(other)
        return SeriesMatrix(tuple(
            tuple(a.__add__(b, sign) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self.__add__(other, -1)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check(other)
        zero, columns = TruncatedSeries.zero(self.spec), tuple(zip(*other.entries))
        return SeriesMatrix(tuple(
            tuple(sum((a * b for a, b in zip(row, col)), zero) for col in columns)
            for row in self.entries
        ))

    def _check(self, other: "SeriesMatrix") -> None:
        if self.dimension != other.dimension:
            raise IncompatibleSeries("matrix dimensions differ")
        if self.spec is not other.spec:
            raise IncompatibleSeries("matrix specs differ")

    def scaled(self, value: RationalLike) -> "SeriesMatrix":
        return SeriesMatrix(tuple(
            tuple(entry * value for entry in row) for row in self.entries
        ))

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix(tuple(zip(*self.entries)))

    def derivative(self, k: int) -> "SeriesMatrix":
        return SeriesMatrix(tuple(
            tuple(entry.derivative(k) for entry in row) for row in self.entries
        ))

    def within(self, spec: SeriesSpec) -> "SeriesMatrix":
        """Every entry in spec's window (TruncatedSeries.within)."""
        return self if spec is self.spec else SeriesMatrix(tuple(
            tuple(entry.within(spec) for entry in row) for row in self.entries))

    def constant_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(entry.constant_term for entry in row) for row in self.entries)


def matrix_inverse_geometric(mat: SeriesMatrix) -> SeriesMatrix:
    """Invert G by Newton's iteration X <- X + X E, E = I - G X, from X = g^-1,
    g the constant term; each round squares the error: I - G X' = E^2.

    Round i runs with every group order capped at 2^i - 1.  X is put in the
    new window as is, since its terms all lie there; the terms it lacks have
    total degree >= 2^(i-1), where E starts, so E stays there and the round
    doubles it.  The stop test is the certificate: on the full window, once
    E has no term of total degree <= budget/2, E^2 has none in the window,
    so G X' = I exactly and X' is the inverse, two-sided since truncated
    series form a commutative ring.  With a correct multiply that holds by
    the round where 2^i exceeds the budget; ArithmeticError if it does not.
    Raises SingularMetric when g is singular.
    """
    g_inv = try_rational_inverse(mat.constant_matrix())
    if g_inv is None:
        raise SingularMetric("constant term of the matrix is singular")
    spec, size, budget = mat.spec, 1, mat.spec.budget()
    x = SeriesMatrix(tuple(tuple(TruncatedSeries.constant(spec, v) for v in row)
                           for row in g_inv))
    while size <= max(budget, 1):
        size *= 2
        window = spec.truncated(*(min(order, size - 1) for order in
                                  (spec.t_order, spec.novikov_order, spec.q_order)))
        x = x.within(window)
        error = SeriesMatrix.identity(window, mat.dimension) - mat.within(window) * x
        x = x + x * error
        if window is spec and all(2 * sum(exp) > budget for row in error.entries
                                  for entry in row for exp in entry.nums):
            return x
    raise ArithmeticError("Newton's iteration certified no inverse; the multiply is wrong")
