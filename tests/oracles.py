"""Independent oracles the test suite checks the library against.

Each oracle reaches its value by a route the library does not use: closed
forms, brute-force enumeration over all reduction orders, direct Euler
characteristic expansion, order-by-order integration of the differential
equation, class products contracted with the full structure-constant table
beside the library's prefix-cached coordinate kernel, a sympy
re-implementation of the associativity residual, the
all-pairs series product the library's window-aware kernel replaced,
coefficient-wise Fraction sums, derivatives and 1/(1-q) products beside the
library's integer-numerator operations, the truncated geometric series in q
the library's running q-sum replaced, and Gauss-Jordan inversion over the
series ring beside the library's geometric inverse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod

from qkzero import (
    CorrelatorTable,
    KRingPresentation,
    QKError,
    SeriesMatrix,
    SeriesSpec,
    SingularMetric,
    TruncatedSeries,
)


# -- descendent oracles ------------------------------------------------------


def closed_form_single(n: int, d: int) -> int:
    """E(n; 0,...,0,d) = binom(n+d-3, d): stars and bars from integrating the
    single-variable solution of the differential equation."""
    return comb(n + d - 3, d)


def riemann_roch_n4(exponents) -> int:
    """Four points: the moduli space is a line, each cotangent line has
    degree one, so the Euler characteristic is total degree plus one."""
    assert len(exponents) == 4
    return sum(exponents) + 1


_branch_memo: dict[tuple[int, ...], frozenset[int]] = {}


def branching_values(exponents) -> frozenset[int]:
    """Values reachable by every admissible reduction order.

    The library fixes one canonical reduction point; this oracle follows all
    of them and returns the full set of outcomes.  Confluence of the
    reduction is the statement that the set is a singleton.
    """
    key = tuple(sorted(exponents))
    cached = _branch_memo.get(key)
    if cached is not None:
        return cached
    n = len(key)
    if n == 3:
        result = frozenset({1})
    else:
        outcomes: set[int] = set()
        seen_kinds: set[int] = set()
        for j, dj in enumerate(key):
            if dj > 1 or dj in seen_kinds:
                continue  # same exponent value: identical branch by symmetry
            seen_kinds.add(dj)
            rest = key[:j] + key[j + 1 :]
            children = [branching_values(rest)]
            for i, di in enumerate(rest):
                for k in range(1, di + 1):
                    lowered = rest[:i] + (di - k,) + rest[i + 1 :]
                    children.append(branching_values(lowered))
            head = n - 2 if dj == 1 else 1
            for combo in product(*children):
                outcomes.add(head * combo[0] + sum(combo[1:]))
        result = frozenset(outcomes)
    _branch_memo[key] = result
    return result


def is_reducible(exponents) -> bool:
    exps = tuple(sorted(exponents))
    return len(exps) == 3 or exps[0] <= 1


# -- Euler characteristic series oracle --------------------------------------


def class_chi(ring: KRingPresentation, insertions: tuple[int, ...]) -> Fraction:
    """chi of the product of basis insertions: from the unit, each insertion
    e_j contracts the coordinates with the full table mult[j], zeros
    included, and the result is paired with the unit's row of the pairing."""
    r = ring.rank
    coords = [Fraction(int(k == 0)) for k in range(r)]
    for j in insertions:
        coords = [sum(coords[i] * ring.mult[j][i][k] for i in range(r))
                  for k in range(r)]
    return sum(coords[i] * ring.pairing[0][i] for i in range(r))


def chi_exponential_series(ring: KRingPresentation, fixed: tuple[int, ...],
                           order: int) -> dict[tuple[int, ...], Fraction]:
    """Coefficients of chi(e_{fixed} * exp(t)) by direct multiset expansion.

    Returns a map from t-exponent tuples to exact values; this is the
    degree-zero quantized metric (two fixed insertions) or third-derivative
    tensor (three fixed insertions) computed without any series machinery.
    """
    rank = ring.rank
    out: dict[tuple[int, ...], Fraction] = {}

    def visit(counts: tuple[int, ...]) -> None:
        weight = Fraction(1)
        for c in counts:
            weight /= factorial(c)
        expanded = tuple(i for i, c in enumerate(counts) for _ in range(c))
        value = class_chi(ring, fixed + expanded) * weight
        if value != 0:
            out[counts] = value

    def rec(pos: int, prefix: tuple[int, ...], left: int) -> None:
        if pos == rank - 1:
            visit(prefix + (left,))
            return
        for c in range(left + 1):
            rec(pos + 1, prefix + (c,), left - c)

    for total in range(order + 1):
        rec(0, (), total)
    return out


def euler_char_line_bundle(n: int, k: int) -> Fraction:
    """chi(P^n, O(k)) = (k+1)(k+2)...(k+n) / n!, valid for every integer k."""
    if n < 0:
        raise ValueError("projective space dimension must be non-negative")
    return Fraction(prod(k + j for j in range(1, n + 1)), factorial(n))


def p2_line_bundle_kring() -> KRingPresentation:
    """K(P^2) in the basis 1, O(-1), O(-2), whose structure constants leave
    {0, 1}.  With L = O(-1), (1 - L)^3 = 0 gives L^3 = 1 - 3L + 3L^2 and
    L^4 = 3 - 8L + 6L^2; the pairing is chi(O(-i-j))."""
    powers = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -3, 3), (3, -8, 6))
    mult = tuple(tuple(powers[i + j] for j in range(3)) for i in range(3))
    pairing = ((1, 0, 0), (0, 0, 1), (0, 1, 3))
    return KRingPresentation(("1", "O(-1)", "O(-2)"), mult, pairing)


# -- degree-zero descendent correlators for any target ------------------------


def degree_zero_descendent_table(ring: KRingPresentation, target_doc: dict,
                                 t_order: int, q_order: int) -> CorrelatorTable:
    """Descendent correlators at degree zero from the product splitting.

    At degree zero the moduli space is the product of the pointed-curve
    space with the target, the obstruction space vanishes in genus zero,
    evaluation maps are projections and cotangent lines pull back from the
    curve factor.  The Euler characteristic therefore factors into a
    pointed-curve piece, binom(m+d-3, d) for a single descendent at m
    points, times chi of the product of all inserted classes.
    """
    entries: dict = {}
    beta = (0,)
    for n in range(1, t_order + 1):
        for ins in combinations_with_replacement(range(ring.rank), n + 1):
            for j in range(ring.rank):
                chi_val = class_chi(ring, ins + (j,))
                for d in range(q_order + 1):
                    value = Fraction(comb(n + d - 1, d)) * chi_val
                    entries[(beta, ins, (j, d))] = value
    return CorrelatorTable(ring, 1, target_doc, {}, entries)


# -- series constructors -----------------------------------------------------


def unit_series(spec: SeriesSpec) -> TruncatedSeries:
    """The constant series 1."""
    return TruncatedSeries.constant(spec, 1)


def monomial(spec: SeriesSpec, powers: dict[str, int], value=1) -> TruncatedSeries:
    """value times the monomial with the given powers, variables named as in
    the spec ("t0", "Q0", "q")."""
    exp = [0] * spec.nvars
    for name, p in powers.items():
        exp[spec.var_position(name)] += p
    return TruncatedSeries(spec, {tuple(exp): value})


# -- series product oracle ---------------------------------------------------


def naive_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Form every exponent pair, keep those the window admits, and sum the
    Fraction products; the public constructor drops the zeros."""
    assert a.spec == b.spec
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, va in a.coeffs.items():
        for eb, vb in b.coeffs.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            if a.spec.admits(exp):
                out[exp] = out.get(exp, Fraction(0)) + va * vb
    return TruncatedSeries(a.spec, out)


def naive_sum(a: TruncatedSeries, b: TruncatedSeries) -> dict[tuple[int, ...], Fraction]:
    """Coefficient-wise Fraction sum of two series, zeros dropped."""
    assert a.spec == b.spec
    out = dict(a.coeffs)
    for exp, value in b.coeffs.items():
        out[exp] = out.get(exp, Fraction(0)) + value
    return {exp: value for exp, value in out.items() if value}


def naive_derivative(a: TruncatedSeries, name: str) -> dict[tuple[int, ...], Fraction]:
    """Term-by-term Fraction derivative: k x^k becomes k x^(k-1)."""
    pos = a.spec.var_position(name)
    return {
        exp[:pos] + (exp[pos] - 1,) + exp[pos + 1 :]: exp[pos] * value
        for exp, value in a.coeffs.items() if exp[pos]
    }


def naive_over_one_minus_q(a: TruncatedSeries) -> dict[tuple[int, ...], Fraction]:
    """Each term c x^e q^d spread over q^d .. q^M with the same coefficient,
    summed as Fractions, zeros dropped."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exp, value in a.coeffs.items():
        for m in range(exp[-1], a.spec.q_order + 1):
            key = exp[:-1] + (m,)
            out[key] = out.get(key, Fraction(0)) + value
    return {exp: value for exp, value in out.items() if value}


def naive_connection_defect(s: TruncatedSeries, p: TruncatedSeries, k: int,
                            window: SeriesSpec) -> dict[tuple[int, ...], Fraction]:
    """dS/dt_k on the window minus the running q-sum of P truncated to it,
    composed from the two oracles above, zeros dropped."""
    out = {exp: v for exp, v in naive_derivative(s, f"t{k}").items() if window.admits(exp)}
    for exp, value in naive_over_one_minus_q(p.truncated(t_order=window.t_order)).items():
        out[exp] = out.get(exp, 0) - value
    return {exp: value for exp, value in out.items() if value}


def geometric_q(spec: SeriesSpec) -> TruncatedSeries:
    """The truncation of 1/(1-q): sum of q^m for m up to the q order."""
    qpos = spec.nvars - 1
    terms: dict[tuple[int, ...], Fraction] = {}
    for m in range(spec.q_order + 1):
        exp = [0] * spec.nvars
        exp[qpos] = m
        terms[tuple(exp)] = Fraction(1)
    return TruncatedSeries(spec, terms)


# -- series inverse oracles -------------------------------------------------


class NotInvertible(QKError):
    """Reciprocal of a series whose constant term vanishes."""


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse, defined when the constant term is nonzero.

    With a = c(1 + f) and f having no constant term, 1/a is the geometric
    series (1/c) * sum of (-f)^k; f^k dies once k exceeds the total degree
    budget, so the loop terminates.
    """
    c = a.constant_term
    if c == 0:
        raise NotInvertible("constant term vanishes")
    if min(a.spec.t_order, a.spec.novikov_order, a.spec.q_order) < 0:
        raise NotInvertible("series certifies no coefficients in some group")
    inv_c = Fraction(1) / c
    f = a.scaled(inv_c) - unit_series(a.spec)
    acc = unit_series(a.spec)
    power = unit_series(a.spec)
    sign = 1
    for _ in range(a.spec.budget()):
        power = power * f
        if power.is_zero():
            break
        sign = -sign
        acc = acc + power.scaled(sign)
    return acc.scaled(inv_c)


def zero_matrix(spec: SeriesSpec, dim: int) -> SeriesMatrix:
    z = TruncatedSeries.zero(spec)
    return SeriesMatrix(tuple(tuple(z for _ in range(dim)) for _ in range(dim)))


def matrix_inverse_direct(mat: SeriesMatrix) -> SeriesMatrix:
    """Invert a series matrix by Gauss-Jordan elimination over the series ring,
    pivoting on entries whose constant term is nonzero."""
    n = mat.dimension
    spec = mat.spec
    left = [list(row) for row in mat.entries]
    right = [list(row) for row in SeriesMatrix.identity(spec, n).entries]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if left[r][col].constant_term != 0), None)
        if pivot is None:
            raise SingularMetric("no invertible pivot; constant term is singular")
        left[col], left[pivot] = left[pivot], left[col]
        right[col], right[pivot] = right[pivot], right[col]
        inv = reciprocal(left[col][col])
        left[col] = [inv * x for x in left[col]]
        right[col] = [inv * x for x in right[col]]
        for r in range(n):
            if r == col:
                continue
            factor = left[r][col]
            if factor.is_zero():
                continue
            left[r] = [x - factor * y for x, y in zip(left[r], left[col])]
            right[r] = [x - factor * y for x, y in zip(right[r], right[col])]
    return SeriesMatrix(tuple(tuple(row) for row in right))


# -- point differential equation oracle --------------------------------------


def integrate_point_qde(t_order: int, q_order: int) -> dict[tuple[int, int], Fraction]:
    """Solve dS/dt = (1 + q + ... + q^M) S, S(0) = 1, order by order in t.

    Writing S = sum over n of t^n/n! u_n(q), the recursion is
    u_0 = 1 and u_{n+1} = geometric * u_n truncated at q^M.
    Returns the coefficient of t^n q^d for all certified (n, d).
    """
    geom = [Fraction(1)] * (q_order + 1)
    u = [Fraction(0)] * (q_order + 1)
    u[0] = Fraction(1)
    table: dict[tuple[int, int], Fraction] = {}
    for n in range(t_order + 1):
        for d in range(q_order + 1):
            table[(n, d)] = u[d] / factorial(n)
        u = [
            sum((geom[m] * u[d - m] for m in range(d + 1)), Fraction(0))
            for d in range(q_order + 1)
        ]
    return table


# -- sympy re-implementation of the associativity residual -------------------


def sympy_wdvv_tensor(coeffs: dict[tuple[int, ...], Fraction], num_t: int,
                      t_order: int):
    """Recompute the full WDVV residual tensor with sympy polynomials.

    Input: potential coefficients over t variables only (exponent tuples of
    length num_t, trailing groups already stripped).  Output: nested dict
    (i, j, k, l) -> {t-exponent: Fraction} truncated at total degree
    t_order - 3, computed entirely inside sympy so the only shared code is
    the statement of the identity.
    """
    import sympy

    ts = sympy.symbols(f"x0:{num_t}")

    def truncate(expr, bound):
        poly = sympy.Poly(sympy.expand(expr), *ts)
        kept = sympy.Integer(0)
        for monom, coeff in poly.terms():
            if sum(monom) <= bound:
                kept += coeff * sympy.prod(
                    [ts[i] ** e for i, e in enumerate(monom)])
        return sympy.expand(kept)

    G = sum(
        (sympy.Rational(v.numerator, v.denominator)
         * sympy.prod([ts[i] ** e for i, e in enumerate(exp)])
         for exp, v in coeffs.items()),
        sympy.Integer(0),
    )
    hess = [[sympy.diff(G, ts[i], ts[j]) for j in range(num_t)]
            for i in range(num_t)]
    third = [[[sympy.diff(hess[i][j], ts[k]) for k in range(num_t)]
              for j in range(num_t)] for i in range(num_t)]

    bound = t_order - 3
    h0 = sympy.Matrix([[hess[i][j].subs({t: 0 for t in ts})
                        for j in range(num_t)] for i in range(num_t)])
    h0_inv = h0.inv()
    f = sympy.Matrix([[sympy.expand(hess[i][j] - h0[i, j])
                       for j in range(num_t)] for i in range(num_t)])
    inv = sympy.Matrix(h0_inv)
    term = sympy.Matrix(h0_inv)
    step = -h0_inv * f
    for _ in range(bound):
        term = step * term
        term = term.applyfunc(lambda e: truncate(e, bound))
        inv = inv + term

    tensor: dict[tuple[int, int, int, int], dict[tuple[int, ...], Fraction]] = {}
    for i in range(num_t):
        for j in range(num_t):
            for k in range(j + 1, num_t):
                for l in range(num_t):
                    lhs = sympy.Integer(0)
                    rhs = sympy.Integer(0)
                    for nu in range(num_t):
                        c_ij = sum(
                            truncate(third[i][j][mu] * inv[mu, nu], bound)
                            for mu in range(num_t))
                        c_ik = sum(
                            truncate(third[i][k][mu] * inv[mu, nu], bound)
                            for mu in range(num_t))
                        lhs += truncate(c_ij * third[nu][k][l], bound)
                        rhs += truncate(c_ik * third[nu][j][l], bound)
                    diff = sympy.expand(lhs - rhs)
                    entry: dict[tuple[int, ...], Fraction] = {}
                    if diff != 0:
                        poly = sympy.Poly(diff, *ts)
                        for monom, coeff in poly.terms():
                            if sum(monom) <= bound:
                                entry[tuple(monom)] = Fraction(
                                    int(sympy.numer(coeff)),
                                    int(sympy.denom(coeff)))
                    tensor[(i, j, k, l)] = entry
    return tensor
