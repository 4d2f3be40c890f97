"""Descendent Euler characteristics on genus-zero stable-curve moduli.

E(n; d_1..d_n) denotes the holomorphic Euler characteristic of the product
of cotangent-line powers L_1^{d_1} ... L_n^{d_n} over the moduli space of
stable n-pointed rational curves, of dimension N = n - 3.  Y.-P. Lee's
formula (A formula for Euler characteristics of tautological line bundles
on the Deligne-Mumford moduli spaces, IMRN 1997) reads every value off one
generating function,

    sum_d E(n; d) x^d = (1 + sum_i x_i/(1 - x_i))^N / prod_i (1 - x_i),

that is, E(n; d) = sum over a <= d with |a| <= N of
N! / ((N - |a|)! prod a_i!) * prod_i C(d_i, a_i).  In one auxiliary
variable y this is

    E(n; d) = N! [y^N] e^y prod_i sum_a C(d_i, a) y^a / a!,

where a power 0 contributes the factor 1, a power 1 the factor 1 + y, and
a power d >= 2 the factor L_d(y) = sum_a C(d, a) y^a / a!.  With m powers
equal to 1, an index is evaluated one of two ways.

By convolution: the integers w[r] = r! [y^r] of e^y (1 + y)^m obey
w[r+1] = (m + 1 - r) w[r] + r w[r-1], and multiplying by one L_d is a
binomial convolution.  The zeros and ones cost O(N) together, the largest
power at most N + 1 terms and each other power >= 2 at most (N + 1)^2.

Packed (Kronecker substitution): every factor is made an integer polynomial
with non-negative coefficients.  e^y joins the largest power d by
Vandermonde, r! [y^r] e^y L_d(y) = C(r + d, d), so N! e^y L_d is integral,
and each other power d is scaled by k!, k = min(d, N).  At y = 2^b, with b
above the bit length of the factors' product at y = 1, their product is one
big integer whose b-bit digit N is E times those scales.  That replaces the
(N + 1)^2-term convolutions, so an index is packed only when it has two or
three powers >= 2 and its packed product, about b (N + 1 + m + the sum of
those k) bits, is at most PACKED_MAX_BITS: every digit carries an N!-sized
scale, and past that size the big-integer products can cost more than the
convolutions they replace.  Either way a power's size enters only through
the bit length of the binomials it makes, so the cost grows with n and
hardly with the powers; an index with one power >= 2, such as
0,0,0,0,1000000, is never packed and costs what 0,0,0,0,2 does.

The same values satisfy the string step (forget a point with d_j = 0)

    E(n; d) = E(n-1; d') + sum_{i != j} sum_{k=1}^{d_i} E(n-1; d' with d_i -> d_i - k)

and the dilaton step (d_j = 1), which has coefficient n - 2 in front of the
first term; every E(3; *) = 1.  The library keeps the domain of that
reduction: an index is reducible exactly when at least n - 3 of its powers
are 0 or 1, i.e. at most three are >= 2.  Any other index raises
NotReducible naming, ascending, the powers >= 2, the index the reduction
reaches once every 0 and 1 has been forgotten.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable

from .errors import NotReducible

# Largest packed product, in bits, evaluated as one big-integer product.
# Measured on n = 4..40, 60, 100, 300, 1201 with zeros or ones as filler
# and powers 2..12, 50, 10^3, 10^6: the indices packed under it took a
# median 0.35 and at most 1.04 of the convolution's time; just above it
# some with powers of 10^3 or 10^6 took 1.5 times, and past 100,000 bits
# the median is 2.1 times.
PACKED_MAX_BITS = 16_000


def _convolve(w: list[int], r: int, d: int) -> int:
    """r! [y^r] of W(y) * sum_a C(d, a) y^a / a!, where w[s] = s! [y^s] W."""
    return sum(comb(r, a) * comb(d, a) * w[r - a] for a in range(min(r, d) + 1))


def _convolved(dim: int, ones: int, rest: list[int], last: int) -> int:
    """E by binomial convolutions, ones powers 1 and rest + [last] the powers
    >= 2 (last = 0 when there are none)."""
    w = [1]  # r! [y^r] e^y (1 + y)^ones
    for r in range(dim):
        w.append((ones + 1 - r) * w[r] + (r * w[r - 1] if r else 0))
    for d in rest:
        w = [_convolve(w, r, d) for r in range(dim + 1)]
    return _convolve(w, dim, last)


def _packed(dim: int, ones: int, rest: list[int], last: int,
            limit: float = PACKED_MAX_BITS) -> int | None:
    """E by one big-integer product, or None when it would exceed limit bits.

    The factors are A = N! e^y L_last, (1 + y)^ones and k! L_d for d in rest,
    truncated to degree N.  At y = 1 they are at most 3 N! min(C(N + last, N),
    2^last), 2^ones and k! min(C(d + k, k), 2^d); b adds up the bit lengths
    of those bounds, so no coefficient of the product reaches 2^b.
    """
    slots = dim + 1 + ones + sum(min(d, dim) for d in rest)
    if slots * (dim + ones) > limit:  # b > dim + ones, so before taking N!
        return None
    f = factorial(dim)
    top = comb(dim + last, dim)
    b = 2 + ones + f.bit_length() + min(top.bit_length(), last)
    scale = 1
    for d in rest:
        k = min(d, dim)
        k_factorial = factorial(k)
        scale *= k_factorial
        b += k_factorial.bit_length() + (d if d == k else
                                         min(d, comb(d + k, k).bit_length()))
    if b * slots > limit:
        return None
    # Horner from the top: A's coefficient N!/r! C(r + last, last) times
    # r^2 / (r + last) is the next one down, exactly.
    c = acc = top
    for r in range(dim, 0, -1):
        c = c * r * r // (r + last)
        acc = acc << b | c
    for _ in range(ones):
        acc += acc << b
    mask = (1 << b * (dim + 1)) - 1  # digits above N never reach digit N
    acc &= mask
    for d in rest:
        k = min(d, dim)  # coefficients k! C(d, a) / a!, a = k down to 0
        c = factor = comb(d, k)
        for a in range(k, 0, -1):
            c = c * a * a // (d - a + 1)
            factor = factor << b | c
        acc = acc * factor & mask
    return (acc >> b * dim) // scale


def descendent_euler(exponents: Iterable[int]) -> int:
    """E(n; d) for >= 3 non-negative int powers in any order (else ValueError).

    NotReducible names the index as given and the powers >= 2 it reduces to.
    """
    given = tuple(exponents)
    if not {int}.issuperset(map(type, given)):
        raise ValueError("cotangent powers must be integers")
    if len(given) < 3:
        raise ValueError("need at least three marked points")
    if min(given) < 0:
        raise ValueError("cotangent powers must be non-negative")
    ones = given.count(1)
    large = sorted(given)[given.count(0) + ones:]
    if len(large) > 3:
        raise NotReducible(given, tuple(large))
    dim = len(given) - 3
    *rest, last = large or [0]
    if rest:
        value = _packed(dim, ones, rest, last)
        if value is not None:
            return value
    return _convolved(dim, ones, rest, last)
