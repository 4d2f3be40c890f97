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

where a power 0 contributes the factor 1 and a power 1 the factor 1 + y.
The evaluator works with the integers w[r] = r! [y^r] of a partial product:
multiplying by one factor is a binomial convolution, and e^y (1 + y)^m
obeys w[r+1] = (m + 1 - r) w[r] + r w[r-1].  The zeros and ones cost O(N)
together and each of the at most three powers >= 2 at most (N + 1)^2
terms, so an index costs O(n N) small-integer operations however large
its powers are.

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

from math import comb
from typing import Iterable

from .errors import NotReducible


def _convolve(w: list[int], r: int, d: int) -> int:
    """r! [y^r] of W(y) * sum_a C(d, a) y^a / a!, where w[s] = s! [y^s] W."""
    return sum(comb(r, a) * comb(d, a) * w[r - a] for a in range(min(r, d) + 1))


def descendent_euler(exponents: Iterable[int]) -> int:
    """E(n; d) for >= 3 non-negative int powers in any order (else ValueError).

    NotReducible names the index as given and the powers >= 2 it reduces to.
    """
    given = tuple(exponents)
    if any(type(d) is not int for d in given):
        raise ValueError("cotangent powers must be integers")
    if len(given) < 3:
        raise ValueError("need at least three marked points")
    if any(d < 0 for d in given):
        raise ValueError("cotangent powers must be non-negative")
    large = sorted(d for d in given if d > 1)
    if len(large) > 3:
        raise NotReducible(given, tuple(large))
    dim = len(given) - 3
    ones = given.count(1)
    w = [1]  # r! [y^r] e^y (1 + y)^ones
    for r in range(dim):
        w.append((ones + 1 - r) * w[r] + (r * w[r - 1] if r else 0))
    *inner, last = large or [0]
    for d in inner:
        w = [_convolve(w, r, d) for r in range(dim + 1)]
    return _convolve(w, dim, last)
