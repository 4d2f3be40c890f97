"""Descendent Euler characteristics on genus-zero stable-curve moduli.

E(n; d_1..d_n) denotes the holomorphic Euler characteristic of the product
of cotangent-line powers L_1^{d_1} ... L_n^{d_n} over the moduli space of
stable n-pointed rational curves.  Two exact reductions along the map that
forgets a marked point compute every index in the reduction closure:

* string step, at a point with d_j = 0.  Pushing the bundle forward, the
  comparison of L_i with the pulled-back cotangent line contributes one
  copy of the structure sheaf plus a ladder of twists at the remaining
  points, giving

      E(n; d) = E(n-1; d') + sum_{i != j} sum_{k=1}^{d_i} E(n-1; d' with d_i -> d_i - k).

  The ladder terms have no cohomology in higher degree only in this exact
  K-theoretic form; no cohomological shadow of this identity exists.

* dilaton step, at a point with d_j = 1.  The extra cotangent factor
  pushes to a rank (n-1)-2+1 = n-2 trivial summand plus the same ladder:

      E(n; d) = (n-2) E(n-1; d') + sum_{i != j} sum_{k=1}^{d_i} E(n-1; d' with d_i -> d_i - k).

  The coefficient is the rank of the genus-zero pushforward of the relative
  dualizing sheaf twisted by the section divisors: (m-1) sections minus the
  one global residue relation on a rational curve, evaluated at m = n-1.

Values are integers; the moduli of three-pointed rational curves is a point,
so every E(3; *) = 1.  Indices with n >= 4 and every d_i >= 2 admit neither
step and are reported as not reducible.  The reduction is confluent: any
admissible choice of j gives the same value, so the engine fixes a canonical
choice purely for determinism.

Indices are plain ascending tuples, canonical memo keys.  Input is validated
once per request, and the reduction runs on an explicit stack, so n is bounded
by memory rather than by the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotReducible


def _children(index: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The forgetful child, then the ladder: each survivor lowered by 1..d_i."""
    lowest, rest = index[0], index[1:]  # sorted order puts the reducible slot first
    if lowest > 1:
        raise NotReducible(index, index)
    children = [rest]
    for i, d in enumerate(rest):
        for k in range(1, d + 1):
            children.append(tuple(sorted(rest[:i] + (d - k,) + rest[i + 1 :])))
    return children


class DescendentEngine:
    """Memoized iterative evaluator for E(n; d).

    The memo maps each ascending index tuple to its finished integer value.
    Entries are written only after the value is fully computed and never
    mutated, so a concurrent reader either misses (and recomputes the same
    pure value) or sees a complete entry; partial states are unobservable.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[int, ...], int] = {}

    def value(self, exponents: Iterable[int]) -> int:
        """E(n; d) for >= 3 non-negative int powers in any order (else ValueError).

        Children are expanded depth first in ``_children`` order, so
        NotReducible names, ascending, the first all->=2 index reached.
        """
        given = tuple(exponents)
        if any(type(d) is not int for d in given):
            raise ValueError("cotangent powers must be integers")
        if len(given) < 3:
            raise ValueError("need at least three marked points")
        if any(d < 0 for d in given):
            raise ValueError("cotangent powers must be non-negative")
        root = tuple(sorted(given))
        memo = self._memo
        # Each frame is an index and, once expanded, its children; a frame
        # is finished when it comes back to the top of the stack.
        stack: list[tuple[tuple[int, ...], list[tuple[int, ...]] | None]] = [(root, None)]
        while stack:
            index, children = stack.pop()
            if index in memo:
                continue
            if len(index) == 3:
                memo[index] = 1
            elif children is None:
                children = _children(index)
                stack.append((index, children))
                stack.extend((child, None) for child in reversed(children)
                             if child not in memo)
            else:
                coefficient = 1 if index[0] == 0 else len(index) - 2
                memo[index] = (coefficient * memo[children[0]]
                               + sum(memo[c] for c in children[1:]))
        return memo[root]

    def known(self) -> int:
        return len(self._memo)


_DEFAULT_ENGINE = DescendentEngine()


def descendent_euler(exponents: Iterable[int]) -> int:
    """E(n; d) via the shared memoized engine.

    NotReducible names the index as given, not the internal child where the
    reduction stopped.
    """
    given = tuple(exponents)
    try:
        return _DEFAULT_ENGINE.value(given)
    except NotReducible as exc:
        raise NotReducible(given, exc.reached) from None
