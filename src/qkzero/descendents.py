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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotReducible


@dataclass(frozen=True)
class DescendentIndex:
    """A multiset of cotangent powers at n >= 3 marked points.

    Exponents are stored sorted ascending, which both enforces symmetric-group
    invariance structurally and makes memo keys canonical.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(sorted(int(d) for d in self.exponents))
        if len(exps) < 3:
            raise ValueError("need at least three marked points")
        if any(d < 0 for d in exps):
            raise ValueError("cotangent powers must be non-negative")
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.exponents)


def _ladder(rest: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    """Children from lowering one surviving exponent by 1..d_i."""
    for i, d in enumerate(rest):
        for k in range(1, d + 1):
            yield rest[:i] + (d - k,) + rest[i + 1 :]


class DescendentEngine:
    """Memoized evaluator for E(n; d).

    The memo maps each index to its finished integer value.  Entries are
    written only after the value is fully computed and never mutated, so a
    concurrent reader either misses (and recomputes the same pure value) or
    sees a complete entry; partial states are unobservable.
    """

    def __init__(self) -> None:
        self._memo: dict[DescendentIndex, int] = {}

    def value(self, index: DescendentIndex) -> int:
        cached = self._memo.get(index)
        if cached is not None:
            return cached
        exps = index.exponents
        if index.n == 3:
            result = 1
        else:
            lowest = exps[0]  # canonical point: sorted order puts the reducible slot first
            rest = exps[1:]
            if lowest == 0:
                result = self.value(DescendentIndex(rest))
            elif lowest == 1:
                result = (index.n - 2) * self.value(DescendentIndex(rest))
            else:
                raise NotReducible(exps, exps)
            for child in _ladder(rest):
                result += self.value(DescendentIndex(child))
        self._memo[index] = result
        return result

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
        return _DEFAULT_ENGINE.value(DescendentIndex(given))
    except NotReducible as exc:
        raise NotReducible(given, exc.reached) from None
