"""Finite presentations of K-rings with their Euler-characteristic pairing.

A presentation is a basis e_0..e_r with e_0 the unit, rational structure
constants m[i][j][k] for e_i e_j = sum_k m[i][j][k] e_k, and the pairing
g[i][j] = chi(e_i e_j).  The constructor checks every axiom a Frobenius
algebra needs; downstream modules rely on those checks and never re-verify.

For projective space the basis is e_i = a^i where a = 1 - [O(-1)], so
a^{n+1} = 0 and chi(a^m) counts by inclusion-exclusion over twists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .errors import InvalidPresentation, SchemaError
from .series import format_rational, parse_rational, try_rational_inverse


def euler_char_line_bundle(n: int, k: int) -> Fraction:
    """chi(P^n, O(k)) = (k+1)(k+2)...(k+n) / n!, valid for every integer k."""
    if n < 0:
        raise ValueError("projective space dimension must be non-negative")
    return Fraction(prod(k + j for j in range(1, n + 1)), factorial(n))


@dataclass(frozen=True)
class KRingPresentation:
    labels: tuple[str, ...]
    mult: tuple[tuple[tuple[Fraction, ...], ...], ...]
    pairing: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        r = len(labels)
        if r == 0:
            raise InvalidPresentation("empty basis")
        mult = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane)
            for plane in self.mult
        )
        pairing = tuple(tuple(Fraction(x) for x in row) for row in self.pairing)
        if len(mult) != r or any(len(p) != r or any(len(row) != r for row in p) for p in mult):
            raise InvalidPresentation("multiplication tensor must be rank x rank x rank")
        if len(pairing) != r or any(len(row) != r for row in pairing):
            raise InvalidPresentation("pairing must be rank x rank")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "pairing", pairing)
        self._validate()

    def _validate(self) -> None:
        r = self.rank
        m, g = self.mult, self.pairing
        for j in range(r):
            for k in range(r):
                if m[0][j][k] != (1 if j == k else 0):
                    raise InvalidPresentation("e0 is not a two-sided unit")
        for i in range(r):
            for j in range(i + 1, r):
                if m[i][j] != m[j][i]:
                    raise InvalidPresentation(
                        f"multiplication is not commutative at ({i},{j})")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    for l in range(r):
                        lhs = sum(m[i][j][mu] * m[mu][k][l] for mu in range(r))
                        rhs = sum(m[j][k][mu] * m[i][mu][l] for mu in range(r))
                        if lhs != rhs:
                            raise InvalidPresentation(
                                f"multiplication is not associative at ({i},{j},{k})")
        for i in range(r):
            for j in range(i + 1, r):
                if g[i][j] != g[j][i]:
                    raise InvalidPresentation(f"pairing is not symmetric at ({i},{j})")
        if try_rational_inverse(g) is None:
            raise InvalidPresentation("pairing is singular")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    lhs = sum(m[i][j][mu] * g[mu][k] for mu in range(r))
                    rhs = sum(m[j][k][mu] * g[i][mu] for mu in range(r))
                    if lhs != rhs:
                        raise InvalidPresentation(
                            f"pairing is not multiplication-invariant at ({i},{j},{k})")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "mult": [[[format_rational(x) for x in row] for row in plane]
                     for plane in self.mult],
            "pairing": [[format_rational(x) for x in row] for row in self.pairing],
        }

    @classmethod
    def from_json_dict(cls, doc: object) -> "KRingPresentation":
        if not isinstance(doc, dict):
            raise SchemaError("ring document must be an object")
        missing = {"rank", "labels", "mult", "pairing"} - set(doc)
        if missing:
            raise SchemaError(f"ring document missing fields: {sorted(missing)}")
        labels = doc["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise SchemaError("labels must be a list of strings")
        if type(doc["rank"]) is not int or doc["rank"] != len(labels):
            raise SchemaError("rank does not match number of labels")
        try:
            mult = tuple(
                tuple(tuple(parse_rational(x) for x in row) for row in plane)
                for plane in doc["mult"]
            )
            pairing = tuple(
                tuple(parse_rational(x) for x in row) for row in doc["pairing"]
            )
        except TypeError as exc:
            raise SchemaError(f"malformed tensor: {exc}") from exc
        return cls(tuple(labels), mult, pairing)


def point_kring() -> KRingPresentation:
    one = Fraction(1)
    return KRingPresentation(("e0",), (((one,),),), ((one,),))


def projective_space_kring(n: int) -> KRingPresentation:
    """K-ring of P^n in the basis e_i = a^i, a = 1 - [O(-1)].

    a^i a^j = a^{i+j} (zero past a^n) and
    chi(a^m) = sum over twists of (-1)^u binom(m, u) chi(O(-u)),
    which works out to 1 for m <= n and 0 for m > n.
    """
    if n < 0:
        raise ValueError("projective space dimension must be non-negative")
    r = n + 1
    labels = tuple(f"e{i}" for i in range(r))
    mult = tuple(
        tuple(
            tuple(Fraction(int(i + j == k)) for k in range(r))
            for j in range(r)
        )
        for i in range(r)
    )

    def chi_alpha_power(m: int) -> Fraction:
        return sum(
            ((-1) ** u * comb(m, u) * euler_char_line_bundle(n, -u)
             for u in range(m + 1)),
            Fraction(0),
        )

    pairing = tuple(
        tuple(chi_alpha_power(i + j) for j in range(r)) for i in range(r)
    )
    return KRingPresentation(labels, mult, pairing)
