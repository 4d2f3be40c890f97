"""Finite presentations of K-rings with their Euler-characteristic pairing.

A presentation is a basis e_0..e_r with e_0 the unit, rational structure
constants m[i][j][k] for e_i e_j = sum_k m[i][j][k] e_k, and the pairing
g[i][j] = chi(e_i e_j), each entry an int or Fraction kept as given.  The
constructor checks every axiom a Frobenius algebra needs; downstream
modules rely on those checks and never re-verify.

The ring has one product and one pairing: times_basis multiplies a
coordinate vector by a basis class and pair pairs it with one, both
sparsely.  The constructor's associativity and invariance checks and the
degree-zero chi walk all go through them.

For projective space the basis is e_i = a^i where a = 1 - [O(-1)], so
a^{n+1} = 0 and the pairing is g_ij = chi(a^{i+j}) = 1 for i + j <= n and 0
beyond; tests/test_kring.py derives it by inclusion-exclusion over twists,
sum_u (-1)^u binom(i+j, u) chi(P^n, O(-u)).
"""

from __future__ import annotations

from .errors import InvalidPresentation, SchemaError
from .record import Record
from .series import RationalLike, _exact, format_rational, parse_rational, try_rational_inverse


class KRingPresentation(Record):
    labels: tuple[str, ...]
    mult: tuple[tuple[tuple[RationalLike, ...], ...], ...]
    pairing: tuple[tuple[RationalLike, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        r = len(labels)
        if r == 0:
            raise InvalidPresentation("empty basis")
        mult = tuple(tuple(tuple(_exact(x) for x in row) for row in plane)
                     for plane in self.mult)
        pairing = tuple(tuple(_exact(x) for x in row) for row in self.pairing)
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
        # (e_i e_j) e_k against (e_j e_k) e_i, which is e_i (e_j e_k) once
        # commutativity holds.
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if self.times_basis(m[i][j], k) != self.times_basis(m[j][k], i):
                        raise InvalidPresentation(
                            f"multiplication is not associative at ({i},{j},{k})")
        for i in range(r):
            for j in range(i + 1, r):
                if g[i][j] != g[j][i]:
                    raise InvalidPresentation(f"pairing is not symmetric at ({i},{j})")
        if try_rational_inverse(g) is None:
            raise InvalidPresentation("pairing is singular")
        # g(e_i e_j, e_k) against g(e_j e_k, e_i), which is g(e_i, e_j e_k)
        # once symmetry holds.
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if self.pair(m[i][j], k) != self.pair(m[j][k], i):
                        raise InvalidPresentation(
                            f"pairing is not multiplication-invariant at ({i},{j},{k})")

    def times_basis(self, coords: tuple, k: int) -> tuple:
        """Coordinates of (sum_i coords[i] e_i) * e_k, read from the rows
        mult[i][k] of the nonzero coordinates; zero structure constants are
        skipped."""
        out = [0] * len(coords)
        for i, u in enumerate(coords):
            if u:
                for l, m in enumerate(self.mult[i][k]):
                    if m:
                        out[l] += u * m
        return tuple(out)

    def pair(self, coords: tuple, k: int) -> RationalLike:
        """g(sum_i coords[i] e_i, e_k), summed over the nonzero coordinates."""
        return sum(u * row[k] for u, row in zip(coords, self.pairing) if u)

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
        return cls(tuple(labels), _tensor(doc["mult"], 3), _tensor(doc["pairing"], 2))


def _tensor(value: object, depth: int) -> tuple:
    """Rationals nested in JSON arrays depth levels deep; a string is not an
    array of its characters."""
    if not isinstance(value, list):
        raise SchemaError(f"malformed tensor: expected an array, got {value!r}")
    if depth == 1:
        return tuple(parse_rational(x) for x in value)
    return tuple(_tensor(x, depth - 1) for x in value)


def point_kring() -> KRingPresentation:
    """K-ring of the point, which is P^0."""
    return projective_space_kring(0)


def projective_space_kring(n: int) -> KRingPresentation:
    """K-ring of P^n in the basis e_i = a^i, a = 1 - [O(-1)].

    a^i a^j = a^{i+j} (zero past a^n), and chi(a^m) is 1 for m <= n and 0
    for m > n (see the module docstring).
    """
    if n < 0:
        raise ValueError("projective space dimension must be non-negative")
    r = n + 1
    labels = tuple(f"e{i}" for i in range(r))
    mult = tuple(tuple(tuple(int(i + j == k) for k in range(r)) for j in range(r))
                 for i in range(r))
    pairing = tuple(tuple(int(i + j <= n) for j in range(r)) for i in range(r))
    return KRingPresentation(labels, mult, pairing)
