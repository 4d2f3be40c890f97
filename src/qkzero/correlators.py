"""Tables of genus-zero correlator values, keyed by curve degree and insertions.

A table stores exact values for

    < u_1, ..., u_n >_{0,n,beta}           (plain entries)
    < u_1, ..., u_n, tau_d(e_j) >_{0,n+1,beta}   (entries with one marked
                                                  descendent insertion)

with u_i basis classes recorded as a sorted index multiset, so invariance
under permuting insertions holds by construction.  A missing key means the
value is unknown, never that it is zero.

Degree-zero correlators need no table: with no curve to correct for, the
virtual sheaf is trivial and the invariant collapses to the Euler
characteristic of the product of the insertions on the target, provided at
least three points keep the moduli space non-empty.  A marked descendent
slot tau_d(e_j) next to m plain insertions only adds the cotangent factor
of the curve: the value is chi(prod u_i * e_j) * E(m+1; 0,...,0,d).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from typing import Callable, Iterable, Iterator

from .errors import DuplicateEntry, IneffectiveDegree, SchemaError
from .kring import KRingPresentation, point_kring, projective_space_kring
from .record import Record
from .series import format_rational, parse_rational

DegreeVector = tuple[int, ...]
PlainKey = tuple[DegreeVector, tuple[int, ...]]
MarkedKey = tuple[DegreeVector, tuple[int, ...], tuple[int, int]]


def table_key(rank: int, degree_rank: int, beta: object, insertions: object,
              marked: tuple[object, object] | None = None) -> PlainKey | MarkedKey:
    """The key of one table entry, once it is known to be well formed: an
    effective degree vector of length degree_rank, integer insertions in
    0..rank-1 (sorted into a multiset), an optional marked (class, power)
    with the class in range and the power non-negative, and at degree zero
    at least three points, the marked one included."""
    # type() rather than isinstance(): JSON true and false load as bool, an
    # int subclass, and are neither degrees nor class indices.
    if not isinstance(beta, (list, tuple)) or any(type(b) is not int for b in beta):
        raise SchemaError(f"degree vector {beta!r} must be a list of integers")
    if len(beta) != degree_rank:
        raise SchemaError(f"degree vector {list(beta)} has length != {degree_rank}")
    if any(b < 0 for b in beta):
        raise IneffectiveDegree(f"degree vector {list(beta)} has a negative component")
    if not isinstance(insertions, (list, tuple)) or any(type(i) is not int for i in insertions):
        raise SchemaError(f"insertions must be a list of integers, got {insertions!r}")
    if any(i < 0 or i >= rank for i in insertions):
        raise SchemaError(f"insertion index out of range 0..{rank - 1}: {insertions!r}")
    key = (tuple(beta), tuple(sorted(insertions)))
    points = len(insertions)
    if marked is not None:
        cls_idx, power = marked
        if type(cls_idx) is not int or cls_idx < 0 or cls_idx >= rank:
            raise SchemaError(f"marked class out of range: {cls_idx!r}")
        if type(power) is not int or power < 0:
            raise SchemaError(f"marked power must be a non-negative integer: {power!r}")
        key += ((cls_idx, power),)
        points += 1
    if not any(beta) and points < 3:
        raise SchemaError(f"degree-zero entry with {points} points: moduli space is empty")
    return key


def _exact_value(value: object) -> Fraction:
    """An int or Fraction as a Fraction; floats and bools are not exact data."""
    if type(value) not in (int, Fraction):
        raise SchemaError(f"correlator value must be an int or Fraction, got {value!r}")
    return Fraction(value)


def effective_degrees(degree_rank: int, bound: int) -> Iterator[DegreeVector]:
    """All componentwise non-negative vectors of total degree <= bound,
    in ascending total degree then lexicographic order.  The vectors of
    total d count out the size-d multisets of components."""
    for total in range(bound + 1):
        yield from sorted(tuple(map(c.count, range(degree_rank)))
                          for c in combinations_with_replacement(range(degree_rank), total))


def insertion_multisets(rank: int, degree_rank: int, t_order: int, novikov_order: int,
                        zero_from: int) -> Iterator[tuple[DegreeVector, tuple[int, ...],
                                                          tuple[int, ...], int]]:
    """Every (beta, kappa) a generating series truncated at t_order and
    novikov_order sums over, with the exponent of its t and Novikov
    variables and the symmetry factor prod m_i! of its multiplicities.

    Degrees come in ascending total degree, then by the number n of
    insertions, then in the order of combinations_with_replacement, so the
    first missing key of a table is well defined.  Degree zero starts at
    n = zero_from insertions; positive degree at n = 0.
    """
    for beta in effective_degrees(degree_rank, novikov_order):
        for n in range(0 if any(beta) else zero_from, t_order + 1):
            for kappa in combinations_with_replacement(range(rank), n):
                counts = [0] * rank
                for idx in kappa:
                    counts[idx] += 1
                yield beta, kappa, tuple(counts) + beta, prod(map(factorial, counts))


def degree_zero_chi(ring: KRingPresentation) -> Callable[[Iterable[int]], Fraction]:
    """chi of the product of basis insertions, as a function of the multiset.

    Products are coordinate tuples in the basis e_0..e_r.  Each sorted
    multiset's product is one ring.times_basis away from its longest prefix
    already formed, so walking multisets in ascending order costs one
    product apiece; chi is ring.pair against the unit e_0, so two
    insertions give the pairing g_ij itself.  The cache lives in the
    returned function; build one per assembly.
    """
    products: dict[tuple[int, ...], tuple] = {(): (1,) + (0,) * (ring.rank - 1)}

    def chi(insertions: Iterable[int]) -> Fraction:
        key = tuple(sorted(int(i) for i in insertions))
        if key and (key[0] < 0 or key[-1] >= ring.rank):
            raise ValueError(
                f"insertion index out of range 0..{ring.rank - 1}: {list(key)}")
        cut = len(key)
        while key[:cut] not in products:
            cut -= 1
        acc = products[key[:cut]]
        for end in range(cut + 1, len(key) + 1):
            acc = ring.times_basis(acc, key[end - 1])
            products[key[:end]] = acc
        return ring.pair(acc, 0)

    return chi


class CorrelatorTable(Record):
    """Correlator values keyed by degree and sorted insertion multiset."""

    ring: KRingPresentation
    degree_rank: int
    target_doc: dict
    entries: dict[PlainKey, Fraction]
    descendent_entries: dict[MarkedKey, Fraction]

    @classmethod
    def empty(cls, ring: KRingPresentation, degree_rank: int,
              target_doc: dict) -> "CorrelatorTable":
        return cls(ring, degree_rank, dict(target_doc), {}, {})

    def with_entry(self, beta: DegreeVector, insertions: tuple[int, ...],
                   value: Fraction) -> "CorrelatorTable":
        key = table_key(self.ring.rank, self.degree_rank, beta, insertions)
        return self.replace(entries={**self.entries, key: _exact_value(value)})

    def with_descendent_entry(self, beta: DegreeVector, insertions: tuple[int, ...],
                              marked: tuple[int, int], value: Fraction) -> "CorrelatorTable":
        key = table_key(self.ring.rank, self.degree_rank, beta, insertions, marked)
        return self.replace(descendent_entries={**self.descendent_entries,
                                                key: _exact_value(value)})

    def to_json_dict(self) -> dict:
        plain = [
            {"beta": list(beta), "insertions": list(ins),
             "value": format_rational(self.entries[(beta, ins)])}
            for beta, ins in sorted(self.entries)
        ]
        marked = [
            {"beta": list(beta), "insertions": list(ins),
             "marked": {"class": cls_idx, "power": power},
             "value": format_rational(self.descendent_entries[(beta, ins, (cls_idx, power))])}
            for beta, ins, (cls_idx, power) in sorted(self.descendent_entries)
        ]
        return {
            "target": self.target_doc,
            "degree_rank": self.degree_rank,
            "correlators": plain,
            "descendent_correlators": marked,
        }


def ring_from_target(target_doc: object) -> KRingPresentation:
    if not isinstance(target_doc, dict) or "type" not in target_doc:
        raise SchemaError("target must be an object with a 'type' field")
    kind = target_doc["type"]
    if kind == "point":
        return point_kring()
    if kind == "projective":
        if "n" not in target_doc or type(target_doc["n"]) is not int:
            raise SchemaError("projective target needs an integer field 'n'")
        return projective_space_kring(target_doc["n"])
    if kind == "custom":
        if "ring" not in target_doc:
            raise SchemaError("custom target needs an embedded 'ring' presentation")
        return KRingPresentation.from_json_dict(target_doc["ring"])
    raise SchemaError(f"unknown target type {kind!r}")


def load_correlators(doc: object) -> CorrelatorTable:
    if not isinstance(doc, dict):
        raise SchemaError("correlator document must be an object")
    missing = {"target", "degree_rank", "correlators", "descendent_correlators"} - set(doc)
    if missing:
        raise SchemaError(f"correlator document missing fields: {sorted(missing)}")
    ring = ring_from_target(doc["target"])
    degree_rank = doc["degree_rank"]
    if type(degree_rank) is not int or degree_rank < 0:
        raise SchemaError("degree_rank must be a non-negative integer")

    for field in ("correlators", "descendent_correlators"):
        if not isinstance(doc[field], list):
            raise SchemaError(f"{field} must be a list")

    entries: dict[PlainKey, Fraction] = {}
    for item in doc["correlators"]:
        if not isinstance(item, dict) or set(item) != {"beta", "insertions", "value"}:
            raise SchemaError(f"malformed correlator entry: {item!r}")
        key = table_key(ring.rank, degree_rank, item["beta"], item["insertions"])
        if key in entries:
            raise DuplicateEntry(f"duplicate correlator key {key}")
        entries[key] = parse_rational(item["value"])

    descendent_entries: dict[MarkedKey, Fraction] = {}
    for item in doc["descendent_correlators"]:
        if not isinstance(item, dict) or set(item) != {"beta", "insertions", "marked", "value"}:
            raise SchemaError(f"malformed descendent entry: {item!r}")
        marked = item["marked"]
        if not isinstance(marked, dict) or set(marked) != {"class", "power"}:
            raise SchemaError(f"marked insertion must give 'class' and 'power': {item!r}")
        key = table_key(ring.rank, degree_rank, item["beta"], item["insertions"],
                        (marked["class"], marked["power"]))
        if key in descendent_entries:
            raise DuplicateEntry(f"duplicate descendent key {key}")
        descendent_entries[key] = parse_rational(item["value"])

    return CorrelatorTable(ring, degree_rank, dict(doc["target"]),
                           entries, descendent_entries)


class ConsistencyReport(Record):
    checked_pairs: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "checked_pairs": self.checked_pairs,
            "violations": list(self.violations),
            # Permutation invariance cannot fail: keys are sorted multisets.
            "sn_covariance": "enforced by multiset keys",
        }


def table_consistency_check(table: CorrelatorTable) -> ConsistencyReport:
    """Compare every pair of plain entries that differ by one unit insertion.

    Appending the unit class costs nothing at degree zero or positive degree,
    so related entries must agree exactly; each disagreement becomes one
    violation record.  Pairs whose partner is absent are skipped: absence
    means unknown, not zero.
    """
    checked = 0
    violations: list[dict] = []
    for (beta, ins), value in sorted(table.entries.items()):
        if 0 not in ins:
            continue
        reduced = list(ins)
        reduced.remove(0)
        parent_key = (beta, tuple(reduced))
        parent = table.entries.get(parent_key)
        if parent is None:
            continue
        checked += 1
        if parent != value:
            violations.append({
                "beta": list(beta),
                "insertions": list(ins),
                "parent_insertions": list(parent_key[1]),
                "value": format_rational(value),
                "parent_value": format_rational(parent),
            })
    return ConsistencyReport(checked, tuple(violations))
