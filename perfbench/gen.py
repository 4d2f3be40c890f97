"""Seeded input generators for the benchmark workloads.

The program under test only ever sees the files written here.  The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement

BATCH_SIZE = 2000
BATCH_MIN_N = 4
BATCH_MAX_N = 16
BATCH_MAX_POWER = 10
# Every tenth index is drawn irreducible, so the batch always exits 2.
IRREDUCIBLE_EVERY = 10
# Every twentieth index has the single-descendent shape (0, ..., 0, d),
# which the verifier checks against a closed form.
SINGLE_DESCENDENT_EVERY = 20

P1_MAX_DEGREE = 4
P1_MAX_INSERTIONS = 9


def descendent_batch(seed: int) -> list[list[int]]:
    """Indices with n = 4..16 points and cotangent powers <= 10.

    The number of points and the kind of each index (reducible, irreducible,
    single-descendent) follow a fixed stratified pattern, so every seed asks
    for the same mix of work; the seed draws the powers, their positions and
    the order of the batch.  An index is reducible exactly when at least
    n - 3 of its powers are 0 or 1.
    """
    rng = random.Random(seed)
    span = BATCH_MAX_N - BATCH_MIN_N + 1
    batch = []
    for slot in range(BATCH_SIZE):
        n = BATCH_MIN_N + slot % span
        if slot % IRREDUCIBLE_EVERY == IRREDUCIBLE_EVERY - 1:
            small = rng.randint(0, n - 4)
        elif slot % SINGLE_DESCENDENT_EVERY == 0:
            batch.append([0] * (n - 1) + [rng.randint(0, BATCH_MAX_POWER)])
            continue
        else:
            small = rng.randint(n - 3, n)
        powers = ([rng.randint(0, 1) for _ in range(small)]
                  + [rng.randint(2, BATCH_MAX_POWER) for _ in range(n - small)])
        rng.shuffle(powers)
        batch.append(powers)
    rng.shuffle(batch)
    return batch


def p1_insertion_sets() -> list[tuple[int, ...]]:
    """Every insertion multiset over the P^1 basis {1, O_pt} of size <= 9."""
    return [kappa for n in range(P1_MAX_INSERTIONS + 1)
            for kappa in combinations_with_replacement(range(2), n)]


def p1_quantum_table(seed: int, corrupt: dict | None = None) -> dict:
    """Correlator table of P^1 in degrees 1..4, every invariant equal to 1.

    With insertions from {1, O_pt}, each positive-degree K-theoretic
    Gromov-Witten invariant of P^1 is the Euler characteristic of a rational
    Gromov-Witten variety, which is 1 (Buch-Mihalcea, Duke Math. J. 156,
    2011).  The seed only shuffles the entry order.  ``corrupt`` maps
    (degree, insertions) to a replacement value, for negative controls.
    """
    rng = random.Random(seed)
    corrupt = corrupt or {}
    entries = [
        {"beta": [d], "insertions": list(kappa),
         "value": corrupt.get((d, kappa), "1")}
        for d in range(1, P1_MAX_DEGREE + 1) for kappa in p1_insertion_sets()
    ]
    rng.shuffle(entries)
    return {
        "target": {"type": "projective", "n": 1},
        "degree_rank": 1,
        "correlators": entries,
        "descendent_correlators": [],
    }


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
