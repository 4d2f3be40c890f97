"""Independent checks of the reports the program writes.

Nothing here imports the program: each check rests on a closed form, a rule
or a recursion that is stated in this file, so a wrong answer from the
program cannot also make its check pass.
"""

from __future__ import annotations

import json
from math import comb

ZERO = "0/1"


def _residual_values(node):
    """Every ``max_residual`` string anywhere inside a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "max_residual":
                yield value
            else:
                yield from _residual_values(value)
    elif isinstance(node, list):
        for item in node:
            yield from _residual_values(item)


def check_residual_report(text: str, exit_code: int,
                          min_residuals: int) -> list[str]:
    """A frobenius-check or qde-check report: exit 0 and every residual 0."""
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}, expected 0")
    doc = json.loads(text)
    values = list(_residual_values(doc))
    if len(values) < min_residuals:
        errors.append(f"{len(values)} residuals reported, "
                      f"expected at least {min_residuals}")
    nonzero = [v for v in values if v != ZERO]
    if nonzero:
        errors.append(f"nonzero residuals: {nonzero[:5]}")
    if doc.get("complete") is False:
        errors.append("fundamental solution reported incomplete")
    return errors


def check_table_report(text: str, exit_code: int,
                       expected_pairs: int) -> list[str]:
    """A table-check report: exit 0, no violations, every pair checked."""
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}, expected 0")
    doc = json.loads(text)
    if doc.get("violations") != []:
        errors.append(f"violations: {doc.get('violations')!r:.200}")
    if doc.get("checked_pairs") != expected_pairs:
        errors.append(f"checked {doc.get('checked_pairs')} pairs, "
                      f"expected {expected_pairs}")
    return errors


def reducible(index: list[int]) -> bool:
    """String and dilaton steps reach n = 3 exactly when at least n - 3
    powers are 0 or 1."""
    return sum(d <= 1 for d in index) >= len(index) - 3


def expected_value(index: list[int]) -> int | None:
    """Closed-form E(n; d) where one is known, else None.

    n = 4: the moduli space is P^1 and each cotangent line has degree 1, so
    E = d_1 + ... + d_4 + 1 by Riemann-Roch.  One descendent d at n points:
    E(n; 0, ..., 0, d) = C(n + d - 3, d).
    """
    n = len(index)
    if n == 4 and reducible(index):
        return sum(index) + 1
    nonzero = [d for d in index if d]
    if len(nonzero) <= 1:
        d = nonzero[0] if nonzero else 0
        return comb(n + d - 3, d)
    return None


def reference_values(batch: list[list[int]]) -> list[int | None]:
    """E(n; d) for every reducible index of the batch, None for the rest.

    E(3; d) = 1.  For n >= 4, forget a point j with d_j <= 1 and let d' be
    the other n - 1 powers; then

        E(n; d) = c E(n-1; d') + sum_{i != j} sum_{k=1}^{d_i} E(n-1; d' with d_i -> d_i - k)

    with c = 1 at a power 0 (string step) and c = n - 2 at a power 1
    (dilaton step).  The value does not depend on which such point is
    forgotten; this evaluator forgets a power 1 whenever there is one, so it
    also takes a different path through the recursion than an evaluator
    that always forgets the lowest power.
    """
    memo: dict[tuple[int, ...], int] = {}

    def value(powers: tuple[int, ...]) -> int:
        known = memo.get(powers)
        if known is not None:
            return known
        n = len(powers)
        if n == 3:
            result = 1
        else:
            j = powers.index(1) if 1 in powers else powers.index(0)
            rest = powers[:j] + powers[j + 1:]
            result = (n - 2 if powers[j] == 1 else 1) * value(rest)
            for i, d in enumerate(rest):
                for k in range(1, d + 1):
                    result += value(tuple(sorted(
                        rest[:i] + (d - k,) + rest[i + 1:])))
        memo[powers] = result
        return result

    return [value(tuple(sorted(index))) if reducible(index) else None
            for index in batch]


def check_batch_report(text: str, exit_code: int, batch: list[list[int]],
                       expected: list[int | None]) -> list[str]:
    """A descendent batch report: one line per index, in order.

    ``expected`` is ``reference_values(batch)``; every value must equal it
    and, where one is known, the closed form too.
    """
    errors = []
    expected_code = 0 if all(map(reducible, batch)) else 2
    if exit_code != expected_code:
        errors.append(f"exit code {exit_code}, expected {expected_code}")
    lines = text.splitlines()
    if len(lines) != len(batch):
        return errors + [f"{len(lines)} lines for {len(batch)} indices"]
    for number, (line, index) in enumerate(zip(lines, batch), 1):
        doc = json.loads(line)
        if doc.get("index") != index:
            errors.append(f"line {number}: index {doc.get('index')}, "
                          f"expected {index}")
            continue
        value = doc.get("value")
        if not reducible(index):
            if value != "NotReducible":
                errors.append(f"line {number}: {index} gave {value!r}, "
                              "expected NotReducible")
            continue
        if not isinstance(value, str) or not value.lstrip("-").isdigit():
            errors.append(f"line {number}: {index} gave {value!r}, "
                          "expected an integer")
            continue
        for known in (expected[number - 1], expected_value(index)):
            if known is not None and int(value) != known:
                errors.append(f"line {number}: {index} gave {value}, "
                              f"expected {known}")
    return errors
