"""Checks on the reports a pass returns, and the statistics run.py prints.

Identity ids that carry a phase angle (``cs.rot+@0.785398``) get part of their
angles from the seed, so ids are compared after the angle is replaced by
``@*``: the expected set is a multiset of normalized ids per suite config.
"""

from __future__ import annotations

import math
import re
from collections import Counter

_ANGLE = re.compile(r"@[-+0-9.eE]+$")

# -log10 of a residual below this is reported as this many digits, so an
# exact zero residual gives a finite accuracy figure.
RESIDUAL_FLOOR = 1e-17


def normalize_id(identity_id: str) -> str:
    return _ANGLE.sub("@*", identity_id)


def check_config(expected: dict, result: dict) -> dict:
    """Compare one suite config's outcome with its recorded id multiset.

    ``expected["ids"]`` maps normalized ids to counts.  ``result`` has
    ``error`` (None or a message) and ``reports`` (rows ``[id, passed,
    rel_residual, tol]``).  A raised suite is a failed operation (``error``);
    a wrong id multiset or a pass flag that disagrees with its residual and
    tolerance is a wrong output (``problem``).  Either counts every expected
    id as failing; otherwise the failing ids are those the program itself
    reports as not passed.
    """
    n_expected = sum(expected["ids"].values())
    if result.get("error") is not None:
        return {"expected": n_expected, "failing": n_expected,
                "failing_ids": [], "error": result["error"], "problem": None}
    rows = result["reports"]
    got = Counter(normalize_id(row[0]) for row in rows)
    problem = None
    if got != Counter(expected["ids"]):
        missing = sorted((Counter(expected["ids"]) - got).elements())
        extra = sorted((got - Counter(expected["ids"])).elements())
        problem = f"id set differs: missing {missing}, extra {extra}"
    else:
        flag_errors = [row[0] for row in rows
                       if bool(row[1]) != (row[2] <= row[3])]
        if flag_errors:
            problem = f"pass flag disagrees with residual and tol: {flag_errors}"
    failing_ids = sorted(row[0] for row in rows if not row[1])
    return {"expected": n_expected,
            "failing": n_expected if problem else len(failing_ids),
            "failing_ids": failing_ids, "error": None, "problem": problem}


def failure_counts(checked: list[dict]) -> tuple[int, int]:
    """Failing and expected identity reports; failed_frac is their ratio."""
    return (sum(c["failing"] for c in checked),
            sum(c["expected"] for c in checked))


def accuracy_digits(rows: list[list]) -> float:
    """-log10 of the largest relative residual over a pass's reports."""
    worst = max((row[2] for row in rows), default=0.0)
    return -math.log10(max(worst, RESIDUAL_FLOOR))


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile: p is the sorted sample at index
    ceil(p/100 * n) - 1.  The samples beyond it number n - 1 - index, so the
    highest such p is floor(100 (n - 10) / n).  Fewer than eleven samples
    leave no such percentile and give None.
    """
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    index = max(math.ceil(p * n / 100) - 1, 0)
    return p, sorted(samples)[index]
