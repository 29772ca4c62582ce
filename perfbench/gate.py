"""Output-correctness gate: compare result rows with the seed-7 reference.

Rows are compared numerically, never as bytes, so a refactor that moves the
last bits passes while a wrong estimator fails:

- at the reference seed, ``value`` and ``std_error`` (and numeric tokens of
  ``param_value``) must agree within ``ATOL + RTOL * |reference|``;
- at any other seed, every number must be finite and ``value`` must agree
  with the reference within ``SIGMAS`` combined standard errors (plus the
  same tolerance, for rows whose standard error is zero).

A nonzero exit, or a missing or extra row, fails every expected row.
"""

from __future__ import annotations

import csv
import math

REFERENCE_SEED = 7
ATOL = 1e-12
RTOL = 1e-9
SIGMAS = 5.0

# Columns that identify a row; the seed column differs between seeds and
# param_value may carry seed-dependent numbers (e.g. the two means of a
# universality gap), so neither is part of the identity.
_IDENTITY = ("experiment", "N", "n", "p", "param_key", "replicates")


def read_rows(paths) -> list[dict]:
    rows = []
    for path in paths:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows.extend(csv.DictReader(handle))
    return rows


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def row_ok(row: dict, ref: dict, seed: int) -> bool:
    if any(row[k] != ref[k] for k in _IDENTITY):
        return False
    value, err = _number(row["value"]), _number(row["std_error"])
    if value is None or err is None or not (math.isfinite(value) and math.isfinite(err)):
        return False
    tokens, ref_tokens = row["param_value"].split("|"), ref["param_value"].split("|")
    if len(tokens) != len(ref_tokens):
        return False
    ref_value, ref_err = float(ref["value"]), float(ref["std_error"])
    for tok, ref_tok in zip(tokens, ref_tokens):
        num, ref_num = _number(tok), _number(ref_tok)
        if (num is None) != (ref_num is None):
            return False
        if num is None:
            if tok != ref_tok:
                return False
        elif not math.isfinite(num) or (seed == REFERENCE_SEED and not _close(num, ref_num)):
            return False
    if seed == REFERENCE_SEED:
        return _close(value, ref_value) and _close(err, ref_err)
    band = SIGMAS * math.hypot(err, ref_err) + ATOL + RTOL * abs(ref_value)
    return abs(value - ref_value) <= band


def count_failed(rows: list[dict] | None, reference: list[dict], seed: int,
                 exit_code: int) -> int:
    """Failed operations of one pass; every reference row is one operation."""
    if exit_code != 0 or rows is None or len(rows) != len(reference):
        return len(reference)
    return sum(not row_ok(row, ref, seed) for row, ref in zip(rows, reference))
