"""Rational literals and vectors at the API boundary, JSON files, and exact elimination.

Every coordinate and time from outside is read by parse_rational; vectors cross the API
as tuples of Fraction, inside the library they are integer points (see root_system).
The one elimination runs on integers.

>>> parse_rational("-3/4")
Fraction(-3, 4)
>>> format_rational(Fraction(5, 1))
'5'
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import FormatError

Vec = tuple  # tuple[Fraction, ...] in spirit; ints and "p/q" strings are accepted on input


def parse_rational(text) -> Fraction:
    """Parse "p" or "p/q" (strings), an int or a Fraction; FormatError for anything else."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise FormatError(f"not a rational literal: {text!r}")
    try:
        try:  # int reads a subset of Fraction's literals, to equal values, without a regex
            return Fraction(int(text))
        except ValueError:
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational literal: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_vector(items) -> Vec:
    if not isinstance(items, list):
        raise FormatError(f"expected a JSON array of rationals, got {items!r}")
    return tuple(parse_rational(x) for x in items)


def format_vector(v: Vec) -> list:
    return [format_rational(x) for x in v]


def _read_json(path, what: str):
    """The JSON value in the file at path; FormatError naming what file it is if unreadable, not UTF-8 or not JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc}") from exc


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on integers.

    Each row is scaled to integers by the lcm of its denominators, and every
    step divides exactly by the previous pivot, so after k steps the first k
    rows are the reduced rows times the k-th pivot, the minor of the scaled,
    row-swapped matrix on its first k rows and pivot columns.  Returns
    (integer rows, pivot columns, last pivot, sign of the row swaps, product
    of the row scales).
    """
    m = []
    scales = 1
    for entries in rows:
        entries = list(entries)
        s = lcm(*[x.denominator for x in entries])
        m.append([x.numerator * (s // x.denominator) for x in entries])
        scales *= s
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    sign, prev = 1, 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        for piv in range(row, nrows):
            if m[piv][col]:
                break
        else:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        top = m[row]
        pv = top[col]
        for r in range(nrows):
            if r != row:
                f = m[r][col]
                m[r] = [(pv * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = pv
        pivots.append(col)
    return m, pivots, prev, sign, scales


def mat_rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows.

    >>> mat_rank([(2, -2), (-2, 2)])
    1
    """
    return len(_eliminate(rows)[1])
