"""Small exact linear algebra over Fraction.

Vectors are plain tuples of Fraction, matrices are tuples of row tuples.
Sizes here are tiny (a handful of rows), so clarity beats asymptotics.

>>> parse_rational("-3/4")
Fraction(-3, 4)
>>> format_rational(Fraction(5, 1))
'5'
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import FormatError

Vec = tuple  # tuple[Fraction, ...] in spirit; plain ints are accepted on input


def parse_rational(text) -> Fraction:
    """Parse "p" or "p/q" (strings) or an int; floats are rejected."""
    if isinstance(text, bool):
        raise FormatError(f"not a rational literal: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise FormatError(f"not a rational literal: {text!r}")
    try:
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


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def is_integral_vec(u: Vec) -> bool:
    return all(Fraction(a).denominator == 1 for a in u)


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


def row_reduce(rows):
    """Exact reduced row echelon form of a matrix given as an iterable of rows.

    Returns (reduced rows, pivot columns, determinant); the determinant is 0
    unless the matrix is square and invertible.  Entries are ints or
    Fractions.  The elimination runs on integers (_eliminate); the reduced
    rows are its rows over the last pivot, and the determinant is sign x last
    pivot / product of the row scales.

    >>> reduced, pivots, det = row_reduce([(0, 2), (1, 3)])
    >>> reduced == [[1, 0], [0, 1]], pivots, det
    (True, [0, 1], Fraction(-2, 1))
    """
    m, pivots, prev, sign, scales = _eliminate(rows)
    reduced = [[Fraction(x, prev) for x in row] for row in m]
    square = len(pivots) == len(m) == (len(m[0]) if m else 0)
    return reduced, pivots, Fraction(sign * prev, scales) if square else Fraction(0)


def mat_rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows.

    >>> mat_rank([(2, -2), (-2, 2)])
    1
    """
    return len(_eliminate(rows)[1])


def nullspace(rows):
    """Basis of the right kernel of A, as a list of vectors.

    >>> nullspace([(2, -2), (-2, 2)])
    [(Fraction(1, 1), Fraction(1, 1))]
    """
    m, pivots, _ = row_reduce(rows)
    ncols = len(m[0]) if m else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def scale_to_primitive_integers(v: Vec) -> Vec:
    """Scale a nonzero rational vector to coprime integers, keeping its sign."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(Fraction(x // g) for x in ints)
