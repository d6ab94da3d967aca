"""The integer levels a linear piece of the model apartment crosses.

A wall is the zero locus of alpha(.) + k for a positive real root alpha and an
integer level k.  A linear piece along which alpha runs from u0 to u1 meets
the alpha-walls at the levels of levels_crossed(u0, u1); the "ghost" walls of
non-integral level never appear.
"""

from __future__ import annotations


def levels_crossed(u0, u1, den=1) -> range:
    """The integers met going from u0 / den (included) towards u1 / den (excluded),
    in order; exact for integers over den > 0 and for Fractions over den = 1.

    >>> from fractions import Fraction
    >>> list(levels_crossed(Fraction(1, 2), 3))
    [1, 2]
    >>> list(levels_crossed(2, Fraction(-1, 2)))
    [2, 1, 0]
    >>> list(levels_crossed(3, 18, 6)), list(levels_crossed(12, -3, 6))
    ([1, 2], [2, 1, 0])
    """
    if u0 <= u1:
        return range(-(-u0 // den), -(-u1 // den))
    return range(u0 // den, u1 // den, -1)
