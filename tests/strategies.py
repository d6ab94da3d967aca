"""Hypothesis strategies shared by the property tests."""

import math
from fractions import Fraction

from hypothesis import strategies as st


def fractions_in(lo, hi, max_denominator):
    """The values of ``st.fractions(lo, hi, max_denominator=...)``, drawn by
    ``st.sampled_from``: every p/q in [lo, hi] with q <= max_denominator, the
    bounds and 0 among them when in range.

    They are listed simplest first (by denominator, then by size, positive
    before negative), and ``sampled_from`` shrinks towards the head of its
    list, so a failing example still shrinks to simple values.  A draw picks
    one index, where ``st.fractions`` builds and validates a new strategy on
    every draw.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    values = {
        Fraction(p, q)
        for q in range(1, max_denominator + 1)
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
    }
    return st.sampled_from(sorted(values, key=lambda x: (x.denominator, abs(x), x < 0)))
