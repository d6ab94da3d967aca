from fractions import Fraction as F

from hypothesis import example, given
from hypothesis import strategies as st

from heckepaths.apartment import levels_crossed

from strategies import fractions_in


def scan_levels(u0, u1):
    """Integers from u0 (included) towards u1 (excluded), by scanning a window."""
    lo, hi = int(min(u0, u1)) - 2, int(max(u0, u1)) + 2
    if u0 <= u1:
        return [m for m in range(lo, hi) if u0 <= m < u1]
    return [m for m in range(hi, lo, -1) if u1 < m <= u0]


endpoints = st.one_of(
    st.integers(-5, 5).map(F), fractions_in(-5, 5, max_denominator=6)
)


class TestLevelsCrossed:
    @given(endpoints, endpoints)
    @example(F(1, 2), F(7, 2))  # increasing
    @example(F(7, 2), F(1, 2))  # decreasing
    @example(F(2), F(-1))  # integral, decreasing
    @example(F(-1), F(2))  # integral, increasing
    @example(F(3, 2), F(3, 2))  # equal
    @example(F(2), F(2))  # equal and integral
    def test_matches_scan(self, u0, u1):
        levels = levels_crossed(u0, u1)
        assert isinstance(levels, range)
        assert list(levels) == scan_levels(u0, u1)

    @given(
        st.one_of(st.integers(1, 12), st.integers(1, 2**61 - 1)).flatmap(
            lambda d: st.tuples(st.integers(-5 * d, 5 * d), st.integers(-5 * d, 5 * d), st.just(d))
        )
    )
    @example((3, 18, 6))  # increasing, from a non-integer to an integer
    @example((12, -3, 6))  # decreasing, from an integer
    @example((-7, -7, 3))  # equal
    @example((6, 6, 3))  # equal and integral
    def test_integers_over_a_denominator_match_scan(self, point):
        u0, u1, den = point
        levels = levels_crossed(u0, u1, den)
        assert isinstance(levels, range)
        assert list(levels) == scan_levels(F(u0, den), F(u1, den))
