from fractions import Fraction as F

from hypothesis import example, given
from hypothesis import strategies as st

from heckepaths.apartment import (
    AffineReflection,
    HalfApartment,
    Wall,
    affine_reflect,
    is_special,
    levels_crossed,
    wall_eval,
    walls_through,
)

from conftest import frac_vec


def alpha(system, i=0):
    return system.simple_root_obj(i)


class TestWallEval:
    def test_on_wall(self, a1):
        assert wall_eval(a1, Wall(alpha(a1), 1), (F(-1, 2),)) == 0

    def test_origin_on_zero_wall(self, a1):
        assert wall_eval(a1, Wall(alpha(a1), 0), (F(0),)) == 0

    def test_level_minus_one(self, a1):
        assert wall_eval(a1, Wall(alpha(a1), -1), (F(0),)) == -1

    def test_negative_root_normalized(self, a1):
        w = Wall(alpha(a1).negated(), -1)
        assert w.root.is_positive and w.level == 1


class TestAffineReflect:
    def test_translation_reflection(self, a1):
        assert affine_reflect(a1, Wall(alpha(a1), 1), (F(0),)) == (F(-1),)

    def test_linear_part(self, a1):
        assert affine_reflect(a1, Wall(alpha(a1), 0), (F(1),)) == (F(-1),)

    def test_fixes_wall_point(self, a1):
        assert affine_reflect(a1, Wall(alpha(a1), 1), (F(-1, 2),)) == (F(-1, 2),)

    def test_involution_everywhere(self, a2):
        wall = Wall(a2.real_roots_up_to_height(2)[-1], 3)
        for x in [frac_vec(0, 0), (F(1, 2), F(-2, 3)), frac_vec(5, -1)]:
            assert affine_reflect(a2, wall, affine_reflect(a2, wall, x)) == x
            if wall_eval(a2, wall, x) != 0:
                assert affine_reflect(a2, wall, x) != x

    def test_equals_translation_of_linear(self, a2):
        # r_{alpha,k} = t_{-k alpha^v} . r_alpha as maps, on a sample grid
        for root in a2.real_roots_up_to_height(2):
            cv = a2.coroot_vector(root)
            for k in (-2, 0, 1):
                wall = Wall(root, k)
                for x in [frac_vec(0, 0), (F(1, 3), F(1)), frac_vec(-2, 1)]:
                    lin = a2.reflect_by_root(root, x)
                    expected = tuple(a - k * b for a, b in zip(lin, cv))
                    assert affine_reflect(a2, wall, x) == expected

    def test_reflection_object(self, a1):
        refl = AffineReflection(Wall(alpha(a1), 1))
        assert refl.apply(a1, (F(0),)) == (F(-1),)


class TestSpecial:
    def test_origin(self, a2):
        assert is_special(a2, frac_vec(0, 0))

    def test_half_coroot_a2(self, a2):
        assert not is_special(a2, (F(1, 2), F(0)))

    def test_half_coroot_a1(self, a1):
        assert is_special(a1, (F(1, 2),))

    def test_special_means_full_wall_set(self, a2):
        h = 2
        roots = a2.real_roots_up_to_height(h)
        for x in [frac_vec(0, 0), frac_vec(1, -2), (F(1, 2),) * 2]:
            if is_special(a2, x):
                assert len(walls_through(a2, x, h)) == len(roots)


class TestWallsThrough:
    def test_a1_half_point(self, a1):
        walls = walls_through(a1, (F(-1, 2),), 1)
        assert walls == [Wall(alpha(a1), 1)]

    def test_a1_third_point(self, a1):
        assert walls_through(a1, (F(1, 3),), 1) == []

    def test_a2_origin(self, a2):
        walls = walls_through(a2, frac_vec(0, 0), 2)
        assert {(w.root.coeffs, w.level) for w in walls} == {
            ((1, 0), 0),
            ((0, 1), 0),
            ((1, 1), 0),
        }


class TestHalfApartment:
    def test_closed_contains_boundary(self, a1):
        d = HalfApartment(alpha(a1), 1, closed=True)
        assert d.contains(a1, (F(-1, 2),))

    def test_open_excludes_boundary(self, a1):
        d = HalfApartment(alpha(a1), 1, closed=False)
        assert not d.contains(a1, (F(-1, 2),))
        assert d.contains(a1, (F(0),))


def scan_levels(u0, u1):
    """Integers from u0 (included) towards u1 (excluded), by scanning a window."""
    lo, hi = int(min(u0, u1)) - 2, int(max(u0, u1)) + 2
    if u0 <= u1:
        return [m for m in range(lo, hi) if u0 <= m < u1]
    return [m for m in range(hi, lo, -1) if u1 < m <= u0]


endpoints = st.one_of(
    st.integers(-5, 5).map(F), st.fractions(min_value=-5, max_value=5, max_denominator=6)
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
