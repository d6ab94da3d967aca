"""Walls, half-apartments and affine reflections of the model apartment.

A wall is the zero locus of alpha(.) + k for a positive real root alpha and an
integer level k; the reflection in it is r_alpha followed by the translation
by -k alpha^v.  Levels are always integers: the "ghost" walls of the
unrestricted structure never become Wall values.  A linear piece along which
alpha runs from u0 to u1 meets the alpha-walls at the levels of
levels_crossed(u0, u1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .linalg import Vec
from .root_system import RealRoot, RootGeneratingSystem


@dataclass(frozen=True)
class Wall:
    """M(alpha, k) = { v : alpha(v) + k = 0 }, with alpha positive."""

    root: RealRoot
    level: int

    def __post_init__(self):
        if not self.root.is_positive:
            # M(alpha, k) = M(-alpha, -k); normalize to the positive root
            object.__setattr__(self, "root", self.root.negated())
            object.__setattr__(self, "level", -self.level)


@dataclass(frozen=True)
class HalfApartment:
    """D(alpha, k) (closed) or its open variant, for alpha of either sign."""

    root: RealRoot
    level: int
    closed: bool = True

    def contains(self, system: RootGeneratingSystem, v: Vec) -> bool:
        val = system.root_eval(self.root, v) + self.level
        return val >= 0 if self.closed else val > 0


@dataclass(frozen=True)
class AffineReflection:
    wall: Wall

    def apply(self, system: RootGeneratingSystem, y: Vec) -> Vec:
        return affine_reflect(system, self.wall, y)


def wall_eval(system: RootGeneratingSystem, wall: Wall, x: Vec) -> Fraction:
    """alpha(x) + k; zero exactly on the wall."""
    return system.root_eval(wall.root, x) + wall.level


def affine_reflect(system: RootGeneratingSystem, wall: Wall, y: Vec) -> Vec:
    """r_{alpha,k}(y) = r_alpha(y) - k alpha^v."""
    ry = system.reflect_by_root(wall.root, y)
    if wall.level == 0:
        return ry
    cv = system.coroot_vector(wall.root)
    return tuple(a - wall.level * b for a, b in zip(ry, cv))


def is_special(system: RootGeneratingSystem, x: Vec) -> bool:
    """True iff every real root takes an integer value at x.

    Every real root is an integer combination of simple roots, so checking
    the simple roots suffices.
    """
    return all(system.pairing(i, x).denominator == 1 for i in range(system.n))


def walls_through(system: RootGeneratingSystem, x: Vec, h: int):
    """All walls through x whose root has height <= h, by (height, coeffs)."""
    out = []
    for root in system.real_roots_up_to_height(h):
        val = system.root_eval(root, x)
        if val.denominator == 1:
            out.append(Wall(root, -int(val)))
    return out


def levels_crossed(u0, u1) -> range:
    """The integers met going from u0 (included) towards u1 (excluded), in order.

    >>> list(levels_crossed(Fraction(1, 2), 3))
    [1, 2]
    >>> list(levels_crossed(2, Fraction(-1, 2)))
    [2, 1, 0]
    """
    if u0 <= u1:
        return range(ceil(u0), ceil(u1))
    return range(floor(u0), floor(u1), -1)
