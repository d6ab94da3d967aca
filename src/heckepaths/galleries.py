"""Positively folded galleries at a point and the parameter patterns they carry.

Chambers in the residue at a point z are Weyl elements relative to the local
fundamental chamber c_0; a wall through z is "true" when its root takes an
integer value at z, and only true walls admit folds or contribute parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import CrossCheckMismatch, FoldNotApplicable, FormatError, NotHecke
from .linalg import Vec, format_rational, format_vector, parse_rational, parse_vector
from .paths import (
    LambdaPath,
    _breakpoint_chains,
    _falling_wall_events,
    _piece_before,
    ddim_events,
    eval_path,
    is_hecke,
)
from .root_system import RealRoot, RootGeneratingSystem, WeylElement


def _wall_direction(system, chamber: WeylElement, i: int) -> RealRoot:
    """Positive root of the wall spanned by the type-i panel of chamber."""
    beta = system.simple_root_obj(i)
    for idx in reversed(chamber.word):
        beta = system.reflect_root(idx, beta)
    return beta if beta.is_positive else beta.negated()


def _on_positive_side(system, chamber: WeylElement, beta: RealRoot) -> bool:
    """Side of the chamber germ d.c_0 relative to the beta-wall through the point.

    The germ lies on the positive side exactly when d^{-1}(beta) is positive;
    d^{-1} acts by applying the letters of d's word first-to-last.
    """
    img = beta
    for i in chamber.word:
        img = system.reflect_root(i, img)
    return img.is_positive


@dataclass(frozen=True)
class GalleryAtPoint:
    system: RootGeneratingSystem = field(compare=False, repr=False, hash=False)
    point: Vec = ()
    type_word: tuple = ()  # generator indices i_1 .. i_n
    chambers: tuple = ()  # tuple[WeylElement], d_0 .. d_n with d_0 = e
    folds: frozenset = frozenset()  # step positions 1..n where d_j = d_{j-1}

    @property
    def n(self) -> int:
        return len(self.type_word)

    def step_root(self, j: int) -> RealRoot:
        """Direction of the wall of step j (1-based), normalized positive."""
        return _wall_direction(self.system, self.chambers[j - 1], self.type_word[j - 1])

    @cached_property
    def _point_pairings(self):
        return self.system._pairings([self.point])

    def step_is_true(self, j: int) -> bool:
        den, (pairs,) = self._point_pairings
        return self.step_root(j).value(pairs) % den == 0

    def trueness(self):
        return tuple(self.step_is_true(j) for j in range(1, self.n + 1))

    def to_json_dict(self) -> dict:
        return {
            "point": format_vector(self.point),
            "type": [i + 1 for i in self.type_word],
            "chambers": [[i + 1 for i in d.word] for d in self.chambers],
            "folds": sorted(self.folds),
            "true_walls": list(self.trueness()),
            "neg": neg_count(self),
        }


def gallery_from_json_dict(system: RootGeneratingSystem, data: dict) -> GalleryAtPoint:
    return GalleryAtPoint(
        system,
        parse_vector(data["point"]),
        tuple(i - 1 for i in data["type"]),
        tuple(system.normalize_word(tuple(i - 1 for i in w)) for w in data["chambers"]),
        frozenset(data["folds"]),
    )


def minimal_gallery(system: RootGeneratingSystem, z, word) -> GalleryAtPoint:
    """The unfolded gallery of the given reduced type, starting at c_0."""
    word = tuple(word.word) if isinstance(word, WeylElement) else tuple(word)
    if system.normalize_word(word).length != len(word):
        raise FormatError("gallery type must be a reduced word")
    chambers = [system.normalize_word(())]
    for i in word:
        chambers.append(system.mult(chambers[-1], system.normalize_word((i,))))
    return GalleryAtPoint(system, tuple(Fraction(x) for x in z), word, tuple(chambers), frozenset())


def fold_gallery(gallery: GalleryAtPoint, chain_roots) -> GalleryAtPoint:
    """Fold successively along the given roots, each at a positive crossing.

    Each root must name a true wall through the gallery's point that
    separates c_0 from the current end chamber; the fold happens at the first
    step crossing that wall from its positive side.
    """
    sys_ = gallery.system
    chambers = list(gallery.chambers)
    folds = set(gallery.folds)
    word = gallery.type_word
    den, (pairs,) = gallery._point_pairings
    for k, beta in enumerate(chain_roots, start=1):
        beta = beta if beta.is_positive else beta.negated()
        if beta.value(pairs) % den:
            raise FoldNotApplicable(k, f"wall of {beta!r} through the point is not true")
        if _on_positive_side(sys_, chambers[-1], beta):
            raise FoldNotApplicable(k, f"{beta!r} does not separate c_0 from the end chamber")
        refl = sys_.reflection_element(beta)
        spot = None
        for j in range(1, len(word) + 1):
            if j in folds:
                continue
            if _wall_direction(sys_, chambers[j - 1], word[j - 1]) != beta:
                continue
            if _on_positive_side(sys_, chambers[j - 1], beta) and not _on_positive_side(
                sys_, chambers[j], beta
            ):
                spot = j
                break
        if spot is None:
            raise FoldNotApplicable(k, f"no positive crossing of {beta!r} to fold at")
        for j in range(spot, len(chambers)):
            chambers[j] = sys_.mult(refl, chambers[j])
        folds.add(spot)
    return GalleryAtPoint(sys_, gallery.point, word, tuple(chambers), frozenset(folds))


def neg_count(gallery: GalleryAtPoint) -> int:
    """Steps whose wall is true and separates the arriving chamber from c_0."""
    total = 0
    for j in range(1, gallery.n + 1):
        if j in gallery.folds:
            continue
        if not gallery.step_is_true(j):
            continue
        if not _on_positive_side(gallery.system, gallery.chambers[j], gallery.step_root(j)):
            total += 1
    return total


def _end_contains(system, chamber: WeylElement, direction: Vec) -> bool:
    """True iff the closed chamber germ contains the ray along direction."""
    return system.is_dominant(system.act(system.inverse(chamber), direction))


def galleries_of_type(system, z, word, target_direction):
    """All positively-folded-along-true-walls galleries of the given type
    from c_0 whose end chamber contains the target direction.

    Folds are offered only at true walls with the repeated chamber on the
    positive side; ghost walls are always crossed.
    """
    word = tuple(word)
    z = tuple(Fraction(x) for x in z)
    den, (pairs,) = system._pairings([z])
    out = []

    def extend(chambers, folds):
        j = len(chambers) - 1
        if j == len(word):
            if _end_contains(system, chambers[-1], target_direction):
                out.append(GalleryAtPoint(system, z, word, tuple(chambers), frozenset(folds)))
            return
        i = word[j]
        extend(chambers + [system.mult(chambers[-1], system.normalize_word((i,)))], folds)
        beta = _wall_direction(system, chambers[-1], i)
        if beta.value(pairs) % den == 0 and _on_positive_side(
            system, chambers[-1], beta
        ):
            extend(chambers + [chambers[-1]], folds | {j + 1})

    extend([system.normalize_word(())], set())
    return out


# -- decorated paths -----------------------------------------------------------


@dataclass(frozen=True)
class DecoratedHeckePath:
    path: LambdaPath
    galleries: tuple  # tuple[(t, GalleryAtPoint)], one per interior breakpoint


def decorate_with_max_chains(path: LambdaPath, h: int = 20) -> DecoratedHeckePath:
    """Decorate each breakpoint by folding its minimal gallery along the
    first longest chain (for LS paths these realize codim_tilde = codim)."""
    check, walks = _breakpoint_chains(path, "hecke", h)
    if not check.ok:
        raise NotHecke(check.reason)
    galleries = []
    for j, (first, rest) in enumerate(zip(check.certificates, walks), start=1):
        chain = max([first, *rest], key=lambda c: c.s)
        g = minimal_gallery(path.system, path.point(j), path.directions[j - 1])
        galleries.append((first.t, fold_gallery(g, chain.roots)))
    return DecoratedHeckePath(path, tuple(galleries))


def enumerate_decorations(path: LambdaPath, h: int = 20):
    """Every decoration: per breakpoint, all reduced words of the incoming
    direction and all admissible galleries of that type."""
    check = is_hecke(path, h)
    if not check.ok:
        raise NotHecke(check.reason or "path is not a Hecke path")
    sys_ = path.system
    per_breakpoint = []
    for j in range(1, path.r):
        t = path.breakpoints[j]
        z = path.point(j)
        target = path.direction_vector(j)
        options = []
        for word in _reduced_words(sys_, path.directions[j - 1]):
            options.extend(galleries_of_type(sys_, z, word, target))
        per_breakpoint.append((t, options))
    decorations = [()]
    for t, options in per_breakpoint:
        decorations = [dec + ((t, g),) for dec in decorations for g in options]
    return [DecoratedHeckePath(path, dec) for dec in decorations]


def _reduced_words(system, w: WeylElement):
    if w.is_identity:
        return [()]
    out = []
    for i in range(system.n):
        if system.is_left_descent(i, w):
            rest = system.normalize_word((i,) + w.word)
            out.extend((i,) + tail for tail in _reduced_words(system, rest))
    return out


def codim_tilde(decorated: DecoratedHeckePath, h: int = 20) -> int:
    """Relative length of the starting direction, plus neg of each breakpoint
    gallery, plus the forced minimal-gallery contributions at mid-segment
    true-wall crossings."""
    path = decorated.path
    sys_ = path.system
    have = {t for t, _ in decorated.galleries}
    want = {path.breakpoints[j] for j in range(1, path.r)}
    if have != want:
        raise FormatError("decoration must cover exactly the interior breakpoints")
    total = sys_.relative_length(tuple(path.start), path.directions[0], h)
    for _, gallery in decorated.galleries:
        total += neg_count(gallery)
    for t, roots in _falling_wall_events(sys_, path._vertex_pairings[0], path._pieces(), h, at_end=False):
        if 0 < t and t not in have:  # walls left negatively inside (0, 1)
            total += len(roots)
    return total


# -- parameter patterns ----------------------------------------------------------


@dataclass(frozen=True)
class ParameterPattern:
    length: int
    factors: tuple  # "kappa" or "kappa*" per parameter, walked from the end
    groups: tuple  # tuple[(t, count)], t decreasing

    def to_json_dict(self) -> dict:
        return {
            "n": self.length,
            "factors": list(self.factors),
            "groups": [{"t": format_rational(t), "count": c} for t, c in self.groups],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParameterPattern":
        return cls(
            data["n"],
            tuple(data["factors"]),
            tuple((parse_rational(g["t"]), g["count"]) for g in data["groups"]),
        )


def parameter_pattern(path: LambdaPath, h: int = 20) -> ParameterPattern:
    """One symbolic factor per true wall met by the incoming directions.

    Factors are grouped by the time of the wall and walked from the endpoint
    backwards; a factor is tagged kappa* when its (minimal-gallery) step is a
    fold of the breakpoint's gallery in decorate_with_max_chains.  Per-factor
    tags are an interpretation; the pattern length is the contractual part.
    """
    folds = {t: g.folds for t, g in decorate_with_max_chains(path, h).galleries}
    factors = []
    groups = []
    for t, roots in sorted(ddim_events(path, h), reverse=True):
        mg = minimal_gallery(path.system, eval_path(path, t), path.directions[_piece_before(path, t)])
        fold_steps = folds.get(t, frozenset())
        count = 0
        for step in range(1, mg.n + 1):
            if mg.step_is_true(step):
                factors.append("kappa*" if step in fold_steps else "kappa")
                count += 1
        groups.append((t, count))
        if count != len(roots):
            raise CrossCheckMismatch(
                f"pattern factor count {count} != relative length {len(roots)} at t={t}"
            )
    return ParameterPattern(len(factors), tuple(factors), tuple(groups))
