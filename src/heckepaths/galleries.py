"""Positively folded galleries at a point and the parameter patterns they carry.

Chambers in the residue at a point z are Weyl elements relative to the local
fundamental chamber c_0; a wall through z is "true" when its root takes an
integer value at z, and only true walls admit folds or contribute parameters.
Step j of a gallery of type i_1 ... i_n crosses or folds at the wall of
gamma_j = d_(j-1)(alpha_(i_j)): in the minimal gallery these are the
inversion sequence of the type word, and a fold at step j reflects the later
ones by r_(gamma_j) (Gaussent-Littelmann, Duke Math. J. 127, 2005).  An
unfolded step leaves the positive side of its wall iff gamma_j is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CrossCheckMismatch, FoldNotApplicable, FormatError, NotHecke
from .linalg import Vec, format_rational, format_vector, parse_rational, parse_vector
from .paths import (
    LambdaPath,
    _analysed,
    _ddim_walls,
    _hecke_chains,
    ddim_events,
    is_hecke,
)
from .root_system import IDENTITY, RealRoot, RootGeneratingSystem, WeylElement


def _fold_at(system, gammas: tuple, j: int) -> tuple:
    """The step roots after a fold at step j: later ones reflected by r_(gamma_j)."""
    beta = gammas[j - 1]
    return gammas[:j] + tuple(system._reflect_root_by(beta, g) for g in gammas[j:])


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

    @cached_property
    def _gammas(self) -> tuple:
        """gamma_j = d_(j-1)(alpha_(i_j)) per step, signed, from the type word's
        inversion sequence and the folds."""
        gammas = self.system._inversions(self.type_word)
        for j in sorted(self.folds):
            gammas = _fold_at(self.system, gammas, j)
        return gammas

    def step_root(self, j: int) -> RealRoot:
        """Direction of the wall of step j (1-based), normalized positive."""
        beta = self._gammas[j - 1]
        return beta if beta.is_positive else beta.negated()

    @cached_property
    def _point_pairings(self):
        return self.system._pairings(self.point)

    def step_is_true(self, j: int) -> bool:
        den, pairs = self._point_pairings
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


def _gallery(system, z, word, folds, pairings) -> GalleryAtPoint:
    """The gallery of type word from c_0 with these folds: d_j = d_(j-1) at a
    fold and d_(j-1) s_(i_j) otherwise; pairings are z's _point_pairings."""
    chambers = [IDENTITY]
    for j, i in enumerate(word, start=1):
        chambers.append(chambers[-1] if j in folds else system.mult(chambers[-1], system.normalize_word((i,))))
    gallery = GalleryAtPoint(system, z, word, tuple(chambers), frozenset(folds))
    vars(gallery)["_point_pairings"] = pairings  # the cached_property's value, known already
    return gallery


def _indices(items, what: str, top: int) -> tuple:
    """A JSON list of integers from 1 to top, as 0-based indices."""
    if not isinstance(items, list) or not all(type(i) is int and 1 <= i <= top for i in items):
        raise FormatError(f"{what} must be a list of integers from 1 to {top}, got {items!r}")
    return tuple(i - 1 for i in items)


def gallery_from_json_dict(system: RootGeneratingSystem, data: dict) -> GalleryAtPoint:
    """The gallery of to_json_dict, rebuilt from its point, type and folds, and refused
    unless its chambers are the ones to_json_dict writes for it."""
    if not isinstance(data, dict):
        raise FormatError("a gallery is a JSON object with point, type, chambers and folds")
    try:
        z, word, chambers, folds = parse_vector(data["point"]), data["type"], data["chambers"], data["folds"]
    except KeyError as exc:
        raise FormatError(f"gallery is missing field {exc}") from exc
    word = _indices(word, "gallery type", system.n)
    folds = {j + 1 for j in _indices(folds, "gallery folds", len(word))}
    gallery = _gallery(system, z, word, folds, system._pairings(z))
    if chambers != [[i + 1 for i in d.word] for d in gallery.chambers]:
        raise FormatError(f"gallery chambers {chambers!r} are not the ones of its type and folds")
    return gallery


def minimal_gallery(system: RootGeneratingSystem, z, word) -> GalleryAtPoint:
    """The unfolded gallery of the given reduced type, starting at c_0."""
    word = tuple(word.word) if isinstance(word, WeylElement) else tuple(word)
    if system.normalize_word(word).length != len(word):
        raise FormatError("gallery type must be a reduced word")
    z = tuple(map(parse_rational, z))
    return _gallery(system, z, word, (), system._pairings(z))


def fold_gallery(gallery: GalleryAtPoint, chain_roots) -> GalleryAtPoint:
    """Fold successively along the given roots, each at a positive crossing.

    Each root must name a true wall through the gallery's point that
    separates c_0 from the current end chamber; the fold happens at the first
    step crossing that wall from its positive side.
    """
    sys_ = gallery.system
    den, pairs = gallery._point_pairings
    for k, beta in enumerate(chain_roots, start=1):
        beta = beta if beta.is_positive else beta.negated()
        if beta.value(pairs) % den:
            raise FoldNotApplicable(k, f"wall of {beta!r} through the point is not true")
        if beta not in sys_._inversions(gallery.chambers[-1].word):
            raise FoldNotApplicable(k, f"{beta!r} does not separate c_0 from the end chamber")
        # the first positive crossing of the beta-wall: an unfolded step with gamma_j = beta
        steps = enumerate(gallery._gammas, start=1)
        spot = next((j for j, g in steps if g == beta and j not in gallery.folds), None)
        if spot is None:
            raise FoldNotApplicable(k, f"no positive crossing of {beta!r} to fold at")
        gallery = _gallery(sys_, gallery.point, gallery.type_word, gallery.folds | {spot}, (den, pairs))
    return gallery


def neg_count(gallery: GalleryAtPoint) -> int:
    """Unfolded true steps whose wall separates the arriving chamber from c_0 (gamma_j > 0)."""
    steps = enumerate(gallery._gammas, start=1)
    return sum(1 for j, g in steps if g.is_positive and j not in gallery.folds and gallery.step_is_true(j))


def galleries_of_type(system, z, word, target_direction):
    """All positively-folded-along-true-walls galleries of the given type
    from c_0 whose end chamber contains the target direction.

    Folds are offered only at true walls with the repeated chamber on the
    positive side; ghost walls are always crossed.
    """
    word, z = tuple(map(system._index, word)), tuple(map(parse_rational, z))
    den, pairs = system._pairings(z)
    target = system._integer_point(target_direction)[:2]
    out, todo = [], [(0, IDENTITY, frozenset(), system._inversions(word))]
    while todo:  # depth first, each crossing before the fold at the same step
        j, end, folds, gammas = todo.pop()
        if j == len(word):
            # the closed end chamber germ holds the ray along the target: end's reversed word makes it dominant
            if all(p >= 0 for p in system._act_integers(end.word[::-1], *target)[1]):
                out.append(_gallery(system, z, word, folds, (den, pairs)))
            continue
        if gammas[j].is_positive and gammas[j].value(pairs) % den == 0:
            todo.append((j + 1, end, folds | {j + 1}, _fold_at(system, gammas, j + 1)))
        todo.append((j + 1, system.mult(end, system.normalize_word((word[j],))), folds, gammas))
    return out


# -- decorated paths -----------------------------------------------------------


@dataclass(frozen=True)
class DecoratedHeckePath:
    path: LambdaPath
    galleries: tuple  # tuple[(t, GalleryAtPoint)], one per interior breakpoint


def decorate_with_max_chains(path: LambdaPath, h: int = 20) -> DecoratedHeckePath:
    """Decorate each breakpoint by folding its minimal gallery along the
    first longest chain (for LS paths these realize codim_tilde = codim); the
    galleries are kept per path and h, apart from the path, which keeps them."""
    return DecoratedHeckePath(path, _analysed(path, ("decoration", h), lambda: _decorate(path, h)))


def _decorate(path: LambdaPath, h: int) -> tuple:
    check = is_hecke(path, h)
    if not check.ok:
        raise NotHecke(check.reason)
    den, rows = path._vertex_pairings
    galleries = []
    for j, chains in enumerate(_hecke_chains(path, h), start=1):
        chain = max(chains, key=lambda c: c.s)
        g = _gallery(path.system, path.point(j), path.directions[j - 1].word, (), (den, rows[j]))
        galleries.append((chain.t, fold_gallery(g, chain.roots)))
    return tuple(galleries)


def enumerate_decorations(path: LambdaPath, h: int = 20):
    """Every decoration: per breakpoint, all reduced words of the incoming
    direction and all admissible galleries of that type."""
    check = is_hecke(path, h)
    if not check.ok:
        raise NotHecke(check.reason or "path is not a Hecke path")
    sys_ = path.system
    decorations = [()]
    for j in range(1, path.r):
        options = []
        for word in _reduced_words(sys_, path.directions[j - 1]):
            options.extend(galleries_of_type(sys_, path.point(j), word, path.direction_vector(j)))
        decorations = [dec + ((path.breakpoints[j], g),) for dec in decorations for g in options]
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
    true-wall crossings.

    Those crossings are read off the ddim events: on a piece where beta falls,
    the walls it leaves over [t0, t1) and those it reaches over (t0, t1] are met
    at the same times strictly inside the piece, so the events at times other
    than the breakpoints a_1 .. a_r are the walls left negatively inside (0, 1).
    """
    path = decorated.path
    sys_ = path.system
    have = {t for t, _ in decorated.galleries}
    want = {path.breakpoints[j] for j in range(1, path.r)}
    if have != want:
        raise FormatError("decoration must cover exactly the interior breakpoints")
    den, rows = path._vertex_pairings
    total = sum(1 for beta in sys_._inversions(path.directions[0].word, h) if beta.value(rows[0]) % den == 0)
    for _, gallery in decorated.galleries:
        total += neg_count(gallery)
    big, events = _ddim_walls(path, h)
    ends = {t.numerator * (big // t.denominator) for t in path.breakpoints[1:] if big % t.denominator == 0}
    return total + sum(len(roots) for n, roots in events if n not in ends)


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
        try:
            n, factors, groups = data["n"], data["factors"], data["groups"]
            groups = tuple((parse_rational(g["t"]), g["count"]) for g in groups)
        except KeyError as exc:
            raise FormatError(f"parameter pattern is missing field {exc}") from exc
        except TypeError as exc:
            raise FormatError("a parameter pattern is a JSON object with n, factors and a list of groups") from exc
        if not (isinstance(factors, list) and all(f in ("kappa", "kappa*") for f in factors)):
            raise FormatError(f"pattern factors must be a list of 'kappa' and 'kappa*', got {factors!r}")
        counts = [c for _, c in groups]
        if any(type(c) is not int or c < 0 for c in [n, *counts]) or not n == len(factors) == sum(counts):
            raise FormatError("pattern n must count its factors, and its group counts must sum to n")
        return cls(n, tuple(factors), groups)


def parameter_pattern(path: LambdaPath, h: int = 20) -> ParameterPattern:
    """One symbolic factor per true wall met by the incoming directions.

    Factors are grouped by the time of the wall and walked from the endpoint
    backwards; a factor is tagged kappa* when its (minimal-gallery) step is a
    fold of the breakpoint's gallery in decorate_with_max_chains.  Per-factor
    tags are an interpretation; the pattern length is the contractual part.
    """
    galleries = decorate_with_max_chains(path, h).galleries
    den, rows = path._vertex_pairings
    times = [(t.numerator, t.denominator) for t in path.breakpoints]
    factors, groups, k = [], [], path.r - 1
    for t, roots in reversed(ddim_events(path, h)):
        # the walls of the minimal gallery of the incoming direction are its inversion
        # roots; pi(t) pairs as P_k + s (P_(k+1) - P_k) over den, the rows of a_k < t <= a_(k+1),
        # with s = p / q = (t - a_k) / (a_(k+1) - a_k) unreduced: as integers over q den
        n, d = t.numerator, t.denominator
        while k and n * times[k][1] <= times[k][0] * d:
            k -= 1
        (a, b), (c, e) = times[k], times[k + 1]
        p, q = (n * b - a * d) * e, d * (c * b - a * e)
        at_t = [q * u + p * (v - u) for u, v in zip(rows[k], rows[k + 1])]
        walls = path.system._inversions(path.directions[k].word)
        true_steps = [j for j, beta in enumerate(walls, start=1) if beta.value(at_t) % (q * den) == 0]
        folds = galleries[k][1].folds if p == q and k + 1 < path.r else ()
        factors += ["kappa*" if j in folds else "kappa" for j in true_steps]
        count = len(true_steps)
        groups.append((t, count))
        if count != len(roots):
            raise CrossCheckMismatch(f"pattern factor count {count} != relative length {len(roots)} at t={t}")
    return ParameterPattern(len(factors), tuple(factors), tuple(groups))
