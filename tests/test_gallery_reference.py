"""Galleries on inversion sequences against the chamber-word routes they replaced.

The library reads the wall of step j of a gallery from its step roots:
gamma_j = d_(j-1)(alpha_(i_j)) is the inversion sequence of the type word,
reflected by r_(gamma_j) after each fold, and for a positive root beta the
chamber d.c_0 lies on the positive side of beta exactly when beta is not in
the inversion set of d.  The references below are the former routes, which
reflect roots through a chamber's whole word: ``_wall_direction`` and
``_on_positive_side``, ``fold_gallery`` by left multiplication with
r_beta as a Weyl element, and ``neg_count``, ``galleries_of_type``,
``enumerate_decorations``, ``codim_tilde`` and ``parameter_pattern`` on top
of them, the last one on the ``eval_path`` point and a ``minimal_gallery``
per wall event.  Both must agree on the Hecke paths of ``enumerate_hecke``
over A2, B2, G2, A3 and A1^(1), and raise ``FoldNotApplicable`` with the
same reason on chain roots that do not fold.

``reflection_element`` lives here now that the library no longer calls it.
"""

from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths import RootGeneratingSystem, root_system
from heckepaths.errors import CrossCheckMismatch, FoldNotApplicable, FormatError, NotHecke
from heckepaths.galleries import (
    DecoratedHeckePath,
    GalleryAtPoint,
    ParameterPattern,
    _reduced_words,
    codim_tilde,
    decorate_with_max_chains,
    enumerate_decorations,
    fold_gallery,
    minimal_gallery,
    neg_count,
    parameter_pattern,
)
from heckepaths.model import enumerate_hecke
from heckepaths.paths import _breakpoint_chains, _piece_before, ddim_events, eval_path

from test_chain_reference import root_eval
from test_system_reference import ref_act, ref_inversions, ref_pairing, reflect_root
from test_wall_events_reference import ref_falling_wall_events

# -- the reference -------------------------------------------------------------


def reflection_element(system, root):
    """r_beta as a Weyl element, for beta = w(alpha_i) real."""
    # descend beta to a simple root, recording the conjugating word
    cur = root if root.is_positive else root.negated()
    word = []
    guard = 0
    while cur.height > 1:
        for i in range(system.n):
            img = reflect_root(system, i, cur)
            if 0 < img.height < cur.height:
                word.append(i)
                cur = img
                break
        else:
            raise FormatError(f"{root!r} is not a real root")
        guard += 1
        if guard > root_system._UNWIND_GUARD:
            raise CrossCheckMismatch(f"reflection descent of {root!r} did not terminate")
    i = cur.coeffs.index(1)
    return system.normalize_word(tuple(word) + (i,) + tuple(reversed(word)))


def _wall_direction(system, chamber, i):
    """Positive root of the wall spanned by the type-i panel of chamber."""
    beta = system.simple_root_obj(i)
    for idx in reversed(chamber.word):
        beta = reflect_root(system, idx, beta)
    return beta if beta.is_positive else beta.negated()


def _on_positive_side(system, chamber, beta):
    """Whether d.c_0 lies on the positive side of the beta-wall: d^-1(beta) > 0,
    d^-1 applying the letters of d's word first to last."""
    img = beta
    for i in chamber.word:
        img = reflect_root(system, i, img)
    return img.is_positive


def _is_true(gallery, beta):
    den, pairs = gallery.system._pairings(gallery.point)
    return beta.value(pairs) % den == 0


def ref_step_root(gallery, j):
    return _wall_direction(gallery.system, gallery.chambers[j - 1], gallery.type_word[j - 1])


def ref_trueness(gallery):
    return tuple(_is_true(gallery, ref_step_root(gallery, j)) for j in range(1, gallery.n + 1))


def ref_fold_gallery(gallery, chain_roots):
    sys_ = gallery.system
    chambers = list(gallery.chambers)
    folds = set(gallery.folds)
    word = gallery.type_word
    for k, beta in enumerate(chain_roots, start=1):
        beta = beta if beta.is_positive else beta.negated()
        if not _is_true(gallery, beta):
            raise FoldNotApplicable(k, f"wall of {beta!r} through the point is not true")
        if _on_positive_side(sys_, chambers[-1], beta):
            raise FoldNotApplicable(k, f"{beta!r} does not separate c_0 from the end chamber")
        refl = reflection_element(sys_, beta)
        spot = None
        for j in range(1, len(word) + 1):
            if j in folds or _wall_direction(sys_, chambers[j - 1], word[j - 1]) != beta:
                continue
            if _on_positive_side(sys_, chambers[j - 1], beta) and not _on_positive_side(sys_, chambers[j], beta):
                spot = j
                break
        if spot is None:
            raise FoldNotApplicable(k, f"no positive crossing of {beta!r} to fold at")
        for j in range(spot, len(chambers)):
            chambers[j] = sys_.mult(refl, chambers[j])
        folds.add(spot)
    return GalleryAtPoint(sys_, gallery.point, word, tuple(chambers), frozenset(folds))


def ref_neg_count(gallery):
    total = 0
    for j in range(1, gallery.n + 1):
        beta = ref_step_root(gallery, j)
        if j not in gallery.folds and _is_true(gallery, beta):
            total += not _on_positive_side(gallery.system, gallery.chambers[j], beta)
    return total


def ref_galleries_of_type(system, z, word, target_direction):
    word = tuple(word)
    z = tuple(F(x) for x in z)
    out = []

    def extend(chambers, folds):
        j = len(chambers) - 1
        if j == len(word):
            v = ref_act(system, system.inverse(chambers[-1]).word, target_direction)
            if all(ref_pairing(system, i, v) >= 0 for i in range(system.n)):
                out.append(GalleryAtPoint(system, z, word, tuple(chambers), frozenset(folds)))
            return
        i = word[j]
        extend(chambers + [system.mult(chambers[-1], system.normalize_word((i,)))], folds)
        beta = _wall_direction(system, chambers[-1], i)
        if _is_true(GalleryAtPoint(system, z), beta) and _on_positive_side(system, chambers[-1], beta):
            extend(chambers + [chambers[-1]], folds | {j + 1})

    extend([system.normalize_word(())], set())
    return out


def _fresh_check(path, h):
    """The Hecke pass run afresh, outside the path's analysis record."""
    return _breakpoint_chains(path, "hecke", h)


def ref_decorate(path, h=20):
    check, walks = _fresh_check(path, h)
    if not check.ok:
        raise NotHecke(check.reason)
    galleries = []
    for j, (first, rest) in enumerate(zip(check.certificates, walks), start=1):
        chain = max([first, *rest], key=lambda c: c.s)
        g = minimal_gallery(path.system, path.point(j), path.directions[j - 1])
        galleries.append((first.t, ref_fold_gallery(g, chain.roots)))
    return DecoratedHeckePath(path, tuple(galleries))


def ref_enumerate_decorations(path, h=20):
    check, _ = _fresh_check(path, h)
    if not check.ok:
        raise NotHecke(check.reason or "path is not a Hecke path")
    sys_ = path.system
    decorations = [()]
    for j in range(1, path.r):
        options = []
        for word in _reduced_words(sys_, path.directions[j - 1]):
            options.extend(ref_galleries_of_type(sys_, path.point(j), word, path.direction_vector(j)))
        decorations = [dec + ((path.breakpoints[j], g),) for dec in decorations for g in options]
    return [DecoratedHeckePath(path, dec) for dec in decorations]


def ref_codim_tilde(decorated, h=20):
    path = decorated.path
    sys_ = path.system
    have = {t for t, _ in decorated.galleries}
    roots, _ = ref_inversions(sys_, path.directions[0].word)
    total = sum(1 for beta in roots if root_eval(sys_, beta, path.start).denominator == 1)
    total += sum(ref_neg_count(g) for _, g in decorated.galleries)
    for t, roots in ref_falling_wall_events(sys_, path._vertex_pairings[0], path._pieces(), h, at_end=False):
        if 0 < t and t not in have:
            total += len(roots)
    return total


def ref_parameter_pattern(path, h=20):
    folds = {t: g.folds for t, g in ref_decorate(path, h).galleries}
    factors = []
    groups = []
    for t, roots in sorted(ddim_events(path, h), reverse=True):
        mg = minimal_gallery(path.system, eval_path(path, t), path.directions[_piece_before(path, t)])
        count = 0
        for step, true in enumerate(ref_trueness(mg), start=1):
            if true:
                factors.append("kappa*" if step in folds.get(t, frozenset()) else "kappa")
                count += 1
        groups.append((t, count))
        if count != len(roots):
            raise CrossCheckMismatch(f"pattern factor count {count} != relative length {len(roots)} at t={t}")
    return ParameterPattern(len(factors), tuple(factors), tuple(groups))


# -- the pool --------------------------------------------------------------------

GCMS = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A1aff": [[2, -2], [-2, 2]],
}
SYSTEMS = {name: RootGeneratingSystem.from_gcm(gcm) for name, gcm in GCMS.items()}
SHAPES = {
    "A2": [(1, 1), (2, 1), (2, 2)],
    "B2": [(1, 1), (1, 2), (2, 2)],
    "G2": [(2, 1), (3, 2)],
    "A3": [(1, 1, 1), (1, 2, 1), (2, 2, 2)],
    "A1aff": [(1, 1, 1), (0, 1, 3)],
}


def _hecke_paths(system, shapes):
    """Every Hecke path from 0 of each shape lam to lam - sum c_i alpha_i^v, 0 <= c_i <= 2."""
    out = []
    for lam in shapes:
        for c in product(range(3), repeat=system.n):
            y1 = tuple(x - sum(k * cr[t] for k, cr in zip(c, system.simple_coroots)) for t, x in enumerate(lam))
            out += [w.path for w in enumerate_hecke(system, lam, system.zero(), y1)]
    return list(dict.fromkeys(out))


POOLS = {name: _hecke_paths(SYSTEMS[name], shapes) for name, shapes in SHAPES.items()}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FoldNotApplicable as exc:
        return ("FoldNotApplicable", str(exc))


def _draw_path(data):
    """A pool path with an interior breakpoint."""
    name = data.draw(st.sampled_from(sorted(POOLS)))
    pool = [p for p in POOLS[name] if p.r > 1]
    return pool[data.draw(st.integers(0, len(pool) - 1))]


# -- the comparison --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(POOLS))
def test_pools_hold_folded_hecke_paths(name):
    pool = POOLS[name]
    assert len(pool) >= 10 and max(p.r for p in pool) >= 3
    assert any(g.folds for p in pool for _, g in decorate_with_max_chains(p).galleries)


@pytest.mark.parametrize(
    "name, k", [pytest.param(name, k, id=f"{name}-{k}") for name, pool in POOLS.items() for k in range(len(pool))]
)
def test_galleries_match_the_reference(name, k):
    # a new instance, so that the library side starts with an empty analysis record
    path = replace(POOLS[name][k])
    decorated = decorate_with_max_chains(path)
    expected = ref_decorate(path)
    assert decorated == expected
    for (_, got), (_, ref) in zip(decorated.galleries, expected.galleries):
        assert [got.step_root(j) for j in range(1, got.n + 1)] == [ref_step_root(ref, j) for j in range(1, ref.n + 1)]
        assert got.trueness() == ref_trueness(ref)
        assert neg_count(got) == ref_neg_count(ref)
    assert codim_tilde(decorated) == ref_codim_tilde(expected)
    assert parameter_pattern(path) == ref_parameter_pattern(path)
    assert enumerate_decorations(path) == ref_enumerate_decorations(path)


def test_codim_tilde_matches_the_reference_on_every_decoration():
    # not only the max-chain decoration: every gallery choice of enumerate_decorations
    paths = [path for pool in POOLS.values() for path in pool]
    decorations = [decorated for path in paths for decorated in enumerate_decorations(path)]
    assert len(decorations) > len(paths)
    for decorated in decorations:
        assert codim_tilde(decorated) == ref_codim_tilde(decorated)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fold_refusals_match_the_reference(data):
    # chain roots of any sign and of low height, at a breakpoint of a pool path,
    # folded into its minimal gallery or into a gallery folded before
    path = _draw_path(data)
    system = path.system
    j = data.draw(st.integers(1, path.r - 1))
    gallery = minimal_gallery(system, path.point(j), path.directions[j - 1])
    pre = decorate_with_max_chains(path).galleries[j - 1][1]
    gallery = data.draw(st.sampled_from([gallery, pre]))
    roots = system.real_roots_up_to_height(4)
    chain = data.draw(st.lists(st.sampled_from(roots + [r.negated() for r in roots]), max_size=3))
    assert _outcome(fold_gallery, gallery, chain) == _outcome(ref_fold_gallery, gallery, chain)


# The third reason, "no positive crossing", is out of reach on a gallery whose
# chambers follow its folds: c_0 lies on the positive side of every wall, so a
# gallery that ends on the negative side of beta crosses the beta-wall from its
# positive side at some unfolded step.
REASONS = ("is not true", "does not separate")


def test_fold_refusals_cover_every_reason():
    # each reachable FoldNotApplicable reason is met on every pool, folding
    # minimal galleries at breakpoints along two roots of height <= 2
    for name, pool in POOLS.items():
        system = SYSTEMS[name]
        roots = system.real_roots_up_to_height(2)
        reasons = set()
        for path in pool:
            for j in range(1, path.r):
                g = minimal_gallery(system, path.point(j), path.directions[j - 1])
                for chain in product(roots, repeat=2):
                    got = _outcome(fold_gallery, g, chain)
                    assert got == _outcome(ref_fold_gallery, g, chain)
                    if isinstance(got, tuple):
                        reasons |= {r for r in REASONS if r in got[1]}
        assert reasons == set(REASONS), name
