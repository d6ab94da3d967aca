"""Path construction against the segments route it replaced.

Every path constructor of ``heckepaths.paths`` builds its path from one
minimal coset rep per piece: ``straight_path`` from one integer unwind of
lambda, ``concat`` from one integer unwind of each direction row of its two
paths.  The reference below is the former constructor, ``from_segments``:
it scales each piece's ``Fraction`` derivative by the piece's duration,
unwinds the integer point of every displacement with ``_unwound`` and
re-sums the shape from their dominant (or antidominant) conjugates.
``segments`` lists a path's pieces as (t0, t1, derivative) triples for it.
Both routes must give the same shape, start, coset reps and breakpoints, or
raise the same error, on A2, B2, G2, A3, A1^(1) and B2 on rational roots and
coroots: non-dominant lambda, mixed signs, constant paths and central A1^(1)
directions.

Other tests build their raw-piece paths through ``from_segments`` and
``segments`` from this module, and take from it the ``Fraction`` vector
helpers ``vadd``, ``vscale`` and ``is_zero_vec`` that the library no longer has.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths import RootGeneratingSystem
from heckepaths.errors import CrossCheckMismatch, FormatError, HPLError, NonLambdaPath
from heckepaths.model import enumerate_hecke, generate_ls_paths
from heckepaths.paths import ONE, ZERO, _from_reps, concat, make_path, straight_path
from heckepaths.root_system import IDENTITY

from conftest import frac_vec
from strategies import fractions_in
from test_chain_reference import CANDIDATE_SYSTEMS
from test_system_reference import nullspace, solve_linear

F = Fraction


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return all(a == 0 for a in u)


# -- the reference -------------------------------------------------------------


def segments(path):
    """List of (t0, t1, derivative) triples covering [0, 1]."""
    return list(zip(path.breakpoints, path.breakpoints[1:], map(path.direction_vector, range(path.r))))


def from_segments(system: RootGeneratingSystem, start, segments, antidominant=False):
    """Canonical path from raw (duration, derivative) pieces.

    Zero-displacement pieces are dropped (they are reparametrization slack);
    the remaining displacements must have Weyl-conjugate directions, and the
    canonical speed is fixed so the piece durations sum to one.
    """
    start = tuple(Fraction(x) for x in start)
    displacements = []
    for dur, der in segments:
        dur = Fraction(dur)
        if dur < 0:
            raise FormatError("negative segment duration")
        disp = vscale(dur, tuple(Fraction(x) for x in der))
        if dur == 0 or is_zero_vec(disp):
            continue
        displacements.append(disp)
    if not displacements:
        return _from_reps(system, system.zero(), start, [(IDENTITY, ONE)])
    doms = []
    for disp in displacements:
        num, pairs, den = system._integer_point(disp)
        w, dom, _ = system._unwound(num, pairs, den, antidominant)
        doms.append((tuple(Fraction(x, den) for x in dom), w))
    shape = system.zero()
    for dom, _ in doms:
        shape = vadd(shape, dom)
    k = next((i for i, x in enumerate(shape) if x != 0), None)
    pieces, t = [], ZERO
    for dom, w in doms:
        # positive multiples of one shape sum to a nonzero one, so a zero sum fails here
        c = ZERO if k is None else dom[k] / shape[k]
        if c <= 0 or vscale(c, shape) != dom:
            raise NonLambdaPath("segment directions lie in different Weyl orbits")
        t += c
        pieces.append((w, t))
    if t != 1:
        raise CrossCheckMismatch("segment fractions of the shape do not sum to 1")
    return _from_reps(system, shape, start, pieces)


def ref_straight_path(system, lam, start=None):
    """The former straight_path: one segment of duration 1 along lam."""
    lam = tuple(Fraction(x) for x in lam)
    if start is None:
        start = system.zero()
    return from_segments(system, start, [(ONE, lam)])


def ref_concat(p1, p2):
    """The former concat: both paths' segments, re-canonicalized in p1's chamber."""
    if p1.system is not p2.system:
        raise FormatError("paths live over different systems")
    segs = [(t1 - t0, der) for t0, t1, der in segments(p1)]
    segs += [(t1 - t0, der) for t0, t1, der in segments(p2)]
    anti = not p1.shape_is_dominant and not p1.is_constant
    return from_segments(p1.system, p1.start, segs, antidominant=anti)


# -- the comparison -------------------------------------------------------------


def _outcome(fn, *args):
    """The canonical data of the path built, or the error's type; a NonLambdaPath
    with its message.  An unwind that leaves the Tits cone names a different
    vector on the two routes (a displacement there, a direction here)."""
    try:
        path = fn(*args)
    except HPLError as exc:
        return type(exc), str(exc) if isinstance(exc, NonLambdaPath) else None
    assert all(type(x) is F for x in path.shape + path.start + path.breakpoints)
    return path.shape, path.start, path.directions, path.breakpoints


def _vector(system, pairs, central):
    """The vector with these pairings, moved by central along the kernel of the simple roots."""
    v = solve_linear(system.simple_roots, [F(p) for p in pairs[: system.n]])
    for basis in nullspace(system.simple_roots):
        v = tuple(x + central * b for x, b in zip(v, basis))
    return v


names = st.sampled_from(sorted(CANDIDATE_SYSTEMS))
dominant_pairs = st.lists(st.sampled_from([0, 0, 1, 2, F(1, 2), F(5, 3)]), min_size=3, max_size=3)
centrals = st.sampled_from([0, 0, 1, -1, F(2, 3)])
starts = st.lists(fractions_in(-3, 3, max_denominator=4), min_size=3, max_size=3)


@st.composite
def paths(draw, system, shape):
    """A path of this shape (dominant or antidominant) through make_path."""
    words = draw(st.lists(st.lists(st.integers(0, 2), max_size=5), min_size=1, max_size=3))
    cuts = draw(st.sets(fractions_in(0, 1, max_denominator=12), max_size=4))
    bps = [F(0), *sorted(cuts - {0, 1})[: len(words) - 1], F(1)]
    words = [tuple(i % system.n for i in w) for w in words[: len(bps) - 1]]
    return make_path(system, shape, draw(starts)[: system.rank_x], words, bps)


@given(
    name=names,
    pairs=st.lists(fractions_in(-3, 3, max_denominator=3), min_size=3, max_size=3),
    central=centrals,
    start=st.none() | starts,
)
@settings(max_examples=150, deadline=None)
def test_straight_path_equals_the_segments_route(name, pairs, central, start):
    # lambda of any sign, on walls, central or zero
    system = CANDIDATE_SYSTEMS[name]
    lam = _vector(system, pairs, central)
    start = None if start is None else start[: system.rank_x]
    assert _outcome(straight_path, system, lam, start) == _outcome(ref_straight_path, system, lam, start)


@given(
    name=names,
    pairs=dominant_pairs,
    central=centrals,
    signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
    mode=st.sampled_from(["same orbit", "own shape", "constant first", "constant second"]),
    scale=st.sampled_from([F(1, 2), 1, 2]),
    other=dominant_pairs,
    data=st.data(),
)
@settings(max_examples=250, deadline=None)
def test_concat_equals_the_segments_route(name, pairs, central, signs, mode, scale, other, data):
    # p2's shape is a positive multiple of p1's up to sign (so mixed signs negate it),
    # a shape of its own, or zero; either path may be constant
    system = CANDIDATE_SYSTEMS[name]
    shape = _vector(system, pairs, central)
    shape2 = vscale(scale, shape) if mode == "same orbit" else _vector(system, other, central)
    shapes = [vscale(signs[0], shape), vscale(signs[1], shape2)]
    if mode == "constant first":
        shapes[0] = system.zero()
    elif mode == "constant second":
        shapes[1] = system.zero()
    p1, p2 = (data.draw(paths(system, s)) for s in shapes)
    assert _outcome(concat, p1, p2) == _outcome(ref_concat, p1, p2)


@pytest.mark.parametrize("a, b", [(1, 1), (2, F(1, 2)), (1, -1), (1, -2), (-2, 1), (F(-1, 2), -1)])
def test_concat_of_central_directions_equals_the_segments_route(a1aff, a, b):
    # c = (1, 1, 0) is central in A1^(1): a c is its own conjugate in either chamber, so
    # for a and b of mixed signs (a + b) c has a multiple a / (a + b) or b / (a + b) < 0
    p1, p2 = (straight_path(a1aff, frac_vec(x, x, 0)) for x in (a, b))
    assert _outcome(concat, p1, p2) == _outcome(ref_concat, p1, p2)


def test_construction_route_unwinds_nothing(monkeypatch):
    # straight_path and concat unwind the integer points they already hold, not a
    # Fraction vector; so do the top path of the crystal and enumerate_hecke's answer
    # for the zero shape
    calls = []
    for gcm, lam in (([[2, -1], [-1, 2]], frac_vec(2, 1)), ([[2, -2], [-2, 2]], frac_vec(0, 0, 1))):
        system = RootGeneratingSystem.from_gcm(gcm)  # its own instance, patched below

        def counting(*args, _f=system.coset_of_vector, **kwargs):
            calls.append("coset_of_vector")
            return _f(*args, **kwargs)

        monkeypatch.setattr(system, "coset_of_vector", counting)
        zero = system.zero()
        top = straight_path(system, lam)
        bent = straight_path(system, system.simple_reflection(0, lam), lam)  # a non-dominant lambda
        assert concat(top, bent).r == 2 and concat(bent, top).r == 2
        assert concat(straight_path(system, zero), top) == top
        assert concat(straight_path(system, zero), straight_path(system, zero, lam)).is_constant
        assert generate_ls_paths(system, lam, depth_cap=0).nodes == (top,)
        (only,) = enumerate_hecke(system, zero, lam, lam)
        assert only.path == straight_path(system, zero, lam)
    assert calls == []

