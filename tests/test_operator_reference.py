"""root_operator against the Fraction-vector reference it replaced.

The reference below evaluates alpha_i at each vertex with ``pairing``,
reflects the cut pieces as vectors with ``simple_reflection`` and
re-canonicalizes the result through ``from_segments``.  ``root_operator``
reads alpha_i from the path's integer vertex pairings and left-multiplies
the coset reps of the reflected pieces.  Both must give the same path, or
the same ``OperatorUndefined`` reason, for e, f and etilde on Hecke and LS
paths of A2, B2, G2 and A1^(1), from 0 and from shifted, non-integral
starts.
"""

from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths import RootGeneratingSystem
from heckepaths.errors import FormatError, NotDominant, OperatorUndefined
from heckepaths.model import enumerate_hecke, generate_ls_paths
from heckepaths.paths import is_hecke, is_ls, make_path, root_operator

from conftest import frac_vec
from strategies import fractions_in
from test_path_reference import from_segments, segments
from test_paths import ref_point
from test_system_reference import ref_pairing, solve_linear

# -- the reference -------------------------------------------------------------


def _profile(path, i):
    """Per-segment values of alpha_i along the path: (t0, t1, u0, u1)."""
    us = [ref_pairing(path.system, i, ref_point(path, k)) for k in range(path.r + 1)]
    return list(zip(path.breakpoints, path.breakpoints[1:], us, us[1:]))


def _min_integral(profile):
    best = None
    for _, _, u0, u1 in profile:
        lo, hi = min(u0, u1), max(u0, u1)
        m = ceil(lo)
        if m <= hi and (best is None or m < best):
            best = m
    return best


def _intervals_at_level(profile, c):
    """Maximal t-intervals where the profile equals c, in order."""
    raw = []
    for t0, t1, u0, u1 in profile:
        if u0 == u1:
            if u0 == c:
                raw.append((t0, t1))
            continue
        lo, hi = min(u0, u1), max(u0, u1)
        if lo <= c <= hi:
            t = t0 + (F(c) - u0) * (t1 - t0) / (u1 - u0)
            raw.append((t, t))
    merged = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _reflect_piece(path, i, t_lo, t_hi):
    segs = []
    for t0, t1, der in segments(path):
        cuts = sorted({t0, t1, *(t for t in (t_lo, t_hi) if t0 < t < t1)})
        for a, b in zip(cuts, cuts[1:]):
            d = der
            if t_lo <= a and b <= t_hi:
                d = path.system.simple_reflection(i, der)
            segs.append((b - a, d))
    anti = not path.shape_is_dominant and not path.is_constant
    return from_segments(path.system, path.start, segs, antidominant=anti)


def reference_operator(kind, i, path):
    if kind not in ("e", "f", "etilde"):
        raise FormatError(f"unknown operator kind {kind!r}")
    if not 0 <= i < path.system.n:
        raise FormatError(f"generator index {i} out of range")
    if not path.shape_is_dominant:
        raise NotDominant("root operators apply to dominant-shape paths")
    prof = _profile(path, i)
    q_min = _min_integral(prof)
    if q_min is None:
        raise OperatorUndefined(kind, i + 1, "alpha_i never attains an integral value on the path")
    at_q = _intervals_at_level(prof, q_min)
    if kind == "e":
        t1 = at_q[0][0]
        above = [min(hi, t1) for lo, hi in _intervals_at_level(prof, q_min + 1) if lo <= t1]
        if not above:
            raise OperatorUndefined(
                kind, i + 1, f"minimal integral value {q_min} is not reached from level {q_min + 1}"
                " (for a path from 0 this means the minimum is not <= -1)"
            )
        t0 = max(above)
        return _reflect_piece(path, i, t0, t1)
    if kind == "f":
        p = at_q[-1][1]
        below = [max(lo, p) for lo, hi in _intervals_at_level(prof, q_min + 1) if hi >= p]
        if not below:
            raise OperatorUndefined(
                kind, i + 1, f"path does not rise to level {q_min + 1} after its last minimum"
            )
        q = min(below)
        return _reflect_piece(path, i, p, q)
    # etilde
    if prof[0][2] < q_min:
        raise OperatorUndefined(kind, i + 1, "path starts below its minimal integral level")
    q = None
    for t0, t1, u0, u1 in prof:
        if min(u0, u1) < q_min:
            if u0 <= q_min:
                q = t0
            else:
                q = t0 + (F(q_min) - u0) * (t1 - t0) / (u1 - u0)
            break
    if q is None:
        raise OperatorUndefined(kind, i + 1, "q = 1: the path never goes strictly below level Q")
    theta = None
    for lo, hi in at_q:
        if lo > q:
            theta = lo
            break
    if theta is None:
        raise OperatorUndefined(kind, i + 1, "path never returns to level Q after dipping below")
    return _reflect_piece(path, i, q, theta)


# -- the comparison --------------------------------------------------------------

GCMS = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A1aff": [[2, -2], [-2, 2]],
}
SYSTEMS = {name: RootGeneratingSystem.from_gcm(gcm) for name, gcm in GCMS.items()}


def _pool(system, shapes, ls_shapes=()):
    """LS paths of the crystals on ls_shapes, and every Hecke path from 0 of
    each shape lam to lam - c_1 alpha_1^v - c_2 alpha_2^v, 0 <= c_i <= 2."""
    out = [p for lam in ls_shapes for p in generate_ls_paths(system, lam).nodes]
    for lam in shapes:
        for c in product(range(3), repeat=2):
            y1 = tuple(x - c[0] * a - c[1] * b for x, a, b in zip(lam, *system.simple_coroots))
            out += [w.path for w in enumerate_hecke(system, lam, system.zero(), y1)]
    return list(dict.fromkeys(out))


POOLS = {
    "A2": _pool(SYSTEMS["A2"], [(1, 1), (2, 1), (2, 2)], [(2, 1), (1, 2)]),
    "B2": _pool(SYSTEMS["B2"], [(1, 1), (1, 2), (2, 2)], [(1, 1), (2, 2)]),
    "G2": _pool(SYSTEMS["G2"], [(2, 1), (3, 2)], [(2, 1), (3, 2)]),
    "A1aff": _pool(SYSTEMS["A1aff"], [(1, 1, 1), (0, 1, 3)]),
}


def _outcome(op, kind, i, path):
    try:
        return op(kind, i, path)
    except OperatorUndefined as exc:
        return ("undefined", str(exc))


@pytest.mark.parametrize("name", sorted(POOLS))
def test_pools_hold_hecke_and_ls_paths(name):
    # the pools mix LS paths with non-LS Hecke paths of several pieces
    pool = POOLS[name]
    assert len(pool) >= 10 and max(p.r for p in pool) >= 3
    assert all(is_hecke(p).ok for p in pool)
    assert any(is_ls(p).ok for p in pool) and not all(is_ls(p).ok for p in pool)


@given(
    name=st.sampled_from(sorted(POOLS)),
    index=st.integers(0, 10**6),
    shift=st.lists(fractions_in(-2, 2, max_denominator=6), min_size=3, max_size=3),
    i=st.integers(0, 1),
    steps=st.lists(st.sampled_from(["e", "f", "etilde"]), min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_root_operator_matches_reference(name, index, shift, i, steps):
    pool = POOLS[name]
    path = pool[index % len(pool)]
    start = tuple(a + b for a, b in zip(path.start, shift))
    path = replace(path, start=start)
    # a chain of operators, each step compared on the path the last one left
    for kind in steps:
        got = _outcome(root_operator, kind, i, path)
        assert got == _outcome(reference_operator, kind, i, path), (kind, i, path)
        if isinstance(got, tuple):
            return
        assert got.start == path.start
        path = got


@given(
    name=st.sampled_from(sorted(POOLS)),
    # singular shapes and quarter breakpoints give flat stretches at integral levels, where cuts end
    pairs=st.lists(st.sampled_from([F(0), F(4), F(8), F(1, 2)]), min_size=2, max_size=2),
    start=st.lists(st.integers(-2, 2) | fractions_in(-2, 2, max_denominator=3), min_size=3, max_size=3),
    words=st.lists(st.lists(st.integers(0, 1), max_size=4), min_size=1, max_size=6),
    cuts=st.sets(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]) | fractions_in(0, 1, max_denominator=8), max_size=6),
    i=st.integers(0, 1),
    kind=st.sampled_from(["e", "f", "etilde"]),
)
@settings(max_examples=300, deadline=None)
def test_root_operator_matches_reference_on_any_path(name, pairs, start, words, cuts, i, kind):
    # paths of rational dominant shape whose pieces need not fold at walls
    system = SYSTEMS[name]
    shape = solve_linear(system.simple_roots, pairs)
    bps = sorted(cuts - {0, 1})[: len(words) - 1]
    path = make_path(system, shape, start[: system.rank_x], words[: len(bps) + 1], [F(0), *bps, F(1)])
    assert _outcome(root_operator, kind, i, path) == _outcome(reference_operator, kind, i, path)


def test_constant_path_is_undefined_for_every_operator():
    a2 = SYSTEMS["A2"]
    for start in (frac_vec(0, 0), frac_vec("1/2", 0)):
        path = make_path(a2, frac_vec(0, 0), start, [()], [0, 1])
        for kind in ("e", "f", "etilde"):
            for i in range(2):
                assert _outcome(root_operator, kind, i, path) == _outcome(reference_operator, kind, i, path)


def test_flat_piece_inside_the_cut_keeps_its_rep():
    # A2, lam = 2 omega_2: alpha_1 runs 0 -> 1/2, stays at 1/2 on the piece of
    # direction lam, then rises to 1; f_1 reflects the whole path, and the flat
    # piece keeps the identity rep, since s_1 fixes lam
    a2 = SYSTEMS["A2"]
    lam = solve_linear(a2.simple_roots, (F(0), F(2)))
    path = make_path(a2, lam, a2.zero(), [(1,), (), (1,)], [0, F(1, 4), F(3, 4), 1])
    out = root_operator("f", 0, path)
    assert out == reference_operator("f", 0, path)
    assert [w.word for w in out.directions] == [(0, 1), (), (0, 1)]
