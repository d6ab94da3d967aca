"""The falling-wall events of a path against the Fraction route they replaced.

``paths._falling_wall_events`` finds the times where an inversion root of a
piece's direction falls through an integer level as integer numerators over
one denominator L, grouped and sorted as integers; ``ddim_events`` builds one
``Fraction`` per group, ``is_ls`` counts the integer events, and
``enumerate_hecke`` takes its fold times from them.  The reference below is
the former kernel: one ``Fraction`` per event, grouped in a dict keyed by it.
Both must give the same times, the same groups in the same order, and the
same roots in the same order in each group, or raise the same error, on
random paths over A2, B2, G2 and A1^(1).  The library counts the walls a
falling root reaches over (t0, t1] of each piece (``at_end`` true in the
reference).

``codim_tilde`` and the fold times of ``enumerate_hecke`` read those events
for the walls a path leaves inside its pieces (``at_end`` false in the
reference): a falling root meets the same levels over (t0, t1] and over
[t0, t1) at every time strictly inside the piece.  The lemma is checked on
the reference, and the recognize pipeline must find the events of a Hecke
path once.
"""

from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths import paths as paths_module
from heckepaths.apartment import levels_crossed
from heckepaths.errors import HPLError
from heckepaths.galleries import codim_tilde, decorate_with_max_chains, parameter_pattern
from heckepaths.paths import _falling_wall_events, ddim_events, is_hecke, is_ls, make_path, stats

from strategies import fractions_in
from test_chain_reference import CANDIDATE_SYSTEMS
from test_path_reference import _vector, paths
from test_system_reference import ref_inversions


def ref_falling_wall_events(sys_, den, pieces, h, at_end):
    """Times where an inversion root of a piece direction falls through an
    integer level, grouped as sorted (t, [roots]).  pieces holds (coset rep,
    t0, t1, P0, P1) tuples, the times Fractions, P0 and P1 the integer pairings
    of the piece's ends over den; a piece counts the crossings at t1 but not at
    t0 when at_end, and the other way round otherwise.  With t0 = a / b and
    t1 - t0 = c / b, beta meets m at t0 + (t1 - t0) (m den - u0) / (u1 - u0)."""
    events = {}
    for w, t0, t1, p0, p1 in pieces:
        sys_._inversions(w.word, h)
        a, b = t0.numerator * t1.denominator, t0.denominator * t1.denominator
        c = t1.numerator * t0.denominator - a
        for beta in ref_inversions(sys_, w.word)[0]:
            u0, u1 = beta.value(p0), beta.value(p1)
            if u1 >= u0:
                continue
            for m in levels_crossed(u1, u0, den) if at_end else levels_crossed(u0, u1, den):
                events.setdefault(F(a * (u1 - u0) + c * (m * den - u0), b * (u1 - u0)), []).append(beta)
    return sorted(events.items())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HPLError as exc:
        return type(exc), str(exc)


def _integer_route(path, h):
    times = [(t.numerator, t.denominator) for t in path.breakpoints]
    pieces = [(w, t0, t1, p0, p1) for (w, _, _, p0, p1), t0, t1 in zip(path._pieces(), times, times[1:])]
    big, events = _falling_wall_events(path.system, path._vertex_pairings[0], pieces, h)
    assert big > 0 and all(type(n) is int for n, _ in events)
    return [(F(n, big), roots) for n, roots in events]


@given(
    name=st.sampled_from(["A2", "B2", "G2", "A1aff"]),
    pairs=st.lists(st.sampled_from([0, 1, 2, 3, F(1, 2), F(5, 3)]), min_size=3, max_size=3),
    h=st.sampled_from([2, 20]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_integer_events_match_the_fraction_route(name, pairs, h, data):
    system = CANDIDATE_SYSTEMS[name]
    path = data.draw(paths(system, _vector(system, pairs, 0)))
    den = path._vertex_pairings[0]
    expected = _outcome(ref_falling_wall_events, system, den, path._pieces(), h, True)
    assert _outcome(_integer_route, path, h) == expected
    events = _outcome(ddim_events, path, h)
    assert events == expected
    assert isinstance(events, tuple) or all(type(t) is F for t, _ in events)


def test_events_of_a_piece_that_starts_late(a2):
    # one piece of direction s1 s2 (lambda) from t = 1/3, as enumerate_hecke asks for it: the times
    # keep their order and groups past the shared denominator
    path = make_path(a2, (F(3), F(3)), (F(1, 2), F(-1, 3)), [(0,), (0, 1)], [F(0), F(1, 3), F(1)])
    den, rows = path._vertex_pairings
    piece = (path.directions[1], F(1, 3), F(1), rows[1], rows[2])
    big, events = _falling_wall_events(a2, den, [(piece[0], (1, 3), (1, 1), *piece[3:])], 20)
    expected = ref_falling_wall_events(a2, den, [piece], 20, True)
    assert expected and [(F(n, big), roots) for n, roots in events] == expected


def _inside(events, breakpoints):
    """The events at times strictly inside the pieces."""
    return [(t, roots) for t, roots in events if t not in breakpoints]


def _both_ways(system, den, pieces, h):
    """The reference events inside the pieces, with at_end true and false."""
    ends = {t for piece in pieces for t in piece[1:3]}
    return [_inside(ref_falling_wall_events(system, den, pieces, h, at_end), ends) for at_end in (True, False)]


def test_ends_agree_inside_the_pieces_of_the_pools():
    from test_gallery_reference import POOLS  # here, as that module imports this one

    for pool in POOLS.values():
        for path in pool:
            den = path._vertex_pairings[0]
            reached, left = _both_ways(path.system, den, list(path._pieces()), 20)
            assert reached == left


@given(
    name=st.sampled_from(["A2", "B2", "G2", "A3", "A1aff"]),
    word=st.lists(st.integers(0, 2), max_size=5),
    times=st.sets(fractions_in(0, 1, max_denominator=12), min_size=2, max_size=2),
    ends=st.lists(st.lists(st.integers(-12, 12), min_size=3, max_size=3), min_size=2, max_size=2),
    den=st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_ends_agree_inside_a_drawn_piece(name, word, times, ends, den):
    # one piece with any rep, any times t0 < t1 and any integer pairings at its ends
    system = CANDIDATE_SYSTEMS[name]
    w = system.normalize_word(tuple(i % system.n for i in word))
    t0, t1 = sorted(times)
    piece = (w, t0, t1, *(row[: system.n] for row in ends))
    reached, left = _both_ways(system, den, [piece], 20)
    assert reached == left


def test_recognize_pipeline_finds_the_events_once(monkeypatch):
    # is_hecke, is_ls, stats, the max-chain decoration with codim_tilde and the
    # parameter pattern share one falling-wall pass per Hecke path
    from test_gallery_reference import POOLS

    calls = []

    def counted(*args):
        calls.append(args)
        return _falling_wall_events(*args)

    monkeypatch.setattr(paths_module, "_falling_wall_events", counted)
    for pool in POOLS.values():
        for path in pool:
            path = replace(path)  # a new instance, with an empty analysis record
            calls.clear()
            assert is_hecke(path).ok
            is_ls(path)
            stats(path)
            codim_tilde(decorate_with_max_chains(path))
            parameter_pattern(path)
            assert len(calls) == 1
