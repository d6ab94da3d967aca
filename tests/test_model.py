import gc
import math
import weakref
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths.errors import CapHit, CrossCheckMismatch, FormatError, HPLError, NotDominant, UnsupportedType
from heckepaths.linalg import format_vector
from heckepaths.model import (
    _cosets_up_to_length,
    _DualData,
    enumerate_hecke,
    freudenthal_multiplicity,
    generate_ls_paths,
    multiplicity,
)
from heckepaths.paths import is_hecke, is_ls, stats
from heckepaths.root_system import RootGeneratingSystem, _along, _coroot_gap, dominance_difference

from conftest import KERNEL_SYSTEMS, coroot_combination, frac_vec, group_elements
from test_path_reference import from_segments, segments
from test_system_reference import ref_act, ref_coroot_coordinates, ref_pairing, ref_unwind, solve_linear


class TestGenerateLS:
    def test_a1_adjoint(self, a1):
        graph = generate_ls_paths(a1, (F(1),))
        assert len(graph.nodes) == 3 and not graph.partial
        assert {p.endpoint for p in graph.nodes} == {(F(1),), (F(0),), (F(-1),)}

    def test_a2_adjoint(self, a2):
        graph = generate_ls_paths(a2, frac_vec(1, 1))
        assert len(graph.nodes) == 8
        assert graph.endpoint_counts()[frac_vec(0, 0)] == 2

    def test_zero_shape(self, a2):
        graph = generate_ls_paths(a2, frac_vec(0, 0))
        assert len(graph.nodes) == 1 and graph.nodes[0].is_constant

    def test_every_node_is_ls(self, a2):
        graph = generate_ls_paths(a2, frac_vec(2, 1))
        assert all(is_ls(p).ok for p in graph.nodes)

    def test_rejects_non_dominant(self, a2):
        with pytest.raises(NotDominant):
            generate_ls_paths(a2, frac_vec(1, 0))

    def test_cap_flags_partial(self, a1aff):
        lam = _fundamental_coweight(a1aff)
        graph = generate_ls_paths(a1aff, lam, depth_cap=10)
        assert graph.partial and graph.completed_depth >= 1


class TestMultiplicity:
    def test_highest_weight(self, a1):
        assert multiplicity(a1, (F(1),), (F(1),)) == 1

    def test_above_highest(self, a1):
        assert multiplicity(a1, (F(1),), (F(2),)) == 0

    def test_a2_zero_weight(self, a2):
        assert multiplicity(a2, frac_vec(1, 1), frac_vec(0, 0)) == 2

    @pytest.mark.parametrize("lam", [(-1, -1), (F(1, 2), 0), (F(1, 2), F(1, 2))])
    def test_refuses_shape_like_generation(self, a2, lam):
        # mu = 0 is not below these shapes; the shape is still refused, not answered 0
        with pytest.raises(NotDominant) as crystal:
            generate_ls_paths(a2, lam)
        with pytest.raises(NotDominant) as mult:
            multiplicity(a2, lam, frac_vec(0, 0))
        assert str(mult.value) == str(crystal.value)

    def test_cap_hit_raises(self, a1aff):
        lam = _fundamental_coweight(a1aff)
        delta = _delta_coroot(a1aff)
        far = tuple(a - 40 * b for a, b in zip(lam, delta))
        with pytest.raises(CapHit):
            multiplicity(a1aff, lam, far, depth_cap=10)

    def test_weyl_symmetry(self, a2):
        table = generate_ls_paths(a2, frac_vec(2, 1)).endpoint_counts()
        for mu, count in table.items():
            for el in group_elements(a2, 3):
                img = ref_act(a2, el.word, mu)
                if img in table:
                    assert table[img] == count


class TestFreudenthal:
    def test_a1(self, a1):
        assert freudenthal_multiplicity(a1, (F(1),), (F(0),)) == 1

    def test_a2_adjoint_zero(self, a2):
        assert freudenthal_multiplicity(a2, frac_vec(1, 1), frac_vec(0, 0)) == 2

    def test_highest(self, a2):
        assert freudenthal_multiplicity(a2, frac_vec(2, 2), frac_vec(2, 2)) == 1

    def test_b2(self, b2):
        # highest-root coroot (1,1) heads the 5-dimensional dual module
        lam = _highest_root_coroot(b2)
        assert lam == (F(1), F(1))
        table = generate_ls_paths(b2, lam).endpoint_counts()
        assert sum(table.values()) == 5
        for mu, count in table.items():
            assert freudenthal_multiplicity(b2, lam, mu) == count

    def test_affine_partition_values(self, a1aff):
        lam = _fundamental_coweight(a1aff)
        delta = _delta_coroot(a1aff)
        for n, expected in ((1, 1), (2, 2), (3, 3), (4, 5)):
            mu = tuple(a - n * b for a, b in zip(lam, delta))
            assert freudenthal_multiplicity(a1aff, lam, mu) == expected

    def test_g2_route_agreement(self):
        from heckepaths import RootGeneratingSystem

        g2 = RootGeneratingSystem.from_gcm([[2, -1], [-3, 2]])
        lam = frac_vec(2, 1)  # pairings (1, 0): a fundamental-type coweight
        table = generate_ls_paths(g2, lam, depth_cap=10_000).endpoint_counts()
        cache = {}
        for mu, count in table.items():
            assert freudenthal_multiplicity(g2, lam, mu, cache=cache) == count

    def test_one_unwind_per_weight(self, monkeypatch):
        from heckepaths import RootGeneratingSystem, model

        a3 = RootGeneratingSystem.from_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        unwinds, unwound, inverses = [], [], []
        unwind = a3._unwind_below

        def counting_unwind(num, pairs, gap, step):
            unwinds.append(tuple(num))
            return unwind(num, pairs, gap, step)

        monkeypatch.setattr(a3, "_unwind_below", counting_unwind)
        monkeypatch.setattr(a3, "_unwound", lambda *args: unwound.append(args))
        monkeypatch.setattr(a3, "inverse", inverses.append)
        gaps, weights = [], []
        monkeypatch.setattr(model, "_coroot_gap", lambda *args: gaps.append(args) or _coroot_gap(*args))
        weight_mult = model._weight_mult
        monkeypatch.setattr(model, "_weight_mult", lambda *args: weights.append(args[1:]) or weight_mult(*args))
        cache = {}
        mus = [frac_vec(0, 0, 0), frac_vec(1, 0, 1), frac_vec(0, 2, 0), frac_vec(2, 0, 2), frac_vec(1, 2, 1)]
        assert [freudenthal_multiplicity(a3, frac_vec(3, 4, 3), mu, cache) for mu in mus] == [15, 10, 5, 1, 10]
        # the five weights and the 98 raised weights of the recursion (51 distinct
        # points) are unwound once each, by the gap-tracking unwind alone
        assert (len(unwinds), len(set(unwinds))) == (103, 51)
        assert unwound == inverses == []
        # lam - mu is solved once per call; each weight of a root string carries its own gap
        lamp = a3._integer_point(frac_vec(3, 4, 3))
        assert len(gaps) == 5 and len(weights) == len(unwinds)
        assert all(_coroot_gap(a3, lamp, nu) == (gap and tuple(gap)) for nu, gap in weights)

    @pytest.mark.parametrize("lam", [(-1, 0), (F(1, 2), F(1, 2))], ids=["not-dominant", "off-Y"])
    def test_highest_weight_refused(self, a2, lam):
        with pytest.raises(NotDominant) as raised:
            freudenthal_multiplicity(a2, lam, frac_vec(0, 0))
        assert str(raised.value) == "Freudenthal needs a dominant highest weight in Y"

    def test_indefinite_refused(self):
        from heckepaths import RootGeneratingSystem

        indef = RootGeneratingSystem.from_gcm([[2, -3], [-3, 2]])
        with pytest.raises(UnsupportedType):
            freudenthal_multiplicity(indef, indef.zero(), indef.zero())

    def test_non_integral_realization_refused(self):
        # the Weyl group of B2rational does not keep Y: the oracle gave 0 at (3,-1) -> (0,0),
        # where the crystal counts 3
        b2 = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS["B2rational"])
        assert multiplicity(b2, frac_vec(3, -1), frac_vec(0, 0)) == 3
        with pytest.raises(UnsupportedType, match="needs integral simple roots and coroots"):
            freudenthal_multiplicity(b2, frac_vec(3, -1), frac_vec(0, 0))

    def test_dual_system_built_once_per_system(self, monkeypatch):
        built = []
        from_gcm = RootGeneratingSystem.from_gcm.__func__

        def counting_from_gcm(cls, entries, names=None):
            built.append(entries)
            return from_gcm(cls, entries, names)

        a1aff = RootGeneratingSystem.from_gcm([[2, -2], [-2, 2]])
        monkeypatch.setattr(RootGeneratingSystem, "from_gcm", classmethod(counting_from_gcm))
        lam = _fundamental_coweight(a1aff)
        delta = _delta_coroot(a1aff)
        values = [
            freudenthal_multiplicity(a1aff, lam, tuple(a - n * b for a, b in zip(lam, delta))) for n in range(4)
        ]
        assert values == [1, 1, 2, 3]
        assert built == [[(2, -2), (-2, 2)]]


# -- the former oracle, on Fraction vectors ---------------------------------------


def ref_freudenthal_multiplicity(system, lam, mu, cache=None):
    """The Fraction oracle freudenthal_multiplicity replaced: every raised weight becomes a
    Fraction vector again, unwound by ref_unwind and tested for Y on its coordinates, and
    the denominator solves lam - nu by ref_coroot_coordinates; the cache is keyed by
    dominant Fraction vectors."""
    lam = tuple(F(x) for x in lam)
    mu = tuple(F(x) for x in mu)
    if any(ref_pairing(system, i, lam) < 0 for i in range(system.n)) or any(x.denominator != 1 for x in lam):
        raise NotDominant("Freudenthal needs a dominant highest weight in Y")
    ctx = (system, _DualData(system), lam, system._integer_point(lam), {} if cache is None else cache)
    return _ref_weight_mult(ctx, mu)


def _ref_weight_mult(ctx, nu):
    system = ctx[0]
    if system._outside_by_level(system._pairings(nu)[1]):
        return 0
    dom, _ = ref_unwind(system, nu, False)
    if any(x.denominator != 1 for x in dom):
        return 0
    return _ref_dominant_mult(ctx, dom)


def _ref_dominant_mult(ctx, nu):
    system, dual, lam, lamp, cache = ctx
    if nu == lam:
        return 1
    if nu in cache:
        return cache[nu]
    nup = system._integer_point(nu)
    diff = _coroot_gap(system, lamp, nup)
    if diff is None:
        cache[nu] = 0
        return 0
    unit = lamp[2] // system._cden
    total = F(0)
    for coeffs, root_mult in dual.roots_up_to_height(sum(diff)):
        step = [0] * system.rank_x, [0] * system.n, lamp[2]
        for i, c in enumerate(coeffs):
            if c:
                system._subtract_coroot(step[0], step[1], i, -c * unit)
        k = 1
        while True:
            upper = _along(nup, (k, 1), step)
            if _coroot_gap(system, lamp, upper) is None:
                break
            m = _ref_weight_mult(ctx, tuple(F(x, upper[2]) for x in upper[0]))
            if m:
                total += root_mult * m * dual.pair(coeffs, upper)
            k += 1
    coords = ref_coroot_coordinates(system.simple_coroots, tuple(a - b for a, b in zip(lam, nu)))
    denom = dual.pair(coords, _along(lamp, (1, 1), nup)) + 2 * sum(c * d for c, d in zip(coords, dual.dsym))
    if denom <= 0:
        raise CrossCheckMismatch(f"Freudenthal denominator {denom} at ({','.join(format_vector(nu))}) is not positive")
    value = 2 * total / denom
    if value.denominator != 1 or value < 0:
        raise CrossCheckMismatch(
            f"Freudenthal multiplicity {value} at ({','.join(format_vector(nu))}) is not a natural number"
        )
    cache[nu] = int(value)
    return cache[nu]


def _oracle_outcome(oracle, *args):
    try:
        return oracle(*args)
    except HPLError as exc:
        return type(exc), str(exc)


# the golden hpl mult shapes, and the two twisted matrices the oracle gets wrong
ORACLE_CASES = {
    "A2": ([[2, -1], [-1, 2]], [(2, 1), (3, 3)]),
    "B2": ([[2, -2], [-1, 2]], [(2, 2), (1, 1)]),
    "G2": ([[2, -1], [-3, 2]], [(4, 2)]),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [(1, 2, 1), (2, 3, 2)]),
    "A1aff": ([[2, -2], [-2, 2]], [(0, 0, 1), (1, 1, 2)]),
    "twisted": ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], [(0, 0, 0, 1)]),
    "twisted2": ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], [(0, 0, 0, 1)]),
}


def _oracle_weights(system, lam):
    """lam minus small coroot combinations, one simple reflection of each, three
    points off Y, -lam (outside the Tits cone in affine type) and 2 lam."""
    out = []
    for coeffs in product(range(3), repeat=system.n):
        mu = tuple(a - b for a, b in zip(lam, coroot_combination(system, coeffs)))
        out += [mu, system.simple_reflection(sum(coeffs) % system.n, mu)]
    out += [tuple(x + F(1, 2) for x in mu) for mu in out[:3]]
    return out + [tuple(-x for x in lam), tuple(2 * x for x in lam)]


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_matches_the_fraction_oracle(name):
    # the same values, exception types and messages, each call on its own and
    # with one cache shared across the weights, each route on its own system
    entries, shapes = ORACLE_CASES[name]
    for lam in shapes:
        lam = frac_vec(*lam)
        mus = _oracle_weights(RootGeneratingSystem.from_gcm(entries), lam)
        for shared in (False, True):
            outcomes = []
            for oracle in (freudenthal_multiplicity, ref_freudenthal_multiplicity):
                system, cache = RootGeneratingSystem.from_gcm(entries), {} if shared else None
                outcomes.append([_oracle_outcome(oracle, system, lam, mu, cache) for mu in mus])
            assert outcomes[0] == outcomes[1]


class TestEnumerateHecke:
    def test_a1_loop(self, a1):
        res = enumerate_hecke(a1, (F(1),), (F(0),), (F(0),))
        assert len(res) == 1
        (w,) = res
        assert w.path.breakpoints == (F(0), F(1, 2), F(1))
        assert [x.word for x in w.path.directions] == [(0,), ()]
        assert len(w.certificates) == 1

    def test_a1_straight(self, a1):
        res = enumerate_hecke(a1, (F(1),), (F(0),), (F(1),))
        assert len(res) == 1 and res[0].path.r == 1

    def test_unreachable(self, a1):
        assert enumerate_hecke(a1, (F(1),), (F(0),), (F(2),)) == []

    def test_zero_shape(self, a2):
        # the only path of shape 0 is the constant one, a Hecke path with no breakpoint to certify
        y0 = frac_vec(1, -2)
        (w,) = enumerate_hecke(a2, frac_vec(0, 0), y0, y0)
        assert w.path.is_constant and w.path.start == w.path.endpoint == y0
        assert w.certificates == () and is_hecke(w.path).ok
        assert enumerate_hecke(a2, frac_vec(0, 0), y0, frac_vec(1, -1)) == []

    @pytest.mark.parametrize(
        "lam, y0, y1, error",
        [
            ((-1, 0), (0, 0), (0, 0), NotDominant),  # pairings (-2, 1)
            ((F(1, 2), F(1, 2)), (0, 0), (0, 0), FormatError),  # dominant, not in Y
            ((1, 1), (F(1, 2), 0), (0, 0), FormatError),
            ((1, 1), (0, 0), (0, F(-1, 3)), FormatError),
            ((F(-1, 2), 0), (0, 0), (F(1, 2), 0), NotDominant),  # both: dominance is checked first
        ],
        ids=["not-dominant", "shape-off-Y", "y0-off-Y", "y1-off-Y", "both"],
    )
    def test_entry_errors(self, a2, lam, y0, y1, error):
        with pytest.raises(error, match="dominant shape" if error is NotDominant else "must lie in Y"):
            enumerate_hecke(a2, lam, y0, y1)

    def test_a2_loop_counts(self, a2):
        res = enumerate_hecke(a2, frac_vec(1, 1), frac_vec(0, 0), frac_vec(0, 0))
        assert len(res) == 3
        assert sum(1 for w in res if is_ls(w.path).ok) == 2

    def test_paths_that_differ_only_in_their_times(self, a2):
        # the loop of shape (5, 5) at 0 has two direction sequences with two sets of fold
        # times each; every path is kept once, in (breakpoints, words) order.  Integer input
        # still gives Fraction shapes and starts
        res = enumerate_hecke(a2, (5, 5), (0, 0), (0, 0))
        assert [([w.word for w in x.path.directions], [str(t) for t in x.path.breakpoints]) for x in res] == [
            ([(0, 1, 0), (0, 1), (1,), ()], ["0", "1/5", "1/2", "4/5", "1"]),
            ([(0, 1, 0), (1, 0), (0,), ()], ["0", "1/5", "1/2", "4/5", "1"]),
            ([(0, 1, 0), (0, 1), (1,), ()], ["0", "2/5", "1/2", "3/5", "1"]),
            ([(0, 1, 0), (1, 0), (0,), ()], ["0", "2/5", "1/2", "3/5", "1"]),
            ([(0, 1), (1,)], ["0", "1/2", "1"]),
            ([(0, 1, 0), ()], ["0", "1/2", "1"]),
            ([(1, 0), (0,)], ["0", "1/2", "1"]),
        ]
        assert all(type(x) is F for w in res for x in w.path.shape + w.path.start)
        assert all(is_hecke(w.path).ok and len(w.certificates) == w.path.r - 1 for w in res)

    def test_all_outputs_hecke_with_certs(self, a2):
        for w in enumerate_hecke(a2, frac_vec(1, 1), frac_vec(0, 0), frac_vec(-1, 0)):
            assert is_hecke(w.path).ok
            assert len(w.certificates) == w.path.r - 1

    def test_deterministic_order(self, a2):
        a = enumerate_hecke(a2, frac_vec(1, 1), frac_vec(0, 0), frac_vec(0, 0))
        b = enumerate_hecke(a2, frac_vec(1, 1), frac_vec(0, 0), frac_vec(0, 0))
        assert [w.path for w in a] == [w.path for w in b]

    @pytest.mark.parametrize(
        "gcm, lam, targets",
        [
            ([[2, -1], [-1, 2]], (2, 1), None),
            ([[2, -2], [-1, 2]], (1, 1), None),
            ([[2, -1], [-3, 2]], (2, 1), None),
            ([[2, -2], [-2, 2]], (0, 0, 2), [(-2, -1, 2), (-1, -1, 2), (0, -2, 2)]),
            ([[2, -2], [-2, 2]], (0, 1, 2), [(-1, -1, 2), (-2, 0, 2), (0, -1, 2)]),
        ],
        ids=["A2", "B2", "G2", "A1aff-002", "A1aff-012"],
    )
    def test_witnesses_equal_their_from_segments_rebuild(self, gcm, lam, targets):
        # the enumeration builds each path from its coset reps and fold times
        # directly; the canonical form from the raw pieces must be the same path
        system = RootGeneratingSystem.from_gcm(gcm)
        if targets is None:  # every weight of V(lam)
            targets = sorted({p.endpoint for p in generate_ls_paths(system, lam).nodes})
        origin = (0,) * len(lam)
        witnesses = [w for y1 in targets for w in enumerate_hecke(system, lam, origin, y1)]
        assert len(witnesses) >= len(targets)
        for w in witnesses:
            pieces = [(t1 - t0, der) for t0, t1, der in segments(w.path)]
            rebuilt = from_segments(system, w.path.start, pieces)
            assert rebuilt == w.path  # shape, start, coset reps and breakpoints


# (system, shape, nu) with witnesses from 0 to nu; the simple roots of from_gcm
# take integer values on Y, so every wall is carried by a shift in Y to a wall
TRANSLATION_CASES = {
    "A2-21": ([[2, -1], [-1, 2]], (2, 1), (0, 0)),
    "A2-22": ([[2, -1], [-1, 2]], (2, 2), (1, 1)),
    "B2-23": ([[2, -2], [-1, 2]], (2, 3), (1, 1)),
    "B2-12": ([[2, -2], [-1, 2]], (1, 2), (0, 1)),
    "G2-21": ([[2, -1], [-3, 2]], (2, 1), (0, 0)),
    "A1aff-002": ([[2, -2], [-2, 2]], (0, 0, 2), (-2, -1, 2)),
    "A1aff-012": ([[2, -2], [-2, 2]], (0, 1, 2), (0, -1, 2)),
}


@given(case=st.sampled_from(sorted(TRANSLATION_CASES)), shift=st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_enumeration_commutes_with_translation(case, shift):
    """enumerate_hecke(lam, y0, y0 + nu) is the y0 = 0 result moved by y0: the same
    directions, fold times and certificates (times, roots, cosets and xi's)."""
    entries, lam, nu = TRANSLATION_CASES[case]
    system = RootGeneratingSystem.from_gcm(entries)
    y0 = tuple(shift[: len(lam)])
    base = enumerate_hecke(system, lam, (0,) * len(lam), nu)
    moved = enumerate_hecke(system, lam, y0, tuple(a + b for a, b in zip(y0, nu)))
    assert base and len(moved) == len(base)
    for w, v in zip(base, moved):
        assert v.path == replace(w.path, start=y0)  # shape, start, directions and breakpoints
        assert v.certificates == w.certificates


# (Cartan matrix, shapes in the coroot basis of from_gcm, each with a pairing 0, and endpoints
# y1, None for every weight of V(lam))
WITNESS_ROW_CASES = {
    "A2": ([[2, -1], [-1, 2]], [(2, 1), (1, 2)], None),
    "B2": ([[2, -2], [-1, 2]], [(1, 1), (1, 2)], None),
    "G2": ([[2, -1], [-3, 2]], [(2, 1), (3, 2)], None),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [(1, 1, 1), (1, 2, 1)], None),
    "A1aff": ([[2, -2], [-2, 2]], [(0, 0, 2), (0, 1, 2)], [(-2, -1, 2), (-1, -1, 2), (0, -2, 2), (0, -1, 2)]),
}


@pytest.mark.parametrize("name", sorted(WITNESS_ROW_CASES))
def test_witnesses_carry_the_rows_of_a_fresh_path(name):
    """Each witness holds the shape point, direction rows and vertex rows the search
    summed, before any reader asks for them; they equal those a fresh path with the
    same fields computes."""
    from heckepaths.paths import LambdaPath

    entries, shapes, targets = WITNESS_ROW_CASES[name]
    system = RootGeneratingSystem.from_gcm(entries)
    origin = (0,) * system.rank_x
    count = 0
    for lam in shapes:
        assert 0 in [ref_pairing(system, j, frac_vec(*lam)) for j in range(system.n)]
        ys = targets or sorted({p.endpoint for p in generate_ls_paths(system, lam).nodes})
        for w in (w for y1 in ys for w in enumerate_hecke(system, lam, origin, y1)):
            received = {k: vars(w.path)[k] for k in ("_shape_point", "_direction_rows", "_vertex_rows")}
            fresh = LambdaPath(system, w.path.shape, w.path.start, w.path.directions, w.path.breakpoints)
            assert received == {k: getattr(fresh, k) for k in received}
            count += 1
    assert count >= 10


class TestOracleAgreement:
    @pytest.mark.parametrize("lam", [(1,), (2,), (3,)])
    def test_a1(self, a1, lam):
        lam = tuple(F(x) for x in lam)
        table = generate_ls_paths(a1, lam).endpoint_counts()
        for mu, count in table.items():
            assert freudenthal_multiplicity(a1, lam, mu) == count

    def test_a2_adjoint(self, a2):
        table = generate_ls_paths(a2, frac_vec(1, 1)).endpoint_counts()
        assert table[frac_vec(0, 0)] == freudenthal_multiplicity(a2, frac_vec(1, 1), frac_vec(0, 0))

    def test_ls_subset_of_hecke(self, a2):
        lam = frac_vec(1, 1)
        graph = generate_ls_paths(a2, lam)
        by_endpoint = {}
        for node in graph.nodes:
            by_endpoint.setdefault(node.endpoint, set()).add(node)
        for mu, nodes in by_endpoint.items():
            hecke = {w.path for w in enumerate_hecke(a2, lam, frac_vec(0, 0), mu)}
            assert nodes <= hecke

    def test_characterization_filter(self, a2):
        lam = frac_vec(1, 1)
        graph = generate_ls_paths(a2, lam)
        for mu in graph.endpoint_counts():
            rho_gap = a2.rho_value(tuple(a - b for a, b in zip(lam, mu)))
            hecke = enumerate_hecke(a2, lam, frac_vec(0, 0), mu)
            filtered = {w.path for w in hecke if stats(w.path).ddim == rho_gap}
            ls_nodes = {p for p in graph.nodes if p.endpoint == mu}
            assert filtered == ls_nodes

    def test_endpoint_bound(self, a2):
        for node in generate_ls_paths(a2, frac_vec(2, 2)).nodes:
            assert dominance_difference(a2, frac_vec(2, 2), node.endpoint) is not None


# complete finite-type crystals of the tests and the benchmark, by shape in the coroot basis
WEYL_GCMS = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}
WEYL_SHAPES = {
    "A2": [(1, 1), (2, 1), (2, 2)],
    "B2": [(1, 1), (1, 2), (2, 2)],
    "G2": [(2, 1), (3, 2), (10, 6)],
    "A3": [(1, 1, 1), (1, 2, 1), (3, 4, 3)],
}


def _weyl_dimension(system, lam):
    """Weyl's dimension formula for the module whose crystal the LS paths of shape lam
    form: the product over the positive roots beta of beta(lam + rho^v) / beta(rho^v),
    alpha_j(rho^v) = 1.  It is right only if the closure finds every positive root."""
    pairs = [ref_pairing(system, j, lam) for j in range(system.n)]
    dim = F(1)
    for beta in system.real_roots_up_to_height(math.inf):
        dim *= F(sum(c * (p + 1) for c, p in zip(beta.coeffs, pairs)), beta.height)
    return dim


@pytest.mark.parametrize(
    "name, shape", [pytest.param(name, lam, id=f"{name}-{lam}") for name, ls in WEYL_SHAPES.items() for lam in ls]
)
def test_weyl_dimension_formula_counts_the_crystal(name, shape):
    system = RootGeneratingSystem.from_gcm(WEYL_GCMS[name])
    graph = generate_ls_paths(system, frac_vec(*shape), depth_cap=10_000)
    assert not graph.partial and _weyl_dimension(system, frac_vec(*shape)) == len(graph.nodes)


def test_weyl_dimension_formula_of_2_rho():
    # lam = 2 rho^v in A3, (3, 4, 3) in the coroot basis: each of the six factors is 3
    system = RootGeneratingSystem.from_gcm(WEYL_GCMS["A3"])
    assert [ref_pairing(system, j, frac_vec(3, 4, 3)) for j in range(3)] == [2, 2, 2]
    assert _weyl_dimension(system, frac_vec(3, 4, 3)) == 3**6


def _fundamental_coweight(system):
    """A dominant integral coweight with pairings summing to 1."""
    from itertools import product

    for y in product(range(-2, 3), repeat=system.rank_x):
        v = tuple(F(x) for x in y)
        vals = [ref_pairing(system, i, v) for i in range(system.n)]
        if sorted(vals) == [0] * (system.n - 1) + [1]:
            return v
    raise AssertionError("no fundamental-type coweight found")


def _delta_coroot(system):
    from test_system_reference import nullspace, scale_to_primitive_integers

    a = system.gcm.entries
    n = system.n
    ker = nullspace([[a[j][i] for j in range(n)] for i in range(n)])
    c = scale_to_primitive_integers(ker[0])
    if any(x < 0 for x in c):
        c = tuple(-x for x in c)
    out = system.zero()
    for i, coef in enumerate(c):
        out = tuple(a1 + coef * b for a1, b in zip(out, system.simple_coroots[i]))
    return out


def _highest_root_coroot(system):
    """Coroot vector of the highest root (finite type, rank 2)."""
    roots = system.real_roots_up_to_height(10)
    best = max(roots, key=lambda r: r.height)
    return coroot_combination(system, best.coroot_coeffs)


class TestCosetsUpToLength:
    """The orbit walk's reps, read off as s_i w, against coset_of_vector, and its
    integer points against their Fraction vectors and pairings.  Shapes are given
    by their pairings alpha_j(lam), some of them on walls."""

    CASES = {
        "A2": ([[2, -1], [-1, 2]], [(1, 1), (2, 0), (0, 1), (0, 0)]),
        "B2": ([[2, -2], [-1, 2]], [(1, 1), (0, 2), (1, 0)]),
        "G2": ([[2, -1], [-3, 2]], [(1, 1), (1, 0), (0, 2)]),
        "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [(1, 0, 1), (0, 1, 0), (1, 1, 1)]),
        "A1aff": ([[2, -2], [-2, 2]], [(1, 1), (1, 0), (0, 2)]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("max_len", [0, 1, 3, 6])
    def test_matches_coset_of_vector(self, name, max_len):
        entries, shapes = self.CASES[name]
        system = RootGeneratingSystem.from_gcm(entries)
        for pairs in shapes:
            lam = solve_linear(system.simple_roots, frac_vec(*pairs))
            assert [ref_pairing(system, j, lam) for j in range(system.n)] == list(pairs)
            point = system._integer_point(lam)
            got = {}
            for num, (p, rep) in _cosets_up_to_length(system, point, max_len).items():
                v = tuple(F(x, point[2]) for x in num)
                pairs_den = point[2] // system._cden
                assert [F(a, pairs_den) for a in p] == [ref_pairing(system, j, v) for j in range(system.n)]
                got[v] = rep
            for v, rep in got.items():
                assert system.coset_of_vector(v, lam).element == rep and rep.length <= max_len
            # every orbit vector whose rep is short enough, from the group elements up to that length
            expect = set()
            for w in group_elements(system, max_len):
                v = ref_act(system, w.word, lam)
                if system.coset_of_vector(v, lam).length <= max_len:
                    expect.add(v)
            assert set(got) == expect


@pytest.mark.parametrize(
    "entries, pairs, drop",
    [([[2, -1], [-1, 2]], (1, 1), (1, 1)), ([[2, -2], [-1, 2]], (2, 0), (1, 1)), ([[2, -2], [-2, 2]], (2, 0), (2, 1))],
    ids=["A2", "B2", "A1aff"],
)
@pytest.mark.parametrize("use", ["enumerate", "recognize", "decorations", "freudenthal"])
def test_system_dies_with_its_results_without_the_cyclic_collector(entries, pairs, drop, use):
    # no reference cycle holds a system, its memos or a path's analysis record:
    # reference counting alone frees them once the caller drops what it holds
    from heckepaths.galleries import codim_tilde, decorate_with_max_chains, enumerate_decorations, parameter_pattern

    def recognized(witnesses):
        for w in witnesses:
            is_ls(w.path), stats(w.path), parameter_pattern(w.path), codim_tilde(decorate_with_max_chains(w.path))
        return [w.path for w in witnesses]

    uses = {
        "enumerate": lambda witnesses: witnesses,
        "recognize": recognized,
        "decorations": lambda witnesses: [enumerate_decorations(w.path) for w in witnesses],
        "freudenthal": lambda witnesses: freudenthal_multiplicity(witnesses[0].path.system, lam, y1),
    }
    gc.disable()
    try:
        system = RootGeneratingSystem.from_gcm(entries)
        ref = weakref.ref(system)
        lam = solve_linear(system.simple_roots, frac_vec(*pairs))
        y1 = tuple(x - sum(c * cr[t] for c, cr in zip(drop, system.simple_coroots)) for t, x in enumerate(lam))
        witnesses = enumerate_hecke(system, lam, system.zero(), y1)
        assert any(w.path.r > 1 for w in witnesses)
        held = uses[use](witnesses)
        del system, witnesses
        assert (ref() is None) == (use == "freudenthal")  # a multiplicity holds no system
        del held
        assert ref() is None
    finally:
        gc.enable()
