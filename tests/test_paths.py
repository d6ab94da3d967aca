import copy
import json
import pickle
from fractions import Fraction as F
from functools import cache
from math import inf
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckepaths import RootGeneratingSystem
from heckepaths.apartment import levels_crossed
from heckepaths.errors import CrossCheckMismatch, FormatError, HPLError, NonLambdaPath, NotDominant, OutOfRange
from heckepaths.paths import (
    LambdaPath,
    all_chains,
    concat,
    ddim_events,
    eval_path,
    find_chain,
    is_hecke,
    is_ls,
    make_path,
    path_from_json_dict,
    path_to_json_dict,
    reverse_path,
    root_operator,
    stats,
    straight_path,
)
from heckepaths.model import enumerate_hecke, freudenthal_multiplicity, generate_ls_paths, multiplicity
from heckepaths.galleries import minimal_gallery
from heckepaths.root_system import WeylElement, dominance_difference

from conftest import KERNEL_SYSTEMS, frac_vec
from strategies import fractions_in
from test_chain_reference import CANDIDATE_SYSTEMS, chain_targets, root_eval
from test_model import WITNESS_ROW_CASES
from test_path_reference import from_segments, segments, vadd, vscale
from test_system_reference import nullspace, ref_act, ref_inversions, ref_unwind, solve_linear, vdot_cov


@pytest.fixture()
def v_path(a1):
    """A1 fold through -alpha^v/2: the weight-zero LS path of shape alpha^v."""
    return make_path(a1, (F(1),), (F(0),), [(0,), ()], [F(0), F(1, 2), F(1)])


@pytest.fixture()
def theta_path(a2):
    """A2 single jump through the highest-root wall: Hecke but not LS."""
    return make_path(a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1, 0), ()], [F(0), F(1, 2), F(1)])


class TestEval:
    def test_straight_midpoint(self, a1):
        pi = straight_path(a1, (F(1),))
        assert eval_path(pi, F(1, 2)) == (F(1, 2),)

    def test_folded_midpoint(self, v_path):
        assert eval_path(v_path, F(1, 2)) == (F(-1, 2),)

    def test_start(self, v_path):
        assert eval_path(v_path, 0) == (F(0),)

    def test_out_of_range(self, v_path):
        with pytest.raises(OutOfRange):
            eval_path(v_path, F(3, 2))

    def test_continuity_at_breakpoints(self, theta_path):
        eps = F(1, 10**7)
        for j in range(1, theta_path.r):
            t = theta_path.breakpoints[j]
            left = eval_path(theta_path, t - eps)
            right = eval_path(theta_path, t + eps)
            mid = eval_path(theta_path, t)
            for a, b, c in zip(left, mid, right):
                assert abs(a - b) <= 2 * eps and abs(c - b) <= 2 * eps


class TestReverse:
    def test_straight(self, a1):
        pi = straight_path(a1, (F(1),))
        rev = reverse_path(pi)
        assert rev.start == (F(1),) and rev.endpoint == (F(0),)
        assert rev.shape == (F(-1),)

    def test_folded(self, v_path):
        rev = reverse_path(v_path)
        assert eval_path(rev, F(1, 2)) == (F(-1, 2),)
        assert rev.directions[0].word == () and rev.directions[1].word == (0,)

    def test_involution(self, v_path, theta_path):
        for p in (v_path, theta_path):
            assert reverse_path(reverse_path(p)) == p

    def test_nu_negated(self, a2):
        p = straight_path(a2, frac_vec(1, 1), frac_vec(2, -1))
        assert reverse_path(p).nu == tuple(-x for x in p.nu)


class TestConcat:
    def test_straight_doubling(self, a1):
        pi = straight_path(a1, (F(1),))
        c = concat(pi, pi)
        assert c.endpoint == (F(2),) and c.r == 1
        assert c.shape == (F(2),)

    def test_with_constant(self, a1, v_path):
        const = straight_path(a1, (F(0),))
        c = concat(v_path, const)
        assert c == v_path  # constant tail is reparametrization slack

    def test_formula_on_equal_shapes(self, a1, v_path):
        c = concat(v_path, v_path)
        for t in (F(1, 8), F(1, 3), F(7, 8)):
            if t <= F(1, 2):
                assert eval_path(c, t) == eval_path(v_path, 2 * t)
            else:
                assert eval_path(c, t) == eval_path(v_path, 2 * t - 1)

    def test_mixed_orbits_flagged(self, a2):
        # (2,1) is not proportional to anything in the Weyl orbit of (1,1)
        p1 = straight_path(a2, frac_vec(1, 1))
        p2 = straight_path(a2, frac_vec(2, 1), frac_vec(1, 1))
        with pytest.raises(NonLambdaPath):
            concat(p1, p2)

    def test_central_directions_summing_to_zero_flagged(self):
        # c = (1, 1, 0) is central in A1^(1): c and -c are their own dominant
        # conjugates, in different Weyl orbits, and their sum is the zero shape
        system = RootGeneratingSystem.from_gcm([[2, -2], [-2, 2]])
        c = frac_vec(1, 1, 0)
        with pytest.raises(NonLambdaPath, match="different Weyl orbits"):
            concat(straight_path(system, c), straight_path(system, frac_vec(-1, -1, 0)))

    def test_compatible_orbit_merges(self, a2):
        # a path of shape s_2(1,1) continues a (1,1)-path inside one orbit
        p1 = straight_path(a2, frac_vec(1, 1))
        p2 = straight_path(a2, frac_vec(1, 0), frac_vec(1, 1))
        c = concat(p1, p2)
        assert c.shape == frac_vec(2, 2) and c.endpoint == frac_vec(2, 1)


class TestFindChain:
    def test_a1_fold(self, a1):
        cert = find_chain(
            a1, (F(-1),), (F(1),), (F(-1, 2),), (F(1),), kind="hecke", a_j=F(1, 2)
        )
        assert cert is not None and [b.coeffs for b in cert.roots] == [(1,)]

    def test_a1_wrong_sign(self, a1):
        cert = find_chain(a1, (F(1),), (F(-1),), (F(-1, 2),), (F(1),), kind="hecke")
        assert cert is None

    def test_trivial(self, a1):
        cert = find_chain(a1, (F(-1),), (F(-1),), (F(0),), (F(1),), kind="hecke")
        assert cert is not None and cert.s == 0

    def test_unknown_kind_is_refused_by_every_entry(self, a1):
        with pytest.raises(FormatError, match="unknown chain kind 'bogus'"):
            find_chain(a1, (F(-1),), (F(1),), (F(-1, 2),), (F(1),), kind="bogus")
        with pytest.raises(FormatError, match="unknown chain kind 'bogus'"):
            all_chains(a1, (F(1),), (F(-1, 2),), (F(-1),), (F(1),), 20, kind="bogus")

    def test_point_of_the_wrong_rank_is_refused_by_every_entry(self, a2):
        shape, xi = (F(1), F(1)), (F(-1), F(-1))
        for x in ((F(0), F(0), F(5)), (F(0),)):
            with pytest.raises(FormatError, match="system has rank 2"):
                chain_targets(a2, shape, x, xi, 20)
            with pytest.raises(FormatError, match="system has rank 2"):
                find_chain(a2, xi, shape, x, shape)
            with pytest.raises(FormatError, match="system has rank 2"):
                all_chains(a2, shape, x, xi, shape, 20)

    def test_chain_targets_stamps_the_time(self, a1):
        (cert,) = chain_targets(a1, (F(1),), (F(-1, 2),), (F(-1),), 20, F(1, 2)).values()
        assert cert.t == F(1, 2) and cert.xis == ((F(-1),), (F(1),))
        assert [w.word for w in cert.cosets] == [(0,), ()]


class TestIsHecke:
    def test_straight(self, a1):
        assert is_hecke(straight_path(a1, (F(1),))).ok

    def test_v_path(self, v_path):
        res = is_hecke(v_path)
        assert res.ok and len(res.certificates) == 1

    def test_ghost_fold_rejected(self, a1):
        bad = make_path(a1, (F(1),), (F(0),), [(0,), ()], [F(0), F(3, 8), F(1)])
        res = is_hecke(bad)
        assert not res.ok
        assert res.reason == "condition vii fails at t=3/8"

    def test_negative_fold_rejected(self, a1):
        # rises to alpha = +1 then folds down: billiard but not positively folded
        bad = make_path(a1, (F(1),), (F(0),), [(), (0,)], [F(0), F(1, 2), F(1)])
        res = is_hecke(bad)
        assert not res.ok
        assert res.reason == "condition vi fails at t=1/2"

    def test_chain_step_off_the_orbit_is_an_internal_error(self, theta_path, monkeypatch):
        # r_beta keeps the Weyl orbit of the shape, so a chain step whose unwind
        # misses the shape is a fault of the library, not of the path
        system = theta_path.system
        unwound = system._unwound

        def off_orbit(*args):
            rep, dom, pairs = unwound(*args)
            return rep, [x + 1 for x in dom], pairs

        monkeypatch.setattr(system, "_unwound", off_orbit)
        with pytest.raises(CrossCheckMismatch, match="^vector is not in the Weyl orbit of the shape$"):
            is_hecke(theta_path)


class TestIsLS:
    def test_straight(self, a1):
        assert is_ls(straight_path(a1, (F(1),))).ok

    def test_v_path(self, v_path):
        res = is_ls(v_path)
        assert res.ok
        (cert,) = res.certificates
        assert [w.word for w in cert.cosets] == [(0,), ()]
        # condition ii: a_j * beta(sigma_i lambda) = 1/2 * 2 = 1
        assert cert.kind == "ls"

    def test_hecke_not_ls(self, theta_path):
        assert is_hecke(theta_path).ok
        assert not is_ls(theta_path).ok

    def test_non_integral_start_refused(self, a1):
        p = straight_path(a1, (F(1),), (F(1, 2),))
        res = is_ls(p)
        assert not res.ok and "start in Y" in res.reason

    def test_condition_ii_where_the_point_test_passes(self):
        # alpha = 1/2 on Y = Z and alpha^v = 4: at t = 1/2 the path is at x = 0,
        # where alpha is integral (condition vii holds), but 1/2 alpha(xi) = 1/2
        # is not, so condition ii alone rejects the fold
        system = RootGeneratingSystem.from_json_dict(
            {"cartan_matrix": [[2]], "simple_roots": [["1/2"]], "simple_coroots": [["4"]]}
        )
        data = {"lambda": ["2"], "start": ["1"], "directions": [[1], []], "breakpoints": ["0", "1/2", "1"]}
        path = path_from_json_dict(system, data)
        assert path.point(1) == (F(0),) and path.in_Y
        assert is_hecke(path).ok
        res = is_ls(path)
        assert not res.ok and res.reason == "condition ii fails at t=1/2"


class TestStats:
    def test_straight_zero(self, a1):
        st = stats(straight_path(a1, (F(1),)))
        assert st.ddim == 0 and st.codim == 0

    def test_v_path(self, v_path, a1):
        st = stats(v_path)
        assert st.ddim == 1 and st.codim == 1
        gap = a1.rho_value(tuple(a - b for a, b in zip(v_path.shape, v_path.nu)))
        assert st.ddim + st.codim == 2 * gap == 2

    def test_theta_path(self, theta_path, a2):
        st = stats(theta_path)
        gap = a2.rho_value(tuple(a - b for a, b in zip(theta_path.shape, theta_path.nu)))
        assert st.ddim == 1 and st.codim == 3 and gap == 2
        assert st.ddim <= gap <= st.codim

    def test_tally_identities(self, v_path, theta_path):
        for p in (v_path, theta_path):
            st = stats(p)
            assert st.ddim == sum(st.pos_reverse.values())
            assert st.codim == sum(st.neg.values())

    def test_classical_dim_identity(self, a2, theta_path, v_path):
        # dim + codim = rho(2 lambda) for billiard paths in Y, finite type
        for p in (theta_path, v_path):
            st = stats(p)
            two_rho_lam = 2 * p.system.rho_value(p.shape)
            assert st.dim + st.codim == two_rho_lam
            # dim <= rho(lambda+nu) iff ddim <= rho(lambda-nu)
            up = p.system.rho_value(tuple(a + b for a, b in zip(p.shape, p.nu)))
            down = p.system.rho_value(tuple(a - b for a, b in zip(p.shape, p.nu)))
            assert (st.dim <= up) == (st.ddim <= down)

    def test_billiard_not_hecke_identity(self, a1):
        p = make_path(a1, (F(1),), (F(0),), [(), (0,)], [F(0), F(1, 2), F(1)])
        assert not is_hecke(p).ok
        st = stats(p)
        assert st.dim + st.codim == 2 * a1.rho_value(p.shape)


class TestChainCertificateProperties:
    def test_equiv1_both_orders(self, theta_path, a2):
        # beta_i(xi_{i-1}) < 0 iff cosets strictly decrease in Bruhat order
        res = is_hecke(theta_path)
        for cert in res.certificates:
            for i, beta in enumerate(cert.roots):
                assert root_eval(a2, beta, cert.xis[i]) < 0
                assert a2.bruhat_leq(cert.cosets[i + 1], cert.cosets[i])
                assert cert.cosets[i + 1] != cert.cosets[i]

    def test_equiv2_endpoint_in_Y(self, a2):
        # Hecke path starting in Y ends in Y
        from heckepaths.model import enumerate_hecke

        for w in enumerate_hecke(a2, frac_vec(1, 1), frac_vec(0, 0), frac_vec(0, 0)):
            assert w.path.in_Y


class TestSerialization:
    def test_round_trip(self, a2, theta_path):
        data = path_to_json_dict(theta_path)
        again = path_from_json_dict(a2, data)
        assert again == theta_path

    def test_spec_layout(self, a1, v_path):
        data = path_to_json_dict(v_path)
        assert data["breakpoints"] == ["0", "1/2", "1"]
        assert data["directions"] == [[1], []]


# -- the cached geometry against the accumulation loops it replaced -----------------


def ref_derivative(path, k):
    return ref_act(path.system, path.directions[k].word, path.shape)


def ref_point(path, j):
    """pi(a_j), summed piece by piece from the start."""
    cur = tuple(path.start)
    for k in range(j):
        cur = vadd(cur, vscale(path.breakpoints[k + 1] - path.breakpoints[k], ref_derivative(path, k)))
    return cur


def ref_eval(path, t):
    cur = tuple(path.start)
    for k in range(path.r):
        t0, t1 = path.breakpoints[k], path.breakpoints[k + 1]
        if t <= t0:
            break
        cur = vadd(cur, vscale(min(t, t1) - t0, ref_derivative(path, k)))
    return cur


def ref_stats(path):
    """(ddim, codim, dim, tallies): the candidate pass, then dim in a second
    pass over every positive root."""
    sys_ = path.system
    candidates = set()
    for w in path.directions:
        candidates.update(ref_inversions(sys_, w.word)[0])
    pos, neg, pos_rev, neg_rev = {}, {}, {}, {}
    cur = tuple(path.start)
    for k in range(path.r):
        dur, der = path.breakpoints[k + 1] - path.breakpoints[k], ref_derivative(path, k)
        for beta in candidates:
            slope = root_eval(sys_, beta, der)
            if slope == 0:
                continue
            u0 = root_eval(sys_, beta, cur)
            u1 = u0 + slope * dur
            forward, backward = (pos, neg_rev) if slope > 0 else (neg, pos_rev)
            forward[beta] = forward.get(beta, 0) + len(levels_crossed(u0, u1))
            backward[beta] = backward.get(beta, 0) + len(levels_crossed(u1, u0))
        cur = vadd(cur, vscale(dur, der))
    dim = None
    if sys_.classify_type() == "finite":
        dim = 0
        cur = tuple(path.start)
        for k in range(path.r):
            dur, der = path.breakpoints[k + 1] - path.breakpoints[k], ref_derivative(path, k)
            for beta in sys_.real_roots_up_to_height(inf):
                slope = root_eval(sys_, beta, der)
                if slope > 0:
                    u0 = root_eval(sys_, beta, cur)
                    dim += len(levels_crossed(u0, u0 + slope * dur))
            cur = vadd(cur, vscale(dur, der))
    return sum(pos_rev.values()), sum(neg.values()), dim, (pos, neg, pos_rev, neg_rev)


def check_geometry(path):
    sys_ = path.system
    # equality, hash and repr come from the fields alone: an equal path built
    # directly, whose views are not read yet, agrees with one whose views are
    twin = LambdaPath(sys_, path.shape, path.start, path.directions, path.breakpoints)
    hash_before = hash(path)
    for j in range(path.r + 1):
        assert path.point(j) == ref_point(path, j)
    assert path.endpoint == ref_point(path, path.r)
    anti = not path.shape_is_dominant
    for k in range(path.r):
        assert path.direction_vector(k) == ref_derivative(path, k)
        coset = sys_.coset_of_vector(path.direction_vector(k), path.shape, antidominant=anti)
        assert path.directions[k] == coset.element
        t0, t1 = path.breakpoints[k], path.breakpoints[k + 1]
        for t in (t0, (t0 + t1) / 2, t1):
            assert eval_path(path, t) == ref_eval(path, t)
    got = stats(path)
    ddim, codim, dim, tallies = ref_stats(path)
    assert (got.ddim, got.codim, got.dim) == (ddim, codim, dim)
    assert (got.pos, got.neg, got.pos_reverse, got.neg_reverse) == tallies
    views = {"_shape_point", "_direction_rows", "_vertex_rows", "shape_is_dominant"}
    assert views <= set(vars(path)) and not views & set(vars(twin))
    assert hash(path) == hash_before == hash(twin)
    assert path == twin and twin in {path}
    assert repr(path) == repr(twin)


system_names = st.sampled_from(sorted(KERNEL_SYSTEMS))
SYSTEMS = {name: RootGeneratingSystem.from_json_dict(data) for name, data in KERNEL_SYSTEMS.items()}


@given(
    name=system_names,
    pairs=st.lists(fractions_in(0, 3, max_denominator=3), min_size=3, max_size=3),
    anti=st.booleans(),
    start=st.lists(fractions_in(-3, 3, max_denominator=4), min_size=3, max_size=3),
    words=st.lists(st.lists(st.integers(0, 2), max_size=4), min_size=1, max_size=4),
    cuts=st.sets(fractions_in(0, 1, max_denominator=12), max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_cached_geometry_matches_accumulation(name, pairs, anti, start, words, cuts):
    system = SYSTEMS[name]
    shape = solve_linear(system.simple_roots, pairs[: system.n])
    if anti:
        shape = tuple(-x for x in shape)
    bps = sorted(cuts - {0, 1})[: len(words) - 1]
    words = [[i % system.n for i in w] for w in words[: len(bps) + 1]]
    path = make_path(system, shape, start[: system.rank_x], words, [F(0), *bps, F(1)])
    check_geometry(path)


FINITE_SYSTEMS = {
    name: RootGeneratingSystem.from_gcm(a)
    for name, a in (
        ("A2", [[2, -1], [-1, 2]]),
        ("B2", [[2, -2], [-1, 2]]),
        ("G2", [[2, -1], [-3, 2]]),
        ("A3", [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
    )
}


@given(
    name=st.sampled_from(sorted(FINITE_SYSTEMS)),
    coords=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    anti=st.booleans(),
    start=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    words=st.lists(st.lists(st.integers(0, 2), max_size=4), min_size=1, max_size=4),
    cuts=st.sets(fractions_in(0, 1, max_denominator=4), max_size=3),
)
@example(name="A2", coords=[2, 3, 0], anti=True, start=[0, 0, 0], words=[[]], cuts=set())  # (-2,-3): dim 0
@example(name="A2", coords=[1, 1, 0], anti=False, start=[0, 0, 0], words=[[0], []], cuts={F(1, 2)})  # ends at (1/2, 1)
@settings(max_examples=100, deadline=None)
def test_stats_on_integer_shapes_and_starts(name, coords, anti, start, words, cuts):
    # shapes and starts in Y, so the ends are integral unless a breakpoint is not: stats
    # reads dim off the chain candidates only for a dominant shape with integral ends,
    # and the antidominant shapes and the rational breakpoints fall back to the closure
    system = FINITE_SYSTEMS[name]
    dom = ref_unwind(system, tuple(map(F, coords[: system.n])), False)[0]
    shape = tuple(-x for x in dom) if anti else dom
    bps = sorted(cuts - {0, 1})[: len(words) - 1]
    words = [[i % system.n for i in w] for w in words[: len(bps) + 1]]
    path = make_path(system, shape, start[: system.rank_x], words, [F(0), *bps, F(1)])
    got = stats(path)
    ddim, codim, dim, tallies = ref_stats(path)
    assert (got.ddim, got.codim, got.dim) == (ddim, codim, dim)
    assert (got.pos, got.neg, got.pos_reverse, got.neg_reverse) == tallies


# -- paths from their coset reps, against the former segments route ------------------


def ref_make_path(system, shape, start, words, bps):
    """The former make_path: act each word on the shape as a Fraction vector, then let
    from_segments unwind each displacement back to its coset rep."""
    shape = tuple(F(x) for x in shape)
    pairs = [vdot_cov(alpha, shape) for alpha in system.simple_roots]
    anti = any(p < 0 for p in pairs)
    segs = [(b1 - b0, ref_act(system, w, shape)) for w, b0, b1 in zip(words, bps, bps[1:])]
    return from_segments(system, start, segs, antidominant=anti)


def ref_reverse_path(path):
    """The former reverse_path: the segments run backwards with negated derivatives."""
    segs = [(t1 - t0, tuple(-x for x in der)) for t0, t1, der in reversed(segments(path))]
    anti = path.shape_is_dominant and not path.is_constant
    return from_segments(path.system, path.endpoint, segs, antidominant=anti)


@given(
    name=st.sampled_from(sorted(CANDIDATE_SYSTEMS)),
    pairs=st.lists(st.sampled_from([0, 0, 1, 2, F(1, 2), F(5, 3)]), min_size=3, max_size=3),
    central=fractions_in(-2, 2, max_denominator=3),
    anti=st.booleans(),
    start=st.lists(fractions_in(-3, 3, max_denominator=4), min_size=3, max_size=3),
    words=st.lists(st.lists(st.integers(0, 2), max_size=5), min_size=1, max_size=4),
    cuts=st.sets(fractions_in(0, 1, max_denominator=12), max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_paths_from_reps_equal_the_segments_route(name, pairs, central, anti, start, words, cuts):
    # shapes on walls (zero pairings), central shapes of A1^(1) (all pairings zero,
    # moved along the kernel of the simple roots), the zero shape and antidominant shapes
    system = CANDIDATE_SYSTEMS[name]
    shape = solve_linear(system.simple_roots, [F(p) for p in pairs[: system.n]])
    for basis in nullspace(system.simple_roots):
        shape = tuple(x + central * b for x, b in zip(shape, basis))
    if anti:
        shape = tuple(-x for x in shape)
    bps = [F(0), *sorted(cuts - {0, 1})[: len(words) - 1], F(1)]
    words = [tuple(i % system.n for i in w) for w in words[: len(bps) - 1]]
    start = tuple(start[: system.rank_x])
    path = make_path(system, shape, start, words, bps)
    expect = ref_make_path(system, shape, start, words, bps)
    assert path == expect
    assert (path.shape, path.start, path.directions, path.breakpoints) == (
        expect.shape, expect.start, expect.directions, expect.breakpoints
    )
    assert all(type(x) is F for x in path.shape + path.start + path.breakpoints)
    assert make_path(system, shape, start, [system.normalize_word(w) for w in words], bps) == path
    twin = LambdaPath(system, path.shape, path.start, path.directions, path.breakpoints)
    assert (vars(path)["_shape_point"], vars(path)["_direction_rows"]) == (twin._shape_point, twin._direction_rows)
    back = reverse_path(path)
    assert back == ref_reverse_path(path)
    assert all(type(x) is F for x in back.shape + back.start + back.breakpoints)
    assert reverse_path(back) == path


@pytest.mark.parametrize(
    "shape, words, reps",
    [
        ((2, 1), [(0,), (0, 1), (1,), ()], 2),  # stabilized by s2: reps s1, s1, e, e
        ((1, 1), [(0, 1, 0), (1, 0, 1), (0,)], 2),
        ((-2, -1), [(), (1,), (0,), (0, 1)], 2),  # antidominant, stabilized by s2
        ((-1, -1), [(0,), (1, 0), ()], 3),
    ],
)
def test_make_path_keeps_its_integer_rows(shape, words, reps, monkeypatch):
    # the shape's integer point and one direction row per merged rep, the rows a path
    # built from the same fields computes; one unwind per piece, as before
    system = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
    unwinds = []
    unwound = system._unwound
    monkeypatch.setattr(system, "_unwound", lambda *args: unwinds.append(args) or unwound(*args))
    bps = [F(k, len(words)) for k in range(len(words) + 1)]
    path = make_path(system, shape, (0, 0), words, bps)
    assert len(unwinds) == len(words) and path.r == reps
    twin = LambdaPath(system, path.shape, path.start, path.directions, path.breakpoints)
    assert vars(path)["_shape_point"] == twin._shape_point
    assert vars(path)["_direction_rows"] == twin._direction_rows


@pytest.mark.parametrize("bad", [lambda v: (*v, F(5)), lambda v: v[:1]], ids=["long", "short"])
def test_vectors_of_the_wrong_rank_are_refused(a2, bad):
    # the integer kernels read coordinates through the root supports, so without a
    # length check a 3-vector on A2 lost its last coordinate and a 1-vector hit an IndexError
    lam, w = frac_vec(2, 1), WeylElement((0,))
    calls = [
        lambda: enumerate_hecke(a2, lam, frac_vec(0, 0), bad(lam)),
        lambda: enumerate_hecke(a2, lam, bad(frac_vec(0, 0)), lam),
        lambda: make_path(a2, lam, bad(frac_vec(0, 0)), [()], [0, 1]),
        lambda: make_path(a2, bad(lam), frac_vec(0, 0), [()], [0, 1]),
        lambda: straight_path(a2, lam, bad(frac_vec(0, 0))),
        lambda: straight_path(a2, bad(lam)),
        lambda: a2._integer_point(bad(frac_vec(1, 2))),
        lambda: a2.simple_reflection(0, bad(frac_vec(1, 2))),
        lambda: a2.coset_of_vector(bad(frac_vec(1, 2)), lam),
        lambda: a2.tits_cone_membership(bad(frac_vec(1, 2))),
        lambda: minimal_gallery(a2, bad(frac_vec(1, 2)), w),
        lambda: dominance_difference(a2, lam, bad(frac_vec(1, 2))),
        lambda: a2.rho_value(bad(frac_vec(1, 2))),
        lambda: generate_ls_paths(a2, bad(frac_vec(1, 1))),
        lambda: multiplicity(a2, frac_vec(1, 1), bad(frac_vec(0, 0))),
        lambda: freudenthal_multiplicity(a2, frac_vec(1, 1), bad(frac_vec(0, 0))),
    ]
    for call in calls:
        with pytest.raises(FormatError, match="system has rank 2"):
            call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda s: root_operator("g", 0, straight_path(s, (1, 1))), FormatError, "unknown operator kind 'g'"),
        (lambda s: root_operator("f", 2, straight_path(s, (1, 1))), FormatError, "generator index 2 out of range"),
        (lambda s: root_operator("f", -1, straight_path(s, (1, 1))), FormatError, "generator index -1 out of range"),
        (
            lambda s: root_operator("e", 0, make_path(s, (-1, -1), (0, 0), [()], [0, 1])),
            NotDominant,
            "root operators apply to dominant-shape paths",
        ),
        (
            lambda s: concat(straight_path(s, (1, 1)), straight_path(RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]]), (1, 1))),
            FormatError,
            "paths live over different systems",
        ),
    ],
    ids="operator-kind operator-index-high operator-index-negative operator-antidominant concat-systems".split(),
)
def test_malformed_operator_and_concat_arguments_are_refused(a2, call, error, message):
    with pytest.raises(error) as raised:
        call(a2)
    assert type(raised.value) is error and str(raised.value) == message


def test_a_check_result_is_true_exactly_when_ok(a1):
    yes = make_path(a1, (1,), (0,), [(0,), ()], [0, F(1, 2), 1])
    no = make_path(a1, (1,), (0,), [(), (0,)], [0, F(1, 2), 1])
    assert bool(is_hecke(yes)) is True and bool(is_hecke(no)) is False


# the five systems of the ddim identity: the Cartan matrices of the witness-row cases
DDIM_SYSTEMS = {name: RootGeneratingSystem.from_gcm(case[0]) for name, case in WITNESS_ROW_CASES.items()}


@cache
def _hecke_pool(name):
    """The enumerated Hecke paths of the witness-row case, from 0 to each of its endpoints."""
    system = DDIM_SYSTEMS[name]
    _, shapes, targets = WITNESS_ROW_CASES[name]
    out = []
    for lam in shapes:
        ys = targets or sorted({p.endpoint for p in generate_ls_paths(system, lam).nodes})
        out += [w.path for y1 in ys for w in enumerate_hecke(system, lam, system.zero(), y1)]
    return out


@given(
    name=st.sampled_from(sorted(DDIM_SYSTEMS)),
    hecke=st.booleans(),
    index=st.integers(0, 10**6),
    pairs=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    start=st.lists(fractions_in(-3, 3, max_denominator=4), min_size=3, max_size=3),
    words=st.lists(st.lists(st.integers(0, 2), max_size=5), min_size=1, max_size=4),
    cuts=st.sets(fractions_in(0, 1, max_denominator=12), max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_stats_ddim_counts_the_ddim_event_roots(name, hecke, index, pairs, start, words, cuts):
    """On a dominant shape a root that falls on a piece is an inversion root of its
    rep, so the roots of the ddim events are the walls stats counts in ddim; is_ls
    reads its cross-check off the events and agrees with the stats route."""
    system = DDIM_SYSTEMS[name]
    if hecke:
        pool = _hecke_pool(name)
        path = pool[index % len(pool)]
    else:
        shape = solve_linear(system.simple_roots, [F(p) for p in pairs[: system.n]])
        bps = sorted(cuts - {0, 1})[: len(words) - 1]
        words = [[i % system.n for i in w] for w in words[: len(bps) + 1]]
        path = make_path(system, shape, start[: system.rank_x], words, [F(0), *bps, F(1)])
    events = ddim_events(path)
    assert stats(path).ddim == sum(len(roots) for _, roots in events)
    assert ddim_events(path) == events and ddim_events(path) is not events
    if path.in_Y and not path.is_constant:
        gap = system.rho_value(tuple(a - b for a, b in zip(path.shape, path.nu)))
        assert is_ls(path).ok == (is_hecke(path).ok and stats(path).ddim == gap)


def _golden_paths():
    data = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
    systems = {name: RootGeneratingSystem.from_json_dict(d) for name, d in data["systems"].items()}
    return [pytest.param(systems[c["system"]], c["path"], id=c["name"]) for c in data["cases"]]


@pytest.mark.parametrize("system, data", _golden_paths())
def test_cached_geometry_on_golden_paths(system, data):
    check_geometry(path_from_json_dict(system, data))


BIG = 2**61 - 1


@given(
    name=system_names,
    pairs=st.lists(st.fractions(0, 3, max_denominator=BIG), min_size=3, max_size=3),
    start=st.lists(st.fractions(-3, 3, max_denominator=BIG), min_size=3, max_size=3),
    words=st.lists(st.lists(st.integers(0, 2), max_size=4), min_size=1, max_size=4),
    cuts=st.sets(st.fractions(0, 1, max_denominator=BIG), max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_vertex_pairings_match_root_eval(name, pairs, start, words, cuts):
    # the integer rows against the Fraction reference: vertices summed piece by
    # piece with vadd and vscale, root values from the Fraction covector
    system = SYSTEMS[name]
    shape = solve_linear(system.simple_roots, pairs[: system.n])
    bps = sorted(cuts - {0, 1})[: len(words) - 1]
    words = [[i % system.n for i in w] for w in words[: len(bps) + 1]]
    path = make_path(system, shape, start[: system.rank_x], words, [F(0), *bps, F(1)])
    den, rows = path._vertex_pairings
    vden, vrows, _ = path._vertex_rows
    assert den > 0 and len(rows) == len(vrows) == path.r + 1
    roots = system.real_roots_up_to_height(4)
    for k, (row, vrow) in enumerate(zip(rows, vrows)):
        x = ref_point(path, k)
        assert all(type(a) is int for a in vrow) and tuple(F(a, vden) for a in vrow) == x
        for beta in roots + [b.negated() for b in roots]:
            value = root_eval(system, beta, x)
            assert type(beta.value(row)) is int
            assert F(beta.value(row), den) == value
            assert (beta.value(row) % den == 0) is (value.denominator == 1)
        for w in path.directions:
            # the relative length, as codim_tilde counts it on row 0
            expect = sum(1 for b in ref_inversions(system, w.word)[0] if root_eval(system, b, x).denominator == 1)
            assert sum(1 for b in system._inversions(w.word, 20) if b.value(row) % den == 0) == expect
    for (w, t0, t1, p0, p1), k in zip(path._pieces(), range(path.r)):
        assert (w, t0, t1, p0, p1) == (path.directions[k], *path.breakpoints[k : k + 2], rows[k], rows[k + 1])


@pytest.mark.parametrize("system, data", _golden_paths())
def test_path_invariants_make_no_root_eval_call(monkeypatch, system, data):
    """stats, ddim_events, codim_tilde and is_hecke read root values on the
    path's integer rows: no point's pairings are computed again (_pairings,
    the route from a vector to its pairings, is not called)."""
    from heckepaths import galleries
    from heckepaths.errors import HPLError
    from heckepaths.paths import ddim_events

    path = path_from_json_dict(system, data)
    calls, done = [], []
    pairings = RootGeneratingSystem._pairings

    def counting(self, v):
        calls.append(1)
        return pairings(self, v)

    monkeypatch.setattr(RootGeneratingSystem, "_pairings", counting)
    for run in (
        lambda: stats(path),
        lambda: ddim_events(path),
        lambda: is_hecke(path),
        lambda: galleries.codim_tilde(galleries.decorate_with_max_chains(path)),
    ):
        try:
            run()
            done.append(1)
        except HPLError:
            pass
    assert done and calls == []


@pytest.mark.parametrize("system, data", _golden_paths())
def test_checks_build_no_fraction_vertices(monkeypatch, system, data):
    """is_hecke, is_ls, stats and ddim_events read the path's integer rows and
    build no Fraction vertex or direction; parameter_pattern builds only the
    point of each breakpoint gallery, once."""
    from heckepaths.galleries import parameter_pattern
    from heckepaths.paths import ddim_events

    path = path_from_json_dict(system, data)
    built = []
    point, direction = LambdaPath.point, LambdaPath.direction_vector

    def counting_point(self, j):
        built.append(j % (self.r + 1))
        return point(self, j)

    def counting_direction(self, j):
        built.append(("direction", j))
        return direction(self, j)

    monkeypatch.setattr(LambdaPath, "point", counting_point)
    monkeypatch.setattr(LambdaPath, "direction_vector", counting_direction)
    for check in (is_hecke, is_ls, stats, ddim_events):
        _outcome(check, path, 20)
    assert built == []
    if not isinstance(_outcome(parameter_pattern, path, 20), tuple):  # a pattern, not an error
        assert built == list(range(1, path.r))


# -- the analysis record -----------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HPLError as exc:
        return type(exc), str(exc)


def _recognize(path, h):
    """The recognize pipeline: is_hecke, then for a Hecke path is_ls, stats,
    codim_tilde of the max-chain decoration and the parameter pattern."""
    from heckepaths import galleries

    if is_hecke(path, h).ok:
        is_ls(path, h)
        stats(path, h)
        galleries.codim_tilde(galleries.decorate_with_max_chains(path, h), h)
        galleries.parameter_pattern(path, h)


@pytest.mark.parametrize("system, data", _golden_paths())
def test_one_chain_analysis_per_path_and_h(monkeypatch, system, data):
    # each interior breakpoint gets one Hecke walk and at most one LS walk per
    # (path, h), and the stats are computed once; equal calls later reuse them
    from collections import Counter

    from heckepaths import paths

    walks, tallies = [], []
    chain_walk, tally = paths._chain_walk, paths._tally

    def counted_walk(*args, **kwargs):
        walks.append((args[5], args[6]))  # (kind, t)
        return chain_walk(*args, **kwargs)

    def counted_tally(path, h):
        tallies.append(h)
        return tally(path, h)

    monkeypatch.setattr(paths, "_chain_walk", counted_walk)
    monkeypatch.setattr(paths, "_tally", counted_tally)
    path = path_from_json_dict(system, data)
    interior = set(path.breakpoints[1:-1])
    for run, h in enumerate((20, 20, 4, 4)):
        walks.clear()
        tallies.clear()
        raised = _outcome(_recognize, path, h) is not None
        hecke = Counter(t for kind, t in walks if kind == "hecke")
        ls = Counter(t for kind, t in walks if kind == "ls")
        assert set(hecke) <= interior and set(hecke.values()) <= {1}
        assert set(ls) <= interior and set(ls.values()) <= {1}
        assert len(tallies) <= 1
        if run % 2 and not before:  # the same h again after a run that kept its results
            assert not hecke and not tallies
        before = raised
        if run == 0 and path.shape_is_dominant and is_hecke(path).ok:
            assert set(hecke) == interior and tallies == [20]


@pytest.mark.parametrize("system, data", _golden_paths())
def test_analysed_calls_match_fresh_calls(system, data):
    # on one path, in recognize order and again, at small and default h: each
    # call gives what it gives on a fresh path, raised errors included, and
    # the record leaves equality, hashing and repr alone
    from heckepaths.galleries import codim_tilde, decorate_with_max_chains, parameter_pattern

    calls = (
        is_hecke,
        is_ls,
        stats,
        lambda p, h: codim_tilde(decorate_with_max_chains(p, h), h),
        parameter_pattern,
    )
    path = path_from_json_dict(system, data)
    for h in (2, 3, 20, 2, 3, 20):
        for call in calls + calls:
            assert _outcome(call, path, h) == _outcome(call, path_from_json_dict(system, data), h)
    fresh = path_from_json_dict(system, data)
    assert path._analyses and path == fresh and hash(path) == hash(fresh) and repr(path) == repr(fresh)
    # a copy starts without the record, which holds paused walks
    for copied in (pickle.loads(pickle.dumps(path)), copy.deepcopy(path), copy.copy(path)):
        assert copied == path and "_analyses" not in vars(copied)
        assert _outcome(parameter_pattern, copied, 20) == _outcome(parameter_pattern, fresh, 20)


def test_small_h_still_raises_after_a_default_h_success():
    from heckepaths.errors import HeightBoundTooSmall

    raised = 0
    for param in _golden_paths():
        system, data = param.values
        path = path_from_json_dict(system, data)
        if not (path.shape_is_dominant and is_hecke(path, 20).ok):
            continue
        fresh = _outcome(is_hecke, path_from_json_dict(system, data), 2)
        assert _outcome(is_hecke, path, 2) == fresh
        raised += isinstance(fresh, tuple) and fresh[0] is HeightBoundTooSmall
    assert raised


def test_a_drain_that_raises_leaves_no_half_drained_walk(monkeypatch):
    # draining the Hecke walks of A2-pool45 expands more cosets than its first
    # chains did; make those expansions raise, then let them succeed
    from heckepaths import paths
    from heckepaths.errors import HeightBoundTooSmall
    from heckepaths.galleries import decorate_with_max_chains

    (system, data) = next(p.values for p in _golden_paths() if p.id == "A2-pool45")
    path = path_from_json_dict(system, data)
    assert is_hecke(path).ok
    candidates = paths._chain_candidates

    def failing(*args):
        raise HeightBoundTooSmall(99, 20)

    monkeypatch.setattr(paths, "_chain_candidates", failing)
    first = _outcome(decorate_with_max_chains, path, 20)
    assert first == (HeightBoundTooSmall, str(HeightBoundTooSmall(99, 20)))
    assert _outcome(decorate_with_max_chains, path, 20) == first
    monkeypatch.setattr(paths, "_chain_candidates", candidates)
    fresh = path_from_json_dict(system, data)
    assert paths._hecke_chains(path, 20) == paths._hecke_chains(fresh, 20)
    assert any(len(chains) > 1 for chains in paths._hecke_chains(fresh, 20))
    assert decorate_with_max_chains(path) == decorate_with_max_chains(fresh)
