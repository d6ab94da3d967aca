from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths import NotGCM, RootGeneratingSystem, WeylElement, validate_gcm
from heckepaths.errors import CrossCheckMismatch, FormatError, HeightBoundTooSmall
from heckepaths.galleries import minimal_gallery

from conftest import (
    KERNEL_SYSTEMS,
    all_words,
    brute_force_bruhat,
    coroot_combination,
    frac_vec,
    group_elements,
)
from strategies import fractions_in
from test_chain_reference import reflect_by_root, root_covector, root_eval
from test_gallery_reference import reflection_element
from test_system_reference import (
    coroot_coordinates,
    nullspace,
    ref_act,
    ref_pairing,
    ref_reflect,
    ref_unwind,
    reflect_root,
    solve_linear,
    vdot_cov,
)


class TestValidateGCM:
    def test_a2_valid(self):
        assert validate_gcm([[2, -1], [-1, 2]]).n == 2

    def test_positive_off_diagonal(self):
        with pytest.raises(NotGCM) as exc:
            validate_gcm([[2, 1], [1, 2]])
        assert exc.value.axiom == "(ii)"

    def test_asymmetric_zero(self):
        with pytest.raises(NotGCM) as exc:
            validate_gcm([[2, 0], [-1, 2]])
        assert exc.value.axiom == "(iii)"

    def test_bad_diagonal(self):
        with pytest.raises(NotGCM) as exc:
            validate_gcm([[1]])
        assert exc.value.axiom == "(i)"


class TestSimpleReflection:
    def test_negates_own_coroot(self, a2):
        assert a2.simple_reflection(0, frac_vec(1, 0)) == frac_vec(-1, 0)

    def test_other_coroot(self, a2):
        # r_1(alpha_2^v) = alpha_1^v + alpha_2^v since alpha_1(alpha_2^v) = -1
        assert a2.simple_reflection(0, frac_vec(0, 1)) == frac_vec(1, 1)

    def test_fixes_origin(self, a2):
        assert a2.simple_reflection(0, frac_vec(0, 0)) == frac_vec(0, 0)

    @given(
        coords=st.tuples(
            st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4), st.integers(1, 4)
        ),
        i=st.integers(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_involution(self, a2, coords, i):
        v = (F(coords[0], coords[2]), F(coords[1], coords[3]))
        assert a2.simple_reflection(i, a2.simple_reflection(i, v)) == v


class TestNormalForms:
    def test_involution_cancels(self, a2):
        w = a2.normalize_word((0, 0))
        assert w.word == () and w.length == 0

    def test_braid_relation(self, a2):
        w1 = a2.normalize_word((0, 1, 0))
        w2 = a2.normalize_word((1, 0, 1))
        assert w1 == w2 and w1.length == 3

    def test_already_reduced(self, a2):
        assert a2.normalize_word((0, 1)).word == (0, 1)

    @pytest.mark.parametrize("word", [(0, 2), (-1,)])
    def test_index_out_of_range_refused(self, a2, word):
        with pytest.raises(FormatError) as raised:
            a2.normalize_word(word)
        assert str(raised.value) == f"generator index {word[-1]} out of range"

    def test_matches_brute_force_s3(self, a2):
        # multiply out every word of length <= 5 through the permutation action
        # on coroot coordinates and compare equality classes with normal forms
        seen = {}
        for word in all_words(2, 5):
            key = ref_act(a2, a2.normalize_word(word).word, frac_vec(2, 3))
            # (2,3) is regular, so the orbit point identifies the element
            expected = seen.setdefault(key, a2.normalize_word(word))
            assert a2.normalize_word(word) == expected
        assert len(seen) == 6

    def test_b2_group_order(self, b2):
        assert len(group_elements(b2, 8)) == 8

    @given(word=st.lists(st.integers(0, 1), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_word_times_reverse_cancels(self, a2, word):
        w = tuple(word)
        assert a2.normalize_word(w + tuple(reversed(w))).word == ()


class TestInversionSets:
    def test_identity(self, a2):
        assert a2._inversions(()) == ()

    def test_single_reflection(self, a2):
        (beta,) = a2._inversions(a2.normalize_word((0,)).word)
        assert beta.coeffs == (1, 0)

    def test_s1s2(self, a2):
        roots = a2._inversions(a2.normalize_word((0, 1)).word)
        assert [b.coeffs for b in roots] == [(1, 0), (1, 1)]

    @pytest.mark.parametrize("fixture", ["a2", "b2"])
    def test_count_and_word_independence(self, fixture, request):
        system = request.getfixturevalue(fixture)
        for el in group_elements(system, 4):
            expected = None
            for word in all_words(system.n, 4):
                if system.normalize_word(word) == el and len(word) == el.length:
                    # the inversion set of each reduced word of the element, read off that word
                    inv = frozenset(system._inversions(tuple(word)))
                    assert len(inv) == el.length
                    if expected is None:
                        expected = inv
                    assert inv == expected


class TestBruhat:
    def test_subword(self, a2):
        assert a2.bruhat_leq(a2.normalize_word((0,)), a2.normalize_word((0, 1)))

    def test_incomparable(self, a2):
        assert not a2.bruhat_leq(a2.normalize_word((0, 1)), a2.normalize_word((1, 0)))

    def test_identity_minimum(self, a2):
        e = a2.normalize_word(())
        for el in group_elements(a2, 4):
            assert a2.bruhat_leq(e, el)

    @pytest.mark.parametrize("fixture", ["a2", "b2"])
    def test_against_subword_oracle(self, fixture, request):
        system = request.getfixturevalue(fixture)
        elements = group_elements(system, 8 if fixture == "b2" else 6)
        oracle = brute_force_bruhat(system, elements)
        for u in elements:
            for w in elements:
                assert system.bruhat_leq(u, w) == oracle[(u.word, w.word)]


class TestCosets:
    def test_spec_example(self, a2):
        # alpha_2((2,1)) = 0, alpha_1((2,1)) = 3 > 0; coset {s1s2, s1} has min s1
        lam = frac_vec(2, 1)
        rep = a2.coset_of_vector(ref_act(a2, (0, 1), lam), lam)
        assert rep.element.word == (0,)

    def test_identity(self, a2):
        lam = frac_vec(1, 1)
        assert a2.coset_of_vector(ref_act(a2, (), lam), lam).element.word == ()

    def test_regular_weight(self, a2):
        lam = frac_vec(1, 1)
        rep = a2.coset_of_vector(ref_act(a2, (0,), lam), lam)
        assert rep.element.word == (0,)

    def test_idempotent(self, a2):
        lam = frac_vec(2, 1)
        for el in group_elements(a2, 4):
            rep = a2.coset_of_vector(ref_act(a2, el.word, lam), lam)
            again = a2.coset_of_vector(ref_act(a2, rep.element.word, lam), lam)
            assert rep.element == again.element

    def test_not_dominant(self, a2):
        # orbit vectors unwind to the dominant conjugate, so the orbit of a
        # non-dominant shape never matches it
        lam = frac_vec(-1, 0)
        with pytest.raises(FormatError):
            a2.coset_of_vector(ref_act(a2, (0,), lam), lam)


class TestRealRoots:
    def test_a2_height_2(self, a2):
        roots = a2.real_roots_up_to_height(2)
        assert {r.coeffs for r in roots} == {(1, 0), (0, 1), (1, 1)}

    def test_a1_all(self, a1):
        assert len(a1.real_roots_up_to_height(5)) == 1

    def test_affine_height_3(self, a1aff):
        roots = a1aff.real_roots_up_to_height(3)
        assert {r.coeffs for r in roots} == {(1, 0), (0, 1), (2, 1), (1, 2)}

    def test_monotone(self, a1aff):
        for h in range(1, 8):
            smaller = {r.coeffs for r in a1aff.real_roots_up_to_height(h)}
            bigger = {r.coeffs for r in a1aff.real_roots_up_to_height(h + 1)}
            assert smaller <= bigger

    def test_affine_counts_match_brute_orbit(self, a1aff):
        # independent oracle: apply every word up to length 12 to the simple roots
        seen = set()
        for word in all_words(2, 12):
            for i in range(2):
                beta = a1aff.simple_root_obj(i)
                for j in reversed(word):
                    beta = reflect_root(a1aff, j, beta)
                if beta.is_positive and beta.height <= 10:
                    seen.add(beta.coeffs)
        ours = {r.coeffs for r in a1aff.real_roots_up_to_height(10)}
        assert ours == seen

    def test_coroot_consistency(self, a2):
        # beta = w(alpha_i) must have coroot w(alpha_i^v)
        for beta in a2.real_roots_up_to_height(2):
            refl = reflection_element(a2, beta)
            assert a2._inversions(refl.word)  # sanity: nontrivial
            cov = root_covector(a2, beta)
            cv = coroot_combination(a2, beta.coroot_coeffs)
            # alpha(alpha^v) = 2 for every real root
            assert sum(a * b for a, b in zip(cov, cv)) == 2

    def test_reflection_descent_guard_is_an_internal_error(self, monkeypatch):
        from heckepaths import root_system

        g2 = RootGeneratingSystem.from_gcm([[2, -1], [-3, 2]])
        (beta,) = [r for r in g2.real_roots_up_to_height(3) if r.coeffs == (1, 2)]
        refl = reflection_element(g2, beta)  # the descent takes two reflections
        assert g2.mult(refl, refl).is_identity and refl.length == 5
        monkeypatch.setattr(root_system, "_UNWIND_GUARD", 1)
        with pytest.raises(CrossCheckMismatch, match="did not terminate"):
            reflection_element(g2, beta)


class TestRelativeLength:
    """The relative length of w at x: the true walls of the minimal gallery of type w at x."""

    def test_special_point(self, a2):
        w = a2.normalize_word((0, 1))
        assert sum(minimal_gallery(a2, frac_vec(0, 0), w).trueness()) == 2

    def test_half_coroot(self, a2):
        w = a2.normalize_word((0, 1))
        assert sum(minimal_gallery(a2, (F(1, 2), F(0)), w).trueness()) == 1

    def test_identity(self, a2):
        assert sum(minimal_gallery(a2, (F(1, 3), F(2, 7)), a2.normalize_word(())).trueness()) == 0

    def test_bounded_by_length(self, a2):
        for el in group_elements(a2, 4):
            assert sum(minimal_gallery(a2, (F(1, 2), F(1, 3)), el).trueness()) <= el.length
            assert sum(minimal_gallery(a2, frac_vec(0, 0), el).trueness()) == el.length

    def test_height_bound_enforced(self, a1aff):
        deep = a1aff.normalize_word((0, 1, 0, 1, 0))
        with pytest.raises(HeightBoundTooSmall):
            a1aff._inversions(deep.word, 3)


def delta_covector(system):
    """delta as a Fraction covector on Y (affine type only), sum_j c_j alpha_j over
    the null root's coefficients c_j; delta(v) is the level of v."""
    pairs = list(zip(system.null_root_coeffs(), system.simple_roots))
    return tuple(sum((c * r[t] for c, r in pairs), F(0)) for t in range(system.rank_x))


def ref_outside_by_level(system, v):
    """The affine level rule on a Fraction vector, through delta_covector."""
    if system.classify_type() != "affine":
        return False
    level = vdot_cov(delta_covector(system), v)
    return level < 0 or level == 0 and any(ref_pairing(system, i, v) for i in range(system.n))


# affine A1^(1) and A2^(1), the two twisted affine matrices whose duals the
# Freudenthal oracle gets wrong, and systems where the rule never applies
LEVEL_SYSTEMS = {
    name: RootGeneratingSystem.from_gcm(entries)
    for name, entries in {
        "A1aff": [[2, -2], [-2, 2]],
        "A2aff": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        "twisted-3": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
        "twisted-2": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
        "A2": [[2, -1], [-1, 2]],
        "indefinite": KERNEL_SYSTEMS["indefinite"]["cartan_matrix"],
        "hyperbolic": [[2, -3], [-3, 2]],
    }.items()
}


def _level_point(system, coroot_coeffs, m):
    """sum_i k_i alpha_i^v, of level 0, plus m times the last basis vector of Y: from
    from_gcm, of level 1 in affine type (the first extra row raises the rank)."""
    v = coroot_combination(system, coroot_coeffs[: system.n])
    return v[:-1] + (v[-1] + m,)


@given(
    name=st.sampled_from(sorted(LEVEL_SYSTEMS)),
    coroot_coeffs=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    m=fractions_in(-2, 2, max_denominator=3),
)
@settings(max_examples=300, deadline=None)
def test_level_rule_on_integer_pairings_matches_delta_covector(name, coroot_coeffs, m):
    system = LEVEL_SYSTEMS[name]
    v = _level_point(system, coroot_coeffs, m)
    num, pairs, den = system._integer_point(v)
    outside = system._outside_by_level(pairs)
    assert outside is ref_outside_by_level(system, v)
    if system.classify_type() != "affine":
        assert outside is False
        return
    assert (system.tits_cone_membership(v)[0] == "out") is outside
    if outside:  # in reach of nothing, before any unwind
        assert not system._within_reach(system._integer_point(system.zero()), (num, pairs, den), (1, 1))


@pytest.mark.parametrize("name", ["A1aff", "A2aff", "twisted-3", "twisted-2"])
def test_level_rule_cases(name):
    # a negative level, level 0 with a nonzero pairing, level 0 with none, a positive level
    system = LEVEL_SYSTEMS[name]
    (k,) = nullspace([list(col) for col in zip(*system.gcm.entries)])  # sum k_i alpha_i^v pairs to 0
    cases = [
        (_level_point(system, [0, 0, 0], F(-1, 2)), True),
        (system.simple_coroots[0], True),
        (coroot_combination(system, k), False),
        (_level_point(system, [3, -3, 3], F(1, 3)), False),
    ]
    for v, outside in cases:
        assert ref_outside_by_level(system, v) is outside
        assert system._outside_by_level(system._integer_point(v)[1]) is outside


class TestTitsCone:
    def test_finite_type_everything_in(self, a2):
        status, w = a2.tits_cone_membership(frac_vec(-3, 2))
        assert status == "in"
        v = ref_act(a2, w.word, frac_vec(-3, 2))
        assert all(ref_pairing(a2, i, v) >= 0 for i in range(2))

    def test_affine_coroot_out(self, a1aff):
        status, _ = a1aff.tits_cone_membership(a1aff.simple_coroots[0])
        assert status == "out"

    def test_zero_in(self, a1aff):
        status, w = a1aff.tits_cone_membership(a1aff.zero())
        assert status == "in" and w.word == ()

    def test_affine_positive_level_in(self, a1aff):
        delta = delta_covector(a1aff)
        v = frac_vec(3, -2, 5)
        assert sum(a * b for a, b in zip(delta, v)) > 0
        status, w = a1aff.tits_cone_membership(v)
        assert status == "in"
        assert all(ref_pairing(a1aff, i, ref_act(a1aff, w.word, v)) >= 0 for i in range(2))

    def test_unwind_guard_is_a_domain_error(self, monkeypatch):
        from heckepaths import root_system

        hyp = RootGeneratingSystem.from_gcm([[2, -3], [-3, 2]])
        v = frac_vec(1, 1)  # antidominant and nonzero: outside the Tits cone
        assert [ref_pairing(hyp, i, v) for i in range(2)] == [-1, -1]
        assert hyp.tits_cone_membership(v, step_cap=200) == ("unknown", None)
        monkeypatch.setattr(root_system, "_UNWIND_GUARD", 200)
        with pytest.raises(FormatError, match="outside the Tits cone"):
            hyp._unwound(*hyp._integer_point(v))

    def test_level_rule_refuses_before_the_unwind(self):
        # (0, 0, -1) has level -1 on A1^(1), and (0, 0, 1) level 1: the first is outside the
        # Tits cone, the second outside its negative, and neither reflects once to show it
        from time import perf_counter

        from heckepaths.paths import straight_path

        a1aff = RootGeneratingSystem.from_gcm([[2, -2], [-2, 2]])  # cold caches
        t0 = perf_counter()
        with pytest.raises(FormatError, match=r"\(0,0,-1\) is outside the Tits cone by the affine level rule"):
            straight_path(a1aff, frac_vec(0, 0, -1))
        with pytest.raises(FormatError, match="has its negative outside the Tits cone by the affine level rule"):
            a1aff._unwound(*a1aff._integer_point(frac_vec(0, 0, 1)), antidominant=True)
        assert perf_counter() - t0 < 0.05


class TestSerialization:
    def test_json_round_trip(self, a1aff):
        from heckepaths import RootGeneratingSystem

        data = a1aff.to_json_dict()
        again = RootGeneratingSystem.from_json_dict(data)
        assert again.gcm.entries == a1aff.gcm.entries
        assert again.simple_roots == a1aff.simple_roots
        assert again.simple_coroots == a1aff.simple_coroots
        assert again.rank_x == a1aff.rank_x

    @pytest.mark.parametrize(
        "data, shown",
        [
            ({"cartan_matrix": [[2]], "rank_x": 3}, "3, but the system has rank_x = 1"),
            ({"cartan_matrix": [[2]], "rank_x": "x"}, "'x', but the system has rank_x = 1"),
            (
                {"cartan_matrix": [[2]], "simple_roots": [["2"]], "simple_coroots": [["1"]], "rank_x": True},
                "True, but the system has rank_x = 1",
            ),
            (
                {"cartan_matrix": [], "simple_roots": [], "simple_coroots": [], "rank_x": 2},
                "2, but the system has rank_x = 0",
            ),
        ],
        ids=["no-roots", "string", "bool", "rank-0"],
    )
    def test_rank_x_must_be_the_systems(self, data, shown):
        # each of these loaded before, its rank_x ignored or taken for 1
        from heckepaths import RootGeneratingSystem

        with pytest.raises(FormatError) as exc:
            RootGeneratingSystem.from_json_dict(data)
        assert str(exc.value) == f"rank_x is {shown}"

    def test_decomposable_finite(self):
        from heckepaths import RootGeneratingSystem

        prod = RootGeneratingSystem.from_gcm([[2, 0], [0, 2]])
        assert prod.classify_type() == "finite"
        assert len(prod.real_roots_up_to_height(5)) == 2
        status, w = prod.tits_cone_membership((-1, -2))
        assert status == "in" and all(ref_pairing(prod, i, ref_act(prod, w.word, (-1, -2))) >= 0 for i in range(2))


class TestSymmetrizer:
    def test_b2(self, b2):
        d = b2.symmetrizer
        for i in range(2):
            for j in range(2):
                assert d[i] * b2.gcm[i, j] == d[j] * b2.gcm[j, i]

    def test_smallest_integers(self, b2):
        assert b2.symmetrizer == (F(1), F(2))


# -- the exact pairing kernel against from-scratch references ----------------------

SHARED = {name: RootGeneratingSystem.from_json_dict(data) for name, data in KERNEL_SYSTEMS.items()}


def ref_normalize(system, word):
    """Greedy left-descent extraction on full integer reflection matrices."""
    n, a = system.n, system.gcm.entries
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    refl = [[[ident[r][c] - (a[i][c] if r == i else 0) for c in range(n)] for r in range(n)] for i in range(n)]

    def mul(x, y):
        return [[sum(x[r][k] * y[k][c] for k in range(n)) for c in range(n)] for r in range(n)]

    inv = ident
    for i in word:
        inv = mul(refl[i], inv)
    out = []
    while inv != ident:
        i = next(i for i in range(n) if all(row[i] <= 0 for row in inv))
        out.append(i)
        inv = mul(inv, refl[i])
    return tuple(out)


def ref_coroot_coordinates(system, v):
    """Solve over all coordinates of Y at once, then rebuild v."""
    sol = solve_linear(list(zip(*system.simple_coroots)), v)
    if sol is None:
        return None
    return sol if coroot_combination(system, sol) == tuple(F(x) for x in v) else None


# A1 in a rank-2 lattice whose coroot is not a first coordinate
A1_WIDE = {"cartan_matrix": [[2]], "simple_roots": [["5", "2"]], "simple_coroots": [["0", "1"]]}


def point_with_pairings(system, pairs):
    return solve_linear(system.simple_roots, pairs[: system.n])


def point_with_offsets(system, pairs, offsets):
    """A point with the given pairings, moved along the common kernel of the simple roots."""
    v = point_with_pairings(system, pairs)
    for c, basis in zip(offsets, nullspace(system.simple_roots)):
        v = tuple(x + c * b for x, b in zip(v, basis))
    return v


def ref_inversion_coeffs(system, word):
    """beta_k = r_i1 ... r_i(k-1)(alpha_ik), on root and coroot coefficients."""
    a = system.gcm.entries
    out = []
    for k, i in enumerate(word):
        root = [int(j == i) for j in range(system.n)]
        coroot = list(root)
        for j in reversed(word[:k]):
            root[j] -= sum(a[j][m] * c for m, c in enumerate(root))
            coroot[j] -= sum(a[m][j] * c for m, c in enumerate(coroot))
        out.append((tuple(root), tuple(coroot)))
    return out


def ref_within_reach(system, lam, v):
    """v in the Tits cone, with lam minus its dominant conjugate in the real
    cone of the simple coroots; a membership left unknown counts as in reach."""
    status, _ = system.tits_cone_membership(v)
    if status != "in":
        return status == "unknown"
    coords = ref_coroot_coordinates(system, tuple(a - b for a, b in zip(lam, ref_unwind(system, v, False)[0])))
    return coords is not None and all(c >= 0 for c in coords)


def ref_reach_by_gap(system, lam, v):
    """The reach test by the gap, on Fractions: (answer, reason).  Unwinds v as
    ref_unwind does and solves the coroot coefficients of lam minus every point
    on the way.  Each reflection adds |alpha_i(v)| alpha_i^v to v, so the
    coefficients only fall, and a negative one, or lam - v off the span of the
    coroots, is a definite "no"."""
    cur, steps = tuple(F(x) for x in v), 0
    while True:
        coords = ref_coroot_coordinates(system, tuple(a - b for a, b in zip(lam, cur)))
        if coords is None:
            return False, "off the span"
        if any(c < 0 for c in coords):
            return False, f"a negative coefficient after {steps} reflections"
        i = next((i for i in range(system.n) if ref_pairing(system, i, cur) < 0), None)
        if i is None:
            return True, "dominant"
        cur, steps = ref_reflect(system, i, cur), steps + 1


system_names = st.sampled_from(sorted(KERNEL_SYSTEMS))
raw_words = st.lists(st.integers(0, 2), max_size=6)
points = st.lists(fractions_in(-4, 4, max_denominator=5), min_size=3, max_size=3)
dominant_pairings = st.lists(fractions_in(0, 4, max_denominator=3), min_size=3, max_size=3)
# ints, zeros, small fractions and large coprime denominators, of either sign
kernel_entries = st.one_of(
    st.integers(-(10**6), 10**6),
    st.just(0),
    st.just(F(0)),
    fractions_in(-50, 50, max_denominator=12),
    st.builds(F, st.integers(-(10**12), 10**12), st.sampled_from([10**9 + 7, 998244353, 2**61 - 1])),
)
kernel_points = st.lists(kernel_entries, min_size=3, max_size=3)


# the reach test's systems: the kernel systems (B2 on rational roots and coroots
# among them) and the level rule's affine, twisted, indefinite and hyperbolic ones
REACH_SYSTEMS = {**SHARED, **{f"level-{name}": system for name, system in LEVEL_SYSTEMS.items()}}


class TestExactKernel:
    @given(name=system_names, pairs=dominant_pairings, raw=raw_words, anti=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_orbit_unwind_matches_repairing_unwind(self, name, pairs, raw, anti):
        system = SHARED[name]
        v0 = point_with_pairings(system, pairs)
        if anti:
            v0 = tuple(-x for x in v0)
        v = ref_act(system, [i % system.n for i in raw], v0)
        point = system._integer_point(v)
        den = point[2]
        got = got_w, got_num, got_pairs = system._unwound(*point, anti)
        ref_v0, letters = ref_unwind(system, v, anti)
        assert tuple(F(x, den) for x in got_num) == ref_v0 == v0
        assert [F(p, den // system._cden) for p in got_pairs] == [ref_pairing(system, i, v0) for i in range(system.n)]
        assert got_w == system.normalize_word(letters)
        assert ref_act(system, got_w.word, v0) == v
        assert point == system._integer_point(v)  # the unwind leaves its input alone
        assert system._unwound(*point, anti) == got

    @given(name=system_names, v=points, k=st.integers(0, 1000), negate=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_root_eval_is_sum_of_simple_pairings(self, name, v, k, negate):
        system = SHARED[name]
        v = tuple(v[: system.rank_x])
        roots = system.real_roots_up_to_height(4)
        beta = roots[k % len(roots)]
        if negate:
            beta = beta.negated()
        expect = sum((c * ref_pairing(system, j, v) for j, c in enumerate(beta.coeffs)), F(0))
        assert root_eval(system, beta, v) == expect
        # the library's route: the root's coefficients on the point's integer pairings
        _, pairs, den = system._integer_point(v)
        assert F(beta.value(pairs), den // system._cden) == expect

    @given(pairs=st.lists(st.tuples(kernel_entries, kernel_entries), max_size=6), extra=st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_vdot_cov_matches_fraction_sum(self, pairs, extra):
        cov = [a for a, _ in pairs]
        v = [b for _, b in pairs]
        got = vdot_cov(cov, v)
        assert type(got) is F
        assert got == sum((a * b for a, b in zip(cov, v) if a), F(0))
        with pytest.raises(ValueError):
            vdot_cov(cov + [1] * extra, v)
        with pytest.raises(ValueError):
            vdot_cov(cov, v + [F(1, 3)] * extra)

    @given(name=system_names, v=kernel_points, dominant=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_pairings_dominance_and_rho_match_vdot_cov(self, name, v, dominant):
        # the pairings, simple_reflection and rho_value read the integer point; the
        # reference is the former Fraction kernel on the covectors
        system = SHARED[name]
        v = tuple(v[: system.rank_x])
        if dominant:
            v = point_with_pairings(system, [abs(F(x)) for x in v])
        pairs = [vdot_cov(alpha, v) for alpha in system.simple_roots]
        den, got = system._pairings(v)
        assert [F(x, den) for x in got] == pairs
        for i in range(system.n):
            assert system.simple_reflection(i, v) == ref_reflect(system, i, v)
        assert not dominant or all(x >= 0 for x in got)
        rho = system.rho_value(v)
        assert rho == vdot_cov(system.rho, v) and type(rho) is F

    @given(
        name=st.sampled_from(sorted(KERNEL_SYSTEMS) + ["A1wide"]),
        v=points,
        coeffs=points,
        in_span=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_coroot_coordinates(self, name, v, coeffs, in_span):
        system = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS.get(name, A1_WIDE))  # cold cache
        v = coroot_combination(system, coeffs) if in_span else tuple(v[: system.rank_x])
        expect = ref_coroot_coordinates(system, v)
        for _ in range(2):  # first call, then with the inverse cached
            assert coroot_coordinates(system, v) == expect
        if in_span:
            assert expect == tuple(coeffs[: system.n])

    def test_coroot_coordinates_of_rank_0(self):
        # the zero vector spans the empty coroot span, as dominance_difference agrees
        from heckepaths.root_system import dominance_difference

        system = RootGeneratingSystem.from_gcm([])
        assert coroot_coordinates(system, ()) == () == dominance_difference(system, (), ())

    @given(
        name=system_names,
        ints=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        raw=raw_words,
    )
    @settings(max_examples=80, deadline=None)
    def test_act_first_call_and_cache_hit(self, name, ints, raw):
        system = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS[name])  # cold caches
        v_int = tuple(ints[: system.rank_x])
        v_frac = tuple(F(x) for x in v_int)
        word = tuple(i % system.n for i in raw)
        for w in (WeylElement(word), system.normalize_word(word)):
            expect = ref_act(system, w.word, v_frac)
            for v in (v_int, v_frac, v_int):  # first call, then with the system's rows built
                num, pairs, den = system._integer_point(v)
                got, got_pairs = system._act_integers(w.word, num, pairs)
                assert tuple(F(x, den) for x in got) == expect
                expect_pairs = [ref_pairing(system, i, expect) for i in range(system.n)]
                assert [F(p, den // system._cden) for p in got_pairs] == expect_pairs
                assert (num, pairs, den) == system._integer_point(v)  # the action leaves its input alone

    @given(pairs=dominant_pairings, raw=raw_words)
    @settings(max_examples=40, deadline=None)
    def test_indefinite_tits_cone_witness(self, pairs, raw):
        system = SHARED["indefinite"]
        v = ref_act(system, raw, point_with_pairings(system, pairs))
        status, w = system.tits_cone_membership(v)
        assert status == "in"
        assert all(ref_pairing(system, i, ref_act(system, w.word, v)) >= 0 for i in range(3))
        _, letters = ref_unwind(system, v, False)
        if letters:
            assert system.tits_cone_membership(v, step_cap=len(letters) - 1) == ("unknown", None)

    @given(name=system_names, v=kernel_points, raw=raw_words)
    @settings(max_examples=80, deadline=None)
    def test_act_on_large_denominators(self, name, v, raw):
        system = SHARED[name]
        v = tuple(v[: system.rank_x])
        word = tuple(i % system.n for i in raw)
        num, pairs, den = system._integer_point(v)
        expect = ref_act(system, word, v)
        got, got_pairs = system._act_integers(word, num, pairs)
        assert tuple(F(x, den) for x in got) == expect
        expect_pairs = [ref_pairing(system, i, expect) for i in range(system.n)]
        assert [F(p, den // system._cden) for p in got_pairs] == expect_pairs

    @given(name=system_names, pairs=kernel_points, offsets=kernel_points, raw=raw_words, anti=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_orbit_unwind_on_large_denominators(self, name, pairs, offsets, raw, anti):
        system = SHARED[name]
        sign = -1 if anti else 1
        v0 = point_with_offsets(system, [sign * abs(F(p)) for p in pairs], offsets)
        v = ref_act(system, [i % system.n for i in raw], v0)
        point = system._integer_point(v)
        den = point[2]
        got_w, got_num, got_pairs = system._unwound(*point, anti)
        ref_v0, letters = ref_unwind(system, v, anti)
        assert tuple(F(x, den) for x in got_num) == ref_v0 == v0
        assert [F(p, den // system._cden) for p in got_pairs] == [ref_pairing(system, i, v0) for i in range(system.n)]
        assert got_w == system.normalize_word(letters)

    @given(name=system_names, raw=raw_words)
    @settings(max_examples=60, deadline=None)
    def test_inversion_set_cold_fresh_and_cached(self, name, raw):
        system = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS[name])  # cold caches
        w = system.normalize_word([i % system.n for i in raw])
        expect = ref_inversion_coeffs(system, w.word)
        first = system._inversions(w.word)
        assert type(first) is tuple  # the memo itself, which no caller can change
        assert [(b.coeffs, b.coroot_coeffs) for b in first] == expect
        cached = system._inversions(w.word)
        fresh = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS[name])._inversions(w.word)
        for got in (cached, fresh, SHARED[name]._inversions(w.word)):
            assert [(b.coeffs, b.coroot_coeffs) for b in got] == expect

    @given(name=system_names, v=kernel_points, k=st.integers(0, 1000), negate=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_reflect_by_root_matches_fraction_reflection(self, name, v, k, negate):
        system = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS[name])  # cold caches
        v = tuple(v[: system.rank_x])
        roots = system.real_roots_up_to_height(4)
        beta = roots[k % len(roots)].negated() if negate else roots[k % len(roots)]
        coroot = coroot_combination(system, beta.coroot_coeffs)
        # alpha(alpha^v) = 2 for every real root
        assert sum(a * b for a, b in zip(root_covector(system, beta), coroot)) == 2
        value = sum((c * ref_pairing(system, j, v) for j, c in enumerate(beta.coeffs)), F(0))
        expect = tuple(F(x) - value * y for x, y in zip(v, coroot))
        assert reflect_by_root(system, beta, v) == expect
        for owner in (system, SHARED[name]):
            # the library's route on the integer point; the pairings move with it
            num, pairs, den = owner._integer_point(v)
            got_num, got_pairs = owner._reflect_by_root(beta, num, pairs)
            got = tuple(F(x, den) for x in got_num)
            assert got == expect
            assert [F(p, den // owner._cden) for p in got_pairs] == [ref_pairing(owner, j, expect) for j in range(owner.n)]
            assert owner._reflect_by_root(beta, got_num, got_pairs) == (num, pairs)

    @given(
        name=system_names,
        pairs=kernel_points,
        offsets=kernel_points,
        below=st.lists(fractions_in(-1, 3, max_denominator=4), min_size=3, max_size=3),
        off=st.sampled_from([0, 0, 1, F(-1, 2)]),
        raw=raw_words,
        shape=st.sampled_from(["orbit", "coroots", "any"]),
        v_any=points,
        s=st.builds(F, st.integers(1, 10**12), st.sampled_from([1, 3, 10**9 + 7, 2**61 - 1])),
    )
    @settings(max_examples=150, deadline=None)
    def test_within_reach_matches_fraction_route(self, name, pairs, offsets, below, off, raw, shape, v_any, s):
        """The integer reach test on (lam, v, s) against tits_cone_membership,
        ref_unwind and ref_coroot_coordinates on v / s.  The arbitrary points
        have small denominators before scaling: an affine point of tiny level
        can take millions of reflections to unwind (the next test)."""
        system = SHARED[name]
        v0 = point_with_offsets(system, [abs(F(p)) for p in pairs], offsets)
        lam = tuple(a + b for a, b in zip(v0, coroot_combination(system, below)))
        in_span = system.rank_x == system.n or off == 0
        if not in_span:  # the last coordinate of Y is off the span of the coroots
            lam = lam[:-1] + (lam[-1] + off,)
        if shape == "orbit":  # in the Tits cone; in reach iff every coefficient of below is >= 0
            v = ref_act(system, [i % system.n for i in raw], v0)
        elif shape == "coroots":  # level 0 in affine type, in the cone only where no pairing is nonzero
            v = coroot_combination(system, [F(p) for p in pairs])
        else:
            v = tuple(F(x) for x in v_any[: system.rank_x])
        v = tuple(s * x for x in v)
        expect = ref_within_reach(system, lam, tuple(x / s for x in v))
        if system.tits_cone_membership(tuple(x / s for x in v))[0] == "unknown":
            # the reference gave up on the unwind (indefinite type), where the gap decides
            expect = ref_reach_by_gap(system, lam, tuple(x / s for x in v))[0]
        assert system._within_reach(system._integer_point(lam), system._integer_point(v), (s.numerator, s.denominator)) is expect
        if shape == "orbit":
            assert expect is (in_span and all(c >= 0 for c in below[: system.n]))

    def test_within_reach_keeps_a_point_past_the_unwind_guard(self, monkeypatch):
        from heckepaths import root_system

        system = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS["A1aff"])  # cold caches
        lam, v = frac_vec(0, 0, 1), (F(4), F(0), F(1, 1000))  # level 1/1000: in the Tits cone
        dom, letters = ref_unwind(system, v, False)
        assert len(letters) > 50
        monkeypatch.setattr(root_system, "_UNWIND_GUARD", 50)
        with pytest.raises(FormatError, match="in the Tits cone, but its minimal coset word is longer than 50"):
            ref_within_reach(system, lam, v)  # the unwind of the membership witness gives up
        with pytest.raises(FormatError, match="outside the Tits cone"):  # positive level: not in minus the Tits cone
            system._unwound(*system._integer_point(v), antidominant=True)
        # lam - v is off the span of the coroots (its last coordinate is 1 - 1/1000)
        assert ref_reach_by_gap(system, lam, v) == (False, "off the span")
        assert system._within_reach(system._integer_point(lam), system._integer_point(v), (1, 1)) is False
        # a shape at v's level one null coroot above v's dominant conjugate keeps v
        above = tuple(x + c for x, c in zip(dom, coroot_combination(system, system._dual.null_root_coeffs())))
        assert ref_reach_by_gap(system, above, v) == (True, "dominant")
        assert system._within_reach(system._integer_point(above), system._integer_point(v), (1, 1)) is True

    @given(
        name=st.sampled_from(sorted(REACH_SYSTEMS)),
        pairs=dominant_pairings,
        offsets=st.lists(fractions_in(-2, 2, max_denominator=3), min_size=3, max_size=3),
        below=st.lists(fractions_in(-1, 3, max_denominator=2), min_size=3, max_size=3),
        raw=raw_words,
        shape=st.sampled_from(["orbit", "any"]),
        v_any=st.lists(fractions_in(-4, 4, max_denominator=5), min_size=4, max_size=4),
        s=st.builds(F, st.integers(1, 4), st.integers(1, 3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_within_reach_is_exact(self, name, pairs, offsets, below, raw, shape, v_any, s):
        """The reach test against ref_within_reach wherever the reference's unwind
        ends, and against the gap route on Fractions in every type (finite, affine,
        twisted, indefinite, hyperbolic): each "no" has its reason, lam - v off the
        span of the coroots or a negative coefficient of lam minus a point of the unwind."""
        system = REACH_SYSTEMS[name]
        lam = point_with_offsets(system, pairs, offsets)
        if shape == "orbit":  # w(lam - sum below_i alpha_i^v)
            below_lam = tuple(a - b for a, b in zip(lam, coroot_combination(system, below)))
            u = ref_act(system, [i % system.n for i in raw], below_lam)
        else:
            u = tuple(F(x) for x in v_any[: system.rank_x])
        v = tuple(s * x for x in u)
        got = system._within_reach(system._integer_point(lam), system._integer_point(v), (s.numerator, s.denominator))
        answer, reason = ref_reach_by_gap(system, lam, u)
        assert got is answer, reason
        assert got or reason == "off the span" or reason.startswith("a negative coefficient")
        if system.tits_cone_membership(u)[0] != "unknown":  # the reference's unwind ends
            assert got is ref_within_reach(system, lam, u)

    @given(name=system_names, raw=st.lists(st.integers(0, 2), max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_normalize_word_matches_matrix_products(self, name, raw):
        system = RootGeneratingSystem.from_json_dict(KERNEL_SYSTEMS[name])  # cold caches
        word = tuple(i % system.n for i in raw)
        assert system.normalize_word(word).word == ref_normalize(system, word)


# finite and affine systems, where the reach test answers exactly: A2, B2, G2, A1^(1),
# the twisted affine A2^(2), and the two twisted matrices of the level rule
PREFIX_SYSTEMS = {
    name: RootGeneratingSystem.from_gcm(entries)
    for name, entries in {
        "A2": [[2, -1], [-1, 2]],
        "B2": [[2, -2], [-1, 2]],
        "G2": [[2, -1], [-3, 2]],
        "A1aff": [[2, -2], [-2, 2]],
        "A2twisted": [[2, -1], [-4, 2]],
        "twisted-3": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
        "twisted-2": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    }.items()
}


@st.composite
def piece_times(draw):
    """t0 <= t1 < t2 < 1 over one denominator."""
    d = draw(st.integers(2, 7))
    k2 = draw(st.integers(1, d - 1))
    k1 = draw(st.integers(0, k2 - 1))
    return F(draw(st.integers(0, k1)), d), F(k1, d), F(k2, d)


@given(
    name=st.sampled_from(sorted(PREFIX_SYSTEMS)),
    lam_pairs=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    raw=raw_words,
    other=raw_words,
    x=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    mix=st.sampled_from([(1, 0), (0, 1), (1, 1), (0, 0)]),
    noise=st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=4, max_size=4),
    times=piece_times(),
)
@settings(max_examples=300, deadline=None)
def test_reach_is_a_prefix_of_each_piece(name, lam_pairs, raw, other, x, mix, noise, times):
    """On a piece x(t) = x + (t - t0) xi with xi = w(lam), if y1 - x(t2) is in reach
    with 1 - t2 to go, so is y1 - x(t1) with 1 - t1 for t0 <= t1 < t2 < 1: the reach
    set of lam is convex and holds xi, and (y1 - x(t1)) / (1 - t1) is a convex
    combination of (y1 - x(t2)) / (1 - t2) and xi.  So enumerate_hecke may stop a
    piece's fold search at its first fold time out of reach.  y1 - x is drawn near
    orbit points of lam and their sum, so that both answers occur."""
    system = PREFIX_SYSTEMS[name]
    t0, t1, t2 = times
    lam = point_with_pairings(system, [F(p) for p in lam_pairs])
    k = lcm(*(c.denominator for c in lam))
    lam = tuple(k * c for c in lam)  # dominant, with integer coordinates
    xi = ref_act(system, [i % system.n for i in raw], lam)
    eta = ref_act(system, [i % system.n for i in other], lam)
    x = tuple(F(c) for c in x[: system.rank_x])
    y1 = tuple(a + mix[0] * b + mix[1] * c + e for a, b, c, e in zip(x, xi, eta, noise))

    def in_reach(t):
        v = tuple(b - a - (t - t0) * c for a, b, c in zip(x, y1, xi))
        return system._within_reach(system._integer_point(lam), system._integer_point(v), ((1 - t).numerator, (1 - t).denominator))

    if in_reach(t2):
        assert in_reach(t1)
