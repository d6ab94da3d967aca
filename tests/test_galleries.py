import json
from fractions import Fraction as F

import pytest

from heckepaths.errors import FoldNotApplicable, FormatError, NotHecke
from heckepaths.galleries import (
    DecoratedHeckePath,
    ParameterPattern,
    codim_tilde,
    decorate_with_max_chains,
    enumerate_decorations,
    fold_gallery,
    gallery_from_json_dict,
    minimal_gallery,
    neg_count,
    parameter_pattern,
)
from heckepaths.model import enumerate_hecke
from heckepaths.paths import is_ls, make_path, stats, straight_path

from conftest import frac_vec
from test_system_reference import ref_inversions


@pytest.fixture()
def v_path(a1):
    return make_path(a1, (F(1),), (F(0),), [(0,), ()], [F(0), F(1, 2), F(1)])


@pytest.fixture()
def theta_path(a2):
    return make_path(a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1, 0), ()], [F(0), F(1, 2), F(1)])


class TestMinimalGallery:
    def test_at_origin(self, a1):
        g = minimal_gallery(a1, (F(0),), (0,))
        assert [d.word for d in g.chambers] == [(), (0,)]
        assert g.trueness() == (True,) and not g.folds

    def test_true_at_half(self, a1):
        assert minimal_gallery(a1, (F(-1, 2),), (0,)).trueness() == (True,)

    def test_ghost_at_third(self, a1):
        assert minimal_gallery(a1, (F(1, 3),), (0,)).trueness() == (False,)

    def test_walls_are_inversions(self, a2):
        g = minimal_gallery(a2, frac_vec(0, 0), (0, 1, 0))
        w = a2.normalize_word((0, 1, 0))
        assert [g.step_root(j).coeffs for j in range(1, 4)] == [
            b.coeffs for b in ref_inversions(a2, w.word)[0]
        ]


class TestFoldGallery:
    def test_single_fold(self, a1):
        g = minimal_gallery(a1, (F(-1, 2),), (0,))
        folded = fold_gallery(g, [a1.simple_root_obj(0)])
        assert [d.word for d in folded.chambers] == [(), ()]
        assert folded.folds == frozenset({1})

    def test_empty_chain(self, a1):
        g = minimal_gallery(a1, (F(-1, 2),), (0,))
        assert fold_gallery(g, []) == g

    def test_ghost_wall_refused(self, a1):
        g = minimal_gallery(a1, (F(1, 3),), (0,))
        with pytest.raises(FoldNotApplicable):
            fold_gallery(g, [a1.simple_root_obj(0)])

    def test_ends_at_w_plus(self, a2, theta_path):
        from heckepaths.paths import is_hecke

        res = is_hecke(theta_path)
        (cert,) = res.certificates
        g = minimal_gallery(a2, theta_path.point(1), theta_path.directions[0])
        folded = fold_gallery(g, cert.roots)
        assert folded.chambers[-1] == theta_path.directions[1]
        # folds are at true walls, on the positive side
        assert folded.folds and all(folded.step_is_true(j) for j in folded.folds)


class TestNegCount:
    def test_folded_a1(self, a1):
        g = fold_gallery(minimal_gallery(a1, (F(-1, 2),), (0,)), [a1.simple_root_obj(0)])
        assert neg_count(g) == 0

    def test_minimal_at_special(self, a1):
        assert neg_count(minimal_gallery(a1, (F(0),), (0,))) == 1

    def test_minimal_at_ghost(self, a1):
        assert neg_count(minimal_gallery(a1, (F(1, 3),), (0,))) == 0


class TestCodimTilde:
    def test_v_path(self, v_path):
        dec = decorate_with_max_chains(v_path)
        assert codim_tilde(dec) == 1 == stats(v_path).codim

    def test_straight(self, a1):
        pi = straight_path(a1, (F(1),))
        assert codim_tilde(decorate_with_max_chains(pi)) == 0

    def test_lower_bound(self, a2, theta_path):
        cd = stats(theta_path).codim
        for dec in enumerate_decorations(theta_path):
            assert codim_tilde(dec) >= cd

    def test_ls_suite_equality(self, a2):
        lam = frac_vec(1, 1)
        for c1 in range(4):
            for c2 in range(4):
                y1 = (lam[0] - c1, lam[1] - c2)
                for w in enumerate_hecke(a2, lam, frac_vec(0, 0), y1):
                    if is_ls(w.path).ok:
                        dec = decorate_with_max_chains(w.path)
                        assert codim_tilde(dec) == stats(w.path).codim

    def test_requires_hecke(self, a1):
        bad = make_path(a1, (F(1),), (F(0),), [(), (0,)], [F(0), F(1, 2), F(1)])
        with pytest.raises(NotHecke):
            decorate_with_max_chains(bad)


class TestParameterPattern:
    def test_v_path(self, v_path):
        pat = parameter_pattern(v_path)
        assert pat.length == 1 and pat.factors == ("kappa*",)
        assert pat.groups == ((F(1, 2), 1),)

    def test_straight(self, a1):
        pat = parameter_pattern(straight_path(a1, (F(1),)))
        assert pat.length == 0 and pat.factors == ()

    def test_a2_ls_length_two(self, a2):
        p = make_path(a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1), (1,)], [F(0), F(1, 2), F(1)])
        pat = parameter_pattern(p)
        assert pat.length == 2 == stats(p).ddim

    def test_length_equals_ddim_over_suite(self, a2):
        lam = frac_vec(1, 1)
        for c1 in range(4):
            for c2 in range(4):
                y1 = (lam[0] - c1, lam[1] - c2)
                for w in enumerate_hecke(a2, lam, frac_vec(0, 0), y1):
                    assert parameter_pattern(w.path).length == stats(w.path).ddim

    def test_groups_decreasing(self, a2, theta_path):
        pat = parameter_pattern(theta_path)
        times = [t for t, _ in pat.groups]
        assert times == sorted(times, reverse=True)
        assert pat.length == sum(c for _, c in pat.groups)

    def test_max_attained_exactly_on_ls(self, a2):
        lam = frac_vec(1, 1)
        mu = frac_vec(0, 0)
        witnesses = enumerate_hecke(a2, lam, frac_vec(0, 0), mu)
        rho_gap = a2.rho_value(tuple(a - b for a, b in zip(lam, mu)))
        lengths = [parameter_pattern(w.path).length for w in witnesses]
        assert max(lengths) == rho_gap
        for w, n in zip(witnesses, lengths):
            assert (n == rho_gap) == is_ls(w.path).ok

    def test_kappa_star_count_word_invariance(self, a2):
        # empirical: swapping the reduced word of w_- does not change the
        # kappa*-count on the A2 loop suite
        from heckepaths.galleries import _reduced_words
        from heckepaths.paths import all_chains

        for w in enumerate_hecke(a2, frac_vec(1, 1), frac_vec(0, 0), frac_vec(0, 0)):
            path = w.path
            for j in range(1, path.r):
                z = path.point(j)
                counts = set()
                chains = all_chains(
                    a2, path.shape, z, path.direction_vector(j - 1), path.direction_vector(j), 20
                )
                chain = max(chains, key=lambda c: c.s)
                for word in _reduced_words(a2, path.directions[j - 1]):
                    g = fold_gallery(minimal_gallery(a2, z, word), chain.roots)
                    counts.add(len(g.folds & {s for s in range(1, g.n + 1)}))
                assert len(counts) == 1

    def test_requires_hecke(self, a1):
        bad = make_path(a1, (F(1),), (F(0),), [(), (0,)], [F(0), F(1, 2), F(1)])
        with pytest.raises(NotHecke):
            parameter_pattern(bad)


class TestJsonLoaders:
    """gallery_from_json_dict and ParameterPattern.from_json_dict refuse malformed
    input with FormatError, and read back what to_json_dict writes."""

    @pytest.fixture()
    def folded(self, a2, theta_path):
        return decorate_with_max_chains(theta_path).galleries[0][1]

    def test_gallery_round_trip(self, a2, folded):
        assert folded.folds
        data = json.loads(json.dumps(folded.to_json_dict()))
        back = gallery_from_json_dict(a2, data)
        assert back == folded and back.to_json_dict() == folded.to_json_dict()

    @pytest.mark.parametrize("field", ["point", "type", "chambers", "folds"])
    def test_gallery_missing_field(self, a2, folded, field):
        data = folded.to_json_dict()
        del data[field]
        with pytest.raises(FormatError, match=f"missing field '{field}'"):
            gallery_from_json_dict(a2, data)

    @pytest.mark.parametrize(
        "change",
        [
            {"type": ["x"]},
            {"type": [1.0, 2, 1]},
            {"type": [0, 2, 1]},
            {"point": ["1"]},
            {"folds": [5]},
            {"folds": ["2"]},
            {"chambers": [[], [1], [1], [1, 2, 1]]},
            {"chambers": "e"},
        ],
        ids="type-text type-float type-zero point-short fold-past-end fold-text chambers chambers-text".split(),
    )
    def test_gallery_malformed(self, a2, folded, change):
        data = {**folded.to_json_dict(), **change}
        with pytest.raises(FormatError):
            gallery_from_json_dict(a2, data)

    def test_pattern_round_trip(self, theta_path):
        pattern = parameter_pattern(theta_path)
        assert ParameterPattern.from_json_dict(json.loads(json.dumps(pattern.to_json_dict()))) == pattern

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"factors": None}, "missing field 'factors'"),
            ({"n": None}, "missing field 'n'"),
            ({"groups": None}, "missing field 'groups'"),
            ({"groups": [{"t": "1/2"}]}, "missing field 'count'"),
            ({"groups": 3}, "list of groups"),
            ({"factors": ["lambda"]}, "kappa"),
            ({"n": 7}, "count its factors"),
            ({"groups": [{"t": "1/2", "count": 2}]}, "sum to n"),
        ],
        ids="no-factors no-n no-groups no-count groups-number factor-name n-miscounts groups-miscount".split(),
    )
    def test_pattern_malformed(self, theta_path, change, match):
        data = {**parameter_pattern(theta_path).to_json_dict(), **change}
        data = {k: v for k, v in data.items() if v is not None}
        with pytest.raises(FormatError, match=match):
            ParameterPattern.from_json_dict(data)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda s, p: minimal_gallery(s, (0, 0), (0, 0)), FormatError, "gallery type must be a reduced word"),
        (
            lambda s, p: gallery_from_json_dict(s, [1]),
            FormatError,
            "a gallery is a JSON object with point, type, chambers and folds",
        ),
        (
            lambda s, p: enumerate_decorations(make_path(s, (1, 1), (0, 0), [(), (0,)], [0, F(1, 2), 1])),
            NotHecke,
            "condition vi fails at t=1/2",
        ),
        (
            lambda s, p: codim_tilde(DecoratedHeckePath(p, ())),
            FormatError,
            "decoration must cover exactly the interior breakpoints",
        ),
    ],
    ids=["non-reduced-type", "gallery-not-an-object", "decorations-of-non-hecke", "decoration-misses-breakpoint"],
)
def test_malformed_gallery_arguments_are_refused(a2, theta_path, call, error, message):
    with pytest.raises(error) as raised:
        call(a2, theta_path)
    assert type(raised.value) is error and str(raised.value) == message
