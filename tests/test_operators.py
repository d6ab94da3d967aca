from fractions import Fraction as F

import pytest

from heckepaths.errors import OperatorUndefined
from heckepaths.paths import (
    concat,
    eval_path,
    is_hecke,
    make_path,
    root_operator,
    stats,
    straight_path,
    try_operator,
)

from conftest import frac_vec
from test_path_reference import from_segments, segments


@pytest.fixture()
def pi_lam(a1):
    return straight_path(a1, (F(1),))


class TestLowering:
    def test_f_on_straight(self, a1, pi_lam):
        out = root_operator("f", 0, pi_lam)
        # endpoint lambda - alpha^v = 0; the image is the weight-zero LS path,
        # which dips through -alpha^v/2 (directions s then e)
        assert out.endpoint == (F(0),)
        assert out.breakpoints == (F(0), F(1, 2), F(1))
        assert [w.word for w in out.directions] == [(0,), ()]
        assert eval_path(out, F(1, 2)) == (F(-1, 2),)

    def test_f_twice(self, a1, pi_lam):
        out = root_operator("f", 0, root_operator("f", 0, pi_lam))
        assert out.endpoint == (F(-1),) and out.r == 1

    def test_f_thrice_undefined(self, a1, pi_lam):
        p = root_operator("f", 0, root_operator("f", 0, pi_lam))
        with pytest.raises(OperatorUndefined):
            root_operator("f", 0, p)

    def test_endpoint_shift(self, a2):
        p = straight_path(a2, frac_vec(1, 1))
        for i in range(2):
            out = root_operator("f", i, p)
            assert out.endpoint == tuple(
                a - b for a, b in zip(p.endpoint, a2.simple_coroots[i])
            )


class TestRaising:
    def test_e_undoes_f(self, a1, pi_lam):
        f = root_operator("f", 0, pi_lam)
        assert root_operator("e", 0, f) == pi_lam

    def test_f_undoes_e(self, a1, pi_lam):
        f = root_operator("f", 0, pi_lam)
        e = root_operator("e", 0, f)
        assert root_operator("f", 0, e) == f

    def test_e_undefined_on_highest(self, a1, pi_lam):
        with pytest.raises(OperatorUndefined) as exc:
            root_operator("e", 0, pi_lam)
        assert "minimal integral value 0" in str(exc.value)

    def test_endpoint_shift(self, a2):
        p = root_operator("f", 0, straight_path(a2, frac_vec(1, 1)))
        out = root_operator("e", 0, p)
        assert out.endpoint == tuple(a + b for a, b in zip(p.endpoint, a2.simple_coroots[0]))

    def test_e_f_inverse_over_crystal(self, a2):
        from heckepaths.model import generate_ls_paths

        graph = generate_ls_paths(a2, frac_vec(1, 1))
        for src, i, dst in graph.edges:
            assert root_operator("e", i, graph.nodes[dst]) == graph.nodes[src]


class TestEtilde:
    def test_spec_example(self, a1):
        p = make_path(a1, (F(1),), (F(0),), [(0,), ()], [F(0), F(3, 4), F(1)])
        out = root_operator("etilde", 0, p)
        assert out.breakpoints == (F(0), F(1, 2), F(3, 4), F(1))
        assert [w.word for w in out.directions] == [(0,), (), (0,)]
        assert eval_path(out, F(1, 2)) == (F(-1, 2),)
        assert eval_path(out, F(3, 4)) == (F(-1, 4),)
        assert out.endpoint == p.endpoint == (F(-1, 2),)

    def test_preserves_endpoint(self, a2):
        p = make_path(
            a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1, 0), ()], [F(0), F(1, 2), F(1)]
        )
        out = root_operator("etilde", 0, p)
        assert out.endpoint == p.endpoint

    def test_undefined_without_dip(self, a1, pi_lam):
        with pytest.raises(OperatorUndefined) as exc:
            root_operator("etilde", 0, pi_lam)
        assert "q = 1" in str(exc.value)

    def test_cut_pieces_reconcatenate(self, a1):
        # cutting at (q, theta) and re-concatenating reproduces the path
        p = make_path(a1, (F(1),), (F(0),), [(0,), ()], [F(0), F(3, 4), F(1)])
        q, theta = F(1, 2), F(1)
        segs = segments(p)

        def cut(lo, hi):
            pieces = []
            for t0, t1, der in segs:
                a, b = max(t0, lo), min(t1, hi)
                if a < b:
                    pieces.append((b - a, der))
            return from_segments(a1, eval_path(p, lo), pieces)

        p1, p2 = cut(F(0), q), cut(q, theta)
        assert concat(p1, p2) == p


class TestOperatorLedger:
    """ddim/codim deltas of the three operators on Hecke paths in Y."""

    def _deltas(self, path, kind, i):
        out = try_operator(kind, i, path)
        if out is None:
            return None
        before, after = stats(path), stats(out)
        return after.ddim - before.ddim, after.codim - before.codim

    def test_deltas_on_examples(self, a2):
        paths = [
            straight_path(a2, frac_vec(1, 1)),
            make_path(a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1, 0), ()], [F(0), F(1, 2), F(1)]),
            make_path(a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1), (1,)], [F(0), F(1, 2), F(1)]),
        ]
        for p in paths:
            assert is_hecke(p).ok and p.in_Y
            for i in range(2):
                for kind, expect in (("e", (-1, -1)), ("f", (1, 1)), ("etilde", (1, -1))):
                    got = self._deltas(p, kind, i)
                    if got is not None:
                        assert got == expect, (kind, i, p)

    def test_hecke_preserved(self, a2):
        # etilde keeps Hecke; e/f keep Hecke when etilde is undefined
        p = make_path(a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1, 0), ()], [F(0), F(1, 2), F(1)])
        for i in range(2):
            et = try_operator("etilde", i, p)
            if et is not None:
                assert is_hecke(et).ok and et.in_Y
            else:
                for kind in ("e", "f"):
                    out = try_operator(kind, i, p)
                    if out is not None:
                        assert is_hecke(out).ok and out.in_Y
