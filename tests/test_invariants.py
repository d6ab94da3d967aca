"""Cross-module invariants that do not belong to a single operation."""

from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from heckepaths.galleries import parameter_pattern
from heckepaths.model import enumerate_hecke, generate_ls_paths
from heckepaths.paths import is_hecke, is_ls, make_path, stats, straight_path

from conftest import frac_vec


class TestConstruction:
    def test_equal_adjacent_directions_merge(self, a1):
        # two pieces with the same direction collapse to one
        p = make_path(a1, (F(1),), (F(0),), [(), ()], [F(0), F(1, 3), F(1)])
        assert p.r == 1 and p.directions[0].word == ()

    def test_directions_minimized_in_coset(self, a2):
        # s2 fixes (2,1), so the word s1 s2 reduces to s1 as a coset rep
        lam = frac_vec(2, 1)
        p = make_path(a2, lam, frac_vec(0, 0), [(0, 1), ()], [F(0), F(1, 2), F(1)])
        assert p.directions[0].word == (0,)

    def test_merge_after_minimization(self, a2):
        # distinct words, same coset: the pieces must merge
        lam = frac_vec(2, 1)
        p = make_path(a2, lam, frac_vec(0, 0), [(0,), (0, 1)], [F(0), F(1, 2), F(1)])
        assert p.r == 1

    def test_constant_path_vacuously_ls_and_hecke(self, a2):
        p = straight_path(a2, frac_vec(0, 0), (F(1, 3), F(2, 5)))
        assert p.is_constant and is_hecke(p).ok and is_ls(p).ok
        assert stats(p).ddim == stats(p).codim == 0


class TestBruteForceGrid:
    """Hecke enumeration against a denominator-grid search (independent route)."""

    def grid_paths(self, system, lam, y0, y1, max_den):
        """All single-fold shapes lam paths y0 -> y1 with fold time p/q, q <= max_den."""
        out = set()
        orbit = set()
        frontier = [tuple(lam)]
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(system.n):
                    img = system.simple_reflection(i, v)
                    if img not in orbit:
                        orbit.add(img)
                        nxt.append(img)
            frontier = nxt
        straight_dir = tuple(a - b for a, b in zip(y1, y0))
        for q in range(1, max_den + 1):
            for p in range(1, q):
                a = F(p, q)
                for v1 in orbit:
                    mid = tuple(x + a * d for x, d in zip(y0, v1))
                    rest = tuple((x - m) / (1 - a) for x, m in zip(y1, mid))
                    if rest == v1 or rest not in orbit:
                        continue
                    path = make_path(
                        system,
                        lam,
                        y0,
                        [system.coset_of_vector(v1, lam).element, system.coset_of_vector(rest, lam).element],
                        [F(0), a, F(1)],
                    )
                    if is_hecke(path).ok:
                        out.add(path)
        if straight_dir in orbit:
            out.add(straight_path(system, lam, y0))
        return out

    @pytest.mark.parametrize("lam,y1", [((1,), (0,)), ((1,), (1,)), ((2,), (0,)), ((2,), (2,))])
    def test_a1(self, a1, lam, y1):
        lam = tuple(F(x) for x in lam)
        y1 = tuple(F(x) for x in y1)
        ours = {w.path for w in enumerate_hecke(a1, lam, (F(0),), y1)}
        grid = self.grid_paths(a1, lam, (F(0),), y1, max_den=8)
        # r <= 2 in rank one, so the grid is the whole search space
        assert ours == grid

    def test_a2_single_fold_subset(self, a2):
        lam = frac_vec(1, 1)
        ours = {w.path for w in enumerate_hecke(a2, lam, frac_vec(0, 0), frac_vec(0, 0))}
        grid = self.grid_paths(a2, lam, frac_vec(0, 0), frac_vec(0, 0), max_den=8)
        assert grid <= ours
        assert {p for p in ours if p.r <= 2} == grid


class TestAcrossTypes:
    def test_b2_suite_identities(self, b2):
        lam = (F(1), F(1))  # dominant: pairings (1, 0)
        seen = 0
        for c1 in range(4):
            for c2 in range(4):
                y1 = (lam[0] - c1, lam[1] - c2)
                for w in enumerate_hecke(b2, lam, b2.zero(), y1):
                    seen += 1
                    st = stats(w.path)
                    gap = b2.rho_value(tuple(a - b for a, b in zip(lam, w.path.nu)))
                    assert st.ddim <= gap <= st.codim
                    assert st.ddim + st.codim == 2 * gap
                    assert (st.ddim == gap) == is_ls(w.path).ok
                    assert parameter_pattern(w.path).length == st.ddim
        assert seen >= 5

    def test_translation_invariance(self, a2):
        base = make_path(
            a2, frac_vec(1, 1), frac_vec(0, 0), [(0, 1), (1,)], [F(0), F(1, 2), F(1)]
        )
        moved = replace(base, start=frac_vec(1, -1))
        assert is_ls(moved).ok == is_ls(base).ok
        st0, st1 = stats(base), stats(moved)
        assert (st0.ddim, st0.codim) == (st1.ddim, st1.codim)


class TestMultisetOfPatternLengths:
    def test_from_minus_nu_to_zero(self, a2):
        # over all Hecke paths -nu -> 0 the maximal pattern length is
        # rho(lambda - nu), attained exactly by the LS paths
        lam = frac_vec(1, 1)
        graph = generate_ls_paths(a2, lam)
        for mu, ls_count in graph.endpoint_counts().items():
            nu = mu
            start = tuple(-x for x in nu)
            witnesses = enumerate_hecke(a2, lam, start, frac_vec(0, 0))
            lengths = [parameter_pattern(w.path).length for w in witnesses]
            gap = a2.rho_value(tuple(a - b for a, b in zip(lam, nu)))
            assert max(lengths) == gap
            assert sum(1 for n in lengths if n == gap) == ls_count

    def test_ls_endpoints_in_Y(self, a2):
        for node in generate_ls_paths(a2, frac_vec(2, 1)).nodes:
            assert node.in_Y
