"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact (tolerance zero); the stated time budgets are far
above what these sizes need.
"""

import contextlib
import random
from fractions import Fraction as F

import pytest

from heckepaths import RootGeneratingSystem
from heckepaths.apartment import levels_crossed
from heckepaths.galleries import (
    codim_tilde,
    decorate_with_max_chains,
    enumerate_decorations,
    parameter_pattern,
)
from heckepaths.model import (
    _cosets_up_to_length,
    enumerate_hecke,
    freudenthal_multiplicity,
    generate_ls_paths,
    multiplicity,
)
from heckepaths.paths import (
    is_hecke,
    is_ls,
    stats,
    try_operator,
)
from heckepaths.root_system import dominance_difference

from conftest import all_words, frac_vec
from test_chain_reference import chain_targets, root_eval
from test_path_reference import from_segments
from test_system_reference import ref_inversions, ref_pairing, reflect_root


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{desc}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{desc}]: PASS")


def dominant_shapes(system, rho_bound):
    out = []
    bound = 2 * rho_bound + 1
    from itertools import product

    for y in product(range(bound), repeat=system.rank_x):
        v = tuple(F(x) for x in y)
        if all(ref_pairing(system, i, v) >= 0 for i in range(system.n)) and 0 < system.rho_value(v) <= rho_bound:
            out.append(v)
    return out


def suite_shapes(system):
    """Dominant members of {alpha_1^v, alpha_2^v, alpha_1^v + alpha_2^v}."""
    cands = [system.simple_coroots[i] for i in range(system.n)]
    if system.n >= 2:
        cands.append(
            tuple(a + b for a, b in zip(system.simple_coroots[0], system.simple_coroots[1]))
        )
    return [v for v in cands if all(ref_pairing(system, i, v) >= 0 for i in range(system.n))]


def endpoint_box(system, lam):
    """Candidate endpoints y1 = lam - sum c_i alpha_i^v over a covering box."""
    from itertools import product

    bound = 2 * int(system.rho_value(lam))
    out = []
    for cs in product(range(bound + 1), repeat=system.n):
        y1 = tuple(lam)
        for i, c in enumerate(cs):
            y1 = tuple(a - c * b for a, b in zip(y1, system.simple_coroots[i]))
        out.append(y1)
    return out


def hecke_suite(system, shapes):
    """All Hecke paths from 0 over the given shapes, with their shape."""
    zero = system.zero()
    out = []
    for lam in shapes:
        for y1 in endpoint_box(system, lam):
            for w in enumerate_hecke(system, lam, zero, y1):
                out.append((lam, w.path))
    return out


def random_hecke_paths(system, shapes, count, seed, h=20):
    """Random positively-folded walks; Hecke by construction, then verified."""
    rng = random.Random(seed)
    out = []
    seen = set()
    orbits = {}
    for lam in shapes:  # the orbit walk's numerators, all over the shape's denominator
        point = system._integer_point(lam)
        cosets = _cosets_up_to_length(system, point, 2 * int(system.rho_value(lam)))
        orbits[lam] = [tuple(F(x, point[2]) for x in num) for num in sorted(cosets)]
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        lam = rng.choice(shapes)
        y0 = tuple(F(rng.randint(-1, 1)) for _ in range(system.rank_x))
        xi = rng.choice(orbits[lam])
        t, x = F(0), y0
        segs = []
        while True:
            rep = system.coset_of_vector(xi, lam).element
            times = set()
            for beta in ref_inversions(system, rep.word)[0]:
                slope = root_eval(system, beta, xi)
                if slope == 0:
                    continue
                u0 = root_eval(system, beta, x)
                for m in levels_crossed(u0, u0 + slope * (1 - t)):
                    if m != u0:  # walls met strictly inside (t, 1)
                        times.add(t + (m - u0) / slope)
            if not times or rng.random() < 0.45:
                segs.append((F(1) - t, xi))
                break
            ta = rng.choice(sorted(times))
            z = tuple(a + (ta - t) * b for a, b in zip(x, xi))
            targets = sorted(chain_targets(system, lam, z, xi, h))
            if not targets:
                segs.append((F(1) - t, xi))
                break
            segs.append((ta - t, xi))
            x, t, xi = z, ta, rng.choice(targets)
        path = from_segments(system, y0, segs)
        if path in seen:
            continue
        seen.add(path)
        assert is_hecke(path, h).ok and path.in_Y
        out.append(path)
    assert len(out) == count, f"only found {len(out)} random Hecke paths"
    return out


@pytest.fixture(scope="module")
def systems():
    return {
        "a1": RootGeneratingSystem.from_gcm([[2]]),
        "a2": RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]]),
        "a1aff": RootGeneratingSystem.from_gcm([[2, -2], [-2, 2]]),
    }


@pytest.fixture(scope="module")
def a2_suite(systems):
    a2 = systems["a2"]
    return hecke_suite(a2, suite_shapes(a2))


@pytest.fixture(scope="module")
def a1_suite(systems):
    a1 = systems["a1"]
    return hecke_suite(a1, suite_shapes(a1))


def test_criterion_1_oracle_equivalence(systems):
    with criterion(1, "oracle equivalence, finite type"):
        for name in ("a1", "a2"):
            system = systems[name]
            for lam in dominant_shapes(system, 6):
                graph = generate_ls_paths(system, lam, depth_cap=10_000)
                assert not graph.partial
                cache = {}
                for mu in endpoint_box(system, lam):
                    counted = multiplicity(system, lam, mu, graph=graph)
                    oracle = freudenthal_multiplicity(system, lam, mu, cache=cache)
                    assert counted == oracle, (name, lam, mu, counted, oracle)


def test_criterion_2_inequalities(systems, a1_suite, a2_suite):
    with criterion(2, "Prop Inequalities suite"):
        assert a1_suite and a2_suite
        for lam, path in a1_suite + a2_suite:
            system = path.system
            st = stats(path)
            gap = system.rho_value(tuple(a - b for a, b in zip(lam, path.nu)))
            assert st.ddim <= gap <= st.codim
            assert st.ddim + st.codim == 2 * gap
            assert (st.ddim == gap) == is_ls(path).ok


def test_criterion_3_operator_ledger(systems):
    with criterion(3, "operator ledger on 200 random Hecke paths"):
        a2 = systems["a2"]
        shapes = [frac_vec(1, 1), frac_vec(2, 1), frac_vec(1, 2), frac_vec(2, 2)]
        paths = random_hecke_paths(a2, shapes, 200, seed=20260810)
        expected = {"e": (-1, -1), "f": (1, 1), "etilde": (1, -1)}
        applied = 0
        for path in paths:
            before = stats(path)
            for i in range(2):
                etilde_defined = try_operator("etilde", i, path) is not None
                for kind, deltas in expected.items():
                    out = try_operator(kind, i, path)
                    if out is None:
                        continue
                    applied += 1
                    after = stats(out)
                    assert (after.ddim - before.ddim, after.codim - before.codim) == deltas
                    if kind == "etilde" or not etilde_defined:
                        assert is_hecke(out).ok and out.in_Y
        assert applied > 200  # the ledger exercised a meaningful sample


def test_criterion_4_crystal_counts(systems):
    with criterion(4, "crystal counts"):
        a1, a2 = systems["a1"], systems["a2"]
        g1 = generate_ls_paths(a1, (F(1),))
        assert len(g1.nodes) == 3
        g2 = generate_ls_paths(a2, frac_vec(1, 1))
        assert len(g2.nodes) == 8
        assert g2.endpoint_counts()[frac_vec(0, 0)] == 2


def test_criterion_5_parameter_pattern(systems, a1_suite, a2_suite):
    with criterion(5, "parameter pattern lengths"):
        by_instance = {}
        for lam, path in a1_suite + a2_suite:
            system = path.system
            n = parameter_pattern(path).length
            assert n == stats(path).ddim
            key = (id(system), lam, tuple(path.start), path.endpoint)
            by_instance.setdefault(key, []).append((path, n))
        for (sid, lam, y0, y1), entries in by_instance.items():
            system = entries[0][0].system
            gap = system.rho_value(tuple(a - b for a, b in zip(lam, entries[0][0].nu)))
            lengths = [n for _, n in entries]
            assert max(lengths) == gap
            for path, n in entries:
                assert (n == gap) == is_ls(path).ok


def test_criterion_6a_codim_tilde_ls_equality(systems, a1_suite, a2_suite):
    with criterion("6a", "codim_tilde equality on LS decorations"):
        for lam, path in a1_suite + a2_suite:
            if is_ls(path).ok:
                dec = decorate_with_max_chains(path)
                assert codim_tilde(dec) == stats(path).codim


def test_criterion_6b_codim_tilde_strict_on_some_non_ls(systems, a2_suite):
    """Faithful transcription of the second half of criterion 6.

    The decorated-codimension characterization asks for a non-LS Hecke path
    all of whose decorations have codim_tilde strictly above codim.  With the
    literal definitions, folding the minimal gallery along the breakpoint
    chain always realizes equality (the fold skips the ghost walls and leaves
    no negatively-crossed true wall), so the strict path does not exist; see
    the accompanying analysis notes.  The assertion is kept as stated.
    """
    with criterion("6b", "codim_tilde strict on every decoration of some non-LS path"):
        witnesses = []
        for lam, path in a2_suite:
            if is_ls(path).ok or not is_hecke(path).ok:
                continue
            cd = stats(path).codim
            decorations = enumerate_decorations(path)
            assert decorations
            if all(codim_tilde(dec) > cd for dec in decorations):
                witnesses.append(path)
        assert witnesses, "no non-LS Hecke path has all decorations strictly above codim"


def test_criterion_6b_witness_report(a2_suite):
    """Print why 6b fails: each non-LS Hecke path of the A2 suite, its codim, and the
    codim_tilde of each of its decorations, with the type and folds of its
    galleries.  Run with -s to see the lines.  Every such path has a decoration
    with codim_tilde equal to codim: the one folded along the longest chains."""
    witnesses = [path for _, path in a2_suite if is_hecke(path).ok and not is_ls(path).ok]
    assert witnesses
    for path in witnesses:
        cd = stats(path).codim
        print(f"6b WITNESS {path!r} directions {list(path.directions)} codim {cd}")
        tildes = []
        for dec in enumerate_decorations(path):
            tildes.append(codim_tilde(dec))
            galleries = [(g.type_word, sorted(g.folds)) for _, g in dec.galleries]
            print(f"6b WITNESS   decoration (type, folds) {galleries}: codim_tilde {tildes[-1]}")
        assert min(tildes) == codim_tilde(decorate_with_max_chains(path)) == cd


def test_criterion_7_affine_smoke(systems):
    with criterion(7, "affine smoke test"):
        aff = systems["a1aff"]
        brute = set()
        for word in all_words(2, 12):
            for i in range(2):
                beta = aff.simple_root_obj(i)
                for j in reversed(word):
                    beta = reflect_root(aff, j, beta)
                if beta.is_positive and beta.height <= 10:
                    brute.add(beta.coeffs)
        assert {r.coeffs for r in aff.real_roots_up_to_height(10)} == brute

        lam = _fundamental_coweight(aff)
        graph = generate_ls_paths(aff, lam, depth_cap=50)
        counts = {}
        for node in graph.nodes:
            depth = sum(dominance_difference(aff, lam, node.endpoint))
            if graph.completed_depth is None or depth <= graph.completed_depth:
                counts[node.endpoint] = counts.get(node.endpoint, 0) + 1
        assert counts
        cache = {}
        for mu, count in counts.items():
            assert freudenthal_multiplicity(aff, lam, mu, cache=cache) == count


def test_criterion_8_finiteness_regression(systems):
    with criterion(8, "Hecke enumeration finiteness"):
        a1 = systems["a1"]
        loop = enumerate_hecke(a1, (F(1),), (F(0),), (F(0),))
        assert len(loop) == 1
        assert loop[0].path.breakpoints == (F(0), F(1, 2), F(1))
        assert [w.word for w in loop[0].path.directions] == [(0,), ()]
        straight = enumerate_hecke(a1, (F(1),), (F(0),), (F(1),))
        assert len(straight) == 1 and straight[0].path.r == 1
        # termination across the whole suite is exercised by the fixtures,
        # which enumerate every suite instance eagerly
        a2 = systems["a2"]
        for lam in suite_shapes(a2):
            for y1 in endpoint_box(a2, lam):
                enumerate_hecke(a2, lam, a2.zero(), y1)


def _fundamental_coweight(system):
    from itertools import product

    for y in product(range(-2, 3), repeat=system.rank_x):
        v = tuple(F(x) for x in y)
        vals = [ref_pairing(system, i, v) for i in range(system.n)]
        if sorted(vals) == [0] * (system.n - 1) + [1]:
            return v
    raise AssertionError("no fundamental-type coweight found")
