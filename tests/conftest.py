from fractions import Fraction as F

import pytest

from heckepaths import RootGeneratingSystem


@pytest.fixture(scope="session")
def a1():
    return RootGeneratingSystem.from_gcm([[2]])


@pytest.fixture(scope="session")
def a2():
    return RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])


@pytest.fixture(scope="session")
def b2():
    return RootGeneratingSystem.from_gcm([[2, -2], [-1, 2]])


@pytest.fixture(scope="session")
def a1aff():
    return RootGeneratingSystem.from_gcm([[2, -2], [-2, 2]])


# systems the exact-kernel and path-geometry property tests draw from
KERNEL_SYSTEMS = {
    "A2": {"cartan_matrix": [[2, -1], [-1, 2]]},
    "B2": {"cartan_matrix": [[2, -2], [-1, 2]]},
    "A1aff": {"cartan_matrix": [[2, -2], [-2, 2]]},
    "indefinite": {"cartan_matrix": [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]},
    # B2 on explicit non-unit rational roots and coroots (one zero root entry)
    "B2rational": {
        "cartan_matrix": [[2, -2], [-1, 2]],
        "simple_roots": [["6/7", "11/7"], ["0", "-2"]],
        "simple_coroots": [["1/2", "1"], ["2/3", "-1"]],
    },
}


def frac_vec(*xs):
    return tuple(F(x) for x in xs)


def coroot_combination(system, coeffs):
    """sum(c_i alpha_i^v) over the simple coroots; on a real root's coroot_coeffs, its coroot."""
    return tuple(
        sum((F(c) * cr[t] for c, cr in zip(coeffs, system.simple_coroots)), F(0))
        for t in range(system.rank_x)
    )


def all_words(n_gens, max_len):
    """Every generator word up to the given length."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (i,) for w in frontier for i in range(n_gens)]
        words.extend(frontier)
    return words


def group_elements(system, max_len=6):
    """All distinct elements among words of bounded length (full group if finite)."""
    seen = {}
    for w in all_words(system.n, max_len):
        el = system.normalize_word(w)
        seen.setdefault(el.word, el)
    return list(seen.values())


def brute_force_bruhat(system, elements):
    """Subword-definition Bruhat order oracle: table[(u.word, w.word)] = u <= w."""
    from itertools import combinations

    def subwords(word):
        out = set()
        for r in range(len(word) + 1):
            for idx in combinations(range(len(word)), r):
                out.add(tuple(word[k] for k in idx))
        return out

    table = {}
    for w in elements:
        reachable = {system.normalize_word(sub).word for sub in subwords(w.word)}
        for u in elements:
            table[(u.word, w.word)] = u.word in reachable
    return table
