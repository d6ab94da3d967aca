"""The shared breakpoint pass against chain searches run from scratch.

``is_hecke``, ``is_ls`` and ``decorate_with_max_chains`` take their chains
from one walk per breakpoint.  Here each breakpoint is searched again on its
own: the certificates must be those of ``find_chain``, and every decoration
must fold along the first longest chain that ``all_chains`` lists.  The
paths are the golden CLI paths and the A2 Hecke loops.
"""

import json
from pathlib import Path

import pytest

from heckepaths import RootGeneratingSystem
from heckepaths.errors import NotHecke
from heckepaths.galleries import decorate_with_max_chains, fold_gallery, minimal_gallery
from heckepaths.linalg import is_integral_vec
from heckepaths.model import enumerate_hecke
from heckepaths.paths import all_chains, find_chain, is_hecke, is_ls, path_from_json_dict

from conftest import frac_vec

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _golden_paths():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    systems = {name: RootGeneratingSystem.from_json_dict(d) for name, d in data["systems"].items()}
    return [
        pytest.param(path_from_json_dict(systems[c["system"]], c["path"]), id=c["name"])
        for c in data["cases"]
    ]


def _a2_loops():
    a2 = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
    out = []
    for lam in (frac_vec(1, 1), frac_vec(2, 1), frac_vec(2, 2)):
        for k, w in enumerate(enumerate_hecke(a2, lam, a2.zero(), a2.zero())):
            out.append(pytest.param(w.path, id=f"A2-{lam[0]}{lam[1]}-loop{k}"))
    return out


def _breakpoint(path, j):
    """(t, point, incoming direction, outgoing direction) at breakpoint j."""
    return path.breakpoints[j], path.point(j), path.direction_vector(j - 1), path.direction_vector(j)


def _expected_certificates(path, kind):
    """find_chain at each breakpoint up to and including the first without a chain."""
    out = []
    for j in range(1, path.r):
        t, z, xi_from, xi_to = _breakpoint(path, j)
        cert = find_chain(path.system, xi_from, xi_to, z, path.shape, kind=kind, a_j=t)
        out.append(cert)
        if cert is None:
            break
    return out


PATHS = _golden_paths() + _a2_loops()


@pytest.mark.parametrize("path", PATHS)
def test_certificates_equal_find_chain(path):
    expected = _expected_certificates(path, "hecke")
    res = is_hecke(path)
    assert res.ok == (None not in expected)
    assert list(res.certificates) == [c for c in expected if c is not None]
    res = is_ls(path)
    if not (is_integral_vec(path.start) and is_integral_vec(path.shape)):
        assert res.certificates == ()  # refused before any chain search
        return
    expected = _expected_certificates(path, "ls")
    assert res.ok == (None not in expected)
    assert list(res.certificates) == [c for c in expected if c is not None]


@pytest.mark.parametrize("path", PATHS)
def test_decoration_folds_along_first_longest_chain(path):
    if not is_hecke(path).ok:
        with pytest.raises(NotHecke):
            decorate_with_max_chains(path)
        return
    expected = []
    for j in range(1, path.r):
        t, z, xi_from, xi_to = _breakpoint(path, j)
        chains = all_chains(path.system, path.shape, z, xi_from, xi_to, 20)
        longest = max(len(c.roots) for c in chains)
        chain = next(c for c in chains if len(c.roots) == longest)
        gallery = fold_gallery(minimal_gallery(path.system, z, path.directions[j - 1]), chain.roots)
        expected.append((t, gallery))
    assert list(decorate_with_max_chains(path).galleries) == expected
