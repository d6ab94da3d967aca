"""The chain walk against its Fraction reference, and the shared breakpoint
pass against chain searches run from scratch.

The walk carries each direction xi as integer numerators and pairings at the
scale of the shape's integer point.  The reference below is the former
candidate routine on Fraction vectors: ``reflect_by_root``, the coset rep from
``coset_of_vector`` and LS condition ii from ``root_eval``.  Both must give the
same candidates and blocked conditions for both kinds on A2, B2, G2, A3,
A1^(1) and ``B2rational``.  ``root_covector``, ``root_eval``,
``reflect_by_root`` and ``chain_targets`` live here now that the library no
longer calls them.

A certificate keeps its xi's as the walk's integer points and builds ``xis``
on first read.  For the certificates of ``enumerate_hecke``, ``is_hecke`` and
``is_ls``, ``xis`` must be the Fraction vectors of the former walk, and ``==``,
``hash`` and ``repr`` those of a certificate built from them.

``is_hecke``, ``is_ls`` and ``decorate_with_max_chains`` take their chains
from one walk per breakpoint.  Here each breakpoint is searched again on its
own: the certificates must be those of ``find_chain``, and every decoration
must fold along the first longest chain that ``all_chains`` lists.  The
paths are the golden CLI paths and the A2 Hecke loops.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths import RootGeneratingSystem
from heckepaths.errors import FormatError, HPLError, NotHecke
from heckepaths.galleries import decorate_with_max_chains, fold_gallery, minimal_gallery
from heckepaths.model import enumerate_hecke
from heckepaths.paths import (
    ChainCertificate,
    LambdaPath,
    _chain_candidates,
    _walk_vectors,
    all_chains,
    find_chain,
    is_hecke,
    is_ls,
    path_from_json_dict,
)

from conftest import KERNEL_SYSTEMS, coroot_combination, frac_vec
from strategies import fractions_in
from test_system_reference import ref_act, ref_inversions, ref_pairing, solve_linear, vdot_cov

# -- the Fraction reference ------------------------------------------------------


def root_covector(system, root):
    """sum_j c_j alpha_j as a covector on Y."""
    pairs = list(zip(root.coeffs, system.simple_roots))
    return tuple(sum((c * alpha[t] for c, alpha in pairs), F(0)) for t in range(system.rank_x))


def root_eval(system, root, v):
    """beta(v) as a Fraction."""
    return vdot_cov(root_covector(system, root), v)


def reflect_by_root(system, root, v):
    """r_beta(v) = v - beta(v) beta^v on Fraction vectors."""
    c = root_eval(system, root, v)
    return tuple(F(x) - c * y for x, y in zip(v, coroot_combination(system, root.coroot_coeffs)))


def chain_targets(system, shape, x, xi_from, h, a_j=None):
    """Every direction reachable from xi_from by a Hecke chain at x, as a Fraction
    vector mapped to one witnessing certificate stamped with the time a_j: the
    chain walk entered from vectors, each unwound to its coset rep."""
    return {c.xis[-1]: c for c in _walk_vectors(system, shape, x, xi_from, "hecke", a_j, h)}


def ref_chain_candidates(system, shape, den, pairs, rep, xi, kind, a_j, h):
    """The former candidate routine, on the Fraction vector xi."""
    system._inversions(rep.word, h)
    out = []
    blocked = set()
    for beta in ref_inversions(system, rep.word)[0]:
        if beta.value(pairs) % den:
            blocked.add("vii" if kind == "hecke" else "ii")
            continue
        xi_new = reflect_by_root(system, beta, xi)
        new_rep = system.coset_of_vector(xi_new, shape).element
        if kind == "ls":
            if new_rep.length != rep.length - 1:
                blocked.add("iii")
                continue
            if (F(a_j) * root_eval(system, beta, xi)).denominator != 1:
                blocked.add("ii")
                continue
        out.append((beta, xi_new, new_rep))
    return out, blocked


CANDIDATE_SYSTEMS = {
    name: RootGeneratingSystem.from_json_dict(data)
    for name, data in {
        "A2": KERNEL_SYSTEMS["A2"],
        "B2": KERNEL_SYSTEMS["B2"],
        "G2": {"cartan_matrix": [[2, -1], [-3, 2]]},
        "A3": {"cartan_matrix": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]},
        "A1aff": KERNEL_SYSTEMS["A1aff"],
        "B2rational": KERNEL_SYSTEMS["B2rational"],
    }.items()
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HPLError as exc:
        return type(exc), str(exc)


@given(
    name=st.sampled_from(sorted(CANDIDATE_SYSTEMS)),
    shape_pairs=st.lists(fractions_in(0, 3, max_denominator=3), min_size=3, max_size=3),
    point_pairs=st.lists(fractions_in(-4, 4, max_denominator=2), min_size=3, max_size=3),
    extra=fractions_in(-2, 2, max_denominator=5),
    word=st.lists(st.integers(0, 2), max_size=6),
    a_j=fractions_in(0, 1, max_denominator=6),
    kind=st.sampled_from(["hecke", "ls"]),
)
@settings(max_examples=300, deadline=None)
def test_candidates_match_fraction_reference(name, shape_pairs, point_pairs, extra, word, a_j, kind):
    system = CANDIDATE_SYSTEMS[name]
    shape = solve_linear(system.simple_roots, shape_pairs[: system.n])
    x = solve_linear(system.simple_roots, point_pairs[: system.n])
    x = x[:-1] + (x[-1] + extra,)  # off the span of the pairings in A1^(1)
    w = system.normalize_word([i % system.n for i in word])
    rep = system.coset_of_vector(ref_act(system, w.word, shape), shape).element
    xi = ref_act(system, rep.word, shape)
    den, pairs = system._pairings(x)
    expect = _outcome(ref_chain_candidates, system, shape, den, pairs, rep, xi, kind, a_j, 20)
    num, lam_pairs, lam_den = system._integer_point(shape)
    lam = (tuple(num), lam_den // system._cden)
    xi_int = system._act_integers(rep.word, num, lam_pairs)
    got = _outcome(_chain_candidates, system, lam, den, pairs, rep, xi_int, kind, a_j, 20)
    if isinstance(expect, tuple) and isinstance(expect[0], type):
        assert got == expect
        return
    cands, blocked = got
    assert blocked == expect[1]
    assert [(beta, tuple(F(v, lam_den) for v in n), r) for beta, (n, _), r in cands] == expect[0]
    for _, (n, p), _ in cands:  # the pairings travel with the numerators
        v = tuple(F(c, lam_den) for c in n)
        assert [F(c, lam[1]) for c in p] == [ref_pairing(system, j, v) for j in range(system.n)]


def test_ls_chain_without_breakpoint_time_is_a_format_error(a2):
    lam = frac_vec(1, 1)
    longest = ref_act(a2, (0, 1, 0), lam)
    with pytest.raises(FormatError, match="breakpoint time a_j"):
        find_chain(a2, longest, lam, a2.zero(), lam, kind="ls")
    with pytest.raises(FormatError, match="breakpoint time a_j"):
        all_chains(a2, lam, a2.zero(), longest, lam, 20, kind="ls")
    # the Hecke kind keeps a_j = None, stamped as t = 0
    cert = find_chain(a2, longest, lam, a2.zero(), lam)
    assert cert is not None and cert.t == 0
    assert find_chain(a2, ref_act(a2, (0,), lam), lam, a2.zero(), lam, kind="ls", a_j=F(1)) is not None

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
    if any(x.denominator != 1 for x in path.start + path.shape):
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


def _fresh(path):
    """The same path with an empty analysis record, so its certificates are new."""
    return LambdaPath(path.system, path.shape, path.start, path.directions, path.breakpoints)


def _enumerated_certificates():
    out = []
    queries = {"A2": ((2, 2), (1, 1)), "B2": ((2, 3), (1, 1)), "G2": ((2, 1), (0, 0)), "A1aff": ((0, 0, 2), (-2, -1, 2))}
    for name, (lam, y1) in queries.items():
        system = CANDIDATE_SYSTEMS[name]
        for k, w in enumerate(enumerate_hecke(system, lam, system.zero(), y1)):
            out += [pytest.param(system, lam, c, id=f"{name}-{k}-{j}") for j, c in enumerate(w.certificates)]
    return out


def _check_certificate(system, shape, cert):
    """xis against the Fraction vectors of the former walk: xi_0 = tau_0(shape) and
    xi_k = r_(beta_k)(xi_(k-1)), each tau_k(shape); ==, hash and repr as for the
    certificate built from those vectors.  Hashing comes first, before xis is read."""
    xis = [ref_act(system, cert.cosets[0].word, shape)]
    for beta, rep in zip(cert.roots, cert.cosets[1:]):
        xis.append(reflect_by_root(system, beta, xis[-1]))
        assert xis[-1] == ref_act(system, rep.word, shape)
    ref = ChainCertificate(cert.t, cert.kind, cert.roots, tuple(xis), cert.cosets)
    assert "xis" not in vars(cert)  # built on first read, not by the walk
    assert hash(cert) == hash(ref) and cert == ref and repr(cert) == repr(ref)
    assert cert.xis == tuple(xis) and all(type(x) is F for xi in cert.xis for x in xi)


@pytest.mark.parametrize("system, shape, cert", _enumerated_certificates())
def test_enumerated_certificate_xis_equal_the_fraction_walk(system, shape, cert):
    _check_certificate(system, tuple(map(F, shape)), cert)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("check", [is_hecke, is_ls])
def test_recognized_certificate_xis_equal_the_fraction_walk(path, check):
    if not path.shape_is_dominant:
        return
    for cert in check(_fresh(path)).certificates:
        _check_certificate(path.system, path.shape, cert)
