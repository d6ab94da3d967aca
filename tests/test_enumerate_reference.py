"""enumerate_hecke against a brute-force reference enumerator.

The reference shares none of the search logic of ``model.enumerate_hecke``
(no fold times from inversion roots, no chain walk, no reachability
prune).  It builds every piecewise-linear path that could be a Hecke path
and keeps those that ``is_hecke`` accepts and that end at y1:

- a breakpoint of a Hecke path is a point where its chain's first root
  takes an integer value (condition vii), so the candidate breakpoints are
  all times at which some positive root of height <= h is integral;
- coset lengths fall strictly along each chain, so the directions of a Hecke
  path have strictly falling coset lengths; candidates are all orbit vectors
  up to a coset-length bound (the whole orbit in finite type, 2 rho(lam - nu)
  in affine type, the codimension bound ``enumerate_hecke`` states).
"""

import time
from fractions import Fraction as F
from math import ceil, floor, inf

import pytest

from heckepaths import RootGeneratingSystem
from heckepaths.model import enumerate_hecke
from heckepaths.paths import is_hecke

from test_path_reference import from_segments
from test_system_reference import ref_coroot_coordinates

H = 20


def orbit_lengths(system, lam, bound):
    """Orbit vector of lam -> coset length, by breadth-first search over the
    simple reflections, up to the given length."""
    lengths = {lam: 0}
    layer = [lam]
    for depth in range(1, bound + 1):
        nxt = []
        for v in layer:
            for i in range(system.n):
                img = system.simple_reflection(i, v)
                if img not in lengths:
                    lengths[img] = depth
                    nxt.append(img)
        layer = nxt
    return lengths


def integral_times(roots, x, xi, t0):
    """Times t in (t0, 1) at which some root is integral on x + (t - t0) xi."""
    times = set()
    for cov in roots:
        u0 = sum(a * b for a, b in zip(cov, x))
        slope = sum(a * b for a, b in zip(cov, xi))
        if slope == 0:
            continue
        u1 = u0 + slope * (1 - t0)
        for m in range(ceil(min(u0, u1)), floor(max(u0, u1)) + 1):
            t = t0 + (m - u0) / slope
            if t0 < t < 1:
                times.add(t)
    return sorted(times)


def reference_hecke_paths(system, lam, y0, y1, h=H):
    lam, y0, y1 = (tuple(F(c) for c in v) for v in (lam, y0, y1))
    diff = ref_coroot_coordinates(system.simple_coroots, tuple(a - (q - p) for a, p, q in zip(lam, y0, y1)))
    if diff is None or any(c < 0 or c.denominator != 1 for c in diff):
        return set()
    if system.classify_type() == "finite":
        bound = len(system.real_roots_up_to_height(h))  # the longest element's length
    else:
        bound = 2 * int(sum(diff))
    lengths = orbit_lengths(system, lam, bound)
    roots = [
        tuple(sum(c * r[t] for c, r in zip(beta.coeffs, system.simple_roots)) for t in range(system.rank_x))
        for beta in system.real_roots_up_to_height(h)
    ]
    found = set()

    def extend(x, t, xi, segs):
        if tuple(a + (1 - t) * b for a, b in zip(x, xi)) == y1:
            path = from_segments(system, y0, segs + [(1 - t, xi)])
            if is_hecke(path, h).ok:
                found.add(path)
        for ta in integral_times(roots, x, xi, t):
            z = tuple(a + (ta - t) * b for a, b in zip(x, xi))
            for xi_new, n in lengths.items():
                if n < lengths[xi]:
                    extend(z, ta, xi_new, segs + [(ta - t, xi)])

    for xi in lengths:
        extend(y0, F(0), xi, [])
    return found


A1 = RootGeneratingSystem.from_gcm([[2]])
A2 = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
B2 = RootGeneratingSystem.from_gcm([[2, -2], [-1, 2]])
A1AFF = RootGeneratingSystem.from_gcm([[2, -2], [-2, 2]])
G2 = RootGeneratingSystem.from_gcm([[2, -1], [-3, 2]])
A3 = RootGeneratingSystem.from_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
A2TW = RootGeneratingSystem.from_gcm([[2, -1], [-4, 2]])  # twisted affine A2^(2)
HYP = RootGeneratingSystem.from_gcm([[2, -3], [-3, 2]])  # hyperbolic

# (id, system, shape, y0, y1, h); shapes in the coroot basis of from_gcm.  The
# affine and hyperbolic cases keep h low: the reference's candidate times and
# coset lengths grow with h.  In the hyperbolic cases most points the search
# tests are outside the Tits cone; the reach test answers no by its gap.
CASES = [
    ("A1-3-shifted", A1, (3,), (1,), (0,), H),
    ("A1-4-loop", A1, (4,), (0,), (0,), H),
    ("A2-11-loop", A2, (1, 1), (0, 0), (0, 0), H),
    ("A2-21-loop", A2, (2, 1), (0, 0), (0, 0), H),
    ("A2-21-10", A2, (2, 1), (0, 0), (1, 0), H),
    ("A2-12-m10", A2, (1, 2), (0, 0), (-1, 0), H),
    ("A2-22-loop", A2, (2, 2), (0, 0), (0, 0), H),
    ("A2-22-11", A2, (2, 2), (0, 0), (1, 1), H),
    ("B2-11-loop", B2, (1, 1), (0, 0), (0, 0), H),
    ("B2-12-01", B2, (1, 2), (0, 0), (0, 1), H),
    ("B2-22-loop", B2, (2, 2), (0, 0), (0, 0), H),
    ("B2-23-11", B2, (2, 3), (0, 0), (1, 1), H),
    ("A1aff-001-m101", A1AFF, (0, 0, 1), (0, 0, 0), (-1, 0, 1), 3),
    ("A1aff-002-m102", A1AFF, (0, 0, 2), (0, 0, 0), (-1, 0, 2), 3),
    ("A1aff-012-002", A1AFF, (0, 1, 2), (0, 0, 0), (0, 0, 2), 3),
    ("A1aff-012-shifted", A1AFF, (0, 1, 2), (1, -1, 0), (1, -1, 2), 3),
    ("A1aff-002-0m12", A1AFF, (0, 0, 2), (0, 0, 0), (0, -1, 2), 3),
    ("G2-21-loop", G2, (2, 1), (0, 0), (0, 0), H),
    ("G2-32-loop", G2, (3, 2), (0, 0), (0, 0), H),
    ("G2-32-10", G2, (3, 2), (0, 0), (1, 0), H),
    ("A3-111-loop", A3, (1, 1, 1), (0, 0, 0), (0, 0, 0), H),
    ("A3-121-loop", A3, (1, 2, 1), (0, 0, 0), (0, 0, 0), H),
    ("A3-111-010", A3, (1, 1, 1), (0, 0, 0), (0, 1, 0), H),
    ("A2tw-001-m101", A2TW, (0, 0, 1), (0, 0, 0), (-1, 0, 1), 6),
    ("A2tw-002-m102", A2TW, (0, 0, 2), (0, 0, 0), (-1, 0, 2), 6),
    ("A2tw-002-0m12", A2TW, (0, 0, 2), (0, 0, 0), (0, -1, 2), 8),
    ("hyp-m1m1-m2m1", HYP, (-1, -1), (0, 0), (-2, -1), 4),
    ("hyp-m1m1-m1m2", HYP, (-1, -1), (0, 0), (-1, -2), 4),
]


@pytest.mark.parametrize("system,lam,y0,y1,h", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_enumerate_hecke_equals_reference(system, lam, y0, y1, h):
    got = [w.path for w in enumerate_hecke(system, lam, y0, y1, h)]
    assert len(set(got)) == len(got)
    assert set(got) == reference_hecke_paths(system, lam, y0, y1, h)



def test_hyperbolic_reach_is_decided_by_the_gap():
    """On the hyperbolic [[2,-3],[-3,2]], lam = (-2,-2) from 0 to (-3,-2) at h = 4 has
    one witness.  Most points the search tests unwind forever: a reach test that
    capped their unwinds at 10,000 reflections and answered yes took 0.3-0.45 s
    here.  The gap of lam over each point decides it in a few reflections."""
    best = inf
    for _ in range(3):
        system = RootGeneratingSystem.from_gcm([[2, -3], [-3, 2]])  # cold caches
        start = time.perf_counter()
        found = enumerate_hecke(system, (-2, -2), (0, 0), (-3, -2), 4)
        best = min(best, time.perf_counter() - start)
        assert [(w.path.breakpoints, [d.word for d in w.path.directions]) for w in found] == [
            ((F(0), F(1, 2), F(1)), [(0,), ()])
        ]
        assert [c.kind for c in found[0].certificates] == ["hecke"]
    assert best < 0.01


# (id, system, shape, y0, y1, witnesses, fold-point chain walks)
WORK_CASES = [
    ("A2-22-11", A2, (2, 2), (0, 0), (1, 1), 3, 7),
    ("B2-23-11", B2, (2, 3), (0, 0), (1, 1), 5, 12),
    ("A1aff-002-m2m12", A1AFF, (0, 0, 2), (0, 0, 0), (-2, -1, 2), 3, 7),
]


@pytest.mark.parametrize(
    "system,lam,y0,y1,witnesses,calls", [c[1:] for c in WORK_CASES], ids=[c[0] for c in WORK_CASES]
)
def test_chain_targets_calls(monkeypatch, system, lam, y0, y1, witnesses, calls):
    """The chain targets of a fold point are walked only where y1 is in reach.

    Reach is tested once per fold point, before the chain walk there.  When
    it was tested at the entry of each child instead, after the walk had
    run, these queries made 13, 28 and 69 walks.
    """
    from heckepaths import model

    calls_made = []
    chain_walk = model._chain_walk

    def counting(*args, **kwargs):
        calls_made.append(1)
        return chain_walk(*args, **kwargs)

    monkeypatch.setattr(model, "_chain_walk", counting)
    assert len(enumerate_hecke(system, lam, y0, y1, H)) == witnesses
    assert len(calls_made) == calls


@pytest.mark.parametrize(
    "system,lam,y0,y1,witnesses,tests",
    [c[1:6] + (t,) for c, t in zip(WORK_CASES, (11, 19, 14))],
    ids=[c[0] for c in WORK_CASES],
)
def test_reach_tests(monkeypatch, system, lam, y0, y1, witnesses, tests):
    """Each piece's fold search stops at its first fold time out of reach: the
    fold times in reach form a prefix of the piece (enumerate_hecke).  When the
    search went on past such a time, these queries made 14, 29 and 70 reach
    tests, over the same chain walks."""
    made = []
    within_reach = RootGeneratingSystem._within_reach

    def counting(*args):
        made.append(1)
        return within_reach(*args)

    monkeypatch.setattr(RootGeneratingSystem, "_within_reach", counting)
    assert len(enumerate_hecke(system, lam, y0, y1, H)) == witnesses
    assert len(made) == tests


@pytest.mark.parametrize(
    "system,lam,y0,y1,witnesses", [c[1:6] for c in WORK_CASES], ids=[c[0] for c in WORK_CASES]
)
def test_enumeration_unwinds_no_vector(monkeypatch, system, lam, y0, y1, witnesses):
    """The search walks each fold point's chains from the coset rep and the
    integer direction it carries, so it never unwinds a Fraction vector."""
    calls = []
    method = RootGeneratingSystem.coset_of_vector

    def counting(*args, **kwargs):
        calls.append("coset_of_vector")
        return method(*args, **kwargs)

    monkeypatch.setattr(RootGeneratingSystem, "coset_of_vector", counting)
    assert len(enumerate_hecke(system, lam, y0, y1, H)) == witnesses
    assert calls == []


@pytest.mark.parametrize(
    "system,lam,y0,y1,witnesses", [c[1:6] for c in WORK_CASES[:2]], ids=[c[0] for c in WORK_CASES[:2]]
)
def test_enumerate_query_builds_no_root_closure(monkeypatch, tmp_path, capsys, system, lam, y0, y1, witnesses):
    """A finite-type hpl enumerate-hecke query reads each witness's LS cross-check off
    its ddim events, so it never tallies stats or closes the positive roots."""
    import json

    from heckepaths import paths
    from heckepaths.cli import main

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        RootGeneratingSystem, "real_roots_up_to_height", counting("roots", RootGeneratingSystem.real_roots_up_to_height)
    )
    monkeypatch.setattr(paths, "_tally", counting("tally", paths._tally))
    sys_file = tmp_path / "system.json"
    sys_file.write_text(json.dumps({"cartan_matrix": [list(row) for row in system.gcm.entries]}))
    argv = [f"--{k}={','.join(map(str, v))}" for k, v in (("lambda", lam), ("y0", y0), ("y1", y1))]
    assert main(["enumerate-hecke", "--system", str(sys_file), *argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == witnesses and any(p["ls"] for p in report["paths"])
    assert calls == []
