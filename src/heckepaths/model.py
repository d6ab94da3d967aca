"""Crystal generation, weight multiplicities and exhaustive Hecke enumeration.

Two independent routes to the same numbers: counting LS paths generated by
the lowering operators, and the Freudenthal recursion run on the dual side
(the paths live in the cocharacter lattice, so the relevant highest-weight
modules are those of the Langlands dual algebra).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import CapHit, CrossCheckMismatch, FormatError, NotDominant, UnsupportedType
from .linalg import Vec, format_vector, parse_rational
from .paths import (
    LambdaPath,
    _chain_walk,
    _falling_wall_events,
    path_to_json_dict,
    straight_path,
    try_operator,
)
from .root_system import IDENTITY, RootGeneratingSystem, _along, _coroot_gap, dominance_difference

ZERO = Fraction(0)
ONE = Fraction(1)


# -- crystal generation ---------------------------------------------------------


@dataclass(frozen=True)
class CrystalGraph:
    system: RootGeneratingSystem = field(compare=False, repr=False, hash=False)
    shape: Vec = ()
    nodes: tuple = ()  # tuple[LambdaPath], generation order
    edges: tuple = ()  # tuple[(src_index, i, dst_index)]
    depth_cap: int = 0
    partial: bool = False
    completed_depth: int | None = None  # deepest fully generated layer

    def endpoint_counts(self) -> dict:
        out = {}
        for node in self.nodes:
            out[node.endpoint] = out.get(node.endpoint, 0) + 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "shape": format_vector(self.shape),
            "partial": self.partial,
            "completed_depth": self.completed_depth,
            "nodes": [
                {"id": k, "path": path_to_json_dict(p), "endpoint": format_vector(p.endpoint)}
                for k, p in enumerate(self.nodes)
            ],
            "edges": [{"source": a, "op": f"f{i + 1}", "target": b} for a, i, b in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for k, p in enumerate(self.nodes):
            label = ",".join(format_vector(p.endpoint))
            lines.append(f'  n{k} [label="{label}"];')
        for a, i, b in self.edges:
            lines.append(f'  n{a} -> n{b} [label="f{i + 1}"];')
        lines.append("}")
        return "\n".join(lines)


def _crystal_shape(system: RootGeneratingSystem, lam) -> Vec:
    """lam as an exact vector, refused unless it is dominant and in Y."""
    lam = tuple(map(parse_rational, lam))
    _, pairs, den = system._integer_point(lam)
    if any(p < 0 for p in pairs):
        raise NotDominant("crystal generation needs a dominant shape")
    if den != system._rden * system._cden:
        raise NotDominant("crystal generation needs a shape in Y")
    return lam


def generate_ls_paths(system: RootGeneratingSystem, lam, depth_cap: int = 200) -> CrystalGraph:
    """Close {straight path} under the lowering operators f_i, layer by layer.

    The cap counts successful f-applications; when it trips the graph is
    returned flagged partial, with completed_depth naming the last layer that
    is provably complete.
    """
    lam = _crystal_shape(system, lam)
    top = straight_path(system, lam)
    nodes = [top]
    index = {top: 0}
    edges = []
    layer = [(top, 0)]  # each node with its index, so that a path is hashed once per f-application
    depth = 0
    applications = 0
    partial = False
    while layer:
        if applications >= depth_cap:
            partial = True
            break
        nxt = []
        for node, k in layer:
            for i in range(system.n):
                child = try_operator("f", i, node)
                if child is None:
                    continue
                applications += 1
                c = index.setdefault(child, len(nodes))
                if c == len(nodes):
                    nodes.append(child)
                    nxt.append((child, c))
                edges.append((k, i, c))
        depth += 1
        layer = nxt
    completed = depth - 1 if partial else depth
    return CrystalGraph(
        system, lam, tuple(nodes), tuple(edges), depth_cap, partial, completed
    )


def multiplicity(system: RootGeneratingSystem, lam, mu, depth_cap: int = 200, graph=None) -> int:
    """Number of LS paths of the given shape from 0 to mu."""
    lam = _crystal_shape(system, lam)
    mu = tuple(map(parse_rational, mu))
    diff = dominance_difference(system, lam, mu)
    if diff is None:
        return 0
    if graph is None:
        graph = generate_ls_paths(system, lam, depth_cap)
    depth_needed = sum(diff)
    if graph.partial and depth_needed > graph.completed_depth:
        raise CapHit(
            f"weight at depth {depth_needed} lies beyond the completed depth {graph.completed_depth}"
        )
    return sum(1 for node in graph.nodes if node.endpoint == mu)


# -- Freudenthal oracle -----------------------------------------------------------


class _DualData:
    """Root data of the Langlands dual, expressed inside Y.

    Positive roots of the dual are our coroots: the roots of the system built
    on the transposed Cartan matrix, carried as integer coefficient tuples
    over the simple coroots.  They pair with points of Y through the
    symmetrized form normalized by the dual symmetrizer.
    """

    def __init__(self, system: RootGeneratingSystem):
        self.system = system
        kind = system.classify_type()
        if kind == "indefinite":
            raise UnsupportedType("Freudenthal oracle supports finite and untwisted affine type only")
        self.dual = system._dual
        self.dsym = self.dual._symmetrizer
        # the null root of the dual spans the left kernel of A
        self.delta = self.dual.null_root_coeffs() if kind == "affine" else None

    def roots_up_to_height(self, h):
        """(coefficients, multiplicity) of the positive real dual roots of
        height <= h, then in affine type of n*delta for 1 <= n <= h."""
        out = [(beta.coeffs, 1) for beta in self.dual.real_roots_up_to_height(h)]
        if self.delta is not None:
            out += [(tuple(k * c for c in self.delta), self.system.n - 1) for k in range(1, h + 1)]
        return out

    def pair(self, coeffs, v) -> Fraction:
        """(dual root with these coefficients, v), for v an integer point of _integer_point,
        read off its integer pairings."""
        _, pairs, den = v
        total = sum(c * d * p for c, d, p in zip(coeffs, self.dsym, pairs))
        return Fraction(total, den // self.system._cden)


def freudenthal_multiplicity(system: RootGeneratingSystem, lam, mu, cache=None) -> int:
    """Weight multiplicity of mu in the dual highest-weight module V(lam).

    Standard Freudenthal recursion over dominant weights; in untwisted affine
    type the imaginary roots n*delta enter with multiplicity = rank of the
    underlying finite-type subsystem.  A dict may be passed as cache to share
    the recursion between calls with the same lam.  It runs on integer points.
    Refused with UnsupportedType on non-integral simple roots or coroots, whose W need not keep Y.
    """
    if system._rden != 1 or system._cden != 1:
        raise UnsupportedType("Freudenthal oracle needs integral simple roots and coroots")
    lamp = system._integer_point(lam)
    if any(p < 0 for p in lamp[1]) or lamp[2] != system._rden * system._cden:
        raise NotDominant("Freudenthal needs a dominant highest weight in Y")
    ctx = (system, _DualData(system), lamp, {} if cache is None else cache)
    mup = system._integer_point(mu)
    return _weight_mult(ctx, mup, _coroot_gap(system, lamp, mup))


def _weight_mult(ctx, nu, gap) -> int:
    """The multiplicity of the integer point nu in freudenthal_multiplicity's V(lam), over
    ctx = (system, the dual's root data, lam's integer point, the cache), with gap the
    coroot coefficients of lam - nu, None when nu is not in lam - Q^v_+."""
    system, lamp = ctx[0], ctx[2]
    num, pairs, den = nu
    # off lam - Q^v_+, off Y, or outside the Tits cone by the level rule (at once): not a weight of V(lam)
    if gap is None or any(x % den for x in num) or system._outside_by_level(pairs):
        return 0
    num, pairs, gap = list(num), list(pairs), list(gap)  # with rden 1, gap steps by 1
    if not system._unwind_below(num, pairs, gap, 1):
        return 0
    return _dominant_mult(ctx, (num, pairs, lamp[2]), gap)


def _dominant_mult(ctx, nu, diff) -> int:
    """_weight_mult at a dominant integer point nu at lam's scale, with diff the coroot
    coefficients of lam - nu: the Freudenthal recursion, kept in the cache under nu's numerators."""
    system, dual, lamp, cache = ctx
    key = tuple(nu[0])
    if nu[0] == lamp[0]:
        return 1
    if key in cache:
        return cache[key]
    total = ZERO
    for coeffs, root_mult in dual.roots_up_to_height(sum(diff)):
        step = [0] * system.rank_x, [0] * system.n, lamp[2]  # sum_i c_i alpha_i^v at lam's scale, which is 1
        for i, c in enumerate(coeffs):
            if c:
                system._subtract_coroot(step[0], step[1], i, -c)
        # nu + k step has gap diff - k coeffs, so it stays in lam - Q^v_+ while that is >= 0
        for k in range(1, 1 + min(d // c for d, c in zip(diff, coeffs) if c)):
            upper = _along(nu, (k, 1), step)
            m = _weight_mult(ctx, upper, [d - k * c for d, c in zip(diff, coeffs)])
            if m:
                total += root_mult * m * dual.pair(coeffs, upper)
    denom = dual.pair(diff, _along(lamp, (1, 1), nu)) + 2 * sum(c * d for c, d in zip(diff, dual.dsym))
    if denom <= 0:
        weight = format_vector([Fraction(x, lamp[2]) for x in key])
        raise CrossCheckMismatch(f"Freudenthal denominator {denom} at ({','.join(weight)}) is not positive")
    value = 2 * total / denom
    if value.denominator != 1 or value < 0:
        weight = format_vector([Fraction(x, lamp[2]) for x in key])
        raise CrossCheckMismatch(f"Freudenthal multiplicity {value} at ({','.join(weight)}) is not a natural number")
    cache[key] = int(value)
    return cache[key]


# -- exhaustive Hecke enumeration ---------------------------------------------------


@dataclass(frozen=True)
class HeckePathWitness:
    path: LambdaPath
    certificates: tuple  # one ChainCertificate per interior breakpoint


def _cosets_up_to_length(system: RootGeneratingSystem, lam, max_len: int):
    """Map the numerators of each orbit vector v of the dominant lam, an integer point,
    whose minimal coset representative has length <= max_len to (v's pairings, that
    representative).  When alpha_i(v) > 0 for v = w(lam), w minimal, the rep of s_i v
    is s_i w: w^-1 alpha_i > 0 as lam is dominant."""
    out = {tuple(lam[0]): (lam[1], IDENTITY)}
    layer = list(out)
    for _ in range(max_len):
        nxt = []
        for v in layer:
            p, w = out[v]
            for i in range(system.n):
                if p[i] > 0:
                    img, img_p = list(v), list(p)
                    system._subtract_coroot(img, img_p, i, p[i])
                    if tuple(img) not in out:
                        nxt.append(tuple(img))
                        out[nxt[-1]] = (img_p, system.normalize_word((i,) + w.word))
        layer = nxt
    return out


def enumerate_hecke(system: RootGeneratingSystem, lam, y0, y1, h: int = 20):
    """The complete finite list of Hecke paths of shape lam from y0 to y1.

    Depth-first search over (current point, current direction): fold times
    are the parameters where some inversion root of the current direction
    meets an integer level, and new directions are the cosets reachable by a
    chain there.  The first direction's length is capped by 2 rho(lam - nu),
    which bounds the codimension of any qualifying path.

    Reach of y1 is tested once per fold point (x, t), before the chain walk
    there, and once at (y0, 0): every completion moves by (1 - t) times a
    point of conv(W lam), so y1 - x lies in the Tits cone, which is convex
    and holds W lam; and since lam - w lam lies in Q^v_+ for every w (Kac,
    Infinite-dimensional Lie algebras, Prop. 3.12), (1 - t) lam minus the
    dominant conjugate of y1 - x lies in the real cone spanned by the simple
    coroots.  The search carries x and xi as integer points, xi at the shape's
    scale with its coset rep, and t as a reduced integer pair, and reads this
    test scale-free on them, exactly in every type (_within_reach).

    Along a piece, the fold times in reach form a prefix of its sorted fold
    times, so the search stops at the first one out of reach.  Let K_lam be
    the points u of the Tits cone with lam - dom(u) in the real cone C of the
    simple coroots.  For such u, lam - dom(u) in C iff lam - w u in C for
    every w (by Prop. 3.12 again), so K_lam is an intersection of convex sets
    and holds xi.  On the piece x(t) = x + (t - t0) xi put
    f(t) = (y1 - x(t)) / (1 - t); for t1 <= t2 < 1,
    f(t1) = ((1 - t2) f(t2) + (t2 - t1) xi) / (1 - t1), a convex combination,
    so f(t2) in K_lam gives f(t1) in K_lam, and no witness is lost.
    """
    lam, y0, y1 = (tuple(map(parse_rational, v)) for v in (lam, y0, y1))
    lamp, y0p, y1p = map(system._integer_point, (lam, y0, y1))
    if any(p < 0 for p in lamp[1]):
        raise NotDominant("enumerate_hecke needs a dominant shape")
    scale = system._rden * system._cden
    if any(v[2] != scale for v in (lamp, y0p, y1p)):
        raise FormatError("enumerate_hecke endpoints and shape must lie in Y")
    if not any(lamp[0]):
        return [HeckePathWitness(straight_path(system, lam, y0), ())] if y0 == y1 else []
    nup = _along(y1p, (-1, 1), y0p)
    gap = _coroot_gap(system, lamp, nup)  # lam - nu over the coroots
    if gap is None:
        return []
    if not system._within_reach(lamp, nup, (1, 1)):
        return []
    found = []
    ctx = (system, lam, lamp, y0, y1p, h, found)
    for num, (pairs, rep) in sorted(_cosets_up_to_length(system, lamp, 2 * sum(gap)).items()):
        _descend(ctx, (y0p,), ((list(num), pairs),), (rep,), (ZERO,), (), (0, 1))
    ordered = sorted(found, key=lambda pc: (pc[0].breakpoints, tuple(w.word for w in pc[0].directions)))
    return [HeckePathWitness(p, c) for p, c in ordered]


def _descend(ctx, pts, xis, reps, times, certs, t):
    """The search of enumerate_hecke from its last piece, over ctx = (system, lam, lam's
    integer point, y0, y1's integer point, h, the list of paths found with their chains).
    Per piece so far: its start point, integer direction xi at the shape's scale, coset
    rep and start time, in times; t = (n, d), the last start time as a reduced pair;
    certs: the chains between them.  A path found takes the rows summed here.

    No path is found twice, as each branch ends in its own sequence of reps and fold times:
    the start reps are distinct, so are the fold times of one piece, and one chain walk
    yields one chain per end coset, each strictly shorter than its start rep, so no two
    neighbouring reps merge."""
    system, lam, lamp, y0, y1p, h, found = ctx
    x, xi, (n, d) = pts[-1], (*xis[-1], lamp[2]), t
    end = _along(x, (d - n, d), xi)
    if not any(_along(y1p, (-1, 1), end)[0]):
        path = LambdaPath(system, lam, y0, reps, times + (ONE,))
        den = end[2]  # the D of _vertex_rows: the rows are the points summed here, rescaled
        rows = ([[a * (den // v[2]) for a in v[i]] for v in (*pts, end)] for i in (0, 1))
        vars(path).update(_shape_point=lamp, _direction_rows=xis, _vertex_rows=(den, *rows))
        found.append((path, certs))
    piece = (reps[-1], t, (1, 1), [end[2] // x[2] * a for a in x[1]], end[1])
    big, events = _falling_wall_events(system, end[2] // system._cden, [piece], h)
    for e, _ in events:
        if e == big:  # walls reached at t = 1, the last group; only those inside (t, 1) count
            break
        g = gcd(e, big)
        ta = na, da = e // g, big // g
        p, q = na * d - n * da, da * d  # ta - t
        g = gcd(p, q)
        z = _along(x, (p // g, q // g), xi)
        if not system._within_reach(lamp, _along(y1p, (-1, 1), z), (da - na, da)):
            break  # nor is any later fold time of the piece: see enumerate_hecke
        at = Fraction(na, da)
        walk = _chain_walk(system, lamp, (z[2] // system._cden, z[1]), xis[-1], reps[-1], "hecke", at, h)
        # each reached xi has lamp's denominator, so its numerators order it as a vector
        for c in sorted(walk, key=lambda c: c._xi_points[1][-1][0]):
            _descend(ctx, pts + (z,), xis + c._xi_points[1][-1:], reps + c.cosets[-1:], times + (at,), certs + (c,), ta)
