"""Piecewise-linear paths with rational breakpoints and their combinatorics.

A path is stored in canonical form: the shape vector, the start point, one
minimal coset representative per linear piece and the strictly increasing
breakpoint sequence 0 = a_0 < ... < a_r = 1.  On piece j the derivative is
exactly tau_j(shape), so the parametrization is determined by the geometry
and two paths are equal iff their canonical data agree.

The recognition routines (is_hecke / is_ls) search for chains of positive
real roots joining the incoming direction of each breakpoint to the outgoing
one; candidate roots always come from the inversion set of the current coset
representative, which keeps the search finite and exhaustive.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from operator import mul

from .apartment import levels_crossed
from .errors import (
    CrossCheckMismatch,
    FormatError,
    NonLambdaPath,
    NotDominant,
    OperatorUndefined,
    OutOfRange,
)
from .linalg import Vec, _read_json, format_rational, format_vector, parse_rational, parse_vector
from .root_system import IDENTITY, RootGeneratingSystem, WeylElement, _along

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LambdaPath:
    system: RootGeneratingSystem = field(compare=False, repr=False, hash=False)
    shape: Vec = ()
    start: Vec = ()
    directions: tuple = ()  # tuple[WeylElement], minimal coset reps
    breakpoints: tuple = ()  # tuple[Fraction], length r + 1

    @property
    def r(self) -> int:
        return len(self.directions)

    @property
    def is_constant(self) -> bool:
        return not any(self._shape_point[0])

    # Computed once per path, on first use.  A cached_property writes the instance
    # dict, not the frozen __setattr__, and adds no field that __eq__ or __hash__ read.

    @cached_property
    def _shape_point(self):
        """The shape as the integer point (numerators, pairings, den) of _integer_point."""
        return self.system._integer_point(self.shape)

    @cached_property
    def shape_is_dominant(self) -> bool:
        return all(p >= 0 for p in self._shape_point[1])

    @cached_property
    def _direction_rows(self) -> tuple:
        """tau_k(shape) per piece as integer (numerators, pairings) at the shape's
        scale: the shape's integer point reflected along the rep's word."""
        num, pairs, _ = self._shape_point
        return tuple(self.system._act_integers(w.word, num, pairs) for w in self.directions)

    @cached_property
    def _vertex_rows(self):
        """(D, nums, pairs): pi(a_k) as integer rows over D (pairs over D / cden), summed piece
        by piece from the start and each tau_k(shape).  With the start over d, the shape over L
        and T the lcm of the breakpoints' denominators, D = lcm(d, T L), so each tick a_k D / L
        is an integer, and piece k adds the difference of its ticks times tau_k(shape)'s row."""
        num, pairs, d = self.system._integer_point(self.start)
        lden = self._shape_point[2]
        den = lcm(d, lden * lcm(*(t.denominator for t in self.breakpoints)))
        ticks = [t.numerator * (den // (lden * t.denominator)) for t in self.breakpoints]
        nums, rows = [[x * (den // d) for x in num]], [[x * (den // d) for x in pairs]]
        for (qn, qp), a0, a1 in zip(self._direction_rows, ticks, ticks[1:]):
            nums.append([x + (a1 - a0) * y for x, y in zip(nums[-1], qn)])
            rows.append([x + (a1 - a0) * y for x, y in zip(rows[-1], qp)])
        return den, nums, rows

    @property
    def _vertex_pairings(self):
        """(E, rows): alpha_j(pi(a_k)) E as the integers rows[k][j]."""
        den, _, rows = self._vertex_rows
        return den // self.system._cden, rows

    @cached_property
    def _analyses(self) -> dict:
        """The analysis record: results computed once per (what, h); see _analysed."""
        return {}

    def __getstate__(self):  # a copy starts without the record, whose paused walks do not pickle
        return {k: v for k, v in self.__dict__.items() if k != "_analyses"}

    def direction_vector(self, j: int) -> Vec:
        """tau_j(shape), built from its integer row on each call."""
        return tuple(Fraction(x, self._shape_point[2]) for x in self._direction_rows[j][0])

    def _pieces(self):
        """(coset rep, t0, t1, P0, P1) per piece, P the _vertex_pairings rows at its ends."""
        rows = self._vertex_pairings[1]
        return zip(self.directions, self.breakpoints, self.breakpoints[1:], rows, rows[1:])

    def point(self, j: int) -> Vec:
        """pi(a_j), built from its integer row on each call."""
        den, rows, _ = self._vertex_rows
        return tuple(Fraction(x, den) for x in rows[j])

    @property
    def endpoint(self) -> Vec:
        return self.point(-1)

    @property
    def nu(self) -> Vec:
        den, rows, _ = self._vertex_rows
        return tuple(Fraction(b - a, den) for a, b in zip(rows[0], rows[-1]))

    def _in_Y_at(self, k: int) -> bool:
        """Whether the shape and pi(a_k) lie in Y, read on their integer rows."""
        (den, rows, _), (num, _, lden) = self._vertex_rows, self._shape_point
        return all(x % lden == 0 for x in num) and all(x % den == 0 for x in rows[k])

    @property
    def in_Y(self) -> bool:
        return self._in_Y_at(0) and self._in_Y_at(-1)

    def __repr__(self):
        pts = " -> ".join(str(tuple(map(format_rational, self.point(k)))) for k in range(self.r + 1))
        return f"LambdaPath({pts})"


def _from_reps(system: RootGeneratingSystem, shape: Vec, start: Vec, pieces) -> LambdaPath:
    """The path of this shape from start whose pieces are (coset rep, end time), in
    order, with equal neighbouring reps merged into one piece."""
    if len(start) != system.rank_x:
        raise FormatError(f"start has {len(start)} coordinates, system has rank {system.rank_x}")
    reps, times = [], [ZERO]
    for w, t in pieces:
        if reps and reps[-1] == w:
            times[-1] = t
        else:
            reps.append(w)
            times.append(t)
    return LambdaPath(system, shape, start, tuple(reps), tuple(times))


def make_path(system: RootGeneratingSystem, shape, start, direction_words, breakpoints) -> LambdaPath:
    """Build a path from a shape, direction words and breakpoint times; each piece's
    coset rep comes from one integer unwind of w(shape), and the path keeps the
    shape's integer point and each merged piece's w(shape) as its integer rows."""
    shape = tuple(map(parse_rational, shape))
    num, pairs, den = point = system._integer_point(shape)
    anti = any(p < 0 for p in pairs)
    if anti and any(p > 0 for p in pairs):
        raise NotDominant("path shape must be dominant (or antidominant)")
    bps = list(map(parse_rational, breakpoints))
    if len(bps) != len(direction_words) + 1 or bps[0] != 0 or bps[-1] != 1:
        raise FormatError("breakpoints must run from 0 to 1 with one piece per direction")
    if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
        raise FormatError("breakpoints must be strictly increasing")
    pieces, rows = [], []
    for word, t in zip(direction_words, bps[1:]):
        w = word if isinstance(word, WeylElement) else system.normalize_word(word)
        row = system._act_integers(w.word, num, pairs)
        rep = system._unwound(*row, den, anti)[0]
        if not pieces or pieces[-1][0] != rep:  # w(shape) = rep(shape): the row of a merged piece
            rows.append(row)
        pieces.append((rep, t))
    path = _from_reps(system, shape, tuple(map(parse_rational, start)), pieces)
    vars(path).update(_shape_point=point, _direction_rows=tuple(rows))
    return path


def straight_path(system: RootGeneratingSystem, lam, start=None) -> LambdaPath:
    """The one-piece path from start (0 by default) along lam: its shape is the dominant
    conjugate of lam, from one integer unwind of lam, which also gives the piece's rep."""
    num, pairs, den = system._integer_point(lam)
    w, dom, _ = system._unwound(num, pairs, den)
    start = system.zero() if start is None else tuple(map(parse_rational, start))
    return _from_reps(system, tuple(Fraction(x, den) for x in dom), start, [(w, ONE)])


def _piece_before(path: LambdaPath, t) -> int:
    """The piece k with a_k < t <= a_(k+1), and 0 at t = 0."""
    return max(bisect_left(path.breakpoints, t) - 1, 0)


def eval_path(path: LambdaPath, t) -> Vec:
    t = parse_rational(t)
    if t < 0 or t > 1:
        raise OutOfRange(f"t = {t} outside [0, 1]")
    k = _piece_before(path, t)
    s = t - path.breakpoints[k]
    den, nums, rows = path._vertex_rows
    direction = (*path._direction_rows[k], path._shape_point[2])
    num, _, den = _along((nums[k], rows[k], den), (s.numerator, s.denominator), direction)
    return tuple(Fraction(x, den) for x in num)


def reverse_path(path: LambdaPath) -> LambdaPath:
    """The path run backwards: shape -lambda, the reps in reverse order, times 1 - t."""
    ends = [ONE - t for t in reversed(path.breakpoints[:-1])]
    return _from_reps(path.system, tuple(-x for x in path.shape), path.endpoint, zip(reversed(path.directions), ends))


def concat(p1: LambdaPath, p2: LambdaPath) -> LambdaPath:
    """Littelmann concatenation: p1, then p2 translated to p1's endpoint (p2.start is
    not read), renormalized to canonical form.

    Constant paths drop out.  p1 fixes the chamber: antidominant iff p1 is not
    constant and its shape is not dominant.  One integer unwind of each direction
    row of a path p gives the piece's rep and p's conjugate mu_p in that chamber;
    the shape is the sum of the mu_p, and p's times are scaled by c_p with
    mu_p = c_p shape.  Raises NonLambdaPath when some mu_p is no positive multiple
    of the shape (directions in different Weyl orbits, also when the mu_p sum to zero).
    """
    if p1.system is not p2.system:
        raise FormatError("paths live over different systems")
    system = p1.system
    anti = not p1.shape_is_dominant and not p1.is_constant
    parts = []  # (mu_p, piece reps, piece end times) per non-constant path p
    for p in (p1, p2):
        if not p.is_constant:
            den = p._shape_point[2]
            unwound = [system._unwound(num, pairs, den, anti) for num, pairs in p._direction_rows]
            parts.append((tuple(Fraction(x, den) for x in unwound[0][1]), [u[0] for u in unwound], p.breakpoints[1:]))
    shape = tuple(map(sum, zip(system.zero(), *(mu for mu, _, _ in parts))))
    if not parts:
        return _from_reps(system, shape, p1.start, [(IDENTITY, ONE)])
    k = next((i for i, x in enumerate(shape) if x != 0), None)
    pieces, offset = [], ZERO
    for mu, reps, ends in parts:
        c = ZERO if k is None else mu[k] / shape[k]
        if c <= 0 or any(c * a != b for a, b in zip(shape, mu)):
            raise NonLambdaPath("segment directions lie in different Weyl orbits")
        pieces += [(w, offset + c * t) for w, t in zip(reps, ends)]
        offset += c
    return _from_reps(system, shape, p1.start, pieces)


# -- chains ------------------------------------------------------------------


class _XiPoints(tuple):
    """(den, points): a walked chain's xi's as integer points (numerators, pairings) over den."""


class _Xis:
    """ChainCertificate.xis, a data descriptor: xi's given as _XiPoints stay readable
    in _xi_points and become Fraction vectors on first read (by ==, hash and repr too)."""

    def __get__(self, cert, owner=None):
        if cert is None:  # no class default, so the field stays a required argument
            raise AttributeError("xis")
        if "xis" not in vars(cert):
            den, points = cert._xi_points
            vars(cert)["xis"] = tuple(tuple(Fraction(x, den) for x in num) for num, _ in points)
        return vars(cert)["xis"]

    def __set__(self, cert, xis):
        vars(cert)["_xi_points" if type(xis) is _XiPoints else "xis"] = xis


@dataclass(frozen=True)
class ChainCertificate:
    """Witness for the breakpoint condition of a Hecke or LS path."""

    t: Fraction
    kind: str  # "hecke" or "ls"
    roots: tuple  # tuple[RealRoot]
    xis: tuple = _Xis()  # tuple[Vec], length s + 1
    cosets: tuple  # tuple[WeylElement] minimal reps, length s + 1

    @property
    def s(self) -> int:
        return len(self.roots)


def _chain_candidates(system, shape, den, pairs, rep, xi, kind, t, h):
    """Usable chain roots at coset rep, with the filter that failed when empty; xi = rep(shape)
    is an integer point at the scale of shape = (numerators, E), its pairings over E."""
    lam, xi_den = shape
    out = []
    blocked = set()
    for beta in system._inversions(rep.word, h):
        if beta.value(pairs) % den:
            # integrality at the point: condition vii.  For LS it stands for ii only
            # in an integral realization (by induction over earlier breakpoints),
            # so ii keeps its own test below
            blocked.add("vii" if kind == "hecke" else "ii")
            continue
        xi_new = system._reflect_by_root(beta, *xi)
        new_rep, dom, _ = system._unwound(*xi_new, xi_den * system._cden)
        if dom != lam:
            raise CrossCheckMismatch("vector is not in the Weyl orbit of the shape")
        if kind == "ls":
            if new_rep.length != rep.length - 1:
                blocked.add("iii")
                continue
            if t.numerator * beta.value(xi[1]) % (t.denominator * xi_den):  # beta(r_beta xi) = -beta(xi)
                blocked.add("ii")
                continue
        out.append((beta, xi_new, new_rep))
    return out, blocked


def _chain_walk(system, shape, xp, xi_from, start, kind, t, h, target=None, blocked=None):
    """Depth-first walk over the chains from xi_from, of coset rep start, at the
    point x = pi(t) whose integer pairings are xp = (E, pairings), in a fixed order;
    each xi is an integer point at the scale of the shape's, shape = (num, pairs, den),
    and each certificate is stamped with the Fraction t.

    With a target rep, yields every chain ending at it and cuts a branch once
    its coset is no longer than the target: coset lengths fall strictly along
    a chain, so no chain is lost.  Without one, yields one chain per reachable
    coset, the first found, and expands each coset once.  blocked, if given,
    collects the conditions that removed first-step roots.
    """
    lam = (tuple(shape[0]), shape[2] // system._cden)
    return _walk((system, lam, shape[2], xp, kind, t, h, target, blocked, set()), start, (), (xi_from,), (start,))


def _walk(ctx, rep, roots, xis, cosets):
    """The chains of _chain_walk that extend (roots, xis, cosets), which ends at rep;
    ctx holds the walk's fixed data and the set of cosets seen."""
    system, lam, den, xp, kind, t, h, target, blocked, seen = ctx
    if target is not None:
        if rep == target:
            yield ChainCertificate(t, kind, roots, _XiPoints((den, xis)), cosets)
        if rep.length <= target.length:
            return
    cands, why = _chain_candidates(system, lam, *xp, rep, xis[-1], kind, t, h)
    if blocked is not None and not roots:
        blocked.update(why)
    for beta, xi_new, new_rep in cands:
        if target is None and new_rep in seen:
            continue
        chain = roots + (beta,), xis + (xi_new,), cosets + (new_rep,)
        if target is None:
            seen.add(new_rep)
            yield ChainCertificate(t, kind, chain[0], _XiPoints((den, chain[1])), chain[2])
        yield from _walk(ctx, new_rep, *chain)


def _walk_vectors(system, shape, x, xi_from, kind, a_j, h, xi_to=None):
    """_chain_walk between vectors, each unwound once to its coset rep."""
    if kind not in ("hecke", "ls"):
        raise FormatError(f"unknown chain kind {kind!r}")
    if kind == "ls" and a_j is None:
        raise FormatError("an LS chain needs its breakpoint time a_j, and none was given")
    start = system.coset_of_vector(xi_from, shape).element
    target = None if xi_to is None else system.coset_of_vector(xi_to, shape).element
    lam = system._integer_point(shape)
    xi = system._act_integers(start.word, *lam[:2])
    t = ZERO if a_j is None else parse_rational(a_j)
    return _chain_walk(system, lam, system._pairings(x), xi, start, kind, t, h, target)


def all_chains(system, shape, x, xi_from, xi_to, h, kind="hecke", a_j=None):
    """All chains from xi_from to xi_to; used to pick maximal-length ones."""
    return list(_walk_vectors(system, shape, x, xi_from, kind, a_j, h, xi_to))


def find_chain(system, xi_from, xi_to, at_x, shape, kind="hecke", a_j=None, h=20):
    """One chain certificate from xi_from to xi_to at the point at_x, or None."""
    return next(_walk_vectors(system, shape, at_x, xi_from, kind, a_j, h, xi_to), None)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    certificates: tuple
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _breakpoint_chains(path: LambdaPath, kind: str, h: int):
    """The first chain at each interior breakpoint, and the open chain walks.

    Breakpoints are walked in order; at the first one without a chain the
    result fails with the certificates found so far and the condition that
    blocked every first step.  When every breakpoint has a chain, the second
    value holds each breakpoint's walk, paused after its first chain, so a
    caller that needs all chains drains the same walks; otherwise it is ().
    """
    if not path.shape_is_dominant:
        what = "Hecke" if kind == "hecke" else "LS"
        raise NotDominant(f"{what} recognition applies to dominant-shape paths")
    if kind == "ls" and not path._in_Y_at(0):
        return CheckResult(False, (), "path does not start in Y with integral shape"), ()
    certs, walks = [], []
    den, rows = path._vertex_pairings
    for j in range(1, path.r):
        t = path.breakpoints[j]
        blocked = set()
        walk = _chain_walk(
            path.system, path._shape_point, (den, rows[j]), path._direction_rows[j - 1], path.directions[j - 1],
            kind, t, h, path.directions[j], blocked,
        )
        cert = next(walk, None)
        if cert is None:
            cond = next((c for c in ("ii", "iii", "vii") if c in blocked), "vi")
            return CheckResult(False, tuple(certs), f"condition {cond} fails at t={format_rational(t)}"), ()
        certs.append(cert)
        walks.append(walk)
    return CheckResult(True, tuple(certs)), tuple(walks)


def _analysed(path: LambdaPath, key, compute, spoils=None):
    """compute(), kept in the path's analysis record under key.  When it raises,
    nothing is kept, and the entry it spoils (a half-drained walk) is dropped,
    so a repeated call computes again and raises the same."""
    record = path._analyses
    if key not in record:
        try:
            record[key] = compute()
        except BaseException:
            record.pop(spoils, None)
            raise
    return record[key]


def _hecke_walks(path: LambdaPath, h: int):
    return _analysed(path, ("hecke", h), lambda: _breakpoint_chains(path, "hecke", h))


def _hecke_chains(path: LambdaPath, h: int):
    """Every Hecke chain at each interior breakpoint of a Hecke path, the first
    one first, from the shared walks, drained once."""
    check, walks = _hecke_walks(path, h)
    return _analysed(
        path, ("chains", h), lambda: tuple([c, *rest] for c, rest in zip(check.certificates, walks)), ("hecke", h)
    )


def is_hecke(path: LambdaPath, h: int = 20) -> CheckResult:
    """Check the chain condition at every interior breakpoint."""
    return _hecke_walks(path, h)[0]


def is_ls(path: LambdaPath, h: int = 20) -> CheckResult:
    """LS recognition plus, for paths in Y, the dual-dimension cross-check."""
    if path.is_constant:
        return CheckResult(True, ())
    result = _breakpoint_chains(path, "ls", h)[0]
    if path.in_Y:
        ddim, hecke, (gap, scale) = _ls_cross_check(path, h)
        if (hecke and ddim * scale == gap) != result.ok:
            why = f"LS chain search says {result.ok}, Hecke+ddim characterization says {not result.ok}"
            raise CrossCheckMismatch(why)
    return result


def _ls_cross_check(path: LambdaPath, h: int):
    """is_ls's second route on a path in Y, LS iff Hecke with ddim = rho(lam - nu): (ddim, the Hecke verdict,
    (gap, scale)), computed in that order, rho(lam - nu) = gap / scale read off the integer rows.  ddim counts
    the roots of the ddim events, as stats does for a dominant shape, where a falling root is an inversion root."""
    ddim = sum(len(roots) for _, roots in _ddim_walls(path, h)[1])
    (rho, k), (lam, _, lden), (den, rows, _) = path.system._rho, path._shape_point, path._vertex_rows
    gap = sum(map(mul, rho, lam)) * den - sum(r * (b - a) for r, a, b in zip(rho, rows[0], rows[-1])) * lden
    return ddim, is_hecke(path, h).ok, (gap, k * lden * den)


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class PathStats:
    ddim: int
    codim: int
    dim: int | None
    pos: dict
    neg: dict
    pos_reverse: dict
    neg_reverse: dict


def stats(path: LambdaPath, h: int = 20) -> PathStats:
    """Dual dimension, codimension and per-root wall tallies.

    ddim counts walls the path reaches from strictly above (over t > 0),
    codim counts walls it leaves strictly downward (over t < 1); candidates
    come from the inversion sets of the piece directions, so both sums are
    finite even for infinite root systems.  dim, the walls met going up over
    every positive root, is only defined in finite type.  Kept per path and h.

    Lemma: let the shape lam be dominant, tau_k the rep of piece k and C the
    union of the inversion sets of the tau_k.  A positive root beta outside C
    never falls, and meets ceil(beta(pi(1))) - ceil(beta(pi(0))) walls going
    up, which is beta(nu) when every alpha_i(pi(0)) and alpha_i(pi(1)) is an
    integer.  Proof: beta is no inversion root of tau_k, so tau_k^-1 beta > 0,
    and beta(tau_k lam) = (tau_k^-1 beta)(lam) >= 0 on every piece; so beta
    never decreases, each piece meets ceil(u1) - ceil(u0) of its walls going
    up, and the counts telescope.  With c the coefficients of the sum of the
    positive roots over the simple roots, this gives
    dim = sum over C of the walls met going up + sum_i c_i alpha_i(nu)
    - sum over C of beta(nu).  stats counts dim so for a dominant shape with
    integral ends; on every other path of finite type it walks the whole
    positive-root closure.
    """
    return _analysed(path, ("stats", h), lambda: _tally(path, h))


def _tally(path: LambdaPath, h: int) -> PathStats:
    sys_ = path.system
    candidates = set()
    for w in path.directions:
        candidates.update(sys_._inversions(w.word, h))
    den, rows = path._vertex_pairings
    finite = sys_.classify_type() == "finite"
    roots, dim = candidates, None
    if finite and path.shape_is_dominant and not any(x % den for x in rows[0] + rows[-1]):
        # the lemma of stats: the roots outside the candidates add sum_i c_i alpha_i(nu) - sum_C beta(nu)
        nu = [b - a for a, b in zip(rows[0], rows[-1])]
        dim = (sum(map(mul, sys_._root_sum, nu)) - sum(beta.value(nu) for beta in candidates)) // den
        roots = sorted(candidates, key=lambda beta: (beta.height, beta.coeffs))  # the closure's order
    elif finite:
        # one walk over every positive root gives dim and, on the candidates
        # among them, the tallies; that closure needs no height bound
        roots, dim = sys_.real_roots_up_to_height(inf), 0
    pos, neg, pos_rev, neg_rev = {}, {}, {}, {}
    values = [(beta, [beta.value(p) for p in rows]) for beta in roots]
    for k in range(path.r):
        for beta, us in values:
            u0, u1 = us[k], us[k + 1]
            if u0 == u1:
                continue
            # walls met over t in [t0, t1) forwards and over (t0, t1] backwards
            ahead = len(levels_crossed(u0, u1, den))
            if finite and u1 > u0:
                dim += ahead
            if beta in candidates:
                forward, backward = (pos, neg_rev) if u1 > u0 else (neg, pos_rev)
                forward[beta] = forward.get(beta, 0) + ahead
                backward[beta] = backward.get(beta, 0) + len(levels_crossed(u1, u0, den))
    return PathStats(sum(pos_rev.values()), sum(neg.values()), dim, pos, neg, pos_rev, neg_rev)


def _falling_wall_events(sys_: RootGeneratingSystem, den, pieces, h: int):
    """Times where an inversion root of a piece direction falls through an
    integer level, as (L, events): events holds sorted (n, [roots]) for the
    times n / L, L the lcm of the denominators b q below.  pieces holds (coset rep,
    t0, t1, P0, P1) tuples, the times as integer pairs (a, b) for a / b, and P0
    and P1 the integer pairings of the piece's ends over den; a piece counts the
    walls its roots reach over (t0, t1].  With t0 = a / b, t1 - t0 = c / b and
    q = u0 - u1 > 0, beta meets m at (a q + c (u0 - m den)) / (b q)."""
    falls = []  # (a q + c u0, c den, b q, levels, beta) per falling root of a piece
    for w, (a0, b0), (a1, b1), p0, p1 in pieces:
        b = lcm(b0, b1)
        a = a0 * (b // b0)
        c = a1 * (b // b1) - a
        for beta in sys_._inversions(w.word, h):
            u0, u1 = beta.value(p0), beta.value(p1)
            if u1 < u0:
                levels = levels_crossed(u1, u0, den)
                if levels:
                    falls.append((a * (u0 - u1) + c * u0, c * den, b * (u0 - u1), levels, beta))
    big = lcm(*[d for _, _, d, _, _ in falls])
    events = {}
    for base, step, d, levels, beta in falls:
        f = big // d
        for m in levels:
            events.setdefault((base - step * m) * f, []).append(beta)
    return big, sorted(events.items())


def _ddim_walls(path: LambdaPath, h: int):
    """The falling-wall events at the ends of the pieces of the path, kept per path and h."""

    def events():
        den, rows = path._vertex_pairings
        times = [(t.numerator, t.denominator) for t in path.breakpoints]
        return _falling_wall_events(path.system, den, zip(path.directions, times, times[1:], rows, rows[1:]), h)

    return _analysed(path, ("ddim", h), events)


def ddim_events(path: LambdaPath, h: int = 20):
    """Times t > 0 where walls are reached from above: list of (t, [roots]).

    Groups the ddim count by time; the roots at time t are exactly the true walls counted
    by the relative length of the incoming direction there.  A fresh list on each call,
    from the integer events kept per path and h.
    """
    big, events = _ddim_walls(path, h)
    return [(Fraction(n, big), roots) for n, roots in events]


# -- root operators ------------------------------------------------------------


def _at_level(profile, m):
    """The t-intervals where alpha_i E equals the integer m, one per piece that meets it, in
    time order, from its (t0, t1, U0, U1) values at the ends of each piece.  Those of adjacent
    pieces may touch; merging them would not change the least lo, the greatest hi or a next lo."""
    out = []
    for t0, t1, u0, u1 in profile:
        if u0 == u1:
            if u0 == m:
                out.append((t0, t1))
        elif min(u0, u1) <= m <= max(u0, u1):
            t = t0 + Fraction(m - u0, u1 - u0) * (t1 - t0)
            out.append((t, t))
    return out


def _reflect_piece(path: LambdaPath, i: int, t_lo, t_hi) -> LambdaPath:
    """The path with s_i applied over [t_lo, t_hi].  A piece of rep w along
    which alpha_i moves takes the rep s_i w, minimal in its coset by Deodhar's
    lemma because s_i w(lambda) != w(lambda); a flat piece keeps w."""
    pieces = []
    for w, t0, t1, p0, p1 in path._pieces():
        cuts = sorted({t0, t1, *(t for t in (t_lo, t_hi) if t0 < t < t1)})
        for a, b in zip(cuts, cuts[1:]):
            moved = t_lo <= a and b <= t_hi and p0[i] != p1[i]
            pieces.append((path.system.normalize_word((i,) + w.word) if moved else w, b))
    return _from_reps(path.system, path.shape, path.start, pieces)


def root_operator(kind: str, i: int, path: LambdaPath) -> LambdaPath:
    """Apply e_i, f_i or the endpoint-preserving etilde_i to the path.

    The cut levels are the minimal integral value Q attained by alpha_i
    along the path: e reflects the first descent from Q+1 to Q, f reflects
    the first ascent to Q+1 after the last visit to Q, etilde reflects the
    whole excursion strictly below Q.  alpha_i is read at the vertices from
    the path's integer pairings, and the reflected pieces are built by left
    multiplication of their coset reps.  Raises OperatorUndefined with the
    blocking reason when the cut does not exist.
    """
    if kind not in ("e", "f", "etilde"):
        raise FormatError(f"unknown operator kind {kind!r}")
    path.system._index(i)
    if not path.shape_is_dominant:
        raise NotDominant("root operators apply to dominant-shape paths")
    den, rows = path._vertex_pairings
    us = [row[i] for row in rows]  # alpha_i E at the vertices
    prof = list(zip(path.breakpoints, path.breakpoints[1:], us, us[1:]))
    # alpha_i is continuous, so it attains every value between its extremes
    q_min = -(-min(us) // den)
    qe = q_min * den
    if qe > max(us):
        raise OperatorUndefined(kind, i + 1, "alpha_i never attains an integral value on the path")
    at_q = _at_level(prof, qe)
    if kind == "e":
        t1 = at_q[0][0]
        above = [min(hi, t1) for lo, hi in _at_level(prof, qe + den) if lo <= t1]
        if not above:
            raise OperatorUndefined(
                kind, i + 1, f"minimal integral value {q_min} is not reached from level {q_min + 1}"
                " (for a path from 0 this means the minimum is not <= -1)"
            )
        return _reflect_piece(path, i, max(above), t1)
    if kind == "f":
        p = at_q[-1][1]
        below = [max(lo, p) for lo, hi in _at_level(prof, qe + den) if hi >= p]
        if not below:
            raise OperatorUndefined(
                kind, i + 1, f"path does not rise to level {q_min + 1} after its last minimum"
            )
        return _reflect_piece(path, i, p, min(below))
    # etilde
    if us[0] < qe:
        raise OperatorUndefined(kind, i + 1, "path starts below its minimal integral level")
    # the first piece that dips below Q starts at or above it, so it meets Q
    q = next((t0 + Fraction(qe - u0, u1 - u0) * (t1 - t0) for t0, t1, u0, u1 in prof if u1 < qe), None)
    if q is None:
        raise OperatorUndefined(kind, i + 1, "q = 1: the path never goes strictly below level Q")
    theta = next((lo for lo, hi in at_q if lo > q), None)
    if theta is None:
        raise OperatorUndefined(kind, i + 1, "path never returns to level Q after dipping below")
    return _reflect_piece(path, i, q, theta)


def try_operator(kind: str, i: int, path: LambdaPath):
    """root_operator, with None instead of OperatorUndefined."""
    try:
        return root_operator(kind, i, path)
    except OperatorUndefined:
        return None


# -- serialization ---------------------------------------------------------------


def path_to_json_dict(path: LambdaPath) -> dict:
    return {
        "lambda": format_vector(path.shape),
        "start": format_vector(path.start),
        "directions": [[i + 1 for i in w.word] for w in path.directions],
        "breakpoints": [format_rational(b) for b in path.breakpoints],
    }


def path_from_json_dict(system: RootGeneratingSystem, data: dict) -> LambdaPath:
    if not isinstance(data, dict) or not isinstance(data.get("directions", []), list):
        raise FormatError("a path file holds a JSON object whose directions are a list of words")
    try:
        shape = parse_vector(data["lambda"])
        start = parse_vector(data["start"])
        words = [parse_vector(word) for word in data["directions"]]
        bps = parse_vector(data["breakpoints"])
    except KeyError as exc:
        raise FormatError(f"path file is missing field {exc}") from exc
    if any(i.denominator != 1 for word in words for i in word):
        raise FormatError("generator indices in directions must be integers")
    bad = next((i for word in words for i in word if not 1 <= i <= system.n), None)
    if bad is not None:
        raise FormatError(f"generator index {bad} out of range 1..{system.n}")
    words = [tuple(int(i) - 1 for i in word) for word in words]
    return make_path(system, shape, start, words, bps)


def load_path(system: RootGeneratingSystem, filename) -> LambdaPath:
    return path_from_json_dict(system, _read_json(filename, "path"))
