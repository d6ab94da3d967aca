"""Symmetrizable Kac-Moody root data: roots, Weyl group, Bruhat order, Tits cone.

All coordinates are exact rationals.  Points of the model space V = Y (x) Q are
tuples of Fraction in a fixed basis of the cocharacter lattice Y.  Real roots
are tracked formally as integer coefficient vectors over the simple roots
(together with the matching coroot coefficients), so root enumeration works
even when the evaluation covectors are degenerate.

The Weyl action runs on integers: each system keeps its simple roots and
coroots scaled to integers (its invariants are computed from those rows), a
point is carried as integer numerators over one denominator together with its
integer pairings, and a Fraction is built once per output coordinate, at the
API boundary.

Weyl group elements are stored as their ShortLex normal form, computed by
greedy left-descent extraction, each descent read off the sign of an integer
root height; equal group elements therefore always carry identical words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, inf, lcm
from operator import mul

from .errors import (
    CrossCheckMismatch,
    FormatError,
    HeightBoundTooSmall,
    NotGCM,
    NotSymmetrizable,
)
from .linalg import (
    Vec,
    _eliminate,
    format_vector,
    mat_rank,
    parse_vector,
)

_UNWIND_GUARD = 1_000_000
_TITS_STEP_CAP = 10_000


@dataclass(frozen=True)
class KacMoodyMatrix:
    """A generalized Cartan matrix with its index set 0..n-1."""

    entries: tuple

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def validate_gcm(entries) -> KacMoodyMatrix:
    """Check the three Kac-Moody matrix axioms.

    >>> validate_gcm([[2, -1], [-1, 2]]).n
    2
    """
    if not isinstance(entries, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in entries):
        raise FormatError(f"Cartan matrix must be a list of integer rows, got {entries!r}")
    rows = [tuple(row) for row in entries]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise FormatError("Cartan matrix must be square")
        for j, a in enumerate(row):
            if not isinstance(a, int) or isinstance(a, bool):
                raise FormatError(f"Cartan matrix entries must be integers, got {a!r}")
            if i == j and a != 2:
                raise NotGCM(i, j, "(i)")
            if i != j and a > 0:
                raise NotGCM(i, j, "(ii)")
    for i in range(n):
        for j in range(n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotGCM(i, j, "(iii)")
    return KacMoodyMatrix(tuple(rows))


@dataclass(frozen=True)
class WeylElement:
    """Weyl group element as its ShortLex-least reduced word."""

    word: tuple

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join(f"s{i + 1}" for i in self.word)


IDENTITY = WeylElement(())


@dataclass(frozen=True)
class RealRoot:
    """Real root as integer coefficients over the simple roots.

    ``coroot_coeffs`` are the coefficients of the associated coroot over the
    simple coroots; for a real root they are determined by the root, so
    equality and hashing use ``coeffs`` alone.
    """

    coeffs: tuple
    coroot_coeffs: tuple

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs) and any(c > 0 for c in self.coeffs)

    def negated(self) -> "RealRoot":
        return RealRoot(tuple(-c for c in self.coeffs), tuple(-c for c in self.coroot_coeffs))

    def value(self, pairings) -> int:
        """beta(v) E, from the integer pairings alpha_j(v) E of a point v."""
        return sum(map(mul, self.coeffs, pairings))

    def __eq__(self, other):
        return isinstance(other, RealRoot) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}a{k + 1}" if c != 1 else f"a{k + 1}")
        return "+".join(terms) if terms else "0"


@dataclass(frozen=True)
class CosetRep:
    """Minimal-length representative of a class in W / W_lambda."""

    element: WeylElement
    stabilized_weight: Vec

    @property
    def length(self) -> int:
        return self.element.length


def _scaled_rows(vectors):
    """The vectors as integer rows over the lcm of all their denominators: (rows, lcm)."""
    den = lcm(*[x.denominator for v in vectors for x in v])
    return [[x.numerator * (den // x.denominator) for x in v] for v in vectors], den


def _along(u, c, v):
    """u + c v on integer points (num, pairs, den) of _integer_point, over lcm(den_u, q den_v),
    for c = p / q given as the integer pair (p, q) in lowest terms, q > 0."""
    (un, up, ud), (vn, vp, vd), (p, q) = u, v, c
    den = lcm(ud, q * vd)
    a, b = den // ud, p * (den // (q * vd))
    return [a * x + b * y for x, y in zip(un, vn)], [a * x + b * y for x, y in zip(up, vp)], den


def _supports(rows):
    # nonzero entries of each integer row, as (coordinate, integer) pairs
    return tuple(tuple((t, a) for t, a in enumerate(row) if a) for row in rows)


def _symmetrizer(entries):
    """Coprime positive integers d_i with d_i a_ij = d_j a_ji, solved along each
    connected component of the Dynkin diagram; every component's first index
    stands for the same rational 1, and unit is the integer it currently has.
    Each new d_j is made integral by scaling all of d by the least factor that
    does it, which is coprime to the new d_j, so d stays coprime throughout."""
    n = len(entries)
    d = [0] * n
    unit = 1
    for start in range(n):
        if d[start]:
            continue
        d[start] = unit
        queue = [start]
        while queue:
            i = queue.pop()
            for j, a in enumerate(entries[i]):
                if a == 0 or i == j:
                    continue
                b = entries[j][i]  # d_j = d_i a / b, with a and b negative
                if not d[j]:
                    g = -b // gcd(d[i] * a, b)
                    if g > 1:
                        d = [x * g for x in d]
                        unit *= g
                    d[j] = d[i] * a // b
                    queue.append(j)
                elif d[j] * b != d[i] * a:
                    raise NotSymmetrizable("inconsistent symmetrizer constraints")
    return tuple(d)


class RootGeneratingSystem:
    """A Kac-Moody matrix together with an exact realization on Y = Z^rank_x.

    When only a matrix is given, simple coroots are the standard basis of
    Z^n and simple roots are the matrix columns; singular matrices get extra
    coordinates so that the simple roots stay linearly independent (the
    freedom condition), which the fundamental chamber and rho both need.
    """

    def __init__(self, gcm: KacMoodyMatrix, simple_roots, simple_coroots, names=None):
        n = gcm.n
        # exact entries; an int or a Fraction is taken as it is
        roots, coroots = (
            [[x if type(x) in (int, Fraction) else Fraction(x) for x in v] for v in vs]
            for vs in (simple_roots, simple_coroots)
        )
        if not len(roots) == len(coroots) == n:
            raise FormatError(f"a rank {n} system needs {n} simple roots and as many coroots")
        rank_x = len(roots[0]) if n else 0
        if any(len(v) != rank_x for v in roots + coroots):
            raise FormatError(f"simple roots and coroots must all have rank_x = {rank_x} coordinates")
        self._name(gcm, names)
        self._setup(_scaled_rows(roots), _scaled_rows(coroots))

    def _name(self, gcm, names):
        """Take the matrix and the names of its simple roots, a1, a2, ... unless given, checked."""
        self.gcm, self.n = gcm, gcm.n
        names = [f"a{i + 1}" for i in range(gcm.n)] if names is None else names
        if not (isinstance(names, (list, tuple)) and len(names) == gcm.n and all(isinstance(x, str) for x in names)):
            raise FormatError(f"names must be a list of {gcm.n} strings, got {names!r}")
        self.names = tuple(names)

    def _setup(self, roots, coroots, proven=None):
        """The integer realization from rden alpha_j and cden alpha_i^v as (rows, den): the rows,
        their nonzero entries and those of the Cartan matrix's rows; alpha_j(alpha_i^v) = a_ij is
        checked on every pair.  proven is (coroot inverse, rho) from a build that has shown the
        roots independent and solved the symmetrizer; without it, an explicit realization runs
        the root rank, the coroot elimination and the symmetrizer here, in that order."""
        self._root_rows, self._coroot_rows = roots, coroots
        (roots, self._rden), (coroots, self._cden) = roots, coroots
        self.rank_x = len(roots[0]) if roots else 0
        self._root_support = _supports(roots)
        self._coroot_support = _supports(coroots)
        self._cartan_support = _supports(self.gcm.entries)
        scale = self._rden * self._cden
        for i, support in enumerate(self._coroot_support):
            for j, r in enumerate(roots):
                got = sum(r[t] * y for t, y in support)
                if got != self.gcm[i, j] * scale:
                    raise FormatError(
                        f"realization mismatch: alpha_{j + 1}(alpha_{i + 1}^v) = {Fraction(got, scale)}, "
                        f"Cartan matrix says {self.gcm[i, j]}"
                    )
        if proven is None:
            if self.n and mat_rank(roots) < self.n:
                raise FormatError("simple roots are not linearly independent")
            proven = self._invert_coroots(coroots)
            self._symmetrizer = _symmetrizer(self.gcm.entries)
        self._coroot_inverse, self._rho = proven
        self._norm_cache = {}
        self._unwind_cache = {}
        self._inversion_cache = {}
        self._roots_cache = []  # list of (height, RealRoot), sorted, grows monotonically
        self._roots_cache_bound = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_gcm(cls, entries, names=None) -> "RootGeneratingSystem":
        """The system with the unit coroots, whose inverse is the identity on 0..n-1 and whose
        rho is (1, ..., 1, 0, ...).  Sylvester's pass, kept for classify_type, shows a finite
        type matrix nonsingular; any other gets the first standard rows e_k that raise its
        rank: eliminating [A^T | 1] makes each column outside the span of those before it a
        pivot, these are its pivots n + k, and the roots over them are independent."""
        gcm = validate_gcm(entries)
        n = gcm.n
        system = cls.__new__(cls)
        system._name(gcm, names)
        system._symmetrizer = _symmetrizer(gcm.entries)
        units, extra = [[int(i == j) for j in range(n)] for i in range(n)], []
        if system._sylvester is None:
            extra = [p - n for p in _eliminate([[*col, *e] for col, e in zip(zip(*gcm.entries), units)])[1] if p >= n]
        # the columns of A over the extra rows, and the unit coroots
        roots = [[*col, *(int(j == k) for k in extra)] for j, col in enumerate(zip(*gcm.entries))]
        coroots = [e + [0] * len(extra) for e in units]
        inverse = (list(range(n)), tuple(map(tuple, units)), 1)
        system._setup((roots, 1), (coroots, 1), (inverse, ([1] * n + [0] * len(extra), 1)))
        return system

    def _invert_coroots(self, coroots):
        """Eliminate [cden C | 1] once, C the coroot matrix: its pivot columns P
        of C and k (cden C_P)^-1 for an integer k > 0.  They give the integer
        inverse behind _coroot_solve, and rho: C_P^-1 (1, ..., 1) on P and
        0 on the free coordinates."""
        n, rank_x = self.n, self.rank_x
        m, pivots, k, _, _ = _eliminate([row + [int(c == i) for c in range(n)] for i, row in enumerate(coroots)])
        if pivots and pivots[-1] >= rank_x:
            raise FormatError("simple coroots are not linearly independent")
        if k < 0:
            m, k = [[-x for x in row] for row in m], -k
        inverse = [row[rank_x:] for row in m]
        rho = [0] * rank_x  # k rho, on integers
        for p, row in zip(pivots, inverse):
            rho[p] = self._cden * sum(row)
        # the coefficients of v over k: row i of the transposed inverse, times cden, times v on P
        return (pivots, tuple(tuple(self._cden * row[i] for row in inverse) for i in range(n)), k), (rho, k)

    # The Fraction views of the integer data, built on first read.

    @cached_property
    def simple_roots(self) -> tuple:
        rows, den = self._root_rows
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    @cached_property
    def simple_coroots(self) -> tuple:
        rows, den = self._coroot_rows
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    @cached_property
    def symmetrizer(self) -> tuple:
        return tuple(map(Fraction, self._symmetrizer))

    @cached_property
    def rho(self) -> Vec:
        rho, k = self._rho
        return tuple(Fraction(x, k) for x in rho)

    # -- basic geometry ----------------------------------------------------

    def zero(self) -> Vec:
        return (Fraction(0),) * self.rank_x

    def simple_reflection(self, i: int, v: Vec) -> Vec:
        """r_i(v) = v - alpha_i(v) alpha_i^v."""
        num, pairs, den = self._integer_point(v)
        self._subtract_coroot(num, pairs, i, pairs[i])
        return tuple(Fraction(x, den) for x in num)

    def _integer_point(self, v: Vec):
        """v as integer numerators over one denominator, with its pairings.

        With D the lcm of v's denominators, returns (num, pairs, den): num
        over den = D rden cden are the coordinates of v, and pairs over
        D rden its pairings alpha_j(v).  Raises FormatError unless v has
        rank_x coordinates.
        """
        if len(v) != self.rank_x:
            raise FormatError(f"vector has {len(v)} coordinates, system has rank {self.rank_x}")
        (num,), d = _scaled_rows([v])
        pairs = [sum(a * num[t] for t, a in row) for row in self._root_support]
        scale = self._rden * self._cden
        if scale != 1:
            num = [x * scale for x in num]
        return num, pairs, d * scale

    def _pairings(self, v: Vec):
        """(E, pairs): the pairings alpha_j(v) as the integers pairs[j] over E = D rden,
        D the lcm of v's denominators."""
        _, pairs, den = self._integer_point(v)
        return den // self._cden, pairs

    def _subtract_coroot(self, num: list, pairs: list, i: int, m: int):
        """v - (m / E) alpha_i^v on an integer point in place, E its pairings' denominator,
        carrying the pairings along the Cartan matrix (alpha_j(alpha_i^v) = a_ij holds in
        the realization); with m = pairs[i] it is r_i."""
        for t, y in self._coroot_support[i]:
            num[t] -= m * y
        for j, a in self._cartan_support[i]:
            pairs[j] -= m * a

    def _act_integers(self, word, num, pairs):
        """w(v) on an integer point, w the word's element, as new lists."""
        num, pairs = list(num), list(pairs)
        for i in reversed(word):
            if pairs[i]:
                self._subtract_coroot(num, pairs, i, pairs[i])
        return num, pairs

    def _reflect_by_root(self, beta: RealRoot, num, pairs):
        """r_beta(v) = v - beta(v) beta^v on an integer point, as new lists:
        beta^v is sum_i c_i alpha_i^v over its coroot coefficients c_i."""
        b = beta.value(pairs)
        num, pairs = list(num), list(pairs)
        for i, c in enumerate(beta.coroot_coeffs):
            if c:
                self._subtract_coroot(num, pairs, i, b * c)
        return num, pairs

    def simple_root_obj(self, i: int) -> RealRoot:
        e = tuple(1 if j == i else 0 for j in range(self.n))
        return RealRoot(e, e)

    def _reflect_coeffs(self, i: int, c: tuple, cc: tuple):
        """Formal r_i on a root's coefficient and coroot coefficient tuples, over the support
        of row i of the Cartan matrix, which column i shares."""
        a = self.gcm.entries
        p = q = 0
        for j, x in self._cartan_support[i]:
            p += x * c[j]  # beta(alpha_i^v)
            q += a[j][i] * cc[j]  # alpha_i(beta^v)
        return c[:i] + (c[i] - p,) + c[i + 1 :], cc[:i] + (cc[i] - q,) + cc[i + 1 :]

    def _reflect_root_by(self, beta: RealRoot, root: RealRoot) -> RealRoot:
        """r_beta(root) on both coefficient vectors: root - root(beta^v) beta and root^v -
        beta(root^v) beta^v, the pairings read off the Cartan rows on the coroots' supports."""
        support, c, b = self._cartan_support, root.coeffs, beta.coeffs
        p = sum(k * a * c[j] for i, k in enumerate(beta.coroot_coeffs) if k for j, a in support[i])
        q = sum(k * a * b[j] for i, k in enumerate(root.coroot_coeffs) if k for j, a in support[i])
        return RealRoot(
            tuple(x - p * y for x, y in zip(c, b)),
            tuple(x - q * y for x, y in zip(root.coroot_coeffs, beta.coroot_coeffs)),
        )

    def rho_value(self, v: Vec) -> Fraction:
        """rho(v); canonical on the span of the coroots."""
        (rho, k), (num, _, den) = self._rho, self._integer_point(v)
        return Fraction(sum(map(mul, rho, num)), k * den)

    def _coroot_solve(self, num: list):
        """(sol, den) with num equal to sum(sol_i / den alpha_i^v), sol None outside the span
        of the simple coroots: they are independent, so n pivot coordinates of Y give the
        coefficients, and the rebuilt vector decides the span."""
        pivots, rows, den = self._coroot_inverse
        # the coefficients, and cden times their coroot combination, over den
        sol = [sum(a * num[p] for a, p in zip(row, pivots)) for row in rows]
        rebuilt = [0] * self.rank_x
        for c, support in zip(sol, self._coroot_support):
            for t, y in support:
                rebuilt[t] += c * y
        scale = self._cden * den
        if any(a != scale * b for a, b in zip(rebuilt, num, strict=True)):
            return None, den
        return sol, den

    # -- normal forms ------------------------------------------------------

    def normalize_word(self, word) -> WeylElement:
        """Canonical (ShortLex-least reduced) form of a generator word.

        >>> s = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
        >>> s.normalize_word((0, 0)).word
        ()
        >>> s.normalize_word((0, 1, 0)) == s.normalize_word((1, 0, 1))
        True
        """
        word = tuple(word)
        for i in word:
            if not 0 <= i < self.n:
                raise FormatError(f"generator index {i} out of range")
        cached = self._norm_cache.get(word)
        if cached is not None:
            return cached
        # the least left descent, reflected away until none is left
        out, p, i = [], self._heights(word), 0
        while i < self.n:
            if p[i] < 0:
                out.append(i)
                self._heights((i,), p)
                i = 0
            else:
                i += 1
        result = WeylElement(tuple(out))
        self._norm_cache[word] = result
        return result

    def _heights(self, word, p=None) -> list:
        """The heights of w^-1(alpha_i), w the word's element, or with p given, the word
        applied to the heights p in place.  i is a left descent of w exactly when its height
        is negative (Kac, Infinite-dimensional Lie algebras, Lemma 3.11); the heights are the
        pairings of w(v) for any v with every alpha_i(v) = 1, carried as in _subtract_coroot."""
        p = [1] * self.n if p is None else p
        for i in reversed(word):
            m = p[i]
            for j, a in self._cartan_support[i]:
                p[j] -= m * a
        return p

    def mult(self, w1: WeylElement, w2: WeylElement) -> WeylElement:
        return self.normalize_word(w1.word + w2.word)

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.normalize_word(tuple(reversed(w.word)))

    # -- inversions, Bruhat order, cosets -----------------------------------

    def _inversions(self, word: tuple, h=inf):
        """The inversion sequence beta_k = r_i1 ... r_i(k-1)(alpha_ik) of any word, in order
        (the walls of the minimal gallery of that type), memoized per word.  Raises
        HeightBoundTooSmall when its highest root is above h; the memo keeps that height."""
        out = self._inversion_cache.get(word)
        if out is None:
            roots = []
            for k, i in enumerate(word):
                c = cc = tuple(int(j == i) for j in range(self.n))
                for j in reversed(word[:k]):
                    c, cc = self._reflect_coeffs(j, c, cc)
                roots.append(RealRoot(c, cc))
            out = self._inversion_cache[word] = (tuple(roots), max((r.height for r in roots), default=0))
        roots, worst = out
        if worst > h:
            raise HeightBoundTooSmall(worst, h)
        return roots

    def is_left_descent(self, i: int, w: WeylElement) -> bool:
        """True iff length(s_i w) < length(w)."""
        return self._heights(w.word)[i] < 0

    def bruhat_leq(self, w: WeylElement, w2: WeylElement) -> bool:
        """Bruhat-Chevalley order, by the lifting property.

        >>> s = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
        >>> s.bruhat_leq(s.normalize_word((0,)), s.normalize_word((0, 1)))
        True
        """
        if w.length > w2.length:
            return False
        if not w.word:
            return True
        i = w2.word[0]  # a left descent of w2
        sw2 = self.normalize_word((i,) + w2.word)
        if self.is_left_descent(i, w):
            return self.bruhat_leq(self.normalize_word((i,) + w.word), sw2)
        return self.bruhat_leq(w, sw2)

    def _unwind(self, num: list, pairs: list, antidominant: bool, cap: int):
        """On an integer point in place: reflect at the least index whose
        pairing has the wrong sign until none has; the letters, or None if
        that takes cap reflections."""
        letters = []
        for _ in range(cap):
            for i, p in enumerate(pairs):
                if p > 0 if antidominant else p < 0:
                    break
            else:
                return letters
            letters.append(i)
            self._subtract_coroot(num, pairs, i, pairs[i])
        return None

    def _unwound(self, num, pairs, den, antidominant=False):
        """v = w(v0), v0 (anti)dominant and w the minimal coset rep, on an integer point of
        _integer_point: (w, v0's numerators over den, v0's pairings), memoized on the numerators
        alone, as scaling changes no letter.  FormatError when _unwind passes _UNWIND_GUARD
        reflections, as it does outside the Tits cone, which in affine type the level rule
        refuses before the first reflection."""
        key = (tuple(num), antidominant)
        out = self._unwind_cache.get(key)
        if out is None:
            v0, p0 = list(num), list(pairs)
            # in affine type the level rule decides the Tits cone (its negative, for the
            # antidominant chamber), and a point inside it unwinds in finitely many steps
            outside = self._outside_by_level([-p for p in pairs] if antidominant else pairs)
            letters = None if outside else self._unwind(v0, p0, antidominant, _UNWIND_GUARD)
            if letters is None:
                neg = "has its negative " if antidominant else ""
                if outside:
                    why = f"{neg or 'is '}outside the Tits cone by the affine level rule"
                elif self._level_coeffs is not None:
                    why = f"{neg}in the Tits cone, but its minimal coset word is longer than {_UNWIND_GUARD} letters"
                else:
                    why = f"outside the Tits cone: its unwind passed {_UNWIND_GUARD} reflections"
                raise FormatError(f"vector ({','.join(format_vector([Fraction(x, den) for x in num]))}) {why}")
            # w is the minimal rep, so each wrong-signed pairing marks a left descent of what is
            # left of w, and the letters are already w's ShortLex-least word
            out = self._unwind_cache[key] = (WeylElement(tuple(letters)), tuple(v0), tuple(p0))
        return out

    def coset_of_vector(self, xi: Vec, lam: Vec, antidominant=False) -> CosetRep:
        """The coset rep tau with tau(lambda) = xi, given xi in the orbit of lambda."""
        num, pairs, den = self._integer_point(xi)
        rep, v0, _ = self._unwound(num, pairs, den, antidominant)
        if (lam2 := tuple(Fraction(x, den) for x in v0)) != tuple(lam):
            raise FormatError("vector is not in the Weyl orbit of the shape")
        return CosetRep(rep, lam2)

    # -- root enumeration ----------------------------------------------------

    def real_roots_up_to_height(self, h: int):
        """All positive real roots of height <= h, sorted by (height, coeffs).

        Breadth-first closure of the simple roots under the simple
        reflections; exhaustive because every positive real root descends to
        a simple root through positive roots of strictly smaller height.
        In finite type the closure is finite, and h may be math.inf.  It runs on
        integer tuples and builds one RealRoot per root it keeps.
        """
        if h < 1:
            return []
        if h > self._roots_cache_bound:
            kept = {r.coeffs: r for _, r in self._roots_cache}
            found = {r.coeffs: r.coroot_coeffs for r in kept.values() or map(self.simple_root_obj, range(self.n))}
            frontier = list(found.items())
            while frontier:
                new = []
                for c, cc in frontier:
                    for i in range(self.n):
                        img, img_cc = self._reflect_coeffs(i, c, cc)
                        if img[i] >= 0 and sum(img) <= h and img not in found:
                            found[img] = img_cc
                            new.append((img, img_cc))
                frontier = new
            order = sorted(found, key=lambda c: (sum(c), c))
            self._roots_cache = [(sum(c), kept.get(c) or RealRoot(c, found[c])) for c in order]
            self._roots_cache_bound = h
        return [r for ht, r in self._roots_cache if ht <= h]

    # -- type classification and the Tits cone ------------------------------

    def classify_type(self) -> str:
        """"finite", "affine" (corank 1 with positive null covector) or "indefinite"."""
        return self._type

    @cached_property
    def _type(self) -> str:
        if self._sylvester is not None:
            return "finite"
        ker = self._kernel
        return "affine" if len(ker) == 1 and all(x > 0 for x in ker[0]) else "indefinite"

    @cached_property
    def _sylvester(self):
        """[DA | 2d], D = diag(d) the symmetrizer, after a fraction-free elimination without
        row swaps, or None at the first pivot that is not positive.  DA is positive definite,
        so A of finite type, iff its leading principal minors are positive (Sylvester), and
        they are the successive pivots; the column 2d rides along for _root_sum.  Its own
        loop: one _eliminate call alone costs 1.5-2 times as much, and every query builds a
        system."""
        m = [[d * a for a in row] + [2 * d] for d, row in zip(self._symmetrizer, self.gcm.entries)]
        prev = 1
        for k, top in enumerate(m):
            pv = top[k]
            if pv <= 0:
                return None
            for r in range(k + 1, self.n):
                f = m[r][k]
                m[r] = [(pv * x - f * y) // prev for x, y in zip(m[r], top)]
            prev = pv
        return m

    @cached_property
    def _root_sum(self) -> tuple:
        """Finite type only: the coefficients c of the sum of the positive roots over the
        simple roots.  That sum is 2 rho, with alpha_i^v(2 rho) = 2, so A c = 2 (1, ..., 1),
        or DA c = 2d: back-substitution on the triangular rows of _sylvester, each division exact."""
        m, c = self._sylvester, [0] * self.n
        for k in reversed(range(self.n)):
            row = m[k]
            q, r = divmod(row[-1] - sum(map(mul, row[k + 1 : self.n], c[k + 1 :])), row[k])
            if r:
                raise CrossCheckMismatch(f"the sum of the positive roots has a non-integral coefficient at a{k + 1}")
            c[k] = q
        return tuple(c)

    @cached_property
    def _kernel(self):
        """The right kernel of the Cartan matrix, one primitive integer vector per free column f
        of its elimination, positive at f: x_f = the last pivot, x_p = -m[r][f], over their gcd."""
        m, pivots, last, _, _ = _eliminate(self.gcm.entries)
        ker = []
        for f in range(self.n):
            if f not in pivots:
                x = [0] * self.n
                x[f] = last
                for row, p in zip(m, pivots):
                    x[p] = -row[f]
                g = gcd(*x) if last > 0 else -gcd(*x)
                ker.append(tuple(c // g for c in x))
        return ker

    @cached_property
    def _dual(self) -> "RootGeneratingSystem":
        """The system on the transposed Cartan matrix, whose roots are this system's coroots."""
        return RootGeneratingSystem.from_gcm(list(zip(*self.gcm.entries)))

    def null_root_coeffs(self):
        """Primitive positive integer coefficients of delta (affine type only)."""
        ker = self._kernel
        if len(ker) != 1:
            raise CrossCheckMismatch(f"null root needs a one-dimensional kernel, found {len(ker)}")
        return tuple(-x for x in ker[0]) if any(x < 0 for x in ker[0]) else ker[0]

    @cached_property
    def _level_coeffs(self):
        """The null root's coefficients in affine type, where delta(v) is the level of v; else None."""
        return self.null_root_coeffs() if self.classify_type() == "affine" else None

    def _outside_by_level(self, pairs) -> bool:
        """Whether the affine level rule puts a point with these integer pairings (over any
        positive denominator) outside the Tits cone: in affine type iff its level sum_j c_j
        alpha_j(v) is negative, or zero with a nonzero pairing; never in other types."""
        if self._level_coeffs is None:
            return False
        level = sum(map(mul, self._level_coeffs, pairs))
        return level < 0 or level == 0 and any(pairs)

    def tits_cone_membership(self, v: Vec, step_cap: int = _TITS_STEP_CAP):
        """Decide v in T; returns ("in", witness) / ("out", None) / ("unknown", None).

        The witness w makes w(v) dominant.  Finite type: always in.  Affine type: in iff
        the level of v is positive or every pairing of v is 0, decided without unwinding;
        the witness of "in" is then built by an unwind.  For a tiny level against large
        pairings, such as (4, 0, 6/1000000007) on A1^(1), that unwind and the one of
        coset_of_vector, the two routes that still unwind such a point, pass the guard of
        _UNWIND_GUARD reflections and raise FormatError.  Indefinite type: in once an
        unwind of at most step_cap reflections ends, "unknown" otherwise.
        """
        num, pairs, den = self._integer_point(tuple(map(Fraction, v)))
        if self.classify_type() == "indefinite":
            letters = self._unwind(num, pairs, False, step_cap)
            return ("unknown", None) if letters is None else ("in", self.normalize_word(letters[::-1]))
        if self._outside_by_level(pairs):
            return ("out", None)
        w, _, _ = self._unwound(num, pairs, den)
        return ("in", self.inverse(w))  # witness w with w(v) dominant

    def _within_reach(self, lam, v, s) -> bool:
        """Whether v / s (s > 0) is in the Tits cone with its dominant conjugate in lam
        minus the real cone of the simple coroots, read scale-free on integers as
        s lam minus the dominant conjugate of v; lam and v are integer points of
        _integer_point, s = p / q is the integer pair (p, q).  Exact in every type."""
        num, pairs, den = list(v[0]), list(v[1]), v[2]
        if self._outside_by_level(pairs):  # at once, where _unwind_below takes gap / |pairing| steps
            return False
        p, q = s[0] * den, s[1] * lam[2]
        gap, k = self._coroot_solve([p * a - q * b for a, b in zip(lam[0], num)])
        in_coroot_cone = gap is not None and min(gap, default=0) >= 0
        return in_coroot_cone and self._unwind_below(num, pairs, gap, q * k * self._cden)

    def _unwind_below(self, num: list, pairs: list, gap: list, step: int) -> bool:
        """Unwind an integer point v in place as _unwind does, carrying gap: the coroot
        coefficients of a point minus v, scaled so that r_i, which adds |alpha_i(v)|
        alpha_i^v to v, lowers gap[i] by step |pairs[i]|.  False at the first negative
        coefficient, True once v is dominant; it ends in every type, as gap falls."""
        while True:
            for i, m in enumerate(pairs):
                if m < 0:
                    break
            else:
                return True
            gap[i] += step * m
            if gap[i] < 0:
                return False
            self._subtract_coroot(num, pairs, i, m)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "cartan_matrix": [list(row) for row in self.gcm.entries],
            "names": list(self.names),
            "rank_x": self.rank_x,
            "simple_roots": [format_vector(r) for r in self.simple_roots],
            "simple_coroots": [format_vector(c) for c in self.simple_coroots],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RootGeneratingSystem":
        if not isinstance(data, dict):
            raise FormatError("a system file holds a JSON object with a 'cartan_matrix' field")
        if "cartan_matrix" not in data:
            raise FormatError("system file needs a 'cartan_matrix' field")
        gcm_entries = data["cartan_matrix"]
        names = data.get("names")
        if "simple_roots" in data or "simple_coroots" in data:
            if not ("simple_roots" in data and "simple_coroots" in data):
                raise FormatError("simple_roots and simple_coroots must be supplied together")
            gcm = validate_gcm(gcm_entries)
            if not (isinstance(data["simple_roots"], list) and isinstance(data["simple_coroots"], list)):
                raise FormatError("simple_roots and simple_coroots must be lists of covectors")
            roots = [parse_vector(r) for r in data["simple_roots"]]
            coroots = [parse_vector(c) for c in data["simple_coroots"]]
            system = cls(gcm, roots, coroots, names)
        else:
            system = cls.from_gcm(gcm_entries, names)
        rank_x = data.get("rank_x", system.rank_x)
        if type(rank_x) is not int or rank_x != system.rank_x:
            raise FormatError(f"rank_x is {rank_x!r}, but the system has rank_x = {system.rank_x}")
        return system

    @classmethod
    def load(cls, path) -> "RootGeneratingSystem":
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read system file {path}: {exc}") from exc
        return cls.from_json_dict(data)

    def __repr__(self):
        return f"RootGeneratingSystem({self.gcm.entries!r})"


def dominance_difference(system: RootGeneratingSystem, lam: Vec, mu: Vec):
    """Coefficients of lam - mu over the simple coroots if non-negative integers, else None."""
    return _coroot_gap(system, system._integer_point(lam), system._integer_point(mu))


def _coroot_gap(system: RootGeneratingSystem, lam, mu):
    """dominance_difference on integer points of _integer_point."""
    num, _, den = _along(lam, (-1, 1), mu)
    sol, sden = system._coroot_solve(num)
    if sol is None or any(c < 0 or c % (den * sden) for c in sol):
        return None
    return tuple(c // (den * sden) for c in sol)
