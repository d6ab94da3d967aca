"""System construction against the Fraction routes it replaced.

``RootGeneratingSystem.from_gcm`` reads a non-finite matrix's extra
realization rows off the pivot columns of one elimination of [A^T | 1];
``ref_from_gcm`` adds the standard rows one rank test at a time.  Given a
realization, ``RootGeneratingSystem`` scales its simple roots and coroots to
integer rows once and computes every invariant from them: the realization
check and both independence ranks, the symmetrizer, one elimination of the coroot matrix
(which gives the pivot coordinates and integer inverse behind
``_coroot_solve``, and rho) and the leading principal minors behind
``classify_type``, read as the pivots of one fraction-free pass.  The
references below are the former routes on ``Fraction`` values: the
realization check by ``vdot_cov``, the symmetrizer solved on ``Fraction``
ratios, rho by ``solve_linear``, the coroot inverse by ``row_reduce``,
Sylvester's minors by ``row_reduce`` and the kernel by ``nullspace`` on
every call.  Both must give equal invariants, or raise the same error, on
Cartan matrices of rank <= 4 (finite, affine either way round, hyperbolic,
decomposable and not symmetrizable) and on random rational realizations.
``from_gcm`` writes its unit coroots' inverse and rho down instead, and
builds every drawn matrix to the same system as the constructor given its
realization.

The positive-root closure runs on integer coefficient tuples; its reference
is the former closure on ``RealRoot`` objects through ``reflect_root``, which
reads the whole row and column i of the Cartan matrix.

Normal forms read each left descent off the sign of an integer root height,
and the inversion sequence reflects coefficient tuples; the references are
the former routes: ``normalize_word`` on the matrix of w^-1 over the root
coefficients, scanning its columns for a non-positive one, and
``_inversions`` reflecting ``RealRoot`` by ``RealRoot``.  The unwind keeps
its letters as the coset rep's word, which must be that rep's normal form.

``reflect_root``, ``solve_linear`` and ``vdot_cov`` (the former ``Fraction``
kernel of the pairings, of dominance and of ``rho_value``) live here now that
the library no longer calls them; other tests import them from this module.
``ref_pairing``, ``ref_reflect``, ``ref_act`` and ``ref_unwind`` are here too:
the Weyl action and the unwind on ``Fraction`` vectors, which the tests hold
the library's integer kernels against; ``coroot_coordinates`` reads
``_coroot_solve`` back as ``Fraction`` coefficients.
So do ``row_reduce``, ``nullspace`` and ``scale_to_primitive_integers``, the
former ``Fraction`` elimination helpers, still read off the library's
``_eliminate``, and the matrix strategies and minor-based rank that
``test_linalg`` checks them with.  The Cartan kernel, which the library reads
as primitive integer vectors off ``_eliminate``, must span the kernel of
``nullspace``.
"""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckepaths import RootGeneratingSystem, linalg, root_system, validate_gcm
from heckepaths.root_system import RealRoot, WeylElement
from heckepaths.errors import CrossCheckMismatch, FormatError, HeightBoundTooSmall, HPLError, NotSymmetrizable
from heckepaths.linalg import _eliminate, mat_rank

from strategies import fractions_in

# -- the elimination and the strategies that test it -------------------------------


def row_reduce(rows):
    """Exact reduced row echelon form of a matrix given as an iterable of rows.

    Returns (reduced rows, pivot columns, determinant); the determinant is 0
    unless the matrix is square and invertible.  Entries are ints or
    Fractions.  The reduced rows are _eliminate's rows over its last pivot,
    and the determinant is sign x last pivot / product of the row scales.
    """
    m, pivots, prev, sign, scales = _eliminate(rows)
    reduced = [[F(x, prev) for x in row] for row in m]
    square = len(pivots) == len(m) == (len(m[0]) if m else 0)
    return reduced, pivots, F(sign * prev, scales) if square else F(0)


def nullspace(rows):
    """Basis of the right kernel of A, as a list of vectors: one per free column,
    1 there and 0 at the other free columns."""
    m, pivots, _ = row_reduce(rows)
    ncols = len(m[0]) if m else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def scale_to_primitive_integers(v):
    """Scale a nonzero rational vector to coprime integers, keeping its sign."""
    den = math.lcm(*(F(x).denominator for x in v))
    ints = [int(F(x) * den) for x in v]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(F(x // g) for x in ints)


# zeros and integers are drawn often, so singular and rank-deficient matrices come up
entries = st.one_of(
    st.just(F(0)),
    st.integers(-2, 2).map(F),
    fractions_in(-3, 3, max_denominator=4),
)


def matrices(min_size=1, max_size=4):
    return st.integers(min_size, max_size).flatmap(
        lambda rows: st.integers(min_size, max_size).flatmap(
            lambda cols: st.lists(
                st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
            )
        )
    )


def cofactor_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return F(1)
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def rank_by_minors(m):
    """The largest k with a nonzero k x k minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                if cofactor_det([[m[r][c] for c in cols] for r in rows]):
                    return k
    return 0


def apply(m, x):
    return tuple(sum((a * b for a, b in zip(row, x)), F(0)) for row in m)


# -- the reference -------------------------------------------------------------


def vdot_cov(cov, v) -> F:
    """cov(v) as an exact Fraction, for entries that are ints or Fractions.

    Zero entries of cov are skipped.  The sum runs over integer numerators
    on one common denominator, so a single Fraction is built at the end.
    """
    num, den = 0, 1
    for a, b in zip(cov, v, strict=True):
        if a:
            n = a.numerator * b.numerator
            d = a.denominator * b.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
    return F(num, den)


def solve_linear(rows, rhs):
    """One exact solution x of A x = b, or None if inconsistent; free
    variables are set to zero."""
    ncols = len(rows[0]) if rows else 0
    m, pivots, _ = row_reduce([*row, b] for row, b in zip(rows, rhs, strict=True))
    if ncols in pivots:  # a row reads 0 = 1
        return None
    x = [F(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return tuple(x)


def ref_from_gcm(a):
    """The realization from_gcm builds: standard coroots, and the matrix columns
    as roots, with the first standard rows that raise the rank of a singular
    matrix appended."""
    n = len(a)
    base_rows = [tuple(row) for row in a]
    extra = []
    if mat_rank(base_rows) < n:
        for k in range(n):
            cand = tuple(1 if j == k else 0 for j in range(n))
            if mat_rank(base_rows + extra + [cand]) > mat_rank(base_rows + extra):
                extra.append(cand)
            if mat_rank(base_rows + extra) == n:
                break
    rank_x = n + len(extra)
    coroots = [tuple(F(int(t == i)) for t in range(rank_x)) for i in range(n)]
    roots = [tuple(F(row[j]) for row in base_rows + extra) for j in range(n)]
    return roots, coroots


def ref_check_realization(a, roots, coroots):
    n = len(a)
    for i in range(n):
        for j in range(n):
            got = vdot_cov(roots[j], coroots[i])
            if got != a[i][j]:
                raise FormatError(
                    f"realization mismatch: alpha_{j + 1}(alpha_{i + 1}^v) = {got}, Cartan matrix says {a[i][j]}"
                )
    if n:
        if mat_rank(roots) < n:
            raise FormatError("simple roots are not linearly independent")
        if mat_rank(coroots) < n:
            raise FormatError("simple coroots are not linearly independent")


def ref_symmetrizer(a):
    """d_i a_ij = d_j a_ji on Fraction ratios, per connected component."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = F(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if a[i][j] == 0 or i == j:
                    continue
                val = d[i] * F(a[i][j], a[j][i])
                if d[j] is None:
                    d[j] = val
                    queue.append(j)
                elif d[j] != val:
                    raise NotSymmetrizable("inconsistent symmetrizer constraints")
    d = scale_to_primitive_integers(d) if n else ()
    for i in range(n):
        for j in range(n):
            if d[i] * a[i][j] != d[j] * a[j][i]:
                raise NotSymmetrizable("matrix is not symmetrizable")
    return d


def ref_rho(coroots):
    if not coroots:
        return ()
    sol = solve_linear(coroots, (F(1),) * len(coroots))
    if sol is None:
        raise FormatError("no rational rho with rho(alpha_i^v) = 1 exists")
    return sol


def ref_pairing(system, i, v):
    total = F(0)
    for a, x in zip(system.simple_roots[i], v, strict=True):
        total += F(a) * F(x)
    return total


def ref_reflect(system, i, v):
    c = ref_pairing(system, i, v)
    return tuple(F(x) - c * y for x, y in zip(v, system.simple_coroots[i]))


def ref_act(system, word, v):
    v = tuple(F(x) for x in v)
    for i in reversed(word):
        v = ref_reflect(system, i, v)
    return v


def ref_unwind(system, v, antidominant):
    """Re-pair every coordinate after every reflection."""
    cur = tuple(F(x) for x in v)
    letters = []
    while True:
        for i in range(system.n):
            p = ref_pairing(system, i, cur)
            if (p > 0) if antidominant else (p < 0):
                letters.append(i)
                cur = ref_reflect(system, i, cur)
                break
        else:
            return cur, tuple(letters)


def ref_classify_type(a, d):
    """Sylvester's criterion by one row_reduce per leading principal minor,
    then the kernel of A."""
    n = len(a)
    sym = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
    if all(row_reduce([row[:k] for row in sym[:k]])[2] > 0 for k in range(1, n + 1)):
        return "finite"
    ker = nullspace(a)
    if len(ker) == 1 and (all(x > 0 for x in ker[0]) or all(x < 0 for x in ker[0])):
        return "affine"
    return "indefinite"


def ref_null_root_coeffs(a):
    ker = nullspace(a)
    if len(ker) != 1:
        raise CrossCheckMismatch(f"null root needs a one-dimensional kernel, found {len(ker)}")
    c = ker[0]
    if any(x < 0 for x in c):
        c = tuple(-x for x in c)
    return tuple(int(x) for x in scale_to_primitive_integers(c))


def ref_coroot_coordinates(coroots, v):
    """Invert the coroot matrix on its pivot coordinates with row_reduce, then
    rebuild v from the coefficients; None outside the span."""
    n = len(coroots)
    if not n:
        return None
    pivots = row_reduce(coroots)[1]
    block = [[c[p] for c in coroots] + [int(k == r) for k in range(n)] for r, p in enumerate(pivots)]
    inverse = [row[n:] for row in row_reduce(block)[0]]
    coeffs = tuple(sum((x * v[p] for x, p in zip(row, pivots)), F(0)) for row in inverse)
    rebuilt = tuple(sum((c * cr[t] for c, cr in zip(coeffs, coroots)), F(0)) for t in range(len(v)))
    return coeffs if rebuilt == tuple(v) else None


def reflect_root(system, i, root):
    """r_i on a real root and its coroot, over the whole row and column i of the Cartan matrix."""
    a, c, cc = system.gcm.entries, root.coeffs, root.coroot_coeffs
    p = sum(a[i][j] * c[j] for j in range(system.n))  # beta(alpha_i^v)
    q = sum(a[k][i] * cc[k] for k in range(system.n))  # alpha_i(beta^v)
    return RealRoot(c[:i] + (c[i] - p,) + c[i + 1 :], cc[:i] + (cc[i] - q,) + cc[i + 1 :])


def ref_reflect_root_by(system, beta, root):
    """r_beta(root), its pairings summed over all n^2 entries of the Cartan matrix."""
    a, n = system.gcm.entries, system.n
    p = sum(beta.coroot_coeffs[k] * a[k][j] * root.coeffs[j] for k in range(n) for j in range(n))
    q = sum(root.coroot_coeffs[k] * a[k][j] * beta.coeffs[j] for k in range(n) for j in range(n))
    return RealRoot(
        tuple(x - p * y for x, y in zip(root.coeffs, beta.coeffs)),
        tuple(x - q * y for x, y in zip(root.coroot_coeffs, beta.coroot_coeffs)),
    )


def ref_normalize_word(system, word):
    """The ShortLex-least reduced word from the matrix of w^-1 on root coefficients:
    column i is w^-1(alpha_i), and i is a left descent when it has no positive entry."""
    n, a = system.n, system.gcm.entries
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    inv = [list(row) for row in ident]
    for i in word:  # r_i inv: row i takes a_ik times row k off, for every k
        inv[i] = [x - sum(a[i][k] * inv[k][t] for k in range(n)) for t, x in enumerate(inv[i])]
    out = []
    while inv != ident:
        i = next(i for i in range(n) if all(row[i] <= 0 for row in inv))
        out.append(i)
        for row in inv:  # inv r_i: column c takes a_ic times column i off
            p = row[i]
            for c in range(n):
                row[c] -= p * a[i][c]
    return WeylElement(tuple(out))


def ref_inversions(system, word):
    """beta_k = r_i1 ... r_i(k-1)(alpha_ik) for each letter, reflected RealRoot by
    RealRoot, and the largest height."""
    roots = []
    for k, i in enumerate(word):
        beta = system.simple_root_obj(i)
        for j in reversed(word[:k]):
            beta = reflect_root(system, j, beta)
        roots.append(beta)
    return tuple(roots), max((r.height for r in roots), default=0)


def ref_real_roots_up_to_height(system, h):
    """The breadth-first closure of the simple roots under reflect_root, on
    RealRoot objects, sorted by (height, coeffs)."""
    seen = {system.simple_root_obj(i) for i in range(system.n)}
    frontier = list(seen)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(system.n):
                img = reflect_root(system, i, beta)
                if img.is_positive and img.height <= h and img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return sorted(seen, key=lambda r: (r.height, r.coeffs)) if h >= 1 else []


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HPLError as exc:
        return type(exc), str(exc)


def reference_invariants(a, roots, coroots, vectors):
    """(symmetrizer, rho, type, coroot coordinates of the vectors, null root
    or its error), in the order the former constructor checked them."""
    roots = [tuple(F(x) for x in r) for r in roots]
    coroots = [tuple(F(x) for x in c) for c in coroots]
    ref_check_realization(a, roots, coroots)
    d = ref_symmetrizer(a)
    rho = ref_rho(coroots)
    coords = [ref_coroot_coordinates(coroots, v) for v in vectors]
    return d, rho, ref_classify_type(a, d), coords, _outcome(ref_null_root_coeffs, a)


def coroot_coordinates(system, v):
    """The coefficients of v over the simple coroots, from _coroot_solve, or None."""
    num, _, d = system._integer_point(v)
    sol, den = system._coroot_solve(num)
    return None if sol is None else tuple(F(c, d * den) for c in sol)


def invariants(a, roots, coroots, vectors):
    system = RootGeneratingSystem(validate_gcm(a), roots, coroots)
    assert system._coroot_inverse[2] > 0  # _within_reach reads signs off the coefficients
    coords = [coroot_coordinates(system, v) for v in vectors]
    return (
        system.symmetrizer,
        system.rho,
        system.classify_type(),
        coords,
        _outcome(system.null_root_coeffs),
    )


# -- the draws -------------------------------------------------------------------

CATALOG = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "A1aff": [[2, -2], [-2, 2]],
    "A2twisted": [[2, -4], [-1, 2]],
    "A2aff": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "C2aff": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    "twisted": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    "G2aff": [[2, -1, 0], [-1, 2, -3], [0, -1, 2]],
    "A3aff": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
    "hyperbolic2": [[2, -5], [-1, 2]],
    "indefinite": [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],
    "nonsym": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],
    "nonsym4": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-2, 0, -1, 2]],
}


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


@st.composite
def random_gcms(draw):
    """Any Kac-Moody matrix of rank <= 4, symmetrizable or not."""
    n = draw(st.integers(1, 4))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i][j], a[j][i] = -draw(st.integers(1, 4)), -draw(st.integers(1, 4))
    return a


@st.composite
def gcms(draw):
    """A catalog matrix, a block sum of two, or a random one, with its indices
    permuted and possibly transposed."""
    small = [m for m in CATALOG.values() if len(m) <= 2]
    a = draw(
        st.one_of(
            st.sampled_from(list(CATALOG.values())),
            st.builds(_block_sum, st.sampled_from(small), st.sampled_from(small)),
            random_gcms(),
        )
    )
    n = len(a)
    perm = draw(st.permutations(range(n)))
    a = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        a = [list(col) for col in zip(*a)]
    return a


small_rationals = st.one_of(st.integers(-3, 3).map(F), fractions_in(-3, 3, max_denominator=5))


@st.composite
def realizations(draw, a):
    """The from_gcm realization of a, possibly with one more coordinate that
    every root vanishes on, moved by an invertible rational M: coroots c -> M c,
    roots r -> r M^-1, which keeps every pairing."""
    roots, coroots = ref_from_gcm(a)
    if draw(st.booleans()):
        roots = [r + (F(0),) for r in roots]
        coroots = [c + (draw(small_rationals),) for c in coroots]
    size = len(roots[0])
    # M = L U, L unit lower triangular and U upper triangular with a nonzero diagonal
    lower = [[F(int(i == j)) if j >= i else draw(small_rationals) for j in range(size)] for i in range(size)]
    upper = [
        [draw(small_rationals) if j > i else F(0) if j < i else draw(small_rationals.filter(bool)) for j in range(size)]
        for i in range(size)
    ]
    m = [[sum((lower[i][k] * upper[k][j] for k in range(size)), F(0)) for j in range(size)] for i in range(size)]
    reduced = row_reduce([row + [F(int(i == j)) for j in range(size)] for i, row in enumerate(m)])[0]
    m_inv = [row[size:] for row in reduced]
    coroots = [tuple(apply(m, c)) for c in coroots]
    roots = [tuple(sum((r[t] * m_inv[t][s] for t in range(size)), F(0)) for s in range(size)) for r in roots]
    return roots, coroots


@st.composite
def vectors(draw, coroots):
    """Combinations of the coroots, which are in their span, and arbitrary
    points, which need not be."""
    size = len(coroots[0])
    out = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(small_rationals, min_size=len(coroots), max_size=len(coroots)))
        out.append(tuple(sum((c * cr[t] for c, cr in zip(coeffs, coroots)), F(0)) for t in range(size)))
    out += draw(st.lists(st.lists(small_rationals, min_size=size, max_size=size).map(tuple), max_size=2))
    return out


# -- the comparison --------------------------------------------------------------


def test_catalog_covers_every_kind():
    kinds = set()
    for a in CATALOG.values():
        try:
            kinds.add(ref_classify_type(a, ref_symmetrizer(a)))
        except NotSymmetrizable:
            kinds.add("not symmetrizable")
    assert kinds == {"finite", "affine", "indefinite", "not symmetrizable"}
    assert ref_classify_type(CATALOG["A2twisted"], ref_symmetrizer(CATALOG["A2twisted"])) == "affine"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_invariants_match_the_fraction_routes(data):
    a = data.draw(gcms())
    roots, coroots = data.draw(st.one_of(st.just(ref_from_gcm(a)), realizations(a)))
    vs = data.draw(vectors(coroots))
    expected = _outcome(reference_invariants, a, roots, coroots, vs)
    assert _outcome(invariants, a, roots, coroots, vs) == expected


@settings(max_examples=200, deadline=None)
@given(gcms())
@example(_block_sum(CATALOG["A1aff"], CATALOG["A1aff"]))  # corank 2
@example(_block_sum(CATALOG["A2twisted"], CATALOG["A1aff"]))  # corank 2, transposed parts
@example(_block_sum(CATALOG["A2"], CATALOG["A1aff"]))  # corank 1, zero on a block
def test_kernel_is_the_primitive_nullspace(a):
    # one primitive integer vector per free column, positive there: the nullspace
    # basis vector of that column scaled to coprime integers, so both span one kernel
    system = _system(a)
    if system is None:
        return
    basis = nullspace(a)
    assert system._kernel == [tuple(int(x) for x in scale_to_primitive_integers(v)) for v in basis]
    assert len(basis) == len(a) - mat_rank(a)


@settings(max_examples=100, deadline=None)
@given(gcms())
@example(_block_sum(CATALOG["A1aff"], CATALOG["A1aff"]))  # corank 2: two extra rows
@example(_block_sum(CATALOG["A2twisted"], CATALOG["A1aff"]))  # corank 2, transposed parts
def test_from_gcm_keeps_its_realization(a):
    roots, coroots = ref_from_gcm(a)
    try:
        system = RootGeneratingSystem.from_gcm(a)
    except HPLError as exc:
        assert _outcome(reference_invariants, a, roots, coroots, []) == (type(exc), str(exc))
    else:
        assert (list(system.simple_roots), list(system.simple_coroots)) == (roots, coroots)


def _build_facts(s):
    """Every integer invariant a system build stores or derives."""
    kind = s.classify_type()
    return (
        (s._root_rows, s._coroot_rows, s._coroot_inverse, s._rho, s._symmetrizer),
        (s._root_support, s._coroot_support, s._cartan_support, s.names, s.rank_x, kind),
        _outcome(s.null_root_coeffs) if kind == "affine" else None,
        s._root_sum if kind == "finite" else None,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_both_constructors_give_one_system(data):
    # from_gcm reads its realization off Sylvester's pass or one [A^T | 1] pass; the
    # constructor, given that realization, proves it again by the root rank, the coroot
    # elimination and the symmetrizer: one system, or one error class, either way
    a = data.draw(gcms())
    names = [f"x{i}" for i in range(len(a))]
    try:
        system = RootGeneratingSystem.from_gcm(a, names)
    except HPLError as exc:
        with pytest.raises(type(exc)):
            RootGeneratingSystem(validate_gcm(a), *ref_from_gcm(a), names)
        return
    other = RootGeneratingSystem(validate_gcm(a), system.simple_roots, system.simple_coroots, names)
    assert _build_facts(system) == _build_facts(other)
    for v in data.draw(vectors(system.simple_coroots)):
        assert coroot_coordinates(system, v) == coroot_coordinates(other, v)


A2_FILE = {"cartan_matrix": CATALOG["A2"], "simple_roots": [[2, -1], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "build, widths",
    [
        (lambda: RootGeneratingSystem.from_gcm(CATALOG["A2"]), []),
        (lambda: RootGeneratingSystem.from_gcm(CATALOG["A1aff"]), [4]),
        (lambda: RootGeneratingSystem.from_gcm(_block_sum(CATALOG["A1aff"], CATALOG["A1aff"])), [8]),
        (lambda: RootGeneratingSystem.from_json_dict(A2_FILE), [2, 4]),
    ],
    ids=["A2", "A1aff", "A1aff+A1aff", "A2-file"],
)
def test_system_build_eliminations(build, widths, monkeypatch):
    # the width of each matrix eliminated, counted under both names _eliminate is bound by.
    # from_gcm: none in finite type, where Sylvester's pass shows the matrix nonsingular,
    # else the one [A^T | 1] pass for the extra rows and the roots' rank; the unit coroots
    # need no inverse.  An explicit realization: the root rank, then [cden C | 1].
    calls = []

    def counting(rows):
        calls.append(len(rows[0]))
        return _eliminate(rows)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(root_system, "_eliminate", counting)
    build()
    assert calls == widths


@settings(max_examples=150, deadline=None)
@given(gcms(), st.lists(st.integers(0, 7), min_size=1, max_size=3))
def test_real_roots_match_the_realroot_closure(a, bounds):
    # the closure on integer tuples, cold and grown bound by bound on one
    # system, against the RealRoot closure run afresh for each bound; in
    # finite type, grown last to the whole closure at h = inf
    try:
        system = RootGeneratingSystem.from_gcm(a)
    except HPLError:
        return
    if system.classify_type() == "finite":
        bounds = bounds + [math.inf]
    for h in bounds:
        got = system.real_roots_up_to_height(h)
        expected = ref_real_roots_up_to_height(RootGeneratingSystem.from_gcm(a), h)
        assert [(r.coeffs, r.coroot_coeffs) for r in got] == [(r.coeffs, r.coroot_coeffs) for r in expected]


@pytest.mark.parametrize("name", ["A3", "B3", "F4", "G2aff", "hyperbolic", "indefinite"])
def test_real_roots_of_the_catalog_match_the_realroot_closure(name):
    system = RootGeneratingSystem.from_gcm(CATALOG[name])
    h = math.inf if system.classify_type() == "finite" else 9
    got = system.real_roots_up_to_height(h)
    assert [(r.coeffs, r.coroot_coeffs) for r in got] == [
        (r.coeffs, r.coroot_coeffs) for r in ref_real_roots_up_to_height(system, h)
    ]


def _transpose(a):
    return [list(col) for col in zip(*a)]


_B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
FINITE_RANK_4 = {
    **{name: CATALOG[name] for name in ("A1", "A2", "A3", "A4", "B2", "B3", "D4", "G2", "F4")},
    "B4": _B4,
    "C3": _transpose(CATALOG["B3"]),
    "C4": _transpose(_B4),
    "A1xA1": _block_sum(CATALOG["A1"], CATALOG["A1"]),
    "A1xB2": _block_sum(CATALOG["A1"], CATALOG["B2"]),
    "G2xA2": _block_sum(CATALOG["G2"], CATALOG["A2"]),
    "A1xA1xA2": _block_sum(_block_sum(CATALOG["A1"], CATALOG["A1"]), CATALOG["A2"]),
}


@pytest.mark.parametrize("name", sorted(FINITE_RANK_4))
def test_root_sum_is_the_sum_of_the_positive_roots(name):
    # the back-substitution on the Sylvester pass against the closure, summed coordinatewise
    system = RootGeneratingSystem.from_gcm(FINITE_RANK_4[name])
    assert system.classify_type() == "finite"
    roots = system.real_roots_up_to_height(math.inf)
    assert system._root_sum == tuple(sum(r.coeffs[i] for r in roots) for i in range(system.n))


@pytest.mark.parametrize("name", sorted(k for k in CATALOG if k not in FINITE_RANK_4))
def test_classify_type_of_the_catalog_beyond_finite(name):
    # the column 2d the Sylvester pass carries changes no pivot: the affine and indefinite
    # matrices stop it as before, and the type is the former one
    a = CATALOG[name]
    try:
        d = ref_symmetrizer(a)
    except NotSymmetrizable:
        return
    system = RootGeneratingSystem.from_gcm(a)
    assert system._sylvester is None
    assert system.classify_type() == ref_classify_type(a, d) != "finite"


def test_root_sum_refuses_a_remainder():
    # a pass whose back-substitution does not divide exactly raises, and is never floored
    system = RootGeneratingSystem.from_gcm(CATALOG["A1"])
    vars(system)["_sylvester"] = [[2, 1]]
    with pytest.raises(CrossCheckMismatch, match="non-integral"):
        system._root_sum


def _system(a):
    try:
        return RootGeneratingSystem.from_gcm(a)
    except NotSymmetrizable:
        return None


def _words(n, max_size=8):
    return st.lists(st.integers(0, n - 1), max_size=max_size).map(tuple)


@settings(max_examples=200, deadline=None)
@given(gcms(), st.data())
def test_normal_forms_and_descents_match_the_matrix_route(a, data):
    system = _system(a)
    if system is None:
        return
    for word in data.draw(st.lists(_words(system.n), min_size=1, max_size=4)):
        w = system.normalize_word(word)
        assert w == ref_normalize_word(system, word)
        for i in range(system.n):
            assert system.is_left_descent(i, w) == (ref_normalize_word(system, (i,) + w.word).length < w.length)


@settings(max_examples=200, deadline=None)
@given(gcms(), st.data())
def test_inversions_match_the_realroot_route(a, data):
    system = _system(a)
    if system is None:
        return
    for word in data.draw(st.lists(_words(system.n), min_size=1, max_size=3)):
        roots = system._inversions(word)
        expected, top = ref_inversions(system, word)
        assert [(r.coeffs, r.coroot_coeffs) for r in roots] == [(r.coeffs, r.coroot_coeffs) for r in expected]
        if top > 0:  # the height bound is checked against the highest inversion root
            assert system._inversions(word, top) == roots
            with pytest.raises(HeightBoundTooSmall) as raised:
                system._inversions(word, top - 1)
            assert str(raised.value) == str(HeightBoundTooSmall(top, top - 1))
        for beta in roots[:3]:
            for gamma in roots:
                got, ref = system._reflect_root_by(beta, gamma), ref_reflect_root_by(system, beta, gamma)
                assert (got.coeffs, got.coroot_coeffs) == (ref.coeffs, ref.coroot_coeffs)


@settings(max_examples=200, deadline=None)
@given(gcms(), st.data())
def test_unwind_words_are_the_minimal_reps_normal_forms(a, data):
    # v = w(v0), v0 dominant or antidominant, is in the Tits cone or its negative,
    # so the unwind ends after l(rep) steps in every type
    system = _system(a)
    if system is None:
        return
    antidominant = data.draw(st.booleans())
    sign = -1 if antidominant else 1
    d = data.draw(st.lists(st.integers(0, 2), min_size=system.n, max_size=system.n))
    v0 = solve_linear(system.simple_roots, [F(sign * x) for x in d])
    w = system.normalize_word(data.draw(_words(system.n)))
    v = ref_act(system, w.word, v0)
    num, pairs, den = system._integer_point(v)
    rep, dom, _ = system._unwound(num, pairs, den, antidominant)
    assert tuple(F(x, den) for x in dom) == v0 and ref_act(system, rep.word, v0) == v
    assert rep == ref_normalize_word(system, rep.word) and rep.length <= w.length
    # minimal in rep W_v0: no right descent among the simple reflections fixing v0
    for j in (j for j in range(system.n) if d[j] == 0):
        assert ref_normalize_word(system, rep.word + (j,)).length > rep.length


@pytest.mark.parametrize(
    "a, roots, coroots",
    [
        (CATALOG["nonsym"], *ref_from_gcm(CATALOG["nonsym"])),
        ([[2, -2], [-2, 2]], [["2", "-2"], ["-2", "2"]], [["1", "0"], ["0", "1"]]),
        ([[2, -2], [-2, 2]], [["2", "1"], ["-2", "0"]], [["1", "0"], ["-1", "0"]]),
        ([[2, -1], [-1, 2]], [["3", "-1"], ["-1", "2"]], [["1/2", "0"], ["0", "1"]]),
    ],
    ids=["not-symmetrizable", "dependent-roots", "dependent-coroots", "realization-mismatch"],
)
def test_errors_match_the_fraction_routes(a, roots, coroots):
    expected = _outcome(reference_invariants, a, roots, coroots, [])
    assert expected[0] in (NotSymmetrizable, FormatError)
    assert _outcome(invariants, a, roots, coroots, []) == expected


# -- solve_linear, against the systems it solves -----------------------------------


class TestSolveLinear:
    @settings(max_examples=50, deadline=None)
    @given(matrices(), st.data())
    def test_solution_satisfies_the_system(self, m, data):
        x0 = data.draw(st.lists(entries, min_size=len(m[0]), max_size=len(m[0])))
        b = apply(m, x0)
        x = solve_linear(m, b)
        assert x is not None and apply(m, x) == b

    @settings(max_examples=50, deadline=None)
    @given(matrices(), st.data())
    def test_any_rhs(self, m, data):
        b = tuple(data.draw(st.lists(entries, min_size=len(m), max_size=len(m))))
        x = solve_linear(m, b)
        augmented = [list(row) + [c] for row, c in zip(m, b)]
        if x is None:
            assert rank_by_minors(augmented) > rank_by_minors(m)
        else:
            assert apply(m, x) == b

    def test_free_variables_are_zero(self):
        assert solve_linear([(1, 1), (0, 1)], (3, 1)) == (F(2), F(1))
        assert solve_linear([(1, 0, 2)], (4,)) == (F(4), F(0), F(0))
