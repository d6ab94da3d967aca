"""Property tests of the exact elimination against from-scratch references,
and of the rational literal reader against Fraction.

``row_reduce`` and ``nullspace`` read their results off the library's
``_eliminate``; they live in ``test_system_reference`` with the strategies
and the minor-based rank used here.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckepaths.errors import FormatError
from heckepaths.linalg import mat_rank, parse_rational

from test_system_reference import apply, cofactor_det, entries, matrices, nullspace, rank_by_minors, row_reduce

square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


def ref_row_reduce(rows):
    """Gauss-Jordan elimination over Fraction: (reduced rows, pivots, determinant)."""
    m = [[F(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    det = F(1)
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            det = -det
        pv = m[row][col]
        det *= pv
        m[row] = [x / pv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
    if not len(pivots) == len(m) == ncols:
        det = F(0)
    return m, pivots, det


# ints, zeros, small fractions and large coprime denominators
wide_entries = st.one_of(
    entries,
    st.integers(-(10**6), 10**6),
    st.builds(F, st.integers(-(10**12), 10**12), st.sampled_from([10**9 + 7, 998244353, 2**61 - 1])),
)


@st.composite
def deficient_matrices(draw):
    """Any shape, with some rows rational combinations of the others, shuffled."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(wide_entries, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=nrows))
    m = list(base)
    while len(m) < nrows:
        coeffs = draw(st.lists(wide_entries, min_size=len(base), max_size=len(base)))
        m.append([sum((c * r[j] for c, r in zip(coeffs, base)), F(0)) for j in range(ncols)])
    return [m[k] for k in draw(st.permutations(range(nrows)))]


class TestRowReduce:
    @settings(max_examples=80, deadline=None)
    @given(square_matrices)
    def test_determinant_matches_cofactor_expansion(self, m):
        assert row_reduce(m)[2] == cofactor_det(m)

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_reduced_echelon_form(self, m):
        reduced, pivots, _ = row_reduce(m)
        assert len(pivots) == rank_by_minors(m) == mat_rank(m)
        assert pivots == sorted(pivots)
        for r, col in enumerate(pivots):
            assert [row[col] for row in reduced] == [F(int(k == r)) for k in range(len(m))]
            assert all(x == 0 for x in reduced[r][:col])
        assert all(x == 0 for row in reduced[len(pivots):] for x in row)

    def test_non_square_determinant_is_zero(self):
        assert row_reduce([(1, 0, 0), (0, 1, 0)])[2] == 0

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(deficient_matrices(), matrices(max_size=5)))
    def test_matches_fraction_elimination(self, m):
        reduced, pivots, det = row_reduce(m)
        assert (reduced, pivots, det) == ref_row_reduce(m)
        assert type(det) is F
        assert all(type(x) is F for row in reduced for x in row)


class TestNullspace:
    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_basis_of_the_kernel(self, m):
        basis = nullspace(m)
        assert len(basis) == len(m[0]) - rank_by_minors(m)
        for v in basis:
            assert all(x == 0 for x in apply(m, v))
        if basis:
            assert rank_by_minors(basis) == len(basis)


def _fraction_or_refusal(text):
    try:
        return F(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


# underscores, other scripts' digits, whitespace that int and str.strip read
# differently, padding, exponents and quotients
@pytest.mark.parametrize("text", ["1_000", "\u0661\u0662", "\x1c5", " -3 ", "1e3", "3/4", "+7", "-0", "1/0", "", "1.5"])
def test_literals_read_as_fraction_reads_them(text):
    expect = _fraction_or_refusal(text)
    if expect is None:
        with pytest.raises(FormatError, match="not a rational literal"):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert type(got) is F and got == expect


@pytest.mark.parametrize("value", [True, 0.5], ids=["bool", "float"])
def test_non_text_literals_are_refused(value):
    # a JSON true or 0.5 is no rational literal, though Fraction would read both
    with pytest.raises(FormatError) as raised:
        parse_rational(value)
    assert str(raised.value) == f"not a rational literal: {value!r}"


def test_a_fraction_passes_through():
    x = F(-3, 4)
    assert parse_rational(x) is x


@given(st.one_of(st.text(), st.text(alphabet="0123456789_+-/. \t\x1c\u0661eE", max_size=8)))
@example("1_000")
@settings(max_examples=500, deadline=None)
def test_any_text_reads_as_fraction_reads_it(text):
    expect = _fraction_or_refusal(text)
    if expect is None:
        with pytest.raises(FormatError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expect
