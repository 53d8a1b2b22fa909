"""The sparse `linalg.rref` against the dense reference in oracles.py."""

from hypothesis import given, settings, strategies as st

from marked_bases.linalg import rref
from oracles import dense_rref

INTEGERS = st.integers(-3, 3)
RATIONALS = st.one_of(INTEGERS, st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw, entries):
    """Dense matrices of up to 7 rows and 1-7 columns, empty ones included;
    rows are often all-zero, rank-deficient or repeated."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    if rows and draw(st.booleans()):
        # Repeat rows, or add combinations of earlier ones.
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.sampled_from([0, 1, -2]))
            rows.insert(draw(st.integers(0, len(rows))), [x + k * y for x, y in zip(a, b)])
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return ncols, rows


def sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def assert_rref_matches_dense(ncols, rows):
    before = [sparse(r) for r in rows]
    given_rows = [sparse(r) for r in rows]
    reduced, pivots = rref(given_rows)
    expected, expected_pivots = dense_rref(rows)
    assert given_rows == before  # the input rows are not modified
    assert pivots == expected_pivots
    assert [[r.get(j, 0) for j in range(ncols)] for r in reduced] == expected
    for r, p in zip(reduced, pivots):
        assert min(r) == p and r[p] == 1
        assert all(v for v in r.values())  # no stored zero
        assert not any(isinstance(v, float) for v in r.values())


class TestAgainstDense:
    @settings(max_examples=300, deadline=None)
    @given(matrices(INTEGERS))
    def test_integer_matrices(self, matrix):
        assert_rref_matches_dense(*matrix)

    @settings(max_examples=300, deadline=None)
    @given(matrices(RATIONALS))
    def test_rational_matrices(self, matrix):
        assert_rref_matches_dense(*matrix)

    def test_edge_cases(self):
        assert rref([]) == ([], [])
        assert rref([{}, {}]) == ([], [])
        assert_rref_matches_dense(3, [[0, 0, 0], [0, 0, 0]])
        assert_rref_matches_dense(3, [[1, 2, 3], [1, 2, 3], [2, 4, 6]])
        assert_rref_matches_dense(3, [[0, 2, 4], [0, 1, 2], [3, 0, 1]])

    def test_back_substitution(self):
        # The second pivot lies right of the first, and the first row holds
        # its column, so it is cleared from the first row.
        reduced, pivots = rref([{0: 1, 1: 2, 2: 1}, {1: 1, 2: 3}])
        assert pivots == [0, 1]
        assert reduced == [{0: 1, 2: -5}, {1: 1, 2: 3}]

    def test_rows_fed_with_decreasing_pivots(self):
        # Fed with decreasing pivots, each row is only reduced by the rows
        # before it, as the rows of the random marked-basis generator are.
        reduced, pivots = rref([{-1: 1, 0: 2}, {-3: 1, -1: 5, 0: 1}])
        assert pivots == [-3, -1]
        assert reduced == [{-3: 1, 0: -9}, {-1: 1, 0: 2}]
