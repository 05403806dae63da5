"""The echelon basis behind every row reduction in ``ffla`` and the page
engine, against oracles that do not use it: rank over GF(p) from sympy, the
two-rank test ``in_span`` used to run, the greedy rank rule for page
representatives, and sympy's rref over GF(p)."""

import pytest
from hypothesis import given, strategies as st

from milnor_forge.ffla import _Echelon, in_span, row_space_basis
from milnor_forge.specseq import _complement

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = (2, 3, 5, 7)


def sympy_matrix(vectors, p):
    field = sympy.GF(p)
    return DomainMatrix(
        [[field(x) for x in row] for row in vectors], (len(vectors), len(vectors[0])), field
    )


def rank(vectors, p):
    return sympy_matrix(vectors, p).rank() if vectors else 0


def sympy_rref_basis(vectors, p):
    """The nonzero rows of sympy's rref, entries in ``[0, p)``."""
    if not vectors:
        return []
    reduced, pivots = sympy_matrix(vectors, p).rref()
    return [tuple(int(x) % p for x in row) for row in reduced.to_list()[: len(pivots)]]


def in_span_by_rank(vector, basis, p):
    """The vector is spanned when adding it leaves the rank unchanged."""
    if not any(x % p for x in vector):
        return True
    return rank([*basis, vector], p) == rank(basis, p)


def greedy_complement(boundaries, cycles, p):
    """Each cycle, in order, that raises the rank of the boundaries and the
    cycles kept before it."""
    chosen = []
    for vec in cycles:
        if rank([*boundaries, *chosen, vec], p) > rank([*boundaries, *chosen], p):
            chosen.append(tuple(vec))
    return chosen


@st.composite
def vector_lists(draw, p, n, max_size=5):
    """Vectors of length n with entries outside [0, p) too, some repeated."""
    entry = st.integers(-2 * p, 3 * p)
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=max_size))
    if vectors and draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))), list(draw(st.sampled_from(vectors))))
    return vectors


@st.composite
def span_queries(draw):
    """(p, basis, vector): a basis in rref or not, possibly empty, and a vector
    that is often an unreduced combination of the basis rows."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 5))
    basis = draw(vector_lists(p, n))
    if basis and draw(st.booleans()):
        basis = [list(row) for row in row_space_basis(basis, p)]
    if basis and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-p, 2 * p), min_size=len(basis), max_size=len(basis)))
        vector = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
    else:
        vector = draw(st.lists(st.integers(-2 * p, 3 * p), min_size=n, max_size=n))
    return p, basis, vector


@given(span_queries())
def test_in_span_matches_rank_oracle(query):
    p, basis, vector = query
    assert in_span(vector, basis, p) == in_span_by_rank(vector, basis, p)


@given(span_queries())
def test_echelon_rank_and_reduction(query):
    p, basis, vector = query
    span = _Echelon(p, basis)
    assert len(span) == rank(basis, p)
    for row in basis:
        assert not any(span.reduce(row))
    rest = span.reduce(vector)
    assert all(0 <= x < p for x in rest)
    # the remainder differs from the vector by an element of the span
    assert in_span_by_rank([a - b for a, b in zip(vector, rest)], basis, p)
    assert any(rest) == (not in_span_by_rank(vector, basis, p))


@given(st.sampled_from(PRIMES), st.integers(1, 5), st.data())
def test_complement_matches_greedy_rule(p, n, data):
    boundaries = data.draw(vector_lists(p, n))
    cycles = data.draw(vector_lists(p, n, max_size=6))
    if data.draw(st.booleans()):
        # as on a page: the boundaries lie in the span of the cycles
        cycles = [*boundaries, *cycles]
    assert _complement(boundaries, cycles, p) == greedy_complement(boundaries, cycles, p)


@given(span_queries())
def test_row_space_basis_is_sympy_rref(query):
    p, basis, _ = query
    assert row_space_basis(basis, p) == sympy_rref_basis(basis, p)


@given(st.sampled_from(PRIMES), st.integers(1, 5), st.data())
def test_echelon_rows_stay_fully_reduced(p, n, data):
    vectors = data.draw(vector_lists(p, n, max_size=7))
    span = _Echelon(p, [])
    for i, vec in enumerate(vectors):
        span.insert(vec)
        # after every insert: a 1 at each row's pivot, zeros before it and
        # zeros at every other row's pivot
        for col, row in span.rows.items():
            assert row[col] == 1
            assert not any(row[:col])
            assert all(row[other] == 0 for other in span.rows if other != col)
        assert span.basis() == sympy_rref_basis(vectors[: i + 1], p)


def test_in_span_rejects_what_it_rejected_before():
    with pytest.raises(ValueError):
        in_span((1, 0), [(1, 0, 0)], 3)
    with pytest.raises(ValueError):
        in_span((1, 1), [(1, 0), (0, 1, 1)], 3)
    with pytest.raises(ValueError):
        in_span((1,), [(1,)], 4)
    assert in_span((3, 6), [(1, 0)], 3)
    assert not in_span((1, 1), [], 3)
