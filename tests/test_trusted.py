"""Results built without the public constructors keep every invariant.

``multiply``, ``signed_leibniz``, ``AlgebraMap.__call__``,
``FieldMatrix.__mul__`` and ``rref`` hand back their results unfiltered.  Each result must
still have reduced, nonzero coefficients and no killed monomial, must equal
its revalidated copy, and must not depend on the context's merge and degree
memos: the same product on a fresh context gives the same terms.
"""

import pytest
from hypothesis import assume, given, strategies as st

from milnor_forge.ffla import FieldMatrix, rref
from milnor_forge.galg import (
    Element,
    TruncationOverflowError,
    elementary_abelian_context,
    multiply,
)
from milnor_forge.invariants import induced_action
from milnor_forge.milnor import milnor_q

PRIMES = (2, 3, 5)


def fresh_context(prime):
    return elementary_abelian_context(prime, 3, 2 * prime + 6)


CTXS = {p: fresh_context(p) for p in PRIMES}


@st.composite
def raw_elements(draw, ctx, max_degree):
    """Terms drawn from the basis, with coefficients not yet reduced."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        basis = ctx.basis_of_degree(draw(st.integers(0, max_degree)))
        if basis:
            terms[draw(st.sampled_from(basis))] = draw(st.integers(-2 * ctx.prime, 3 * ctx.prime))
    return Element(ctx, terms)


@st.composite
def prime_and_elements(draw, n, max_degree):
    prime = draw(st.sampled_from(PRIMES))
    ctx = CTXS[prime]
    return prime, [draw(raw_elements(ctx, max_degree)) for _ in range(n)]


def assert_well_formed(el):
    ctx = el.context
    for mono, c in el.terms.items():
        assert 1 <= c <= ctx.prime - 1
        assert not ctx.monomial_killed(mono)
        assert ctx.monomial_degree(mono) <= ctx.top_degree
    assert el == Element(ctx, dict(el.terms))


def on_fresh_context(*els):
    """The same terms on one new context whose memos are empty."""
    ctx = fresh_context(els[0].context.prime)
    return [Element(ctx, dict(el.terms)) for el in els]


@given(prime_and_elements(2, max_degree=8))
def test_multiply_results_are_well_formed(data):
    _, (a, b) = data
    for truncate in (False, True):
        try:
            product = multiply(a, b, truncate)
        except TruncationOverflowError:
            assert not truncate
            with pytest.raises(TruncationOverflowError):
                multiply(*on_fresh_context(a, b), truncate)
            continue
        assert_well_formed(product)
        assert multiply(*on_fresh_context(a, b), truncate).terms == product.terms


@st.composite
def invertible_matrices(draw, prime):
    rows = [[draw(st.integers(0, prime - 1)) for _ in range(3)] for _ in range(3)]
    m = FieldMatrix(rows, prime)
    assume(m.rank() == 3)
    return m


@given(st.data())
def test_induced_action_results_are_well_formed(data):
    prime, (el,) = data.draw(prime_and_elements(1, max_degree=8))
    m = data.draw(invertible_matrices(prime))
    image = induced_action(m, el.context)(el)
    assert_well_formed(image)
    (cold_el,) = on_fresh_context(el)
    assert induced_action(m, cold_el.context)(cold_el).terms == image.terms


@given(st.data())
def test_milnor_q_results_are_well_formed(data):
    _, (el,) = data.draw(prime_and_elements(1, max_degree=8))
    j = data.draw(st.integers(0, 1))
    image = milnor_q(j, el.context)(el, truncate=True)
    assert_well_formed(image)
    (cold_el,) = on_fresh_context(el)
    assert milnor_q(j, cold_el.context)(cold_el, truncate=True).terms == image.terms


@st.composite
def matrix_pairs(draw):
    prime = draw(st.sampled_from(PRIMES))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(st.integers(-prime, 2 * prime)) for _ in range(k)] for _ in range(n)]
    b = [[draw(st.integers(-prime, 2 * prime)) for _ in range(m)] for _ in range(k)]
    return prime, a, b


def assert_validated_matrix(m, prime):
    assert type(m.entries) is tuple
    assert all(type(row) is tuple for row in m.entries)
    assert all(0 <= x < prime for row in m.entries for x in row)
    assert (m.rows, m.cols) == (len(m.entries), len(m.entries[0]))
    rebuilt = FieldMatrix(m.entries, prime)
    assert m == rebuilt and hash(m) == hash(rebuilt)


@given(matrix_pairs())
def test_matrix_product_is_reduced_and_hashes_like_a_validated_matrix(data):
    prime, a, b = data
    product = FieldMatrix(a, prime) * FieldMatrix(b, prime)
    assert_validated_matrix(product, prime)
    naive = [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]
    validated = FieldMatrix(naive, prime)
    assert product == validated
    assert hash(product) == hash(validated)
    assert_validated_matrix(rref(product)[1], prime)
