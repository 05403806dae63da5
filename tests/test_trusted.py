"""Results built without the public constructors keep every invariant.

``multiply``, ``signed_leibniz``, ``AlgebraMap.__call__``,
``FieldMatrix.__mul__`` and ``rref`` hand back their results unfiltered.  Each result must
still have reduced, nonzero coefficients and no killed monomial, must equal
its revalidated copy, and must not depend on the context's merge and degree
memos: the same product on a fresh context gives the same terms.
``AlgebraMap.__call__``, which multiplies the kept powers of each monomial's
factor images, must also equal a product over every factor starting from
``one``, one factor at a time, both for induced (linear) maps and for maps
whose images are homogeneous but not linear, on elements whose monomials
share a last generator.
"""

import pytest
from hypothesis import assume, given, strategies as st

from milnor_forge.ffla import FieldMatrix, rref
from milnor_forge.galg import (
    AlgebraMap,
    Element,
    TruncationOverflowError,
    _product,
    elementary_abelian_context,
    linear_substitution,
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


def product_of(a, b, truncate):
    """``multiply(a, b)``, or with ``truncate`` the product kernel's
    truncating mode, which drops the terms above the truncation."""
    if truncate:
        return Element._trusted(a.context, _product(a.context, a.terms, b.terms, True))
    return multiply(a, b)


@given(prime_and_elements(2, max_degree=8))
def test_multiply_results_are_well_formed(data):
    _, (a, b) = data
    for truncate in (False, True):
        try:
            product = product_of(a, b, truncate)
        except TruncationOverflowError:
            assert not truncate
            with pytest.raises(TruncationOverflowError):
                product_of(*on_fresh_context(a, b), truncate)
            continue
        assert_well_formed(product)
        assert product_of(*on_fresh_context(a, b), truncate).terms == product.terms


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


def generator_images(ctx, m):
    """e_j -> sum_i m[j][i] e_i on degree-1 generators and on their partners,
    as sums of scaled generators built with public arithmetic."""
    degree_one = [g for g in ctx.generators if g.degree == 1]
    images = {}
    for j, gen in enumerate(degree_one):
        for name, targets in (
            (gen.name, [t.name for t in degree_one]),
            (gen.bockstein_partner, [t.bockstein_partner for t in degree_one]),
        ):
            image = ctx.zero()
            for i, target in enumerate(targets):
                image = image + ctx.generator(target).scale(m[j, i])
            images[name] = image
    return images


def evaluate(images, el):
    """Sum over monomials of coeff * (one times each factor's image)."""
    ctx = el.context
    total = ctx.zero()
    for mono, coeff in el.terms.items():
        product = ctx.monomial_element({})
        for e, g in zip(mono, ctx.generators):
            for _ in range(e):
                product = multiply(product, images[g.name])
        total = total + product.scale(coeff)
    return total


@given(st.data())
def test_algebra_map_matches_an_independent_evaluation(data):
    prime, (el,) = data.draw(prime_and_elements(1, max_degree=8))
    m = data.draw(invertible_matrices(prime))
    images = generator_images(el.context, m)
    assert induced_action(m, el.context)(el) == evaluate(images, el)


@st.composite
def homogeneous_images(draw, ctx):
    """Images of the generators' own degrees, non-linear where the degree
    allows, e.g. x2 -> x1*y1 + y2: sums of up to three basis monomials with
    drawn coefficients (combinations of odd generators for odd ones)."""
    images = {}
    for g in ctx.generators:
        if ctx.prime != 2 and g.degree % 2:
            support = sorted(ctx._odd_units & set(ctx.basis_of_degree(g.degree)))
        else:
            support = ctx.basis_of_degree(g.degree)
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            terms[draw(st.sampled_from(support))] = draw(st.integers(0, ctx.prime - 1))
        images[g.name] = Element(ctx, terms)
    return images


@st.composite
def shared_last_generator(draw, ctx, max_degree):
    """Several monomials of one degree that end in the same generator, plus
    a few drawn terms of any degree."""
    degree = draw(st.integers(1, max_degree))
    position = draw(st.integers(0, len(ctx.generators) - 1))
    ending = [
        m for m in ctx.basis_of_degree(degree)
        if m[position] and not any(m[position + 1:])
    ]
    chosen = draw(st.lists(st.sampled_from(ending), max_size=5, unique=True)) if ending else []
    terms = {m: draw(st.integers(1, ctx.prime - 1)) for m in chosen}
    terms.update(draw(raw_elements(ctx, max_degree)).terms)
    return Element(ctx, terms)


@given(st.data())
def test_grouped_evaluation_under_non_linear_images(data):
    prime = data.draw(st.sampled_from(PRIMES))
    ctx = CTXS[prime]
    images = data.draw(homogeneous_images(ctx))
    el = data.draw(shared_last_generator(ctx, max_degree=8))
    image = linear_substitution(ctx, images)(el)
    assert_well_formed(image)
    assert image == evaluate(images, el)


class TestAlgebraMapCall:
    def test_scalar_maps_to_itself(self):
        ctx = CTXS[3]
        f = induced_action(FieldMatrix([[0, 1, 0], [1, 1, 0], [2, 0, 1]], 3), ctx)
        two = ctx.monomial_element({}).scale(2)
        assert f(two) == two
        assert f(ctx.zero()) == ctx.zero()

    @pytest.mark.parametrize("prime", PRIMES)
    def test_single_generator_maps_to_its_image(self, prime):
        ctx = CTXS[prime]
        m = FieldMatrix([[1, 1, 0], [0, 1, 0], [1, 0, 1]], prime)
        f = induced_action(m, ctx)
        images = generator_images(ctx, m)
        for g in ctx.generators:
            assert f(ctx.generator(g.name)) == images[g.name]

    def test_exact_product_past_the_truncation_raises(self):
        ctx = elementary_abelian_context(3, 1, 4)
        x2 = ctx.generator("x2")
        # x2^3 lies above the truncation; its second product overflows
        with pytest.raises(TruncationOverflowError):
            linear_substitution(ctx, {})(Element(ctx, {(0, 3): 1}))
        # x2^2 lies within it, but its image under x2 -> x2 + x2^2 does not
        with pytest.raises(TruncationOverflowError):
            AlgebraMap(ctx, {"x2": x2 + multiply(x2, x2)})(multiply(x2, x2))
        # each monomial's image is formed on its own, as multiply forms each
        # term pair's: x1*y2^e and y1*y2^e lie above the truncation and each
        # raises, and so does x1*y2^e + 2*y1*y2^e, although under y1 -> x1
        # the two images would cancel
        ctx = elementary_abelian_context(3, 2, 4)
        f = linear_substitution(ctx, {"y1": ctx.generator("x1")})
        for e in (2, 3):
            x1_y2_e, y1_y2_e = (1, 0, 0, e), (0, 0, 1, e)
            for terms in ({x1_y2_e: 1}, {y1_y2_e: 1}, {x1_y2_e: 1, y1_y2_e: 2}):
                with pytest.raises(TruncationOverflowError):
                    f(Element(ctx, terms))


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
    assert m == rebuilt


@given(matrix_pairs())
def test_matrix_product_is_reduced_and_equals_a_validated_matrix(data):
    prime, a, b = data
    product = FieldMatrix(a, prime) * FieldMatrix(b, prime)
    assert_validated_matrix(product, prime)
    naive = [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]
    validated = FieldMatrix(naive, prime)
    assert product == validated
    assert_validated_matrix(rref(product)[1], prime)
