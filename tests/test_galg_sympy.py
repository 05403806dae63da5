"""``multiply`` against sympy's polynomial rings over F_l.

At l = 2 every generator is polynomial, so the truncated algebra is a
truncated polynomial ring.  At odd l the degree-2 generators span a
polynomial subring; elements on them alone multiply like polynomials.
"""

import pytest
from hypothesis import given, strategies as st

from milnor_forge.galg import Element, elementary_abelian_context, multiply

sympy = pytest.importorskip("sympy")

TOP = 8
CTXS = {p: elementary_abelian_context(p, 3, TOP) for p in (2, 3, 5)}


def polynomial_positions(ctx):
    return [i for i, g in enumerate(ctx.generators) if ctx.prime == 2 or g.degree % 2 == 0]


@st.composite
def polynomial_elements(draw, ctx):
    positions = polynomial_positions(ctx)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        basis = [
            mono for mono in ctx.basis_of_degree(draw(st.integers(0, TOP)))
            if all(mono[i] == 0 for i in range(len(mono)) if i not in positions)
        ]
        if basis:
            terms[draw(st.sampled_from(basis))] = draw(st.integers(1, ctx.prime - 1))
    return Element(ctx, terms)


def to_poly(el, symbols):
    positions = polynomial_positions(el.context)
    expr = sum(
        c * sympy.prod(s ** mono[i] for s, i in zip(symbols, positions))
        for mono, c in el.terms.items()
    )
    return sympy.Poly(expr, *symbols, modulus=el.context.prime)


def from_poly(poly, ctx):
    """Terms of ``poly`` of weighted degree at most ``TOP``, residues in [0, l)."""
    positions = polynomial_positions(ctx)
    weights = [ctx.generators[i].degree for i in positions]
    terms = {}
    for exps, c in poly.terms():
        if int(c) % ctx.prime and sum(e * w for e, w in zip(exps, weights)) <= TOP:
            mono = [0] * len(ctx.generators)
            for i, e in zip(positions, exps):
                mono[i] = e
            terms[tuple(mono)] = int(c) % ctx.prime
    return terms


@given(st.data())
def test_multiply_matches_sympy_polynomials(data):
    prime = data.draw(st.sampled_from(sorted(CTXS)))
    ctx = CTXS[prime]
    a = data.draw(polynomial_elements(ctx))
    b = data.draw(polynomial_elements(ctx))
    symbols = sympy.symbols("x y z")
    expected = from_poly(to_poly(a, symbols) * to_poly(b, symbols), ctx)
    assert multiply(a, b, truncate=True).terms == expected
