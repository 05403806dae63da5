import pytest
from hypothesis import given, strategies as st

from milnor_forge import galg

from milnor_forge.galg import (
    AlgebraContext,
    Element,
    GeneratorSpec,
    TruncationOverflowError,
    elementary_abelian_context,
    linear_substitution,
    multiply,
    signed_leibniz,
)

CONTEXTS = {
    (3, 3): elementary_abelian_context(3, 3, 10),
    (5, 3): elementary_abelian_context(5, 3, 10),
    (2, 3): elementary_abelian_context(2, 3, 10),
    (3, 2): elementary_abelian_context(3, 2, 10),
}


def series_coefficients(ctx, upto):
    """Independent oracle: coefficients of prod (1 + t^d) over odd generators
    times prod 1/(1 - t^d) over even generators, truncated."""
    coeffs = [1] + [0] * upto
    for g in ctx.generators:
        if ctx.prime != 2 and g.degree % 2:
            new = list(coeffs)
            for n in range(upto, g.degree - 1, -1):
                new[n] = (new[n] + coeffs[n - g.degree])
            coeffs = new
        else:
            # geometric factor: one pass accumulating lower terms
            for n in range(g.degree, upto + 1):
                coeffs[n] += coeffs[n - g.degree]
    return coeffs


@st.composite
def homogeneous_elements(draw, ctx, max_degree=6, max_terms=3):
    d = draw(st.integers(0, max_degree))
    basis = ctx.basis_of_degree(d)
    el = ctx.zero()
    if not basis:
        return el, d
    for _ in range(draw(st.integers(1, max_terms))):
        mono = draw(st.sampled_from(basis))
        coeff = draw(st.integers(1, ctx.prime - 1)) if ctx.prime > 2 else 1
        el = el + Element(ctx, {mono: coeff})
    return el, d


@st.composite
def elements(draw, ctx, max_degree=5, max_terms=3):
    el = ctx.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        part, _ = draw(homogeneous_elements(ctx, max_degree, 1))
        el = el + part
    return el


def ctx_and_elements(n):
    @st.composite
    def strat(draw):
        key = draw(st.sampled_from(sorted(CONTEXTS)))
        ctx = CONTEXTS[key]
        return ctx, [draw(elements(ctx, max_degree=3)) for _ in range(n)]

    return strat()


class TestMultiply:
    def test_odd_odd_anticommute(self):
        ctx = CONTEXTS[(5, 3)]
        x1, y1 = ctx.generator("x1"), ctx.generator("y1")
        assert (multiply(x1, y1) + multiply(y1, x1)).is_zero()

    def test_exterior_square(self):
        ctx = CONTEXTS[(5, 3)]
        x1 = ctx.generator("x1")
        assert multiply(x1, x1).is_zero()

    def test_no_sign_needed(self):
        ctx = CONTEXTS[(3, 3)]
        a = ctx.monomial_element({"x2": 1, "y1": 1})
        b = ctx.generator("z1")
        prod = multiply(a, b)
        assert prod.coefficient({"x2": 1, "y1": 1, "z1": 1}) == 1

    def test_koszul_sign_from_reordering(self):
        ctx = CONTEXTS[(3, 3)]
        z1, x1 = ctx.generator("z1"), ctx.generator("x1")
        # z1 * x1 = -x1 * z1
        assert multiply(z1, x1) == multiply(x1, z1).scale(-1)

    def test_exact_multiply_overflows(self):
        ctx = elementary_abelian_context(3, 2, 4)
        x2 = ctx.generator("x2")
        with pytest.raises(TruncationOverflowError):
            multiply(multiply(x2, x2), x2)

    def test_truncating_multiply_drops(self):
        ctx = elementary_abelian_context(3, 2, 4)
        x2 = ctx.generator("x2")
        assert multiply(multiply(x2, x2), x2, truncate=True).is_zero()

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            multiply(
                CONTEXTS[(3, 3)].monomial_element({}, 1),
                CONTEXTS[(5, 3)].monomial_element({}, 1),
            )

    def test_squares_allowed_at_two(self):
        ctx = CONTEXTS[(2, 3)]
        x1 = ctx.generator("x1")
        assert multiply(x1, x1) == ctx.monomial_element({"x1": 2})

    @pytest.mark.parametrize(
        "prime, degree, exterior",
        [(3, 3, True), (5, 1, True), (3, 2, False), (2, 1, False), (2, 3, False)],
    )
    def test_parity_from_degree_and_prime(self, prime, degree, exterior):
        # a generator is exterior exactly when its degree and the prime are odd
        ctx = AlgebraContext(prime, [GeneratorSpec("g", degree)], 2 * degree)
        g = ctx.generator("g")
        assert multiply(g, g).is_zero() == exterior
        assert len(ctx.basis_of_degree(2 * degree)) == (not exterior)


class TestBasisOfDegree:
    def test_degree_four_odd(self):
        assert len(CONTEXTS[(3, 3)].basis_of_degree(4)) == 15

    def test_degree_four_two(self):
        assert len(CONTEXTS[(2, 3)].basis_of_degree(4)) == 15

    def test_degree_zero(self):
        for ctx in CONTEXTS.values():
            assert ctx.basis_of_degree(0) == ((0,) * len(ctx.generators),)

    def test_beyond_truncation(self):
        with pytest.raises(ValueError):
            CONTEXTS[(3, 3)].basis_of_degree(11)

    @pytest.mark.parametrize("key", sorted(CONTEXTS))
    def test_sizes_match_series_oracle(self, key):
        ctx = CONTEXTS[key]
        oracle = series_coefficients(ctx, 8)
        for d in range(9):
            assert len(ctx.basis_of_degree(d)) == oracle[d]

    def test_deterministic_order(self):
        ctx = CONTEXTS[(3, 3)]
        assert ctx.basis_of_degree(4) == tuple(sorted(ctx.basis_of_degree(4)))


class TestAnnihilatorPairs:
    def test_pair_kills_product(self):
        gens = [
            GeneratorSpec("a", 2),
            GeneratorSpec("b", 3),
            GeneratorSpec("c", 2),
        ]
        ctx = AlgebraContext(3, gens, 8, annihilator_pairs=[("a", "b")])
        a, b, c = ctx.generator("a"), ctx.generator("b"), ctx.generator("c")
        assert multiply(a, b).is_zero()
        assert not multiply(a, c).is_zero()
        assert not multiply(c, b).is_zero()

    def test_pair_pruned_from_basis(self):
        gens = [GeneratorSpec("a", 2), GeneratorSpec("b", 2)]
        ctx = AlgebraContext(3, gens, 8, annihilator_pairs=[("a", "b")])
        assert len(ctx.basis_of_degree(4)) == 2  # a^2 and b^2 only

    def test_pair_naming_one_generator_twice_rejected(self):
        # such a pair would kill every monomial containing the generator,
        # the generator itself included
        gens = [GeneratorSpec("a", 2), GeneratorSpec("b", 2)]
        with pytest.raises(ValueError, match="^annihilator pair names a twice$"):
            AlgebraContext(3, gens, 6, annihilator_pairs=[("a", "a")])


class TestElement:
    def test_homogeneous_degree(self):
        ctx = CONTEXTS[(3, 3)]
        el = ctx.monomial_element({"x2": 2})
        assert el.homogeneous_degree() == 4
        mixed = el + ctx.generator("x1")
        assert mixed.homogeneous_degree() is None

    def test_zero_coefficients_dropped(self):
        ctx = CONTEXTS[(3, 3)]
        el = ctx.generator("x1") + ctx.generator("x1").scale(2)
        assert el.is_zero()
        assert el.terms == {}

    def test_coefficients_reduced_on_construction(self):
        ctx = CONTEXTS[(5, 3)]
        y1 = ctx.monomial_element({"y1": 1})
        (mono,) = y1.terms
        seven, two = Element(ctx, {mono: 7}), Element(ctx, {mono: 2})
        assert seven.render() == "2*y1"
        assert seven == two
        assert (seven - two).is_zero()
        assert Element(ctx, {mono: -1}).render() == "4*y1"
        assert Element(ctx, {mono: 10}).is_zero()

    def test_non_integer_coefficients_and_exponents_rejected(self):
        # outside coefficients and exponents are integers or raise; none is
        # kept as a float
        ctx = CONTEXTS[(3, 3)]
        (x1,) = ctx.generator("x1").terms
        with pytest.raises(TypeError):
            Element(ctx, {x1: 1.5})
        with pytest.raises(TypeError):
            Element(ctx, {x1: 3.0})
        with pytest.raises(TypeError):
            ctx.monomial_element({"x2": 1.5})
        with pytest.raises(TypeError):
            ctx.monomial_element({"x2": 1}, coeff=0.5)
        with pytest.raises(TypeError):
            ctx.generator("x1").scale(2.0)
        assert Element(ctx, {x1: True}).render() == "1*x1"
        assert ctx.monomial_element({"x2": True}, coeff=4).render() == "1*x2"
        assert ctx.generator("x1").scale(False).is_zero()

    def test_non_integer_monomial_exponent_rejected(self):
        ctx = CONTEXTS[(3, 3)]
        with pytest.raises(TypeError):
            Element(ctx, {(0, 1.5, 0, 0, 0, 0): 1})
        with pytest.raises(TypeError):
            Element(ctx, {(0, 1.0, 0, 0, 0, 0): 1})
        assert Element(ctx, {(0, True, 0, 0, 0, 0): 1}) == ctx.generator("x2")

    def test_negative_monomial_exponent_rejected(self):
        ctx = CONTEXTS[(3, 3)]
        with pytest.raises(ValueError):
            Element(ctx, {(0, -1, 0, 0, 0, 0): 1})
        with pytest.raises(ValueError):
            Element(ctx, {(0, -1, 0, 0, 0, 0): 0})

    def test_monomial_of_the_wrong_length_rejected(self):
        ctx = CONTEXTS[(3, 3)]
        for mono in ((0, 1, 0, 0), (0, 1, 0, 0, 0, 0, 0), ()):
            with pytest.raises(ValueError):
                Element(ctx, {mono: 1})
        # a monomial past the truncation is kept
        assert Element(ctx, {(0, 6, 0, 0, 0, 0): 1}).homogeneous_degree() == 12

    def test_killed_monomials_dropped_on_construction(self):
        # as monomial_element does: an exterior square at an odd prime and a
        # monomial carrying an annihilator pair are zero
        ctx = elementary_abelian_context(3, 2, 6)
        x1_squared = Element(ctx, {(2, 0, 0, 0): 1, (0, 1, 0, 0): 1})
        assert x1_squared.terms == {(0, 1, 0, 0): 1}
        assert Element(ctx, {(2, 0, 0, 0): 1}) == ctx.monomial_element({"x1": 2}) == ctx.zero()
        f = linear_substitution(ctx, {"x2": Element(ctx, {(2, 0, 0, 0): 1})})
        assert f(ctx.generator("x2")).is_zero()
        gens = [GeneratorSpec("a", 2), GeneratorSpec("b", 2)]
        paired = AlgebraContext(3, gens, 8, annihilator_pairs=[("a", "b")])
        assert Element(paired, {(1, 1): 1}).is_zero()
        assert Element(paired, {(2, 0): 1}).render() == "1*a^2"

    def test_render_golden(self):
        ctx = CONTEXTS[(5, 3)]
        el = multiply(
            ctx.monomial_element({"x2": 1, "y1": 1})
            - ctx.monomial_element({"x1": 1, "y2": 1}),
            ctx.generator("z1"),
        )
        assert el.render() == "1*x2*y1*z1 + 4*x1*y2*z1"

    def test_render_zero(self):
        assert CONTEXTS[(3, 3)].zero().render() == "0"

    def test_render_unit(self):
        assert CONTEXTS[(3, 3)].monomial_element({}, 1).render() == "1*1"


class TestLinearSubstitution:
    def test_identity_images(self):
        ctx = CONTEXTS[(3, 3)]
        f = linear_substitution(ctx, {})
        el = ctx.monomial_element({"x1": 1, "y2": 2})
        assert f(el) == el

    def test_shear_on_triple_product(self):
        # z1 -> x1 + z1, z2 -> x2 + z2 applied to x1*y1*z2
        ctx = CONTEXTS[(3, 3)]
        f = linear_substitution(
            ctx,
            {
                "z1": ctx.generator("x1") + ctx.generator("z1"),
                "z2": ctx.generator("x2") + ctx.generator("z2"),
            },
        )
        el = ctx.monomial_element({"x1": 1, "y1": 1, "z2": 1})
        image = f(el)
        expected = ctx.monomial_element({"x1": 1, "x2": 1, "y1": 1}) + el
        assert image == expected

    def test_both_sign_conventions_on_z2_square(self):
        # the two displayed conventions disagree; both are pinned here
        ctx = CONTEXTS[(3, 3)]
        z2sq = ctx.monomial_element({"z2": 2})
        plus = linear_substitution(ctx, {"z1": ctx.generator("x1") + ctx.generator("z1"),
                                         "z2": ctx.generator("x2") + ctx.generator("z2")})
        minus = linear_substitution(ctx, {"z1": ctx.generator("z1") - ctx.generator("x1"),
                                          "z2": ctx.generator("z2") - ctx.generator("x2")})
        m = ctx.monomial_element
        assert z2sq - plus(z2sq) == -m({"x2": 2}) - m({"x2": 1, "z2": 1}).scale(2)
        assert z2sq - minus(z2sq) == -m({"x2": 2}) + m({"x2": 1, "z2": 1}).scale(2)

    def test_permutation_inverts(self):
        ctx = CONTEXTS[(5, 3)]
        swap = {
            "x1": ctx.generator("y1"), "y1": ctx.generator("x1"),
            "x2": ctx.generator("y2"), "y2": ctx.generator("x2"),
        }
        f = linear_substitution(ctx, swap)
        el = ctx.monomial_element({"x1": 1, "y2": 2, "z1": 1})
        assert f(f(el)) == el

    def test_inhomogeneous_image_rejected(self):
        ctx = CONTEXTS[(3, 3)]
        with pytest.raises(ValueError, match=r"^image of x2 must be homogeneous of degree 2$"):
            linear_substitution(
                ctx, {"x2": ctx.generator("x2") + ctx.monomial_element({}, 1)}
            )

    def test_degree_mismatch_rejected(self):
        ctx = CONTEXTS[(3, 3)]
        with pytest.raises(ValueError, match=r"^image of x2 must be homogeneous of degree 2$"):
            linear_substitution(ctx, {"x2": ctx.generator("x1")})

    def test_odd_image_must_be_linear_in_odd(self):
        # x1*y1*z1 is homogeneous of degree 3 but not a combination of odd
        # generators, so it cannot be the image of a degree-1 generator
        gens = [GeneratorSpec("w", 3), GeneratorSpec("u", 3),
                GeneratorSpec("v", 1), GeneratorSpec("s", 2)]
        ctx = AlgebraContext(3, gens, 8)
        one = ctx.monomial_element({}, 1)
        bad = multiply(multiply(ctx.generator("v"), ctx.generator("s")), one)
        with pytest.raises(
            ValueError,
            match=r"^image of odd generator w must be a combination of odd generators$",
        ):
            linear_substitution(ctx, {"w": bad})
        ok = ctx.generator("u") - ctx.generator("w")
        linear_substitution(ctx, {"w": ok})

    @staticmethod
    def images(case):
        """``(context, images)`` for one row of the decision table."""
        if case in ("odd combination", "odd generator outside the odd units"):
            gens = [GeneratorSpec("w", 3), GeneratorSpec("u", 3),
                    GeneratorSpec("v", 1), GeneratorSpec("s", 2)]
            ctx = AlgebraContext(3, gens, 8)
            g = ctx.generator
            w = g("u") - g("w") if case == "odd combination" else multiply(g("v"), g("s"))
            return ctx, {"w": w}
        if case == "image above the truncation":
            # x2 has degree 2 over a truncation at 1: no basis to test against
            ctx = elementary_abelian_context(3, 1, 1)
            return ctx, {"x2": Element(ctx, {(0, 1): 2})}
        ctx = CONTEXTS[(3, 3)]
        g, m = ctx.generator, ctx.monomial_element
        return ctx, {
            "linear": {"x1": g("y1") - g("x1"), "y2": g("x2").scale(2) + g("z2")},
            "non-linear even image": {"x2": m({"x1": 1, "y1": 1}) + g("y2")},
            "zero image": {"z1": ctx.zero(), "z2": ctx.zero()},
            "inhomogeneous": {"x1": g("y1"), "x2": g("x2") + ctx.monomial_element({}, 1)},
            "unknown name": {"x1": g("x1"), "w1": g("x1")},
        }[case]

    # case -> (error type, or None when accepted; the error's message)
    DECISIONS = {
        "linear": (None, None),
        "non-linear even image": (None, None),
        "zero image": (None, None),
        "odd combination": (None, None),
        "image above the truncation": (None, None),
        "inhomogeneous": (ValueError, "image of x2 must be homogeneous of degree 2"),
        "odd generator outside the odd units": (
            ValueError, "image of odd generator w must be a combination of odd generators"
        ),
        "unknown name": (KeyError, "w1"),
    }

    @pytest.mark.parametrize("case", sorted(DECISIONS))
    def test_decisions_and_messages(self, case):
        ctx, images = self.images(case)
        error, message = self.DECISIONS[case]
        if error is None:
            f = linear_substitution(ctx, images)
            assert all(f.images[name] == image for name, image in images.items())
            return
        with pytest.raises(error) as raised:
            linear_substitution(ctx, images)
        assert raised.value.args == (message,)

    def test_image_from_another_context_rejected(self):
        ctx = CONTEXTS[(3, 3)]
        twin = elementary_abelian_context(3, 3, 10)
        with pytest.raises(ValueError, match=r"^image belongs to a different context$"):
            linear_substitution(ctx, {"x1": twin.generator("x1")})

    def test_zero_image_accepted(self):
        ctx = CONTEXTS[(3, 3)]
        f = linear_substitution(ctx, {"z1": ctx.zero(), "z2": ctx.zero()})
        m = ctx.monomial_element
        assert f(m({"z1": 1})).is_zero()
        assert f(m({"x1": 1, "z2": 1})).is_zero()
        assert f(m({"x1": 1, "y2": 1})) == m({"x1": 1, "y2": 1})

    def test_recursion_depth_does_not_grow_with_the_exponent(self):
        # the image of x2^1100 is a power formed in a loop, one product per
        # step, not 1100 nested applications
        ctx = elementary_abelian_context(3, 1, 2400)
        el = ctx.monomial_element({"x2": 1100})
        assert linear_substitution(ctx, {"x2": ctx.generator("x2")})(el) == el

    def test_power_of_a_shear_image(self):
        # (x2 + y2)^9 = x2^9 + y2^9 at l = 3; the image of x2^9*y1 is the
        # kept power f(x2)^9 times f(y1)
        ctx = elementary_abelian_context(3, 2, 20)
        g, m = ctx.generator, ctx.monomial_element
        f = linear_substitution(ctx, {"x2": g("x2") + g("y2")})
        assert f(m({"x2": 9})) == m({"x2": 9}) + m({"y2": 9})
        assert f(m({"x2": 9, "y1": 1})) == m({"x2": 9, "y1": 1}) + m({"y1": 1, "y2": 9})

    @pytest.mark.parametrize("prime", (2, 3, 5))
    def test_monomials_map_to_products_of_image_powers(self, prime):
        # each basis monomial with exponents 0..3 maps to the product, in
        # generator order, of its factors' images, multiplied out one factor
        # at a time; the first power of an image is read without a product
        ctx = elementary_abelian_context(prime, 3, 12)
        g = ctx.generator
        if prime == 2:
            images = {"x1": g("x1") + g("y1"), "z1": g("x1") + g("y1") + g("z1")}
        else:
            images = {"y1": g("y1") - g("x1"), "z1": g("x1") + g("z1"),
                      "x2": g("x2") + g("y2"), "z2": g("x2") + g("z2").scale(2)}
        f = linear_substitution(ctx, images)
        seen = 0
        for d in range(ctx.top_degree + 1):
            for mono in ctx.basis_of_degree(d):
                if max(mono, default=0) > 3:
                    continue
                want = ctx.monomial_element({}, 1)
                for spec, e in zip(ctx.generators, mono):
                    for _ in range(e):
                        want = multiply(want, f.images[spec.name])
                assert f(Element(ctx, {mono: 1})) == want
                seen += 1
        assert seen > 50

    def test_one_product_per_factor_and_powers_kept(self, monkeypatch):
        # Q0(x1 y1 z1) = x2 y1 z1 - x1 y2 z1 + x1 y1 z2 at l = 5: three
        # monomials of three factors cost two products each, on every
        # application; x2^3 z2 costs two products to form f(x2)^3 on the
        # first application only, and one to multiply it by f(z2)
        ctx = CONTEXTS[(5, 3)]
        g, m = ctx.generator, ctx.monomial_element
        f = linear_substitution(ctx, {"z1": g("x1") + g("z1"), "z2": g("x2") + g("z2")})
        q0 = m({"x2": 1, "y1": 1, "z1": 1}) - m({"x1": 1, "y2": 1, "z1": 1}) \
            + m({"x1": 1, "y1": 1, "z2": 1})
        cube = m({"x2": 3, "z2": 1})
        calls = []
        product = galg._product
        monkeypatch.setattr(galg, "_product", lambda *args: calls.append(1) or product(*args))
        for el, first, again in ((q0, 6, 6), (cube, 3, 1)):
            calls.clear()
            f(el)
            assert len(calls) == first
            calls.clear()
            f(el)
            assert len(calls) == again


class TestSignedLeibniz:
    def test_sign_on_exterior_product(self):
        ctx = CONTEXTS[(3, 2)]
        m = ctx.monomial_element
        rules = {ctx.position("x1"): (1, m({"x2": 1})), ctx.position("y1"): (1, m({"y2": 1}))}
        got = signed_leibniz(m({"x1": 1, "y1": 1}), rules)
        assert got == m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1})

    def test_power_rule(self):
        # a rule on z^2 sends z^n to (n // 2) * z^(n - 2) * image, and z to 0
        ctx = AlgebraContext(
            2, [GeneratorSpec("a", 3), GeneratorSpec("z", 1)], 8
        )
        m = ctx.monomial_element
        rules = {ctx.position("z"): (2, m({"a": 1}))}
        assert signed_leibniz(m({"z": 1}), rules).is_zero()
        assert signed_leibniz(m({"z": 2}), rules) == m({"a": 1})
        assert signed_leibniz(m({"z": 3}), rules) == m({"a": 1, "z": 1})
        assert signed_leibniz(m({"z": 4}), rules).is_zero()

    def test_truncate_flag(self):
        ctx = elementary_abelian_context(3, 1, 3)
        m = ctx.monomial_element
        rules = {ctx.position("x1"): (1, m({"x2": 1}))}
        el = m({"x1": 1, "x2": 1})
        with pytest.raises(TruncationOverflowError):
            signed_leibniz(el, rules)
        assert signed_leibniz(el, rules, truncate=True).is_zero()


def bubble_sign_oracle(ctx, left, right):
    """Independent sign: concatenate the factor sequences and bubble-sort,
    flipping per swap of two odd symbols; repeated odd symbol kills the term."""
    seq = []
    for mono in (left, right):
        for e, g in zip(mono, ctx.generators):
            odd = ctx.prime != 2 and g.degree % 2 == 1
            seq.extend([(ctx.position(g.name), odd)] * e)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j][0] > seq[j + 1][0]:
                if seq[j][1] and seq[j + 1][1]:
                    sign = -sign
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
    for a, b in zip(seq, seq[1:]):
        if a == b and a[1]:
            return 0
    return sign


@given(st.data())
def test_multiply_sign_matches_bubble_oracle(data):
    key = data.draw(st.sampled_from(sorted(CONTEXTS)))
    ctx = CONTEXTS[key]
    da = data.draw(st.integers(0, 4))
    db = data.draw(st.integers(0, 4))
    basis_a = ctx.basis_of_degree(da)
    basis_b = ctx.basis_of_degree(db)
    if not basis_a or not basis_b:
        return
    ma = data.draw(st.sampled_from(basis_a))
    mb = data.draw(st.sampled_from(basis_b))
    product = multiply(Element(ctx, {ma: 1}), Element(ctx, {mb: 1}), True)
    expected_sign = bubble_sign_oracle(ctx, ma, mb)
    merged = tuple(a + b for a, b in zip(ma, mb))
    if expected_sign == 0 or ctx.monomial_killed(merged) or (
        ctx.monomial_degree(merged) > ctx.top_degree
    ):
        if expected_sign == 0:
            assert product.is_zero()
    else:
        assert product.terms == {merged: expected_sign % ctx.prime}


@given(ctx_and_elements(3))
def test_associativity_and_distributivity(data):
    ctx, (a, b, c) = data
    assert multiply(multiply(a, b, True), c, True) == multiply(a, multiply(b, c, True), True)
    assert multiply(a + b, c, True) == multiply(a, c, True) + multiply(b, c, True)


@given(st.data())
def test_graded_commutativity(data):
    key = data.draw(st.sampled_from(sorted(CONTEXTS)))
    ctx = CONTEXTS[key]
    a, da = data.draw(homogeneous_elements(ctx, max_degree=4))
    b, db = data.draw(homogeneous_elements(ctx, max_degree=4))
    ab = multiply(a, b, True)
    ba = multiply(b, a, True)
    if ctx.prime != 2 and (da * db) % 2 == 1:
        assert ab == ba.scale(-1)
    else:
        assert ab == ba


@given(st.data())
def test_substitution_is_multiplicative(data):
    ctx = CONTEXTS[(5, 3)]
    f = linear_substitution(ctx, {"z1": ctx.generator("x1") + ctx.generator("z1"),
                                  "z2": ctx.generator("x2") + ctx.generator("z2")})
    a = data.draw(elements(ctx, max_degree=3))
    b = data.draw(elements(ctx, max_degree=3))
    assert f(multiply(a, b, True)) == multiply(f(a), f(b), True)
