import pytest
from hypothesis import given, strategies as st

from milnor_forge.galg import Element, elementary_abelian_context, multiply
from milnor_forge.milnor import Derivation, dickson_mui_generators, milnor_q, rank2_formulas
from milnor_forge.report import FAIL


def assert_all_pass(reports):
    bad = [r for r in reports if r.status == FAIL]
    assert not bad, "\n".join(f"{r.check_id}: {r.details}" for r in bad)


# ---------------------------------------------------------------------------
# independent oracle: signed sequences
#
# A term is (coeff, seq) with seq an ordered tuple of generator symbols, one
# entry per factor (powers written out).  Normalization bubble-sorts the
# sequence, flipping the sign per swap of two degree-1 symbols; a repeated
# degree-1 symbol kills the term (odd prime).  This shares no representation
# or code with the package.

ODD_SYMBOLS = {"x1", "y1", "z1"}


def normalize(prime, coeff, seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                if prime != 2 and seq[j] in ODD_SYMBOLS and seq[j + 1] in ODD_SYMBOLS:
                    sign = -sign
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
    if prime != 2:
        for a, b in zip(seq, seq[1:]):
            if a == b and a in ODD_SYMBOLS:
                return 0, tuple(seq)
    return (coeff * sign) % prime, tuple(seq)


def oracle_add(prime, terms, coeff, seq):
    coeff, seq = normalize(prime, coeff, seq)
    if coeff:
        terms[seq] = (terms.get(seq, 0) + coeff) % prime
        if not terms[seq]:
            del terms[seq]


def oracle_q(prime, j, terms):
    """Apply the j-th primitive by the Leibniz rule on symbol sequences."""
    if prime == 2:
        images = {s: (s,) * 2 ** (j + 1) for s in ("x1", "y1", "z1")}
    else:
        images = {
            "x1": ("x2",) * prime**j,
            "y1": ("y2",) * prime**j,
            "z1": ("z2",) * prime**j,
        }
    out: dict = {}
    for seq, coeff in terms.items():
        for i, sym in enumerate(seq):
            img = images.get(sym)
            if img is None:
                continue
            odd_before = sum(1 for s in seq[:i] if s in ODD_SYMBOLS)
            sign = -1 if (prime != 2 and odd_before % 2) else 1
            new_seq = seq[:i] + img + seq[i + 1:]
            oracle_add(prime, out, sign * coeff, new_seq)
    return out


def element_to_oracle(el):
    out = {}
    ctx = el.context
    for mono, coeff in el.terms.items():
        seq = []
        for e, g in zip(mono, ctx.generators):
            seq.extend([g.name] * e)
        coeff2, seq2 = normalize(ctx.prime, coeff, tuple(seq))
        assert coeff2 == coeff % ctx.prime  # canonical order already sorted
        out[seq2] = coeff2
    return out


@pytest.mark.parametrize("prime", (3, 5))
def test_double_application_matches_sequence_oracle(prime):
    ctx = elementary_abelian_context(prime, 3, 2 * prime + 6)
    q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
    start = {("x1", "y1", "z1"): 1}
    oracle = oracle_q(prime, 1, oracle_q(prime, 0, start))
    engine = q1(q0(ctx.monomial_element({"x1": 1, "y1": 1, "z1": 1})))
    assert element_to_oracle(engine) == oracle


def test_two_primary_oracle():
    ctx = elementary_abelian_context(2, 3, 8)
    q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
    start = {("x1", "y1", "z1"): 1}
    oracle = oracle_q(2, 0, oracle_q(2, 1, start))
    engine = q0(q1(ctx.monomial_element({"x1": 1, "y1": 1, "z1": 1})))
    assert element_to_oracle(engine) == oracle
    assert len(oracle) == 6


def test_two_operators_commute_on_triple_product():
    ctx = elementary_abelian_context(2, 3, 8)
    q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
    xyz = ctx.monomial_element({"x1": 1, "y1": 1, "z1": 1})
    assert q0(q1(xyz)) == q1(q0(xyz))


# ---------------------------------------------------------------------------
# displayed values


class TestDisplayedExpansions:
    def test_q0_xy_golden_render(self):
        ctx = elementary_abelian_context(3, 2, 8)
        q0 = milnor_q(0, ctx)
        value = q0(ctx.monomial_element({"x1": 1, "y1": 1}))
        assert value.render() == "1*x2*y1 + 2*x1*y2"

    @pytest.mark.parametrize("prime", (3, 5, 7))
    def test_expansion_suite_passes(self, prime, job_records):
        reports = job_records("milnor", prime, ("milnor.q0.", "milnor.q1.", "milnor.q1q0."))
        assert_all_pass(reports)
        by_id = {r.check_id: r for r in reports}
        assert by_id["milnor.q1q0.xyz_exponent_note"].status == "note"

    def test_expansion_suite_two_passes(self, job_records):
        assert_all_pass(job_records("milnor", 2, ("milnor.q1.", "milnor.q0q1.")))

    def test_q_of_unit_is_zero(self):
        ctx = elementary_abelian_context(5, 3, 12)
        for j in (0, 1):
            assert milnor_q(j, ctx)(ctx.monomial_element({}, 1)).is_zero()

    def test_q_of_partner_is_zero(self):
        ctx = elementary_abelian_context(5, 2, 12)
        q1 = milnor_q(1, ctx)
        assert q1(ctx.generator("x2")).is_zero()

    def test_shift_values(self):
        # Q_j raises degree by 2 l^j - 1: x1 goes to degree 2, 6 and 18
        ctx = elementary_abelian_context(3, 2, 20)
        x1 = ctx.generator("x1")
        assert [milnor_q(j, ctx)(x1).homogeneous_degree() for j in (0, 1, 2)] == [2, 6, 18]


class TestDicksonMui:
    @pytest.mark.parametrize("prime", (3, 5))
    def test_product_identity_passes(self, prime, job_records):
        assert_all_pass(job_records("milnor", prime, "milnor.dickson_mui."))

    def test_product_identity_by_dict_oracle(self):
        # expand (x y^3 - x^3 y) * sum_k x^(2k) y^(2(3-k)) with a plain
        # dictionary convolution, independent of the algebra engine
        prime = 3
        left = {(1, 3): 1, (3, 1): -1}
        right = {(2 * k, 2 * (3 - k)): 1 for k in range(4)}
        product = {}
        for (a, b), c in left.items():
            for (u, v), d in right.items():
                key = (a + u, b + v)
                product[key] = (product.get(key, 0) + c * d) % prime
        product = {k: v for k, v in product.items() if v}
        assert product == {(1, 9): 1, (9, 1): prime - 1}

        ctx = elementary_abelian_context(prime, 2, 2 * prime * prime + 2)
        d1, d2 = dickson_mui_generators(prime, ctx)
        engine = multiply(d1, d2)
        got = {
            (mono[ctx.position("x2")], mono[ctx.position("y2")]): c
            for mono, c in engine.terms.items()
        }
        assert got == product

    def test_degree_bookkeeping(self):
        for prime in (3, 5, 7):
            assert (2 * prime + 2) + (2 * prime * prime - 2 * prime) == 2 * prime * prime + 2

    def test_rejects_two(self, planned_ids):
        ids = planned_ids("milnor", 2, dickson_cap=31)
        assert ids and not any(i.startswith("milnor.dickson_mui.") for i in ids)


class TestDerivationValidation:
    def test_requires_partners(self):
        from milnor_forge.galg import AlgebraContext, GeneratorSpec

        ctx = AlgebraContext(3, [GeneratorSpec("w", 1)], 6)
        with pytest.raises(ValueError):
            milnor_q(0, ctx)

    def test_truncation_guard(self):
        ctx = elementary_abelian_context(3, 2, 4)
        with pytest.raises(Exception):
            milnor_q(1, ctx)  # image degree 6 exceeds truncation 4

    def test_image_degree_validated(self):
        ctx = elementary_abelian_context(3, 2, 8)
        with pytest.raises(ValueError):
            Derivation(ctx, 1, {"x1": ctx.generator("x1")})


# ---------------------------------------------------------------------------
# properties


CTXS = {
    2: elementary_abelian_context(2, 3, 12),
    3: elementary_abelian_context(3, 3, 12),
    5: elementary_abelian_context(5, 3, 14),
}


@st.composite
def same_ctx_pair(draw, max_degree=4):
    prime = draw(st.sampled_from(sorted(CTXS)))
    ctx = CTXS[prime]

    def homog():
        d = draw(st.integers(0, max_degree))
        basis = ctx.basis_of_degree(d)
        el = ctx.zero()
        if basis:
            for _ in range(draw(st.integers(1, 3))):
                mono = draw(st.sampled_from(basis))
                coeff = draw(st.integers(1, ctx.prime - 1)) if ctx.prime > 2 else 1
                el = el + Element(ctx, {mono: coeff})
        return el, d

    a, da = homog()
    b, db = homog()
    return ctx, a, da, b, db


@given(same_ctx_pair())
def test_q_squares_to_zero(data):
    ctx, a, _, b, _ = data
    el = a + b
    for j in (0, 1):
        q = milnor_q(j, ctx)
        assert q(q(el, truncate=True), truncate=True).is_zero()


@given(same_ctx_pair())
def test_q0_q1_anticommute(data):
    ctx, a, _, b, _ = data
    el = a + b
    q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
    lhs = q0(q1(el, truncate=True), truncate=True)
    rhs = q1(q0(el), truncate=True)
    assert (lhs + rhs).is_zero() if ctx.prime != 2 else (lhs - rhs).is_zero()


@given(same_ctx_pair())
def test_leibniz_rule(data):
    ctx, a, da, b, _ = data
    for j in (0, 1):
        q = milnor_q(j, ctx)
        product_rule = multiply(q(a, truncate=True), b, True) + multiply(
            a, q(b, truncate=True), True
        ).scale(-1 if (ctx.prime != 2 and da % 2) else 1)
        assert q(multiply(a, b, True), truncate=True) == product_rule


class TestRank2Formulas:
    @pytest.mark.parametrize("prime", (3, 5, 7))
    def test_values_are_the_derived_expansions(self, prime):
        ctx = elementary_abelian_context(prime, 2, 2 * prime * prime + 2)
        q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
        xy = ctx.monomial_element({"x1": 1, "y1": 1})
        shown = rank2_formulas(ctx)
        assert list(shown) == ["Q0(x1 y1)", "Q1(x1 y1)", "Q1 Q0(x1 y1)"]
        assert shown["Q0(x1 y1)"] == q0(xy)
        assert shown["Q1(x1 y1)"] == q1(xy)
        assert shown["Q1 Q0(x1 y1)"] == q1(q0(xy))
        assert dickson_mui_generators(prime, ctx)[0] == shown["Q1 Q0(x1 y1)"]

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            rank2_formulas(elementary_abelian_context(2, 2, 6))
