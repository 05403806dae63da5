import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from milnor_forge import cyclo
from milnor_forge.cyclo import (
    CycInt,
    CycMatrix,
    GeneratorSet,
    _canonical,
    _lemma22_failure,
    lemma22_holds,
    root_power_sum,
    triangular,
)


@st.composite
def cyc_matrices(draw, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    rank = 2 if p == 2 else p - 1
    n = draw(st.integers(1, 3))
    rows = [
        [
            CycInt(p, [draw(st.integers(-3, 3)) for _ in range(rank)])
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return CycMatrix(p, rows)
from milnor_forge.report import FAIL

ODD_PRIMES = (3, 5, 7, 11, 13)
PAST_OLD_CAP = (17, 19, 23, 29, 31)
KERNEL_PRIMES = (2, 3, 5, 7, 11)
CONJ_PRIMES = (3, 5, 7, 11, 13, 31)


def assert_all_pass(reports):
    bad = [r for r in reports if r.status == FAIL]
    assert not bad, "\n".join(f"{r.check_id}: {r.details}" for r in bad)


@st.composite
def cyc_ints(draw, primes=(2, 3, 5, 7)):
    p = draw(st.sampled_from(primes))
    rank = 2 if p == 2 else p - 1
    coeffs = [draw(st.integers(-9, 9)) for _ in range(rank)]
    return CycInt(p, coeffs)


def dense_canonical(p, dense):
    """Canonical coefficients of sum_k dense[k] t^k over k < l, by the
    relation t^(l-1) = -(1 + t + ... + t^(l-2))."""
    return tuple(dense[k] - dense[p - 1] for k in range(p - 1))


class TestTriangular:
    def test_base_case(self):
        assert triangular(0) == 0

    def test_first_step(self):
        assert triangular(1) == 1

    def test_unrolled(self):
        assert triangular(4) == 10

    def test_closed_form(self):
        for i in range(40):
            assert triangular(i) == i * (i + 1) // 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            triangular(-1)


class TestRootPowerSum:
    def test_zero_exponent(self):
        assert root_power_sum(3, 0) == 3

    def test_nonzero_exponent(self):
        assert root_power_sum(5, 7) == 0

    def test_prime_two(self):
        assert root_power_sum(2, 4) == 2

    def test_all_residues(self):
        for p in ODD_PRIMES:
            for m in range(p):
                assert root_power_sum(p, m) == (p if m % p == 0 else 0)

    @given(st.sampled_from(ODD_PRIMES), st.integers(-50, 50))
    def test_depends_only_on_residue(self, p, m):
        assert root_power_sum(p, m) == root_power_sum(p, m % p)


class TestLemma22:
    def test_single_case(self):
        assert lemma22_holds(5, 1, 2, 3)

    def test_equal_indices(self):
        for p in (3, 7):
            for i in range(p):
                for k in range(p):
                    assert lemma22_holds(p, i, i, k)

    def test_hand_evaluated(self):
        lhs = triangular(5 + 6) - triangular(2 + 6)
        rhs = 6 * (5 - 2) + (triangular(5) - triangular(2))
        assert (lhs - rhs) % 7 == 0
        assert lemma22_holds(7, 2, 5, 6)

    def test_first_failure_on_a_sequence_other_than_triangular(self):
        # a_n = n: a_(j+k) - a_(i+k) = j - i, against k(j-i) + (j - i)
        a = list(range(20))
        triples = itertools.product(range(7), repeat=3)
        assert _lemma22_failure(7, a, triples) == (0, 1, 1)
        assert _lemma22_failure(7, a, [(3, 3, 5), (2, 2, 0)]) is None

    def test_exhaustive_sweep(self):
        for p in (2,) + ODD_PRIMES:
            for i in range(p):
                for j in range(p):
                    for k in range(p):
                        assert lemma22_holds(p, i, j, k)


class TestCycInt:
    def test_gaussian_arithmetic(self):
        one_plus_i = CycInt(2, (1, 1))
        one_minus_i = CycInt(2, (1, -1))
        assert (one_plus_i * one_minus_i).as_int() == 2
        i = CycInt.imaginary_unit()
        assert (i * i).as_int() == -1

    def test_root_power_wraps(self):
        for p in (3, 5):
            assert CycInt.root_power(p, p) == CycInt.one(p)
            assert CycInt.root_power(p, p + 2) == CycInt.root_power(p, 2)

    def test_canonical_top_power(self):
        # t^(l-1) = -(1 + t + ... + t^(l-2))
        p = 5
        top = CycInt.root_power(p, p - 1)
        assert top.coeffs == (-1, -1, -1, -1)

    def test_cyclotomic_relation(self):
        # 1 + t + ... + t^(l-1) = 0
        p = 7
        total = CycInt.zero(p)
        for k in range(p):
            total = total + CycInt.root_power(p, k)
        assert total.is_zero

    @given(cyc_ints())
    def test_canonicalization_idempotent(self, x):
        # folding a canonical coefficient vector is the identity
        p = x.prime
        acc = list(x.coeffs) + [0] * (1 if p == 2 else p)
        assert _canonical(p, acc) == x

    @pytest.mark.parametrize("p", CONJ_PRIMES)
    def test_root_power_matches_dense_reference(self, p):
        for k in range(-3 * p, 3 * p):
            dense = [0] * p
            dense[k % p] = 1
            assert CycInt.root_power(p, k).coeffs == dense_canonical(p, dense)

    @pytest.mark.parametrize("p", CONJ_PRIMES)
    def test_conj_matches_dense_reference(self, p):
        for k in range(-3 * p, 3 * p):
            dense = [0] * p
            dense[-k % p] = 1
            assert CycInt.root_power(p, k).conj().coeffs == dense_canonical(p, dense)
        rng = random.Random(p)
        for _ in range(50):
            coeffs = [rng.randint(-9, 9) for _ in range(p - 1)]
            dense = [0] * p
            for k, c in enumerate(coeffs):
                dense[-k % p] += c
            assert CycInt(p, coeffs).conj().coeffs == dense_canonical(p, dense)

    @given(cyc_ints())
    def test_conj_involution(self, x):
        assert x.conj().conj() == x

    @given(cyc_ints(), cyc_ints())
    def test_conj_is_ring_hom(self, x, y):
        if x.prime != y.prime:
            return
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    @given(cyc_ints(), cyc_ints(), cyc_ints())
    def test_ring_axioms(self, x, y, z):
        if not (x.prime == y.prime == z.prime):
            return
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            CycInt.root_power(5, 1).as_int()

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_integer_valued_element_hashes_as_its_int(self, p):
        for n in (0, 1, 3, -7):
            x = CycInt.from_int(p, n)
            assert x == n and hash(x) == hash(n)
            assert len({x, n}) == 1
        root = CycInt.imaginary_unit() if p == 2 else CycInt.root_power(p, 1)
        assert len({root, CycInt.one(p), 1}) == 2

    def test_non_integer_coefficients_rejected(self):
        # coefficients are integers or raise; none is truncated to one
        with pytest.raises(TypeError):
            CycInt(3, (1.9, 0))
        assert CycInt(3, (True, -2)).coeffs == (1, -2)


def schoolbook(x, y):
    """Reference product: a dense convolution of the canonical coefficients
    with t^l = 1, then t^(l-1) rewritten; the Gaussian formula at l = 2."""
    p = x.prime
    if p == 2:
        a, b = x.coeffs
        c, d = y.coeffs
        return CycInt(2, (a * c - b * d, a * d + b * c))
    dense = [0] * p
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            dense[(i + j) % p] += a * b
    top = dense[p - 1]
    return CycInt(p, [dense[k] - top for k in range(p - 1)])


def schoolbook_matrix(a, b):
    n, p = a.size, a.prime
    entry = lambda i, j: reduce(
        lambda s, k: s + schoolbook(a.rows[i][k], b.rows[k][j]), range(n), CycInt.zero(p)
    )
    return CycMatrix.from_fn(p, n, entry)


def sympy_product(pairs):
    """sum of x*y over the pairs, as sympy polynomials reduced modulo the
    cyclotomic polynomial of xi (Phi_l, or Phi_4 = t^2 + 1 at l = 2)."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    p = pairs[0][0].prime
    rank = 2 if p == 2 else p - 1
    poly = lambda x: sympy.Poly(list(reversed(x.coeffs)), t, domain="ZZ")
    total = sum((poly(x) * poly(y) for x, y in pairs), sympy.Poly(0, t, domain="ZZ"))
    rem = total.rem(sympy.Poly(sympy.cyclotomic_poly(4 if p == 2 else p, t), t, domain="ZZ"))
    coeffs = [int(c) for c in reversed(rem.all_coeffs())]
    return CycInt(p, coeffs + [0] * (rank - len(coeffs)))


@st.composite
def kernel_entries(draw, p):
    """Zero, a (scaled) root of unity, xi^(l-1), a dense element, or one
    whose most frequent coefficient (the implicit 0 at t^(l-1) counted) is
    tied between two values."""
    rank = 2 if p == 2 else p - 1
    kind = draw(st.sampled_from(("zero", "root", "top", "dense", "tied")))
    if kind == "zero":
        return CycInt.zero(p)
    if kind == "root":
        scale = draw(st.sampled_from((1, -1, 3)))
        return CycInt.root_power(p, draw(st.integers(0, 2 * p))) * scale
    if kind == "top":
        return CycInt.root_power(p, p - 1)
    if kind == "dense":
        return CycInt(p, [draw(st.integers(-9, 9)) for _ in range(rank)])
    a = draw(st.integers(-5, 5).filter(bool))
    b = draw(st.integers(-5, 5).filter(lambda b: b not in (0, a)))
    return CycInt(p, draw(st.permutations([a] * (rank // 2) + [b] * (rank - rank // 2))))


@st.composite
def kernel_pairs(draw):
    p = draw(st.sampled_from(KERNEL_PRIMES))
    return draw(kernel_entries(p)), draw(kernel_entries(p))


@st.composite
def kernel_matrix_pairs(draw):
    p = draw(st.sampled_from(KERNEL_PRIMES))
    n = draw(st.integers(1, 3))
    square = lambda: CycMatrix.from_fn(p, n, lambda i, j: draw(kernel_entries(p)))
    return square(), square()


class TestProductKernel:
    """The group-ring kernel against the schoolbook product it replaced and
    against sympy, on the entry kinds it treats differently."""

    @given(kernel_pairs())
    def test_entry_product(self, pair):
        x, y = pair
        assert x * y == schoolbook(x, y)
        assert x * y == sympy_product([(x, y)])

    @given(kernel_matrix_pairs())
    def test_matrix_product(self, pair):
        a, b = pair
        product = a * b
        assert product == schoolbook_matrix(a, b)
        n = a.size
        for i in range(n):
            for j in range(n):
                terms = [(a.rows[i][k], b.rows[k][j]) for k in range(n)]
                assert product.rows[i][j] == sympy_product(terms)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_products_of_roots_add_exponents(self, p):
        root = lambda k: CycInt.root_power(p, k)
        for j in range(p):
            for k in range(p):
                assert root(j) * root(k) == root(j + k)

    def test_product_entries_are_canonical(self):
        # a zero-sum product entry compares, hashes and renders as zero
        g = GeneratorSet.build(5)
        entry = (g.t.conj_transpose() * g.t).rows[0][1]
        assert entry == CycInt.zero(5) and entry.is_zero
        assert hash(entry) == hash(CycInt.zero(5)) and repr(entry) == "0"
        assert isinstance(entry.coeffs, tuple) and entry.coeffs == (0, 0, 0, 0)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            CycInt(9, (0,) * 8)
        with pytest.raises(ValueError):
            CycInt(5, (1, 2, 3))
        assert CycInt(5, (True, 2, 0, 0)).coeffs == (1, 2, 0, 0)
        # a float is not an integer, even with an integral value
        with pytest.raises(TypeError):
            CycInt(5, (True, 2.0, 0, 0))
        one, zero = CycInt.one(5), CycInt.zero(5)
        for rows in ([[one, zero]], [[one, zero], [zero]], [[one], [zero]]):
            with pytest.raises(ValueError, match="square"):
                CycMatrix(5, rows)
        with pytest.raises(ValueError, match="prime"):
            CycMatrix(5, [[one, zero], [zero, CycInt.one(3)]])
        with pytest.raises(ValueError, match="prime"):
            CycMatrix(3, [[one]])


@st.composite
def monomial_matrices(draw, p, n):
    """A permutation matrix whose nonzero entries are roots of unity, all
    scaled by one integer."""
    perm = draw(st.permutations(range(n)))
    scale = draw(st.sampled_from((1, -1, 2)))
    roots = [CycInt.root_power(p, draw(st.integers(0, p - 1))) * scale for _ in range(n)]
    zero = CycInt.zero(p)
    return CycMatrix.from_fn(p, n, lambda i, j: roots[i] if j == perm[i] else zero)


@st.composite
def structured_matrices(draw, p, n):
    """Monomial, a block_diag of two monomials, dense with zero rows and zero
    columns, or dense."""
    kind = draw(st.sampled_from(("monomial", "blocks", "holes", "dense")))
    if kind == "monomial" or (kind == "blocks" and n == 1):
        return draw(monomial_matrices(p, n))
    if kind == "blocks":
        k = draw(st.integers(1, n - 1))
        blocks = draw(monomial_matrices(p, k)), draw(monomial_matrices(p, n - k))
        return CycMatrix.block_diag(*blocks)
    rows = [[draw(kernel_entries(p)) for _ in range(n)] for _ in range(n)]
    if kind == "holes":
        zero = CycInt.zero(p)
        empty_rows = draw(st.sets(st.integers(0, n - 1)))
        empty_cols = draw(st.sets(st.integers(0, n - 1)))
        rows = [
            [zero if i in empty_rows or j in empty_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return CycMatrix(p, rows)


# each example draws up to 2 x 14^2 entries
SPARSE_EXAMPLES = 60


@st.composite
def structured_pairs(draw):
    """Two structured n x n matrices over Z[xi_l], n up to 2l."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 2 * p))
    return draw(structured_matrices(p, n)), draw(structured_matrices(p, n))


def assert_view_lists_the_nonzero_entries(m):
    # the view a validated copy of the same rows builds
    assert m._sparse == CycMatrix(m.prime, m.rows)._sparse


def dense_first_mismatch(a, b):
    n = a.size
    return next(
        ((i, j) for i in range(n) for j in range(n) if a.rows[i][j] != b.rows[i][j]), None
    )


class TestSparseView:
    """Products, comparisons, conjugate transposes and scalings on the
    sparse view, against their entrywise definitions."""

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_product_matches_schoolbook(self, pair):
        a, b = pair
        product, expected = a * b, schoolbook_matrix(a, b)
        assert product == expected and product.rows == expected.rows
        assert_view_lists_the_nonzero_entries(product)

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_work_is_the_nonzero_entry_products(self, pair):
        a, b = pair
        calls = []
        convolve, accumulator = cyclo._convolve, cyclo._accumulator
        try:
            cyclo._convolve = lambda *args: calls.append("convolve") or convolve(*args)
            cyclo._accumulator = lambda p: calls.append("accumulator") or accumulator(p)
            a * b
        finally:
            cyclo._convolve, cyclo._accumulator = convolve, accumulator
        n = a.size
        nonzero = lambda x: not x.is_zero
        pairs = sum(
            nonzero(a.rows[i][k]) and nonzero(b.rows[k][j])
            for i in range(n) for j in range(n) for k in range(n)
        )
        touched = sum(
            any(nonzero(a.rows[i][k]) and nonzero(b.rows[k][j]) for k in range(n))
            for i in range(n) for j in range(n)
        )
        assert calls.count("convolve") == pairs
        assert calls.count("accumulator") == touched

    @pytest.mark.parametrize("p", (2, 3, 7))
    def test_monomial_product_touches_n_entries(self, p):
        g = GeneratorSet.build(p)
        calls = []
        accumulator = cyclo._accumulator
        try:
            cyclo._accumulator = lambda q: calls.append(q) or accumulator(q)
            product = g.alpha * g.beta
        finally:
            cyclo._accumulator = accumulator
        assert len(calls) == g.alpha.size
        assert [len(view) for view in product._sparse] == [1] * g.alpha.size

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_cancelling_accumulator_gives_zero_outside_the_view(self, p):
        one, zero = CycInt.one(p), CycInt.zero(p)
        a = CycMatrix(p, [[one, one], [zero, zero]])
        b = CycMatrix(p, [[one, zero], [-one, zero]])
        product = a * b
        assert product.rows[0][0] == CycInt.zero(p) and product.rows[0][0].is_zero
        assert product._sparse == ([], [])
        assert product == CycMatrix(p, [[zero, zero], [zero, zero]])

    def test_gram_zeros_are_outside_the_view(self):
        g = GeneratorSet.build(5)
        gram = g.t.conj_transpose() * g.t
        assert gram._sparse == tuple([(i, [(0, 5)])] for i in range(5))
        assert gram == CycMatrix.identity(5, 5).scale(5)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_first_mismatch_in_a_value_or_an_extra_nonzero(self, p):
        ident = CycMatrix.identity(p, 4)
        root = CycInt.imaginary_unit() if p == 2 else CycInt.root_power(p, 1)

        def changed(i, j, x):
            rows = [list(row) for row in ident.rows]
            rows[i][j] = x
            return CycMatrix(p, rows)

        assert ident.first_mismatch(CycMatrix.identity(p, 4)) is None
        cases = [
            (changed(1, 1, CycInt.from_int(p, 2)), (1, 1)),  # a value only
            (changed(1, 1, root), (1, 1)),
            (changed(1, 3, root), (1, 3)),  # an extra nonzero after the diagonal
            (changed(2, 0, root), (2, 0)),  # and before it
        ]
        for other, where in cases:
            assert ident.first_mismatch(other) == where
            assert other.first_mismatch(ident) == where
            assert ident != other

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_first_mismatch_is_the_first_in_row_major_order(self, pair):
        a, b = pair
        assert a.first_mismatch(b) == dense_first_mismatch(a, b)
        assert (a == b) == (a.first_mismatch(b) is None)
        assert a.first_mismatch(CycMatrix(a.prime, a.rows)) is None

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_conj_transpose_is_entrywise(self, pair):
        m, _ = pair
        h = m.conj_transpose()
        n = m.size
        assert all(h.rows[i][j] == m.rows[j][i].conj() for i in range(n) for j in range(n))
        assert_view_lists_the_nonzero_entries(h)

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(st.data())
    def test_scale_is_entrywise(self, data):
        m, _ = data.draw(structured_pairs())
        c = data.draw(st.one_of(kernel_entries(m.prime), st.integers(-3, 3)))
        scaled = m.scale(c)
        n = m.size
        assert all(scaled.rows[i][j] == m.rows[i][j] * c for i in range(n) for j in range(n))
        assert_view_lists_the_nonzero_entries(scaled)


class TestDetMonomial:
    def test_cycle_sign(self):
        # a 3-cycle is even
        beta = GeneratorSet.build(3).beta
        assert beta.det_monomial() == 1

    def test_transposition_sign(self):
        one, zero = CycInt.one(2), CycInt.zero(2)
        swap = CycMatrix(2, [[zero, one], [one, zero]])
        assert swap.det_monomial() == -1

    def test_dense_rejected(self):
        t = GeneratorSet.build(3).t
        with pytest.raises(ValueError):
            t.det_monomial()


class TestGramEntryOracle:
    def test_t_gram_entries_by_summation(self):
        self.assert_gram_entries_by_summation(7)

    def test_t_gram_entries_by_summation_at_the_cap(self):
        self.assert_gram_entries_by_summation(31)

    @staticmethod
    def assert_gram_entries_by_summation(p):
        # entry (i, j) of conj_transpose(T) T is sum_k xi^(a_(j+k) - a_(i+k)),
        # computed here term by term, independently of the matrix product
        g = GeneratorSet.build(p)
        product = g.t.conj_transpose() * g.t
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                entry = CycInt.zero(p)
                for k in range(1, p + 1):
                    entry = entry + CycInt.root_power(
                        p, triangular(j + k) - triangular(i + k)
                    )
                assert product.rows[i - 1][j - 1] == entry
                if i == j:
                    assert entry.as_int() == p
                else:
                    assert entry.is_zero


class TestCheckSuites:
    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_su_generators_pass(self, p, job_records):
        assert_all_pass(job_records("matrices", p, "matrices.su."))

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_weyl_conjugation_pass(self, p, job_records):
        assert_all_pass(job_records("matrices", p, "matrices.weyl."))

    @pytest.mark.parametrize("p", (2,) + ODD_PRIMES)
    def test_block_relations_pass(self, p, job_records):
        assert_all_pass(job_records("matrices", p, "matrices.g1."))

    def test_l2_generators_pass(self, job_records):
        reports = job_records("matrices", 2, ("matrices.l2.", "matrices.g1."))
        assert_all_pass(reports)
        flagged = [r for r in reports if r.check_id == "matrices.l2.sigma_candidate"]
        assert len(flagged) == 1 and flagged[0].status == "note"

    @pytest.mark.parametrize("p", (2,) + ODD_PRIMES)
    def test_lemma_checks_pass(self, p, job_records):
        assert_all_pass(job_records("matrices", p, "matrices.lemma."))

    @pytest.mark.parametrize("p", PAST_OLD_CAP)
    def test_every_matrix_identity_passes_past_13(self, p, job_records):
        families = ("matrices.su.", "matrices.weyl.", "matrices.g1.", "matrices.lemma.")
        reports = job_records("matrices", p, families)
        assert_all_pass(reports)
        assert {r.check_id.split(".")[1] for r in reports} == {"su", "weyl", "g1", "lemma"}

    def test_t_gram_failure_details(self, monkeypatch, job_records):
        # a wrong entry of T: the mismatch renders through CycInt.__repr__
        build = GeneratorSet.build.__func__

        def wrong_t(cls, prime):
            g = build(cls, prime)
            rows = [list(row) for row in g.t.rows]
            rows[1][2] = CycInt(prime, (2, 0, -1, 3))
            return GeneratorSet(g.prime, g.alpha, g.beta, g.xi, g.s, CycMatrix(prime, rows))

        monkeypatch.setattr(GeneratorSet, "build", classmethod(wrong_t))
        [record] = job_records("matrices", 5, "matrices.su.t_gram")
        assert record.status == FAIL
        assert record.details == (
            "conj_transpose(T) * T = l * I: entry (0,2) differs: "
            "-1 + -2*t + 2*t^2 + -1*t^3 != 0"
        )

    def test_su_rejects_two(self, planned_ids):
        ids = planned_ids("matrices", 2)
        assert ids and not any(i.startswith("matrices.su.") for i in ids)


class TestCycMatrix:
    @given(cyc_matrices())
    def test_conj_transpose_involution(self, m):
        assert m.conj_transpose().conj_transpose() == m

    @given(cyc_matrices(), cyc_matrices())
    def test_block_constructions_preserve_products(self, a, b):
        if a.prime != b.prime or a.size != b.size:
            return
        ident = CycMatrix.identity(a.prime, a.size)
        delta = lambda y: CycMatrix.block_diag(y, y)
        gamma = lambda y: CycMatrix.block_diag(ident, y)
        assert delta(a * b) == delta(a) * delta(b)
        assert gamma(a * b) == gamma(a) * gamma(b)

    @given(cyc_matrices(), cyc_matrices())
    def test_conj_transpose_antihomomorphism(self, a, b):
        if a.prime != b.prime or a.size != b.size:
            return
        assert (a * b).conj_transpose() == b.conj_transpose() * a.conj_transpose()


class TestGeneratorSet:
    def test_alpha_entries(self):
        g = GeneratorSet.build(5)
        for i in range(5):
            assert g.alpha.rows[i][i] == CycInt.root_power(5, i + 1)

    def test_beta_is_cyclic_shift(self):
        g = GeneratorSet.build(3)
        one = CycInt.one(3)
        for i in range(3):
            for j in range(3):
                expected = one if i % 3 == (j + 1) % 3 else CycInt.zero(3)
                assert g.beta.rows[i][j] == expected

    def test_s_diagonal_uses_triangular_numbers(self):
        g = GeneratorSet.build(7)
        for i in range(7):
            assert g.s.rows[i][i] == CycInt.root_power(7, triangular(i + 1))

    def test_t_entries_use_triangular_numbers(self):
        g = GeneratorSet.build(5)
        for i in range(5):
            for j in range(5):
                assert g.t.rows[i][j] == CycInt.root_power(
                    5, triangular((i + 1) + (j + 1))
                )

    def test_l2_matrices(self):
        g = GeneratorSet.build(2)
        i = CycInt.imaginary_unit()
        assert g.alpha.rows[0][0] == i and g.alpha.rows[1][1] == -i
        assert g.xi.rows[0][0].as_int() == -1
        assert g.t.rows[0][1] == i and g.t.rows[1][0] == i
