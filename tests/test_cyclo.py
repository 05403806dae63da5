import itertools
import time
from collections import Counter
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from milnor_forge import cyclo
from milnor_forge.cli import RunConfig, run
from milnor_forge.cyclo import (
    CycInt,
    CycMatrix,
    _lemma22_failure,
    _unit,
    generators,
    lemma22_holds,
    root_power_sum,
    t_conjugate_mismatch,
    triangular,
)
from milnor_forge.report import FAIL, NOTE, PASS


@st.composite
def monomial_matrices(draw, p, n):
    """An exponent form: a permutation and one exponent per row."""
    perm = draw(st.permutations(range(n)))
    return CycMatrix(p, perm, [draw(st.integers(-9, 9)) for _ in range(n)])


@st.composite
def cyc_matrices(draw, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    return draw(monomial_matrices(p, draw(st.integers(1, 3))))


ODD_PRIMES = (3, 5, 7, 11, 13)
PAST_OLD_CAP = (17, 19, 23, 29, 31)
KERNEL_PRIMES = (2, 3, 5, 7, 11)
CONJ_PRIMES = (3, 5, 7, 11, 13, 31)


def assert_all_pass(reports):
    bad = [r for r in reports if r.status == FAIL]
    assert not bad, "\n".join(f"{r.check_id}: {r.details}" for r in bad)


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
    def test_root_power_wraps(self):
        for p in (3, 5):
            assert CycInt.root_power(p, p) == CycInt.from_int(p, 1)
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

    @pytest.mark.parametrize("p", CONJ_PRIMES)
    def test_root_power_matches_dense_reference(self, p):
        for k in range(-3 * p, 3 * p):
            dense = [0] * p
            dense[k % p] = 1
            assert CycInt.root_power(p, k).coeffs == dense_canonical(p, dense)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            CycInt.root_power(5, 1).as_int()

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_integer_valued_element_equals_its_int(self, p):
        for n in (0, 1, 3, -7):
            x = CycInt.from_int(p, n)
            assert x == n and x != n + 1
        root = CycInt(2, (0, 1)) if p == 2 else CycInt.root_power(p, 1)
        assert root != 1 and root != CycInt.from_int(p, 1)

    def test_scales_by_ints_only(self):
        # no product of two elements: the matrix identities need none
        x = CycInt(5, (1, -2, 0, 3))
        with pytest.raises(TypeError):
            x * CycInt.root_power(5, 1)
        assert (x * 3).coeffs == (3, -6, 0, 9)

    def test_non_integer_coefficients_rejected(self):
        # coefficients are integers or raise; none is truncated to one
        with pytest.raises(TypeError):
            CycInt(3, (1.9, 0))
        assert CycInt(3, (True, -2)).coeffs == (1, -2)


def schoolbook(x, y):
    """Reference product: a dense convolution of the nonzero canonical
    coefficients with t^l = 1, then t^(l-1) rewritten; the Gaussian formula
    at l = 2."""
    p = x.prime
    if p == 2:
        a, b = x.coeffs
        c, d = y.coeffs
        return CycInt(2, (a * c - b * d, a * d + b * c))
    dense = [0] * p
    terms = [(j, b) for j, b in enumerate(y.coeffs) if b]
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in terms:
                dense[(i + j) % p] += a * b
    return CycInt(p, dense_canonical(p, dense))


def conj(x):
    """Complex conjugation, on dense coefficients: the coefficient of t^k
    moves to t^(-k mod l); i goes to -i at l = 2."""
    p = x.prime
    if p == 2:
        return CycInt(2, (x.coeffs[0], -x.coeffs[1]))
    dense = [0] * p
    for k, c in enumerate(x.coeffs):
        dense[-k % p] += c
    return CycInt(p, dense_canonical(p, dense))


class Dense:
    """A dense square matrix over Z[xi_l], the reference the exponent forms
    are checked against.  Its product is the schoolbook sum over k of
    ``entry_product(a_ik, b_kj)``, zero terms left out, by ``CycInt``
    addition; the entry product is ``schoolbook``."""

    def __init__(self, prime, rows, entry_product=schoolbook):
        self.prime = prime
        self.rows = tuple(tuple(row) for row in rows)
        self.entry_product = entry_product

    @classmethod
    def of(cls, m, entry_product=schoolbook):
        """The matrix an exponent form stands for."""
        return cls(m.prime, m.rows, entry_product)

    @classmethod
    def of_table(cls, prime, t, entry_product=schoolbook):
        """The matrix a table of exponents (T's) stands for."""
        return cls(prime, [[_unit(prime, x) for x in row] for row in t], entry_product)

    def __mul__(self, other):
        zero = CycInt.zero(self.prime)
        cols = list(zip(*other.rows))
        rows = []
        for row in self.rows:
            terms = [(k, x) for k, x in enumerate(row) if not x.is_zero]
            rows.append([
                sum((self.entry_product(x, col[k]) for k, x in terms if not col[k].is_zero), zero)
                for col in cols
            ])
        return Dense(self.prime, rows, self.entry_product)

    def conj_transpose(self):
        cols = zip(*self.rows)
        return Dense(self.prime, [[conj(x) for x in col] for col in cols], self.entry_product)

    def scale(self, c):
        return Dense(self.prime, [[x * c for x in row] for row in self.rows], self.entry_product)

    @staticmethod
    def block_diag(a, b):
        zero = CycInt.zero(a.prime)
        n, m = len(a.rows), len(b.rows)
        rows = [row + (zero,) * m for row in a.rows] + [(zero,) * n + row for row in b.rows]
        return Dense(a.prime, rows, a.entry_product)

    def __eq__(self, other):
        return self.prime == other.prime and self.rows == other.rows

    def first_mismatch(self, other):
        n = len(self.rows)
        return next(
            (((i, j), self.rows[i][j], other.rows[i][j])
             for i in range(n) for j in range(n) if self.rows[i][j] != other.rows[i][j]),
            None,
        )

    def det_monomial(self):
        """The product of the nonzero entries, negated once per cycle of even
        length in their permutation; a row without exactly one nonzero entry
        raises."""
        cols = []
        for row in self.rows:
            [c] = [j for j, x in enumerate(row) if not x.is_zero]
            cols.append(c)
        sign, seen = 1, set()
        for start in range(len(cols)):
            cycle = []
            while start not in seen:
                seen.add(start)
                cycle.append(start)
                start = cols[start]
            if cycle and len(cycle) % 2 == 0:
                sign = -sign
        values = [row[c] for row, c in zip(self.rows, cols)]
        return reduce(self.entry_product, values, CycInt.from_int(self.prime, sign))


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
    whose coefficients take two nonzero values about equally often."""
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
    return draw(monomial_matrices(p, n)), draw(monomial_matrices(p, n))



class TestProductKernel:
    """The reference product, ``schoolbook``, against sympy and against
    added exponents; and products of exponent forms against both."""

    @given(kernel_pairs())
    def test_entry_product(self, pair):
        x, y = pair
        assert schoolbook(x, y) == sympy_product([(x, y)])

    @given(kernel_matrix_pairs())
    def test_matrix_product(self, pair):
        a, b = pair
        product = a * b
        assert product.rows == (Dense.of(a, schoolbook) * Dense.of(b, schoolbook)).rows
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
                assert schoolbook(root(j), root(k)) == root(j + k)

    def test_product_entries_are_canonical(self):
        # a zero-sum product entry compares and renders as zero
        g = generators(5)
        t = Dense.of_table(5, g.t)
        entry = (t.conj_transpose() * t).rows[0][1]
        assert entry == CycInt.zero(5) and entry.is_zero
        assert repr(entry) == "0"
        assert isinstance(entry.coeffs, tuple) and entry.coeffs == (0, 0, 0, 0)
        # and so does one rendered from exponents: conj_transpose(T) alpha T
        # is l alpha^-1 beta, which is 0 at (0, 1) where l beta^-1 is not
        where, left, right = t_conjugate_mismatch(g.t, g.alpha, g.beta.conj_transpose())
        assert where == (0, 1) and left.is_zero and repr(left) == "0"
        assert left.coeffs == (0, 0, 0, 0) and right == 5

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            CycInt(9, (0,) * 8)
        with pytest.raises(ValueError):
            CycInt(5, (1, 2, 3))
        assert CycInt(5, (True, 2, 0, 0)).coeffs == (1, 2, 0, 0)
        # a float is not an integer, even with an integral value
        with pytest.raises(TypeError):
            CycInt(5, (True, 2.0, 0, 0))
        for perm in ((0, 0), (1, 2), (0, 1, 3)):
            with pytest.raises(ValueError, match="permutation"):
                CycMatrix(5, perm, (0,) * len(perm))
        with pytest.raises(ValueError, match="exponents"):
            CycMatrix(5, (1, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="prime"):
            CycMatrix(9, (0,), (0,))
        with pytest.raises(TypeError):
            CycMatrix(5, (0,), (1.0,))
        assert CycMatrix(5, (True, 0), (7, -1)).exps == (2, 4)
        assert CycMatrix(2, (0,), (7,)).exps == (3,)
        g = generators(3)
        for t, want in ((g.t[:2], g.beta), (g.t, CycMatrix.identity(3, 2)),
                        (g.t, CycMatrix.identity(5, 3))):
            with pytest.raises(ValueError, match="mismatch"):
                t_conjugate_mismatch(t, g.alpha, want)


@st.composite
def structured_matrices(draw, p, n):
    """Monomial, or a block_diag of two monomials."""
    if n == 1 or draw(st.booleans()):
        return draw(monomial_matrices(p, n))
    k = draw(st.integers(1, n - 1))
    return CycMatrix.block_diag(draw(monomial_matrices(p, k)), draw(monomial_matrices(p, n - k)))


# each example draws up to 2 x 14 entries
SPARSE_EXAMPLES = 60


@st.composite
def structured_pairs(draw):
    """Two structured n x n exponent forms over Z[xi_l], n up to 2l."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 2 * p))
    return draw(structured_matrices(p, n)), draw(structured_matrices(p, n))


class TestSparseView:
    """The exponent form is the sparse view of a monomial matrix, its one
    nonzero entry per row.  Products, comparisons and conjugate transposes
    on it, against their dense entrywise definitions."""

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_product_matches_schoolbook(self, pair):
        a, b = pair
        expected = Dense.of(a, schoolbook) * Dense.of(b, schoolbook)
        assert (a * b).rows == expected.rows

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_work_is_the_nonzero_entry_products(self, pair):
        # n exponent additions: no dense rows
        a, b = pair
        product = a * b
        assert product._rows is None
        assert product.size == a.size

    @pytest.mark.parametrize("p", (2, 3, 7))
    def test_monomial_product_touches_n_entries(self, p):
        g = generators(p)
        product = g.alpha * g.beta
        assert len(product.exps) == g.alpha.size
        assert [sum(not x.is_zero for x in row) for row in product.rows] == [1] * g.alpha.size

    def test_gram_zeros_are_outside_the_view(self):
        # the off-diagonal entries of conj_transpose(T) T are cancelling root sums
        g = generators(5)
        t = Dense.of_table(5, g.t)
        assert t.conj_transpose() * t == Dense.of(CycMatrix.identity(5, 5)).scale(5)
        ident = CycMatrix.identity(5, 5)
        assert t_conjugate_mismatch(g.t, ident, ident) is None

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_first_mismatch_in_a_value_or_an_extra_nonzero(self, p):
        base = CycMatrix(p, (3, 0, 1, 2), (0, 1, 2, 3))
        assert base.first_mismatch(CycMatrix(p, base.perm, base.exps)) is None
        cases = [
            (CycMatrix(p, base.perm, (0, 2, 2, 3)), (1, 0)),  # a value only
            (CycMatrix(p, (3, 0, 2, 1), base.exps), (2, 1)),  # a nonzero moved right
            (CycMatrix(p, (0, 3, 1, 2), base.exps), (0, 0)),  # and left
        ]
        for other, where in cases:
            for a, b in ((base, other), (other, base)):
                assert a.first_mismatch(b) == Dense.of(a).first_mismatch(Dense.of(b))
                assert a.first_mismatch(b)[0] == where
            assert base != other

    def test_first_mismatch_rejects_another_shape_or_prime(self):
        # as the product does: no entry is compared across shapes or rings
        a = CycMatrix.identity(3, 2)
        for other in (CycMatrix.identity(3, 3), CycMatrix.identity(5, 2)):
            assert a != other
            for x, y in ((a, other), (other, a)):
                with pytest.raises(ValueError, match="shape or prime mismatch"):
                    x.first_mismatch(y)
                with pytest.raises(ValueError, match="shape or prime mismatch"):
                    x * y

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_first_mismatch_is_the_first_in_row_major_order(self, pair):
        a, b = pair
        assert a.first_mismatch(b) == Dense.of(a).first_mismatch(Dense.of(b))
        assert (a == b) == (a.first_mismatch(b) is None)
        assert a.first_mismatch(CycMatrix(a.prime, a.perm, a.exps)) is None

    @settings(max_examples=SPARSE_EXAMPLES)
    @given(structured_pairs())
    def test_conj_transpose_is_entrywise(self, pair):
        m, _ = pair
        h = m.conj_transpose()
        n = m.size
        assert all(h.rows[i][j] == conj(m.rows[j][i]) for i in range(n) for j in range(n))


class TestDetMonomial:
    def test_cycle_sign(self):
        # a 3-cycle is even
        beta = generators(3).beta
        assert beta.det() == 1

    def test_transposition_sign(self):
        swap = CycMatrix(2, (1, 0), (0, 0))
        assert swap.det() == -1

    def test_dense_rejected(self):
        # a matrix without exactly one nonzero entry per row and column has
        # no exponent form
        with pytest.raises(ValueError):
            CycMatrix(3, (0, 0, 1), (0, 0, 0))

    @given(st.sampled_from((2, 3, 5, 7)).flatmap(
        lambda p: st.integers(1, 6).flatmap(lambda n: monomial_matrices(p, n))
    ))
    def test_det_is_the_signed_product_of_the_entries(self, m):
        assert m.det() == Dense.of(m).det_monomial()


def random_tables(p):
    """p x p tables of exponents, not reduced."""
    row = st.lists(st.integers(-2 * p, 4 * p), min_size=p, max_size=p)
    return st.lists(row, min_size=p, max_size=p)


class TestTConjugation:
    """``t_conjugate_mismatch`` against the schoolbook product
    ``conj_transpose(T) A T`` of the dense matrices, compared with ``l want``."""

    @settings(max_examples=60)
    @given(st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: st.tuples(
        random_tables(p), monomial_matrices(p, p), monomial_matrices(p, p),
    )))
    def test_matches_the_schoolbook_product(self, case):
        t, a, want = case
        p = a.prime
        dense_t = Dense.of_table(p, t, schoolbook)
        lhs = dense_t.conj_transpose() * Dense.of(a, schoolbook) * dense_t
        rhs = Dense.of(want, schoolbook).scale(p)
        assert t_conjugate_mismatch(t, a, want) == lhs.first_mismatch(rhs)

    @pytest.mark.parametrize("p", (2, 11, 13))
    def test_generator_identities_match_the_schoolbook_product(self, p):
        g = generators(p)
        ident = CycMatrix.identity(p, g.alpha.size)
        beta_side = g.beta if p == 2 else g.beta.conj_transpose()
        alpha_side = g.alpha * g.beta if p == 2 else g.alpha.conj_transpose() * g.beta
        dense_t = Dense.of_table(p, g.t, schoolbook)
        for a, want in ((ident, ident), (g.alpha, alpha_side), (g.beta, beta_side)):
            assert t_conjugate_mismatch(g.t, a, want) is None
            lhs = dense_t.conj_transpose() * Dense.of(a, schoolbook) * dense_t
            assert lhs == Dense.of(want, schoolbook).scale(p)


class TestGramEntryOracle:
    def test_t_gram_entries_by_summation(self):
        self.assert_gram_entries_by_summation(7)

    def test_t_gram_entries_by_summation_at_the_cap(self):
        self.assert_gram_entries_by_summation(31)

    @staticmethod
    def assert_gram_entries_by_summation(p):
        # entry (i, j) of conj_transpose(T) T is sum_k xi^(a_(j+k) - a_(i+k)),
        # computed here term by term, independently of the matrix product
        g = generators(p)
        t = Dense.of_table(p, g.t)
        product = t.conj_transpose() * t
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
        ident = CycMatrix.identity(p, p)
        assert t_conjugate_mismatch(g.t, ident, ident) is None


def replaced(g, **fields):
    """The generators ``g`` with ``fields`` in place of their own; ``g``
    itself is left as it was."""
    return SimpleNamespace(**{**vars(g), **fields})


def perturbed_t(g):
    t = [list(row) for row in g.t]
    t[1][2] = (t[1][2] + 1) % g.prime
    return replaced(g, t=tuple(map(tuple, t)))


def s_from_a_i_plus_2(g):
    n = g.alpha.size
    return replaced(g, s=CycMatrix(g.prime, range(n), [triangular(i + 2) for i in range(n)]))


def beta_shifted_the_other_way(g):
    n = g.alpha.size
    return replaced(g, beta=CycMatrix(g.prime, [(i + 1) % n for i in range(n)], [0] * n))


def beta_rows_swapped(g):
    perm = list(g.beta.perm)
    perm[0], perm[1] = perm[1], perm[0]
    return replaced(g, beta=CycMatrix(g.prime, perm, g.beta.exps))


MUTANTS = {
    f.__name__: f
    for f in (perturbed_t, s_from_a_i_plus_2, beta_shifted_the_other_way, beta_rows_swapped)
}


def dense_matrices(g):
    """The dense generator matrices of ``g`` and the products the checks
    name, as ``_matrices`` names them, with ``t_h`` and ``ell`` = l."""
    p = g.prime
    alpha, beta, xi, s = (Dense.of(m) for m in (g.alpha, g.beta, g.xi, g.s))
    t = Dense.of_table(p, g.t)
    ident = Dense.of(CycMatrix.identity(p, g.alpha.size))
    block = Dense.block_diag
    return SimpleNamespace(
        alpha=alpha, beta=beta, xi=xi, s=s, t=t,
        alpha_h=alpha.conj_transpose(), beta_h=beta.conj_transpose(),
        s_h=s.conj_transpose(), t_h=t.conj_transpose(),
        ident=ident, ell=p,
        d_alpha=block(alpha, alpha), d_beta=block(beta, beta), d_xi=block(xi, xi),
        g_xi=block(ident, xi), g_beta=block(ident, beta),
        ident2=Dense.of(CycMatrix.identity(p, 2 * g.alpha.size)),
    )


# check id -> (lhs, rhs): each identity as a product of dense matrices
DENSE_IDENTITIES = {
    "matrices.su.alpha_unitary": (lambda d: d.alpha_h * d.alpha, lambda d: d.ident),
    "matrices.su.beta_unitary": (lambda d: d.beta_h * d.beta, lambda d: d.ident),
    "matrices.su.commutator": (lambda d: d.alpha * d.beta, lambda d: d.beta * d.alpha * d.xi),
    "matrices.su.s_unitary": (lambda d: d.s_h * d.s, lambda d: d.ident),
    "matrices.su.t_gram": (lambda d: d.t_h * d.t, lambda d: d.ident.scale(d.ell)),
    "matrices.weyl.alpha_by_s": (lambda d: d.s_h * d.alpha * d.s, lambda d: d.alpha),
    "matrices.weyl.beta_by_s": (
        lambda d: d.s_h * d.beta * d.s, lambda d: d.alpha_h * d.beta,
    ),
    "matrices.weyl.alpha_by_t": (
        lambda d: d.t_h * d.alpha * d.t, lambda d: (d.alpha_h * d.beta).scale(d.ell),
    ),
    "matrices.weyl.beta_by_t": (
        lambda d: d.t_h * d.beta * d.t, lambda d: d.beta_h.scale(d.ell),
    ),
    "matrices.g1.commutator": (
        lambda d: d.d_alpha * d.d_beta, lambda d: d.d_beta * d.d_alpha * d.d_xi,
    ),
    "matrices.g1.central_alpha": (
        lambda d: d.g_xi * d.d_alpha, lambda d: d.d_alpha * d.g_xi * d.ident2,
    ),
    "matrices.g1.central_beta": (
        lambda d: d.g_xi * d.d_beta, lambda d: d.d_beta * d.g_xi * d.ident2,
    ),
    "matrices.g1.alpha_by_gamma_beta": (
        lambda d: d.d_alpha * d.g_beta, lambda d: d.g_beta * (d.g_xi * d.d_alpha),
    ),
    "matrices.g1.beta_by_gamma_beta": (
        lambda d: d.d_beta * d.g_beta, lambda d: d.g_beta * d.d_beta,
    ),
    "matrices.g1.xi_by_gamma_beta": (
        lambda d: d.g_xi * d.g_beta, lambda d: d.g_beta * d.g_xi,
    ),
}


def dense_verdict(check_id, d, unmutated):
    """The (status, details) of a check computed on the dense matrices ``d``;
    ``unmutated`` is its record on the true generators, whose details are
    the identity's description."""
    if check_id in DENSE_IDENTITIES:
        lhs, rhs = DENSE_IDENTITIES[check_id]
        bad = lhs(d).first_mismatch(rhs(d))
        if bad is None:
            return unmutated.status, unmutated.details
        (i, j), x, y = bad
        return FAIL, f"{unmutated.details}: entry ({i},{j}) differs: {x!r} != {y!r}"
    if check_id == "matrices.su.determinants":
        da, db = d.alpha.det_monomial(), d.beta.det_monomial()
        if da == 1 and db == 1:
            return unmutated.status, unmutated.details
        return FAIL, f"det(alpha) = {da!r}, det(beta) = {db!r}"
    # the lemma sweeps and rank-nullity read no generator matrix
    return unmutated.status, unmutated.details


class TestMutants:
    @pytest.mark.parametrize("p", (3, 5, 13, 31))
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_records_match_the_dense_reference(self, mutant, p, monkeypatch, job_records):
        unmutated = {r.check_id: r for r in job_records("matrices", p, "matrices.")}
        g = MUTANTS[mutant](generators(p))
        monkeypatch.setattr(cyclo, "generators", lambda prime: g)
        records = job_records("matrices", p, "matrices.")
        assert vars(g).keys() == vars(generators(p)).keys()
        assert {r.check_id for r in records} == set(unmutated)
        assert set(DENSE_IDENTITIES) | {"matrices.su.determinants"} <= set(unmutated)
        d = dense_matrices(g)
        for r in records:
            assert (r.status, r.details) == dense_verdict(r.check_id, d, unmutated[r.check_id])
        assert any(r.status == FAIL for r in records)


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

    def test_matrix_suite_passes_at_every_prime_past_31(self):
        # no prime cap: all 20 matrix checks run at 37, 61 and 101, and on
        # exponent tables they cost little there
        start = time.perf_counter()
        records = run(RunConfig(primes=(37, 61, 101), suites=("matrices",)))
        elapsed = time.perf_counter() - start
        assert Counter(r.prime for r in records) == {37: 20, 61: 20, 101: 20}
        bad = [f"{r.check_id} l={r.prime}: {r.details}" for r in records
               if r.status not in (PASS, NOTE)]
        assert not bad, "\n".join(bad)
        assert elapsed <= 1.5

    def test_t_gram_failure_details(self, monkeypatch, job_records):
        # one perturbed exponent of T: the mismatch renders through
        # CycInt.__repr__, as the dense product rendered it
        monkeypatch.setattr(cyclo, "generators", lambda prime: perturbed_t(generators(prime)))
        [record] = job_records("matrices", 5, "matrices.su.t_gram")
        assert record.status == FAIL
        assert record.details == (
            "conj_transpose(T) * T = l * I: entry (0,2) differs: "
            "2 + 1*t + 1*t^2 + 1*t^3 != 0"
        )

    @pytest.mark.parametrize("p, check_id, mutate, details", [
        (2, "matrices.l2.determinants", lambda g: replaced(g, xi=CycMatrix(2, (0, 1), (1, 2))),
         "det(alpha) = 1, det(beta) = 1, det(xi) = -1*i"),
        (3, "matrices.su.determinants", beta_rows_swapped, "det(alpha) = 1, det(beta) = -1"),
    ])
    def test_determinant_failure_details(
        self, p, check_id, mutate, details, monkeypatch, job_records
    ):
        monkeypatch.setattr(cyclo, "generators", lambda prime: mutate(generators(prime)))
        [record] = job_records("matrices", p, check_id)
        assert (record.status, record.details) == (FAIL, details)

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
        assert (delta(a) * delta(b)).rows == (Dense.of(delta(a)) * Dense.of(delta(b))).rows

    @given(cyc_matrices(), cyc_matrices())
    def test_conj_transpose_antihomomorphism(self, a, b):
        if a.prime != b.prime or a.size != b.size:
            return
        assert (a * b).conj_transpose() == b.conj_transpose() * a.conj_transpose()


class TestGenerators:
    def test_alpha_entries(self):
        g = generators(5)
        for i in range(5):
            assert g.alpha.rows[i][i] == CycInt.root_power(5, i + 1)

    def test_beta_is_cyclic_shift(self):
        g = generators(3)
        one = CycInt.from_int(3, 1)
        for i in range(3):
            for j in range(3):
                expected = one if i % 3 == (j + 1) % 3 else CycInt.zero(3)
                assert g.beta.rows[i][j] == expected

    def test_s_diagonal_uses_triangular_numbers(self):
        g = generators(7)
        for i in range(7):
            assert g.s.rows[i][i] == CycInt.root_power(7, triangular(i + 1))

    def test_t_entries_use_triangular_numbers(self):
        g = generators(5)
        t = Dense.of_table(5, g.t)
        for i in range(5):
            for j in range(5):
                assert t.rows[i][j] == CycInt.root_power(
                    5, triangular((i + 1) + (j + 1))
                )

    def test_l2_matrices(self):
        g = generators(2)
        i = CycInt(2, (0, 1))
        zero = CycInt.zero(2)
        assert g.alpha.rows[0][0] == i and g.alpha.rows[1][1] == CycInt(2, (0, -1))
        assert g.beta.rows == ((zero, i), (i, zero))
        assert g.xi.rows[0][0].as_int() == -1
        assert g.s.rows == ((CycInt.from_int(2, 1), zero), (zero, i))
        t = Dense.of_table(2, g.t)
        assert t.rows[0][1] == i and t.rows[1][0] == i and t.rows[0][0] == 1
