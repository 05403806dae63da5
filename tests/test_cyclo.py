import pytest
from hypothesis import given, strategies as st

from milnor_forge.cyclo import (
    CycInt,
    CycMatrix,
    GeneratorSet,
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


def assert_all_pass(reports):
    bad = [r for r in reports if r.status == FAIL]
    assert not bad, "\n".join(f"{r.check_id}: {r.details}" for r in bad)


@st.composite
def cyc_ints(draw, primes=(2, 3, 5, 7)):
    p = draw(st.sampled_from(primes))
    rank = 2 if p == 2 else p - 1
    coeffs = [draw(st.integers(-9, 9)) for _ in range(rank)]
    return CycInt(p, coeffs)


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
        # re-canonicalizing a canonical coefficient vector is the identity
        if x.prime == 2:
            assert CycInt(2, x.coeffs) == x
        else:
            again = CycInt._from_exponent_vector(
                x.prime, dict(enumerate(x.coeffs))
            )
            assert again == x

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
        # entry (i, j) of conj_transpose(T) T is sum_k xi^(a_(j+k) - a_(i+k)),
        # computed here term by term, independently of the matrix product
        p = 7
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
