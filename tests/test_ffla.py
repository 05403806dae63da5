import itertools

import pytest
from hypothesis import given, strategies as st

from milnor_forge.ffla import (
    FieldMatrix,
    in_span,
    is_prime,
    nullspace,
    preimage,
    row_space_basis,
    rref,
    spans_equal,
)


def zeros(rows, cols, modulus):
    return FieldMatrix([[0] * cols for _ in range(rows)], modulus)


def leibniz_det(entries, p):
    """Independent determinant by permutation expansion (oracle)."""
    n = len(entries)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = sign
        for i in range(n):
            prod *= entries[i][perm[i]]
        total += prod
    return total % p


def minor_rank(entries, p):
    """Independent rank: size of the largest nonsingular square minor."""
    rows, cols = len(entries), len(entries[0])
    for k in range(min(rows, cols), 0, -1):
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                minor = [[entries[i][j] for j in csel] for i in rsel]
                if leibniz_det(minor, p) != 0:
                    return k
    return 0


def sympy_matrix(m):
    """``m`` as a sympy ``DomainMatrix`` over GF(p) (oracle)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.GF(m.modulus)
    return DomainMatrix([[field(x) for x in row] for row in m.entries], (m.rows, m.cols), field)


def residue_rows(dm, p):
    # sympy's GF(p) elements convert to symmetric representatives
    return tuple(tuple(int(x) % p for x in row) for row in dm.to_list())


@st.composite
def field_matrices(draw, max_dim=4, primes=(2, 3, 5, 7), square=False):
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    entries = [
        [draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(rows)
    ]
    return FieldMatrix(entries, p)


class TestRref:
    def test_identity_unchanged(self):
        m = FieldMatrix.identity(3, 5)
        rank, red = rref(m)
        assert rank == 3
        assert red == m

    def test_zero_matrix(self):
        m = zeros(2, 4, 3)
        rank, red = rref(m)
        assert rank == 0
        assert red == m

    def test_dependent_rows(self):
        # row2 = 2*row1 over F_3
        rank, _ = rref(FieldMatrix([[1, 1], [2, 2]], 3))
        assert rank == 1

    def test_row_space_preserved(self):
        m = FieldMatrix([[1, 2, 3], [4, 0, 1], [2, 1, 2]], 5)
        _, red = rref(m)
        assert spans_equal(m.entries, red.entries, 5)


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace(FieldMatrix.identity(4, 3)) == []

    def test_zero_has_full_kernel(self):
        basis = nullspace(zeros(3, 3, 5))
        assert len(basis) == 3

    def test_hand_solved_kernel(self):
        # 1*3 + 2*1 = 5 = 0 over F_5
        basis = nullspace(FieldMatrix([[1, 2, 0], [0, 0, 1]], 5))
        assert basis == [(3, 1, 0)]


@st.composite
def preimage_problems(draw):
    """Up to 4 vectors over F_2 or F_3 with their images (all zero in about
    half the draws) and up to 3 vectors to work modulo."""
    p = draw(st.sampled_from((2, 3)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))

    def vector(size):
        return tuple(draw(st.integers(0, p - 1)) for _ in range(size))

    vectors = [vector(n) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        images = [(0,) * m for _ in vectors]
    else:
        images = [vector(m) for _ in vectors]
    modulo = [vector(m) for _ in range(draw(st.integers(0, 3)))]
    return p, n, m, vectors, images, modulo


@given(preimage_problems())
def test_preimage_is_brute_force_preimage(problem):
    # every coefficient vector c: sum c_i vectors[i] is in the preimage
    # exactly when sum c_i images[i] lies in the span of modulo
    p, n, m, vectors, images, modulo = problem
    got = preimage(vectors, images, p, modulo) if modulo else preimage(vectors, images, p)

    def combine(c, rows, size):
        return tuple(sum(x * row[j] for x, row in zip(c, rows)) % p for j in range(size))

    want = [
        combine(c, vectors, n)
        for c in itertools.product(range(p), repeat=len(vectors))
        if in_span(combine(c, images, m), modulo, p)
    ]
    assert all(any(v) for v in got)
    assert spans_equal(got, want, p)
    if len(row_space_basis(vectors, p)) == len(vectors) and len(row_space_basis(modulo, p)) == len(modulo):
        assert len(got) == len(row_space_basis(want, p))


class TestPreimage:
    def test_zero_images_give_every_vector(self):
        vectors = [(1, 2, 0), (0, 1, 1)]
        assert preimage(vectors, [(0, 0), (0, 0)], 5) == vectors

    def test_hand_solved_preimage(self):
        # images 1, 2 and 3 mod 5 in one coordinate: the kernel is spanned
        # by 3*e0 + e1 and 2*e0 + e2
        vectors = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert preimage(vectors, [(1,), (2,), (3,)], 5) == [(3, 1, 0), (2, 0, 1)]

    def test_modulo_widens_the_preimage(self):
        vectors = [(1, 0), (0, 1)]
        images = [(1, 0), (0, 1)]
        assert preimage(vectors, images, 3) == []
        assert preimage(vectors, images, 3, [(0, 1)]) == [(0, 2)]

    def test_one_image_per_vector(self):
        with pytest.raises(ValueError):
            preimage([(1, 0)], [], 3)

    @pytest.mark.parametrize(
        "vectors, images, modulo",
        [
            ([(1, 0), (0, 1)], [(1, 2), (3,)], ()),  # ragged images
            ([(1, 0), (0, 1, 4)], [(1, 2), (3, 4)], ()),  # ragged vectors
            ([(1, 0)], [(1, 2)], [(3,)]),  # modulo rows shorter than the images
        ],
    )
    def test_ragged_input_raises(self, vectors, images, modulo):
        with pytest.raises(ValueError, match="differ in length"):
            preimage(vectors, images, 5, modulo)


class TestMatrixOps:
    def test_inverse(self):
        m = FieldMatrix([[1, 1], [0, 1]], 5)
        assert m * m.inverse() == FieldMatrix.identity(2, 5)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            FieldMatrix([[1, 1], [2, 2]], 3).inverse()

    def test_apply(self):
        m = FieldMatrix([[1, 2], [3, 4]], 5)
        assert m.apply((1, 1)) == (3, 2)
        assert m.apply((True, 6)) == (3, 2)

    def test_apply_rejects_non_integers(self):
        m = FieldMatrix([[1, 2], [3, 4]], 5)
        with pytest.raises(TypeError):
            m.apply((1.5, 2))
        with pytest.raises(TypeError):
            m.apply(("1", 2))

    @pytest.mark.parametrize("other", (3, 2.0, ((1,),), None))
    def test_product_with_a_non_matrix_is_a_type_error(self, other):
        m = FieldMatrix([[1]], 5)
        with pytest.raises(TypeError):
            m * other
        with pytest.raises(TypeError):
            other * m


@given(field_matrices())
def test_rank_nullity(m):
    rank, red = rref(m)
    kernel = nullspace(m)
    assert rank + len(kernel) == m.cols
    assert red.rank() == rank


@given(field_matrices())
def test_nullspace_vectors_annihilated(m):
    for v in nullspace(m):
        assert not any(m.apply(v))


@given(field_matrices(max_dim=4))
def test_rank_matches_minor_oracle(m):
    rank, _ = rref(m)
    assert rank == minor_rank([list(r) for r in m.entries], m.modulus)


@given(field_matrices())
def test_rref_is_sympy_rref(m):
    reduced, pivots = sympy_matrix(m).rref()
    rank, red = rref(m)
    assert rank == len(pivots)
    # row for row, the zero rows below the rank included
    assert red.entries == residue_rows(reduced, m.modulus)


@given(field_matrices(square=True))
def test_inverse_is_sympy_inverse(m):
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    try:
        want = residue_rows(sympy_matrix(m).inv(), m.modulus)
    except DMNonInvertibleMatrixError:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m.inverse().entries == want


class TestRowSpaceBasisInput:
    def test_composite_modulus_raises(self):
        with pytest.raises(ValueError):
            row_space_basis([(1, 2)], 4)

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            row_space_basis([(1, 2), (1, 2, 3)], 5)
        with pytest.raises(ValueError):
            row_space_basis([(1, 2, 3), (1, 2)], 5)

    def test_no_vectors_give_empty_basis(self):
        assert row_space_basis([], 5) == []
        assert row_space_basis(iter(()), 5) == []


class TestSpansEqual:
    def test_equal_and_unequal_spans(self):
        assert spans_equal([(1, 2), (2, 4)], [(3, 1)], 5)
        assert not spans_equal([(1, 0)], [(0, 1)], 5)
        assert spans_equal([], [(0, 0)], 5)
        assert spans_equal([], [], 5)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([(1, 2)], [(1, 2, 3)]),  # one length on each side, not the same one
            ([(1, 2), (1, 2, 3)], [(1, 2)]),  # ragged on one side
            ([], [(1, 2), (1,)]),  # ragged against an empty side
            ([(0, 0, 0)], [(0, 0)]),  # zero vectors are checked too
        ],
    )
    def test_mismatched_lengths_raise(self, a, b):
        with pytest.raises(ValueError):
            spans_equal(a, b, 5)
        with pytest.raises(ValueError):
            spans_equal(b, a, 5)


def test_non_integer_entries_are_rejected():
    # entries are integers or raise; none is truncated to one
    with pytest.raises(TypeError):
        FieldMatrix([[1.5, 2]], 3)
    with pytest.raises(TypeError):
        row_space_basis([[2.7, 1]], 5)
    with pytest.raises(TypeError):
        in_span([0.5, 0], [(1, 0)], 3)
    with pytest.raises(TypeError):
        in_span([1, 0], [(0.5, 0)], 3)
    assert FieldMatrix([[True, 7]], 3).entries == ((1, 1),)
    assert row_space_basis([[2, 1]], 5) == [(1, 3)]


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
