"""Exact dense linear algebra over the prime field F_l.

Everything here is pure integer arithmetic: matrices store residues in
``[0, l)`` and every operation reduces mod ``l``.  No floating point, no
sparse formats; the degreewise spaces this package handles stay small.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(modulus: int) -> int:
    if not is_prime(modulus):
        raise ValueError(f"modulus {modulus} is not prime")
    return modulus


def _inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, p - 2, p)


class FieldMatrix:
    """Dense row-major matrix over F_l with exact arithmetic."""

    __slots__ = ("rows", "cols", "modulus", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], modulus: int):
        check_prime(modulus)
        rows = tuple(tuple(int(x) % modulus for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(rows[0])
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = cols
        self.modulus = modulus
        self.entries = rows

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...], modulus: int) -> "FieldMatrix":
        """Wrap ``entries`` without checking or reducing them.

        Only for results the package builds itself (products, ``rref`` and
        the closure enumeration), never for outside input: a nonempty,
        rectangular tuple of tuples with every entry already in
        ``[0, modulus)``, and a modulus already known to be prime.
        """
        m = cls.__new__(cls)
        m.rows = len(entries)
        m.cols = len(entries[0])
        m.modulus = modulus
        m.entries = entries
        return m

    @classmethod
    def identity(cls, n: int, modulus: int) -> "FieldMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], modulus)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.modulus == other.modulus
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.entries, self.modulus))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"FieldMatrix[{body}] mod {self.modulus}"

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        p = self.modulus
        bt = list(zip(*other.entries))
        out = tuple(
            tuple([sum(map(mul, row, col)) % p for col in bt])
            for row in self.entries
        )
        return FieldMatrix._trusted(out, p)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        p = self.modulus
        return tuple(sum(a * v for a, v in zip(row, vector)) % p for row in self.entries)

    def rank(self) -> int:
        return rref(self)[0]

    def inverse(self) -> "FieldMatrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        n, p = self.rows, self.modulus
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.entries)]
        _, reduced = _rref_rows(aug, p)
        left = [row[:n] for row in reduced]
        if left != [[1 if i == j else 0 for j in range(n)] for i in range(n)]:
            raise ValueError("matrix is singular")
        return FieldMatrix([row[n:] for row in reduced], p)


def _rref_rows(rows: Sequence[Sequence[int]], p: int) -> tuple[int, list[list[int]]]:
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, nrows):
            if rows[r][col] % p:
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = _inv_mod(rows[pivot_row][col], p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return pivot_row, rows


def rref(m: FieldMatrix) -> tuple[int, FieldMatrix]:
    """Reduced row-echelon form; returns (rank, reduced).  Row space preserved."""
    rank, rows = _rref_rows(m.entries, m.modulus)
    # elimination keeps the entries of a reduced matrix in [0, modulus)
    return rank, FieldMatrix._trusted(tuple(map(tuple, rows)), m.modulus)


def nullspace(m: FieldMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of ``{v : m v = 0}``, one vector per free column."""
    p = m.modulus
    rank, red = rref(m)
    pivots: dict[int, int] = {}
    for r in range(rank):
        for c in range(m.cols):
            if red.entries[r][c]:
                pivots[c] = r
                break
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [0] * m.cols
        v[free] = 1
        for col, r in pivots.items():
            v[col] = (-red.entries[r][free]) % p
        basis.append(tuple(v))
    return basis


def row_space_basis(vectors: Iterable[Sequence[int]], modulus: int) -> list[tuple[int, ...]]:
    """Canonical (rref) basis of the span of the given vectors."""
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return []
    rank, red = rref(FieldMatrix(vecs, modulus))
    return [red.entries[r] for r in range(rank)]


class _Echelon:
    """A growing basis of a subspace of F_l^n, kept in echelon form.

    ``rows`` maps each pivot column to its row: the pivot entry is 1 and the
    row is zero at the pivot columns of every row inserted before it.  So
    ``reduce`` clears the pivot columns of a vector by taking the rows in
    insertion order, and a vector lies in the span exactly when it reduces to
    zero.  Each vector is reduced once, against the rows kept so far; nothing
    is row-reduced again.  Package-internal: the modulus must be prime and
    every vector as long as the first.
    """

    __slots__ = ("modulus", "rows")

    def __init__(self, modulus: int, vectors: Iterable[Sequence[int]] = ()):
        self.modulus = modulus
        self.rows: dict[int, list[int]] = {}
        for v in vectors:
            self.insert(v)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence[int]) -> list[int]:
        """``vector`` minus its part along the rows, entries in ``[0, l)``."""
        p = self.modulus
        v = [x % p for x in vector]
        for col, row in self.rows.items():
            c = v[col]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def insert(self, vector: Sequence[int]) -> bool:
        """Add ``vector`` to the basis; False, keeping nothing, if already spanned."""
        v = self.reduce(vector)
        for col, c in enumerate(v):
            if c:
                p = self.modulus
                inv = pow(c, p - 2, p)
                self.rows[col] = [(x * inv) % p for x in v]
                return True
        return False


def in_span(vector: Sequence[int], basis: Sequence[Sequence[int]], modulus: int) -> bool:
    if not any(x % modulus for x in vector):
        return True
    if not basis:
        return False
    check_prime(modulus)
    if any(len(b) != len(vector) for b in basis):
        raise ValueError("ragged rows")
    return not any(_Echelon(modulus, basis).reduce(vector))


def spans_equal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], modulus: int) -> bool:
    return row_space_basis(a, modulus) == row_space_basis(b, modulus)
