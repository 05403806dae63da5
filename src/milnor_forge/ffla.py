"""Exact dense linear algebra over the prime field F_l.

Everything here is pure integer arithmetic: matrices store residues in
``[0, l)`` and every operation reduces mod ``l``.  No floating point, no
sparse formats; the degreewise spaces this package handles stay small.
Outside entries go through ``integers`` (``operator.index``), so a
non-integer raises ``TypeError`` instead of being truncated; ``cyclo`` and
``galg`` check their outside coefficients with it too.

There is one row reduction, ``_Echelon``.  Its rows stay fully reduced: each
has a 1 at its pivot, zeros before it and zeros at every other row's pivot.
So its ``basis()``, the rows in pivot order, is the reduced row-echelon basis
of their span, and ``rref``, ``row_space_basis``, ``in_span``,
``FieldMatrix.rank`` and ``FieldMatrix.inverse`` all read it.
"""

from __future__ import annotations

from operator import index, mul
from typing import Iterable, Sequence

from .report import FAIL, PASS, Check, Job, always


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


def integers(values: Iterable) -> tuple[int, ...]:
    """Outside numbers as ints: an int or a bool passes as its value, and a
    float or any other non-integer raises ``TypeError``, where ``int()``
    would truncate it and ``%`` would keep it."""
    return tuple(map(index, values))


def _checked_rows(
    entries: Iterable[Sequence[int]], modulus: int
) -> tuple[tuple[int, ...], ...]:
    """Outside rows as residues mod a prime ``modulus``: a composite modulus
    or ragged rows raise ``ValueError``, a non-integer entry ``TypeError``."""
    check_prime(modulus)
    rows = tuple(tuple(x % modulus for x in integers(row)) for row in entries)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    return rows


class FieldMatrix:
    """Dense row-major matrix over F_l with exact arithmetic."""

    __slots__ = ("rows", "cols", "modulus", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], modulus: int):
        rows = _checked_rows(entries, modulus)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        self.rows = len(rows)
        self.cols = len(rows[0])
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
        if not isinstance(other, FieldMatrix):
            return NotImplemented
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
        vector = integers(vector)
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        p = self.modulus
        return tuple(sum(a * v for a, v in zip(row, vector)) % p for row in self.entries)

    def rank(self) -> int:
        return rref(self)[0]

    def inverse(self) -> "FieldMatrix":
        """The right half of the reduced ``[A | I]``, which is ``[I | A^-1]``
        exactly when every pivot lies in the left half."""
        if self.rows != self.cols:
            raise ValueError("not square")
        n, p = self.rows, self.modulus
        span = _Echelon(
            p, [row + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, row in enumerate(self.entries)]
        )
        if any(col >= n for col in span.rows):
            raise ValueError("matrix is singular")
        return FieldMatrix._trusted(tuple(row[n:] for row in span.basis()), p)


def rref(m: FieldMatrix) -> tuple[int, FieldMatrix]:
    """Reduced row-echelon form; returns (rank, reduced).  Row space preserved."""
    rows = _Echelon(m.modulus, m.entries).basis()
    zeros = [(0,) * m.cols] * (m.rows - len(rows))
    return len(rows), FieldMatrix._trusted(tuple(rows + zeros), m.modulus)


def nullspace(m: FieldMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of ``{v : m v = 0}``, one vector per free column."""
    p = m.modulus
    rank, red = rref(m)
    # a reduced row's first 1 is its pivot: the entries before it are 0
    pivots = {row.index(1): row for row in red.entries[:rank]}
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [0] * m.cols
        v[free] = 1
        for col, row in pivots.items():
            v[col] = -row[free] % p
        basis.append(tuple(v))
    return basis


def preimage(
    vectors: Sequence[Sequence[int]],
    images: Sequence[Sequence[int]],
    modulus: int,
    modulo: Sequence[Sequence[int]] = (),
) -> list[tuple[int, ...]]:
    """The combinations of ``vectors`` whose image lies in the span of ``modulo``,
    where ``images[i]`` is the image of ``vectors[i]``: ``sum x_i vectors[i]``
    for each (x, y) in the ``nullspace`` of ``[images | modulo]``, zero ones
    left out.  A basis when ``vectors`` and ``modulo`` are each independent.
    The images and ``modulo`` rows must share one length, and the vectors
    another, or ``ValueError`` is raised."""
    if len(images) != len(vectors):
        raise ValueError("one image per vector")
    if len({len(row) for row in (*images, *modulo)}) > 1:
        raise ValueError("images and modulo rows differ in length")
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors differ in length")
    if not vectors:
        return []
    columns = [*images, *modulo]
    # images of length 0 all vanish: one zero row keeps the matrix nonempty
    rows = list(zip(*columns)) or [(0,) * len(columns)]
    out = []
    for kvec in nullspace(FieldMatrix(rows, modulus)):
        v = tuple(sum(k * c for k, c in zip(kvec, col)) % modulus for col in zip(*vectors))
        if any(v):
            out.append(v)
    return out


def row_space_basis(vectors: Iterable[Sequence[int]], modulus: int) -> list[tuple[int, ...]]:
    """Canonical (rref) basis of the span of the given vectors."""
    vecs = list(vectors)
    if not vecs:
        return []
    return _Echelon(modulus, _checked_rows(vecs, modulus)).basis()


class _Echelon:
    """A growing basis of a subspace of F_l^n, kept fully reduced.

    ``rows`` maps each pivot column to its row: the pivot entry is 1, the
    entries before it are 0, and the row is zero at every other row's pivot.
    So ``reduce`` clears the pivot columns of a vector by one pass over the
    rows, a vector lies in the span exactly when it reduces to zero, and
    ``basis()`` is the reduced row-echelon basis of the span.  Each vector is
    reduced once; an insert also clears its pivot column from the rows kept
    before it.  Package-internal: the modulus must be prime and every vector
    a sequence of ints as long as the first.
    """

    __slots__ = ("modulus", "rows")

    def __init__(self, modulus: int, vectors: Iterable[Sequence[int]]):
        self.modulus = modulus
        self.rows: dict[int, list[int]] = {}
        for v in vectors:
            self.insert(v)

    def __len__(self) -> int:
        return len(self.rows)

    def basis(self) -> list[tuple[int, ...]]:
        """The rows in pivot order: the rref basis of the span."""
        return [tuple(self.rows[col]) for col in sorted(self.rows)]

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
                v = [(x * inv) % p for x in v]
                rows = self.rows
                for other, row in rows.items():
                    d = row[col]
                    if d:
                        rows[other] = [(a - d * b) % p for a, b in zip(row, v)]
                rows[col] = v
                return True
        return False


def in_span(vector: Sequence[int], basis: Sequence[Sequence[int]], modulus: int) -> bool:
    vector, *rows = _checked_rows([vector, *basis], modulus)
    if not any(vector):
        return True
    return bool(rows) and not any(_Echelon(modulus, rows).reduce(vector))


def spans_equal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], modulus: int) -> bool:
    """Whether ``a`` and ``b`` span one subspace; ``ValueError`` unless every
    vector on both sides has one length (either side may be empty)."""
    if len({len(v) for v in (*a, *b)}) > 1:
        raise ValueError("vectors differ in length")
    return row_space_basis(a, modulus) == row_space_basis(b, modulus)


def _rank_nullity(job: Job) -> tuple[str, str]:
    prime = job.prime
    rng = job.rng(1000003)
    for _ in range(20):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = FieldMatrix(
            [[rng.randrange(prime) for _ in range(cols)] for _ in range(rows)],
            prime,
        )
        rank, reduced = rref(m)
        kernel = nullspace(m)
        if rank + len(kernel) != cols:
            return FAIL, f"rank {rank} + nullity {len(kernel)} != {cols}"
        if reduced.rank() != rank:
            return FAIL, "rref changed the rank"
        for v in kernel:
            if any(m.apply(v)):
                return FAIL, "nullspace vector not annihilated"
    return PASS, "rank-nullity and exact kernels on 20 seeded random matrices"


CHECKS = (Check("matrices.ffla.rank_nullity", always, _rank_nullity),)
