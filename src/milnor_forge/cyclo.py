"""Exact arithmetic in Z[xi_l] and verification of the unitary generator identities.

For an odd prime ``l`` the ring is Z[t]/(1 + t + ... + t^(l-1)) with the
primitive root ``xi = t``; for ``l = 2`` the relevant matrices contain the
imaginary unit, so the ring is the Gaussian integers Z[t]/(t^2 + 1) with
``xi = -1``.  Coefficients are Python ints, so overflow cannot occur.

Every product (``CycInt * CycInt`` and ``CycMatrix * CycMatrix``) runs
through one kernel: ``_support``, ``_convolve`` and ``_canonical``.  It uses
the lazily reduced representation of ANTIC (Hart, 2015).  For odd ``l`` it
multiplies in the group ring Z[t]/(t^l - 1).  That ring maps onto Z[xi_l],
and the map sends exactly the multiples of ``N = 1 + t + ... + t^(l-1)`` to 0.
Since ``N t = N``, those multiples are exactly the constant coefficient
vectors.  So a representative may be shifted by any constant vector, and a
product of representatives represents the product:
``(a + cN) b = ab + c b(1) N``.  Canonicalization happens once per product
entry, in ``_canonical``: fold ``t^l = 1``, then subtract the ``t^(l-1)``
coefficient times ``N``, which leaves the canonical basis
``1, t, ..., t^(l-2)`` (the integral basis, Washington, GTM 83).  At
``l = 2`` the kernel multiplies the coefficients of ``1, i`` as they are and
folds ``i^2 = -1``.

All conjugation identities are checked with denominators cleared: the
analytic normalizers of the Weyl representatives are unit scalars that cancel
under conjugation, so e.g. ``tau^-1 alpha tau`` is verified in the form
``conj_transpose(T) alpha T = l * (result)``.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

from .ffla import check_prime, integers
from .report import FAIL, NOTE, PASS, Check, Job, at_two, note


class CycInt:
    """An element of Z[xi_l] in canonical basis form.

    Odd ``l``: coefficients of ``1, t, ..., t^(l-2)`` (``t^(l-1)`` is rewritten
    as ``-(1 + t + ... + t^(l-2))``).  ``l = 2``: coefficients of ``1, t`` with
    ``t^2 = -1``.
    """

    __slots__ = ("prime", "coeffs", "_zero")

    def __init__(self, prime: int, coeffs: Sequence[int]):
        check_prime(prime)
        rank = 2 if prime == 2 else prime - 1
        coeffs = integers(coeffs)
        if len(coeffs) != rank:
            raise ValueError(f"expected {rank} coefficients, got {len(coeffs)}")
        self.prime = prime
        self.coeffs = coeffs
        self._zero = not any(coeffs)

    @classmethod
    def _trusted(cls, prime: int, coeffs: tuple[int, ...]) -> "CycInt":
        """Wrap ``coeffs`` without checking or coercing them.

        Only for results this module computes itself, never for outside
        input: a tuple of ints of the canonical length for ``prime``, and a
        ``prime`` already known to be prime.
        """
        x = cls.__new__(cls)
        x.prime = prime
        x.coeffs = coeffs
        x._zero = not any(coeffs)
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def _rank(cls, prime: int) -> int:
        return 2 if prime == 2 else prime - 1

    @classmethod
    def zero(cls, prime: int) -> "CycInt":
        return cls(prime, (0,) * cls._rank(prime))

    @classmethod
    def from_int(cls, prime: int, n: int) -> "CycInt":
        c = [0] * cls._rank(prime)
        c[0] = n
        return cls(prime, c)

    @classmethod
    def one(cls, prime: int) -> "CycInt":
        return cls.from_int(prime, 1)

    @classmethod
    def imaginary_unit(cls) -> "CycInt":
        return cls(2, (0, 1))

    @classmethod
    def root_power(cls, prime: int, k: int) -> "CycInt":
        """xi^k, where xi = exp(2 pi i / l) abstractly (xi = -1 for l = 2)."""
        if prime == 2:
            return cls.from_int(2, 1 if k % 2 == 0 else -1)
        acc = _accumulator(check_prime(prime))
        acc[k % prime] = 1
        return _canonical(prime, acc)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.prime != other.prime:
            raise ValueError("prime mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.prime, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt._trusted(
            self.prime, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)])
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.prime, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt._trusted(
            self.prime, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)])
        )

    def __neg__(self):
        return CycInt._trusted(self.prime, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt._trusted(self.prime, tuple([a * other for a in self.coeffs]))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        acc = _accumulator(self.prime)
        _convolve(acc, _support(self), _support(other))
        return _canonical(self.prime, acc)

    __rmul__ = __mul__

    def conj(self) -> "CycInt":
        """Complex conjugation: t^k -> t^(l-k), re-canonicalized.

        The coefficient of t^k moves to t^(l-k) and the constant stays, so
        t^(l-1) receives c_1 and t^1 receives the implicit zero of t^(l-1).
        """
        c = self.coeffs
        if self.prime == 2:
            return CycInt._trusted(2, (c[0], -c[1]))
        # an accumulator of t^0 .. t^(2l-2) with nothing above t^(l-1)
        acc = [c[0], 0, *reversed(c[1:])] + [0] * (self.prime - 1)
        return _canonical(self.prime, acc)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._zero

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        return (
            isinstance(other, CycInt)
            and self.prime == other.prime
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.prime, self.coeffs))

    def __repr__(self) -> str:
        sym = "i" if self.prime == 2 else "t"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = sym if k == 1 else f"{sym}^{k}"
                parts.append(f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# the product kernel


def _support(x: CycInt) -> list[tuple[int, int]]:
    """The nonzero (exponent, coefficient) pairs of the sparsest
    representative of ``x``.

    Odd ``l``: the canonical coefficients with an implicit 0 at t^(l-1),
    minus their most frequent value, so a root of unity is a single pair.
    ``l = 2``: the coefficients of 1 and i as they are.
    """
    if x._zero:
        return []
    if x.prime == 2:
        return [(e, c) for e, c in enumerate(x.coeffs) if c]
    v = x.coeffs + (0,)
    shift = 0 if 2 * v.count(0) > len(v) else max(set(v), key=v.count)
    return [(e, c - shift) for e, c in enumerate(v) if c != shift]


def _accumulator(prime: int) -> list[int]:
    """Zeroed coefficients of t^0 .. t^(2r-2) for supports in [0, r)."""
    return [0] * (3 if prime == 2 else 2 * prime - 1)


def _convolve(acc: list[int], sa: list[tuple[int, int]], sb: list[tuple[int, int]]) -> None:
    for e, c in sa:
        for f, g in sb:
            acc[e + f] += c * g


def _canonical(prime: int, acc: list[int]) -> CycInt:
    """The element of Z[xi_l] that an accumulator of ``_convolve`` represents:
    fold ``t^l = 1`` (``i^2 = -1`` at ``l = 2``), then subtract the
    ``t^(l-1)`` coefficient from the others."""
    if prime == 2:
        return CycInt._trusted(2, (acc[0] - acc[2], acc[1]))
    top = acc[prime - 1]
    return CycInt._trusted(
        prime, tuple([a + b - top for a, b in zip(acc, acc[prime:])])
    )


class CycMatrix:
    """Square matrix over Z[xi_l].

    ``A * B`` converts each nonzero entry once to its sparsest group-ring
    representative (``_support``; a root of unity is one term), skips zero
    entries, and adds the term products of every ``A[i][k] B[k][j]`` into one
    accumulator per output entry.  Each accumulator is canonicalized once
    (``_canonical``).  An output entry that receives no term is the product's
    one shared zero.
    """

    __slots__ = ("prime", "size", "rows")

    def __init__(self, prime: int, rows: Sequence[Sequence[CycInt]]):
        self.prime = prime
        self.rows = tuple(tuple(r) for r in rows)
        self.size = len(self.rows)
        if any(len(r) != self.size for r in self.rows):
            raise ValueError("matrix must be square")
        for row in self.rows:
            for x in row:
                if x.prime != prime:
                    raise ValueError("entry prime mismatch")

    @classmethod
    def identity(cls, prime: int, n: int) -> "CycMatrix":
        one, zero = CycInt.one(prime), CycInt.zero(prime)
        return cls(prime, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_fn(cls, prime: int, n: int, fn: Callable[[int, int], CycInt]) -> "CycMatrix":
        return cls(prime, [[fn(i, j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, prime: int, diag: Sequence[CycInt]) -> "CycMatrix":
        zero = CycInt.zero(prime)
        n = len(diag)
        return cls(prime, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, prime: int, value: CycInt, n: int) -> "CycMatrix":
        return cls.diagonal(prime, [value] * n)

    @classmethod
    def block_diag(cls, a: "CycMatrix", b: "CycMatrix") -> "CycMatrix":
        if a.prime != b.prime:
            raise ValueError("prime mismatch")
        zero = CycInt.zero(a.prime)
        n, m = a.size, b.size
        rows = []
        for i in range(n):
            rows.append(list(a.rows[i]) + [zero] * m)
        for i in range(m):
            rows.append([zero] * n + list(b.rows[i]))
        return cls(a.prime, rows)

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.prime != other.prime or self.size != other.size:
            raise ValueError("shape or prime mismatch")
        p, n = self.prime, self.size
        zero = CycInt.zero(p)
        right = [[_support(b) for b in row] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [None] * n
            for a, supports in zip(row, right):
                if a._zero:
                    continue
                sa = _support(a)
                for j, sb in enumerate(supports):
                    if sb:
                        d = acc[j]
                        if d is None:
                            d = acc[j] = _accumulator(p)
                        _convolve(d, sa, sb)
            out.append([zero if d is None else _canonical(p, d) for d in acc])
        return CycMatrix(p, out)

    def scale(self, c) -> "CycMatrix":
        return CycMatrix(self.prime, [[x * c for x in row] for row in self.rows])

    def conj_transpose(self) -> "CycMatrix":
        n = self.size
        return CycMatrix(
            self.prime, [[self.rows[j][i].conj() for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycMatrix)
            and self.prime == other.prime
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.prime, self.rows))

    def first_mismatch(self, other: "CycMatrix") -> tuple[int, int] | None:
        for i in range(self.size):
            for j in range(self.size):
                if self.rows[i][j] != other.rows[i][j]:
                    return (i, j)
        return None

    def det_monomial(self) -> CycInt:
        """Determinant of a matrix with exactly one nonzero entry per row/column.

        Covers the diagonal and cycle-permutation generators; anything denser
        is rejected rather than approximated.
        """
        n = self.size
        perm = [-1] * n
        values = []
        for i in range(n):
            nonzero = [j for j in range(n) if not self.rows[i][j]._zero]
            if len(nonzero) != 1:
                raise ValueError("matrix is not monomial (row with != 1 nonzero entry)")
            perm[i] = nonzero[0]
            values.append(self.rows[i][nonzero[0]])
        if sorted(perm) != list(range(n)):
            raise ValueError("matrix is not monomial (repeated column)")
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        out = CycInt.from_int(self.prime, sign)
        for v in values:
            out = out * v
        return out


# ---------------------------------------------------------------------------
# generator matrices


def triangular(i: int) -> int:
    """a_i with a_0 = 0, a_i = i + a_(i-1); evaluated by the recurrence."""
    if i < 0:
        raise ValueError("index must be non-negative")
    a = 0
    for k in range(1, i + 1):
        a += k
    return a


class GeneratorSet:
    """The unitary generator matrices for one prime.

    Odd ``l``: ``alpha = diag(xi^1..xi^l)``, ``beta`` the cyclic shift,
    ``xi`` the scalar matrix, ``s = diag(xi^(a_1)..xi^(a_l))`` and
    ``t = (xi^(a_(i+j)))`` the Weyl representatives with normalizers dropped.

    ``l = 2``: the Gaussian-integer matrices ``alpha = diag(i, -i)``,
    ``beta = ((0,i),(i,0))``, ``xi = -I``, ``t = ((1,i),(i,1))`` and the
    derived candidate ``s = diag(1, i)`` (see the ``matrices.l2`` checks).
    """

    __slots__ = ("prime", "alpha", "beta", "xi", "s", "t")

    def __init__(
        self, prime: int, alpha: CycMatrix, beta: CycMatrix, xi: CycMatrix,
        s: CycMatrix, t: CycMatrix,
    ):
        self.prime = prime
        self.alpha = alpha
        self.beta = beta
        self.xi = xi
        self.s = s
        self.t = t

    @classmethod
    def build(cls, prime: int) -> "GeneratorSet":
        check_prime(prime)
        if prime == 2:
            i_unit = CycInt.imaginary_unit()
            one = CycInt.one(2)
            zero = CycInt.zero(2)
            alpha = CycMatrix(2, [[i_unit, zero], [zero, -i_unit]])
            beta = CycMatrix(2, [[zero, i_unit], [i_unit, zero]])
            xi = CycMatrix.scalar(2, CycInt.from_int(2, -1), 2)
            s = CycMatrix(2, [[one, zero], [zero, i_unit]])
            t = CycMatrix(2, [[one, i_unit], [i_unit, one]])
            return cls(2, alpha, beta, xi, s, t)
        n = prime
        root = lambda k: CycInt.root_power(prime, k)
        zero = CycInt.zero(prime)
        alpha = CycMatrix.diagonal(prime, [root(i + 1) for i in range(n)])
        beta = CycMatrix.from_fn(
            prime, n, lambda i, j: CycInt.one(prime) if i % n == (j + 1) % n else zero
        )
        xi = CycMatrix.scalar(prime, root(1), n)
        s = CycMatrix.diagonal(prime, [root(triangular(i + 1)) for i in range(n)])
        t = CycMatrix.from_fn(prime, n, lambda i, j: root(triangular((i + 1) + (j + 1))))
        return cls(prime, alpha, beta, xi, s, t)


def root_power_sum(prime: int, m: int) -> int:
    """The integer value of sum_(k=1..l) xi^(km), found by actual summation.

    The canonicalized sum is l when m = 0 mod l and 0 otherwise; the result is
    obtained from the ring arithmetic, not from that closed form.
    """
    check_prime(prime)
    total = CycInt.zero(prime)
    for k in range(1, prime + 1):
        total = total + CycInt.root_power(prime, k * m)
    return total.as_int()


def lemma22_holds(prime: int, i: int, j: int, k: int) -> bool:
    """Congruence a_(j+k) - a_(i+k) = k(j-i) + (a_j - a_i) mod l."""
    check_prime(prime)
    a = {n: triangular(n) for n in (i, j, i + k, j + k)}
    return _lemma22_failure(prime, a, [(i, j, k)]) is None


def _lemma22_failure(
    prime: int, a: Mapping[int, int] | Sequence[int], triples: Iterable[tuple[int, int, int]]
) -> tuple[int, int, int] | None:
    """The first triple (i, j, k) where the congruence of ``lemma22_holds``
    fails, or None; ``a`` holds a_n at every index the triples use."""
    for i, j, k in triples:
        if (a[j + k] - a[i + k] - k * (j - i) - (a[j] - a[i])) % prime:
            return i, j, k
    return None


# ---------------------------------------------------------------------------
# identity checks
#
# The odd-prime identities on alpha, beta, xi, S and T run for l up to
# MATRIX_PRIME_CAP.  The Weyl conjugations are verified with the unit scalars
# normalizing S and T cancelled: S^-1 alpha S = alpha, S^-1 beta S =
# alpha^-1 beta, conj_transpose(T) alpha T = l (alpha^-1 beta) and
# conj_transpose(T) beta T = l beta^-1 as exact matrix equations over Z[xi].
#
# The 2l x 2l block relations among Delta(Y) = diag(Y, Y) and
# Gamma(Y) = diag(I, Y) are checked inverse-free: g^h = c is asserted as
# g h = h c, and [g, h] = c as g h = h g c.
#
# At l = 2 the identities live in Z[i] with sqrt(2) denominators cleared.  The
# diagonal Weyl representative is never defined for l = 2 in the source
# construction (the general formula degenerates to a scalar), so the
# conjugation claims attributed to it are checked against the derived
# candidate S2 = diag(1, i) and flagged as a note rather than a plain pass.

MATRIX_PRIME_CAP = 31


def _upto_cap(prime: int, config) -> bool:
    return prime <= MATRIX_PRIME_CAP


def _odd_upto_cap(prime: int, config) -> bool:
    return prime != 2 and prime <= MATRIX_PRIME_CAP


def _matrices(job: Job) -> SimpleNamespace:
    """The job's generator matrices, their conjugate transposes (suffix
    ``_h``), the identity ``ident``, the scalar ``ell`` = l, and the block
    images ``d_Y`` = Delta(Y) and ``g_Y`` = Gamma(Y) with their identity
    ``ident2``."""

    def build() -> SimpleNamespace:
        g = GeneratorSet.build(job.prime)
        ident = CycMatrix.identity(g.prime, g.alpha.size)
        return SimpleNamespace(
            prime=g.prime, alpha=g.alpha, beta=g.beta, xi=g.xi, s=g.s, t=g.t,
            alpha_h=g.alpha.conj_transpose(), beta_h=g.beta.conj_transpose(),
            s_h=g.s.conj_transpose(), t_h=g.t.conj_transpose(),
            ident=ident, ell=CycInt.from_int(g.prime, g.prime),
            d_alpha=CycMatrix.block_diag(g.alpha, g.alpha),
            d_beta=CycMatrix.block_diag(g.beta, g.beta),
            d_xi=CycMatrix.block_diag(g.xi, g.xi),
            g_xi=CycMatrix.block_diag(ident, g.xi),
            g_beta=CycMatrix.block_diag(ident, g.beta),
            ident2=CycMatrix.identity(g.prime, 2 * g.alpha.size),
        )

    return job.shared("matrices", build)


def _identity(
    lhs: Callable[[SimpleNamespace], CycMatrix], rhs: Callable[[SimpleNamespace], CycMatrix],
    description: str, status_on_pass: str = PASS,
) -> Callable[[Job], tuple[str, str]]:
    """The body of the check ``lhs(m) == rhs(m)`` on ``m = _matrices(job)``."""

    def body(job: Job) -> tuple[str, str]:
        m = _matrices(job)
        left, right = lhs(m), rhs(m)
        bad = left.first_mismatch(right)
        if bad is None:
            return status_on_pass, description
        i, j = bad
        return (
            FAIL,
            f"{description}: entry ({i},{j}) differs: "
            f"{left.rows[i][j]!r} != {right.rows[i][j]!r}",
        )

    return body


def _su_determinants(job: Job) -> tuple[str, str]:
    m = _matrices(job)
    da = m.alpha.det_monomial()
    db = m.beta.det_monomial()
    if da == 1 and db == 1:
        return PASS, "det(alpha) = det(beta) = 1"
    return FAIL, f"det(alpha) = {da!r}, det(beta) = {db!r}"


def _l2_determinants(job: Job) -> tuple[str, str]:
    m = _matrices(job)
    vals = {name: x.det_monomial() for name, x in
            [("alpha", m.alpha), ("beta", m.beta), ("xi", m.xi)]}
    if all(v == 1 for v in vals.values()):
        return PASS, "det(alpha) = det(beta) = det(xi) = 1"
    return FAIL, ", ".join(f"det({k}) = {v!r}" for k, v in vals.items())


def _root_sum(job: Job) -> tuple[str, str]:
    prime = job.prime
    for m in range(prime):
        got = root_power_sum(prime, m)
        want = prime if m % prime == 0 else 0
        if got != want:
            return FAIL, f"sum_k xi^(k*{m}) = {got}, expected {want}"
    return PASS, f"sum_(k=1..{prime}) xi^(km) = l*[m=0 mod l] for all m in [0,{prime})"


def _congruence(job: Job) -> tuple[str, str]:
    """The congruence of ``lemma22_holds`` on every triple in [0, l)^3, with
    a_0 .. a_(2l-2) built once by the recurrence of ``triangular``."""
    prime = check_prime(job.prime)
    a = list(itertools.accumulate(range(2 * prime - 1)))
    failure = _lemma22_failure(prime, a, itertools.product(range(prime), repeat=3))
    if failure:
        return FAIL, "congruence fails at (i,j,k)=(%d,%d,%d)" % failure
    return PASS, f"a_(j+k) - a_(i+k) = k(j-i) + (a_j - a_i) mod {prime} on [0,{prime})^3"


CHECKS = (
    Check("matrices.su.alpha_unitary", _odd_upto_cap, _identity(
        lambda m: m.alpha_h * m.alpha, lambda m: m.ident,
        "conj_transpose(alpha) * alpha = I",
    )),
    Check("matrices.su.beta_unitary", _odd_upto_cap, _identity(
        lambda m: m.beta_h * m.beta, lambda m: m.ident,
        "conj_transpose(beta) * beta = I",
    )),
    # [alpha, beta] = xi, checked inverse-free as alpha*beta = beta*alpha*xi
    Check("matrices.su.commutator", _odd_upto_cap, _identity(
        lambda m: m.alpha * m.beta, lambda m: m.beta * m.alpha * m.xi,
        "alpha * beta = beta * alpha * xi",
    )),
    Check("matrices.su.s_unitary", _odd_upto_cap, _identity(
        lambda m: m.s_h * m.s, lambda m: m.ident,
        "conj_transpose(S) * S = I",
    )),
    Check("matrices.su.t_gram", _odd_upto_cap, _identity(
        lambda m: m.t_h * m.t, lambda m: m.ident.scale(m.ell),
        "conj_transpose(T) * T = l * I",
    )),
    Check("matrices.su.determinants", _odd_upto_cap, _su_determinants),
    Check("matrices.weyl.alpha_by_s", _odd_upto_cap, _identity(
        lambda m: m.s_h * m.alpha * m.s, lambda m: m.alpha,
        "S^-1 alpha S = alpha",
    )),
    Check("matrices.weyl.beta_by_s", _odd_upto_cap, _identity(
        lambda m: m.s_h * m.beta * m.s, lambda m: m.alpha_h * m.beta,
        "S^-1 beta S = alpha^-1 beta",
    )),
    Check("matrices.weyl.alpha_by_t", _odd_upto_cap, _identity(
        lambda m: m.t_h * m.alpha * m.t, lambda m: (m.alpha_h * m.beta).scale(m.ell),
        "conj_transpose(T) alpha T = l (alpha^-1 beta)",
    )),
    Check("matrices.weyl.beta_by_t", _odd_upto_cap, _identity(
        lambda m: m.t_h * m.beta * m.t, lambda m: m.beta_h.scale(m.ell),
        "conj_transpose(T) beta T = l beta^-1",
    )),
    Check("matrices.l2.beta_conj", at_two, _identity(
        lambda m: m.beta_h * m.alpha * m.beta, lambda m: m.xi * m.alpha,
        "beta^-1 alpha beta = xi alpha",
    )),
    Check("matrices.l2.t_gram", at_two, _identity(
        lambda m: m.t_h * m.t, lambda m: m.ident.scale(m.ell),
        "conj_transpose(T) T = 2 I",
    )),
    Check("matrices.l2.alpha_by_t", at_two, _identity(
        lambda m: m.t_h * m.alpha * m.t, lambda m: (m.alpha * m.beta).scale(m.ell),
        "conj_transpose(T) alpha T = 2 (alpha beta)",
    )),
    Check("matrices.l2.beta_by_t", at_two, _identity(
        lambda m: m.t_h * m.beta * m.t, lambda m: m.beta.scale(m.ell),
        "conj_transpose(T) beta T = 2 beta",
    )),
    Check("matrices.l2.sigma_candidate", at_two, _identity(
        lambda m: CycMatrix.block_diag(m.s_h * m.alpha * m.s, m.s_h * m.beta * m.s),
        lambda m: CycMatrix.block_diag(m.alpha, m.alpha * m.beta),
        "derived candidate S2 = diag(1, i): S2^-1 alpha S2 = alpha and "
        "S2^-1 beta S2 = alpha beta (the diagonal Weyl representative is "
        "otherwise undefined at l = 2)",
        status_on_pass=NOTE,
    )),
    Check("matrices.l2.determinants", at_two, _l2_determinants),
    Check("matrices.g1.commutator", _upto_cap, _identity(
        lambda m: m.d_alpha * m.d_beta, lambda m: m.d_beta * m.d_alpha * m.d_xi,
        "Delta(alpha) Delta(beta) = Delta(beta) Delta(alpha) Delta(xi)",
    )),
    Check("matrices.g1.central_alpha", _upto_cap, _identity(
        lambda m: m.g_xi * m.d_alpha, lambda m: m.d_alpha * m.g_xi * m.ident2,
        "[Gamma(xi), Delta(alpha)] = I",
    )),
    Check("matrices.g1.central_beta", _upto_cap, _identity(
        lambda m: m.g_xi * m.d_beta, lambda m: m.d_beta * m.g_xi * m.ident2,
        "[Gamma(xi), Delta(beta)] = I",
    )),
    Check("matrices.g1.alpha_by_gamma_beta", _upto_cap, _identity(
        lambda m: m.d_alpha * m.g_beta, lambda m: m.g_beta * (m.g_xi * m.d_alpha),
        "Delta(alpha)^Gamma(beta) = Gamma(xi) Delta(alpha)",
    )),
    Check("matrices.g1.beta_by_gamma_beta", _upto_cap, _identity(
        lambda m: m.d_beta * m.g_beta, lambda m: m.g_beta * m.d_beta,
        "Delta(beta)^Gamma(beta) = Delta(beta)",
    )),
    Check("matrices.g1.xi_by_gamma_beta", _upto_cap, _identity(
        lambda m: m.g_xi * m.g_beta, lambda m: m.g_beta * m.g_xi,
        "Gamma(xi)^Gamma(beta) = Gamma(xi)",
    )),
    # exhaustive sweeps of the two index lemmas behind the T computation
    Check("matrices.lemma.root_sum", _upto_cap, _root_sum),
    Check("matrices.lemma.triangular_congruence", _upto_cap, _congruence),
    Check("matrices.lemma.root_sum_index_note", _upto_cap, note(
        "the root-power-sum statement is written with a Kronecker delta in "
        "an index n while the summand exponent uses m; it is verified as "
        "delta_(m mod l, 0) by direct summation"
    )),
)
