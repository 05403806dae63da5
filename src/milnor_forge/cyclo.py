"""Exact arithmetic in Z[xi_l] and verification of the unitary generator identities.

For an odd prime ``l`` the ring is Z[t]/(1 + t + ... + t^(l-1)) with the
primitive root ``xi = t``; for ``l = 2`` the relevant matrices contain the
imaginary unit, so the ring is the Gaussian integers Z[t]/(t^2 + 1) with
``xi = -1``.  Coefficients are Python ints, so overflow cannot occur.

``CycInt`` holds an element by its coefficients in the canonical basis
``1, t, ..., t^(l-2)`` (the integral basis, Washington, GTM 83), or ``1, i``
at ``l = 2``.  It adds, subtracts and scales by ints, and has no product of
two elements: none of the matrix identities needs one.  Every entry of their
matrices is 0 or a root of unity (of order l, or 4 at ``l = 2``), so each
matrix is held by exponents:

- alpha, beta, xi, S, their conjugate transposes and the block images
  Delta(Y) and Gamma(Y) are monomial, each a ``CycMatrix`` ``(perm, exps)``.
  They form the wreath product of the roots of unity and S_n (James and
  Kerber, 1981; Holt, Eick and O'Brien, 2005): a product composes the
  permutations and adds the exponents, a conjugate transpose inverts both,
  and a determinant is ``sign(perm) xi^(sum of exps)``.
- T is its table of exponents.  An entry of ``conj_transpose(T) A T``, with
  ``A`` monomial, is a sum of l roots of unity.  It is 0 exactly when their
  exponents run once through Z/l, and ``l xi^f`` exactly when all of them are
  ``f``: every integer relation among ``1, xi, ..., xi^(l-1)`` is a multiple
  of ``1 + xi + ... + xi^(l-1) = 0``, by which the basis rewrites
  ``xi^(l-1)``.  At ``l = 2`` the two terms ``i^a + i^b`` vanish exactly
  when ``b = a + 2``.

Canonical coefficients are built only to render a mismatch, from the
exponents, by ``CycInt`` addition.

All conjugation identities are checked with denominators cleared: the
analytic normalizers of the Weyl representatives are unit scalars that cancel
under conjugation, so e.g. ``tau^-1 alpha tau`` is verified in the form
``conj_transpose(T) alpha T = l * (result)``.
"""

from __future__ import annotations

import itertools
from operator import add, sub
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

from .ffla import check_prime, integers
from .report import FAIL, NOTE, PASS, Check, Job, always, at_two, note, odd


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
    def root_power(cls, prime: int, k: int) -> "CycInt":
        """xi^k, where xi = exp(2 pi i / l) abstractly (xi = -1 for l = 2):
        a basis element, or ``-(1 + t + ... + t^(l-2))`` for ``t^(l-1)``."""
        if check_prime(prime) == 2:
            return cls.from_int(2, 1 if k % 2 == 0 else -1)
        k %= prime
        if k == prime - 1:
            return cls._trusted(prime, (-1,) * k)
        coeffs = [0] * (prime - 1)
        coeffs[k] = 1
        return cls._trusted(prime, tuple(coeffs))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.prime != other.prime:
            raise ValueError("prime mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.prime, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt._trusted(self.prime, tuple(map(add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.prime, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt._trusted(self.prime, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycInt._trusted(self.prime, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        """Scaling by an int; a product of two elements is not defined."""
        if not isinstance(other, int):
            return NotImplemented
        return CycInt._trusted(self.prime, tuple([a * other for a in self.coeffs]))

    __rmul__ = __mul__

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
        # an element equal to an int hashes as that int
        if self.is_integer():
            return hash(self.coeffs[0])
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
# matrices in exponent form


def _order(prime: int) -> int:
    """The order of the roots of unity in the exponent forms: l, or 4 at
    ``l = 2``, where the matrices hold powers of i."""
    return 4 if prime == 2 else prime


_GAUSSIAN_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _unit(prime: int, e: int) -> CycInt:
    """The entry an exponent ``e`` stands for: xi^e for odd l, i^e at l = 2."""
    if prime == 2:
        return CycInt._trusted(2, _GAUSSIAN_UNITS[e % 4])
    return CycInt.root_power(prime, e)


class CycMatrix:
    """A monomial matrix over Z[xi_l] in exponent form: row i holds
    ``xi^exps[i]`` at column ``perm[i]`` and 0 elsewhere.

    Exponents are kept mod l, or mod 4 at ``l = 2``, where ``xi^e`` stands
    for ``i^e`` (``_unit``).  A product composes, ``(pi, e)(sigma, f) =
    (sigma o pi, e + f o pi)``, and a conjugate transpose inverts,
    ``(pi^-1, -e o pi^-1)``: n integer operations each, and no ``CycInt``.
    ``rows`` gives the dense entries as ``CycInt``s, built once on first use.
    """

    __slots__ = ("prime", "perm", "exps", "_rows")

    def __init__(self, prime: int, perm: Sequence[int], exps: Sequence[int]):
        order = _order(check_prime(prime))
        self.prime = prime
        self.perm = integers(perm)
        self.exps = tuple(e % order for e in integers(exps))
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm} is not a permutation of 0..n-1")
        if len(self.exps) != len(self.perm):
            raise ValueError(f"{len(self.exps)} exponents for {len(self.perm)} rows")
        self._rows = None

    @property
    def size(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, prime: int, n: int) -> "CycMatrix":
        return cls(prime, range(n), [0] * n)

    @classmethod
    def block_diag(cls, a: "CycMatrix", b: "CycMatrix") -> "CycMatrix":
        if a.prime != b.prime:
            raise ValueError("prime mismatch")
        return cls(a.prime, a.perm + tuple(a.size + c for c in b.perm), a.exps + b.exps)

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.prime != other.prime or self.size != other.size:
            raise ValueError("shape or prime mismatch")
        return CycMatrix(
            self.prime,
            [other.perm[c] for c in self.perm],
            [e + other.exps[c] for c, e in zip(self.perm, self.exps)],
        )

    def conj_transpose(self) -> "CycMatrix":
        perm, exps = [0] * self.size, [0] * self.size
        for i, (c, e) in enumerate(zip(self.perm, self.exps)):
            perm[c], exps[c] = i, -e
        return CycMatrix(self.prime, perm, exps)

    def det(self) -> CycInt:
        """``sign(perm) xi^(sum of exps)``, the sign by counting inversions."""
        inversions = sum(a > b for a, b in itertools.combinations(self.perm, 2))
        return _unit(self.prime, sum(self.exps)) * (-1) ** inversions

    @property
    def rows(self) -> tuple[tuple[CycInt, ...], ...]:
        if self._rows is None:
            zero, n = CycInt.zero(self.prime), self.size
            self._rows = tuple(
                tuple(_unit(self.prime, e) if j == c else zero for j in range(n))
                for c, e in zip(self.perm, self.exps)
            )
        return self._rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycMatrix)
            and self.prime == other.prime
            and self.perm == other.perm
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.prime, self.perm, self.exps))

    def first_mismatch(
        self, other: "CycMatrix"
    ) -> tuple[tuple[int, int], CycInt, CycInt] | None:
        """The first (i, j) in row-major order where the entries differ, with
        both entries; None where none does."""
        for i, (mine, theirs) in enumerate(
            zip(zip(self.perm, self.exps), zip(other.perm, other.exps))
        ):
            if mine != theirs:
                # the first of the two columns that hold a row's nonzero entry
                j = min(mine[0], theirs[0])
                return (i, j), self.rows[i][j], other.rows[i][j]
        return None


def t_conjugate_mismatch(
    t: Sequence[Sequence[int]], a: CycMatrix, want: CycMatrix
) -> tuple[tuple[int, int], CycInt, CycInt] | None:
    """The first entry (j, k), in row-major order, where
    ``conj_transpose(T) A T`` differs from ``l * want``, with both entries;
    None where none does.  ``t`` is T's table of exponents, and
    ``A = (pi, e)``.

    Entry (j, k) is the sum over i of ``xi^x_i``, with
    ``x_i = e_i - t_ij + t_(pi(i),k)``: row ``pi(i)`` of ``t`` turned by
    ``e_i - t_ij``, read at column k.  It is ``l xi^f`` exactly when every
    ``x_i`` is ``f``, and 0 exactly when the ``x_i`` run once through Z/l (at
    ``l = 2``: two exponents of i that differ by 2).
    """
    p, n, order = a.prime, a.size, _order(a.prime)
    if want.prime != p or want.size != n or len(t) != n or any(len(r) != n for r in t):
        raise ValueError("shape or prime mismatch")
    turn = [[(x + s) % order for x in range(order)] for s in range(order)]
    rows = [[x % order for x in t[c]] for c in a.perm]
    for j, (c, f) in enumerate(zip(want.perm, want.exps)):
        shifts = [(e - row[j]) % order for e, row in zip(a.exps, t)]
        columns = zip(*[map(turn[s].__getitem__, r) for r, s in zip(rows, shifts)])
        for k, col in enumerate(columns):
            got = set(col)
            if k == c:
                if got == {f}:
                    continue
            elif len(got) == p and (p != 2 or sum(got) % 2 == 0):
                continue
            entry = sum([_unit(p, x) for x in col], CycInt.zero(p))
            return (j, k), entry, _unit(p, f) * p if k == c else CycInt.zero(p)
    return None


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
    """The unitary generator matrices for one prime, in exponent form.

    ``alpha``, ``beta``, ``xi`` and ``s`` are ``CycMatrix``es; ``t`` is T's
    table of exponents, ``t[i][j]`` for entry (i, j), kept mod l (mod 4 at
    ``l = 2``, exponents of i).

    Odd ``l``: ``alpha = diag(xi^1..xi^l)``, ``beta`` the cyclic shift (row i
    holds 1 at column i - 1), ``xi`` the scalar matrix,
    ``s = diag(xi^(a_1)..xi^(a_l))`` and ``t = (xi^(a_(i+j)))`` (indices from
    1) the Weyl representatives with normalizers dropped.

    ``l = 2``: the Gaussian-integer matrices ``alpha = diag(i, -i)``,
    ``beta = ((0,i),(i,0))``, ``xi = -I``, ``t = ((1,i),(i,1))`` and the
    derived candidate ``s = diag(1, i)`` (see the ``matrices.l2`` checks).
    """

    __slots__ = ("prime", "alpha", "beta", "xi", "s", "t")

    def __init__(
        self, prime: int, alpha: CycMatrix, beta: CycMatrix, xi: CycMatrix,
        s: CycMatrix, t: Sequence[Sequence[int]],
    ):
        order = _order(check_prime(prime))
        self.prime = prime
        self.alpha = alpha
        self.beta = beta
        self.xi = xi
        self.s = s
        self.t = tuple(tuple(x % order for x in integers(row)) for row in t)
        if any(len(row) != alpha.size for row in self.t) or len(self.t) != alpha.size:
            raise ValueError(f"t must be {alpha.size} x {alpha.size}")

    @classmethod
    def build(cls, prime: int) -> "GeneratorSet":
        check_prime(prime)
        if prime == 2:
            return cls(
                2, alpha=CycMatrix(2, (0, 1), (1, 3)), beta=CycMatrix(2, (1, 0), (1, 1)),
                xi=CycMatrix(2, (0, 1), (2, 2)), s=CycMatrix(2, (0, 1), (0, 1)),
                t=((0, 1), (1, 0)),
            )
        n = prime
        a = list(itertools.accumulate(range(2 * n + 1)))  # a_i by the recurrence
        return cls(
            prime,
            alpha=CycMatrix(prime, range(n), range(1, n + 1)),
            beta=CycMatrix(prime, [(i - 1) % n for i in range(n)], [0] * n),
            xi=CycMatrix(prime, range(n), [1] * n),
            s=CycMatrix(prime, range(n), a[1:n + 1]),
            t=[a[i + 2:i + 2 + n] for i in range(n)],
        )


def root_power_sum(prime: int, m: int) -> int:
    """The integer value of sum_(k=1..l) xi^(km), found by actual summation.

    The canonicalized sum is l when m = 0 mod l and 0 otherwise; the result is
    obtained from the ring arithmetic, not from that closed form.
    """
    return _root_power_sums(prime, (m,))[0]


def _root_power_sums(prime: int, ms: Iterable[int]) -> list[int]:
    """``root_power_sum(prime, m)`` for each m: the l roots xi^e built once,
    each sum taken by ``CycInt`` addition."""
    roots = [CycInt.root_power(check_prime(prime), e) for e in range(prime)]
    zero = CycInt.zero(prime)
    return [sum([roots[k * m % prime] for k in range(1, prime + 1)], zero).as_int() for m in ms]


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
# The odd-prime identities on alpha, beta, xi, S and T run at every odd prime,
# the block relations and the lemma sweeps at every prime.  The job grows as
# l^3: each T conjugation sums l roots of unity in each of its l^2 entries.
# The Weyl conjugations are verified with the unit scalars normalizing S and
# T cancelled: S^-1 alpha S = alpha, S^-1 beta S = alpha^-1 beta,
# conj_transpose(T) alpha T = l (alpha^-1 beta) and
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

def _matrices(job: Job) -> SimpleNamespace:
    """The job's generator matrices, T's exponent table ``t``, the conjugate
    transposes (suffix ``_h``) of the monomial generators, the identity
    ``ident``, and the block images ``d_Y`` = Delta(Y) and ``g_Y`` = Gamma(Y)
    with their identity ``ident2``."""

    def build() -> SimpleNamespace:
        g = GeneratorSet.build(job.prime)
        ident = CycMatrix.identity(g.prime, g.alpha.size)
        return SimpleNamespace(
            prime=g.prime, alpha=g.alpha, beta=g.beta, xi=g.xi, s=g.s, t=g.t,
            alpha_h=g.alpha.conj_transpose(), beta_h=g.beta.conj_transpose(),
            s_h=g.s.conj_transpose(), ident=ident,
            d_alpha=CycMatrix.block_diag(g.alpha, g.alpha),
            d_beta=CycMatrix.block_diag(g.beta, g.beta),
            d_xi=CycMatrix.block_diag(g.xi, g.xi),
            g_xi=CycMatrix.block_diag(ident, g.xi),
            g_beta=CycMatrix.block_diag(ident, g.beta),
            ident2=CycMatrix.identity(g.prime, 2 * g.alpha.size),
        )

    return job.shared("matrices", build)


def _identity(
    mismatch: Callable[[SimpleNamespace], tuple[tuple[int, int], CycInt, CycInt] | None],
    description: str, status_on_pass: str = PASS,
) -> Callable[[Job], tuple[str, str]]:
    """The body of the check that passes when ``mismatch(_matrices(job))``
    finds no differing entry, and otherwise renders the first one."""

    def body(job: Job) -> tuple[str, str]:
        bad = mismatch(_matrices(job))
        if bad is None:
            return status_on_pass, description
        (i, j), left, right = bad
        return FAIL, f"{description}: entry ({i},{j}) differs: {left!r} != {right!r}"

    return body


def _su_determinants(job: Job) -> tuple[str, str]:
    m = _matrices(job)
    da = m.alpha.det()
    db = m.beta.det()
    if da == 1 and db == 1:
        return PASS, "det(alpha) = det(beta) = 1"
    return FAIL, f"det(alpha) = {da!r}, det(beta) = {db!r}"


def _l2_determinants(job: Job) -> tuple[str, str]:
    m = _matrices(job)
    vals = {name: x.det() for name, x in
            [("alpha", m.alpha), ("beta", m.beta), ("xi", m.xi)]}
    if all(v == 1 for v in vals.values()):
        return PASS, "det(alpha) = det(beta) = det(xi) = 1"
    return FAIL, ", ".join(f"det({k}) = {v!r}" for k, v in vals.items())


def _root_sum(job: Job) -> tuple[str, str]:
    prime = job.prime
    for m, got in enumerate(_root_power_sums(prime, range(prime))):
        want = prime if m % prime == 0 else 0
        if got != want:
            return FAIL, f"sum_k xi^(k*{m}) = {got}, expected {want}"
    return PASS, f"sum_(k=1..{prime}) xi^(km) = l*[m=0 mod l] for all m in [0,{prime})"


def _congruence(job: Job) -> tuple[str, str]:
    """The congruence of ``lemma22_holds`` on every triple in [0, l)^3, with
    a_0 .. a_(2l-2) built once by the recurrence of ``triangular``.

    At (i, j, k) it says ``b_i[k] = b_j[k]`` for the rows
    ``b_n[k] = a_(n+k) - kn - a_n mod l``, so it holds on all of [0, l)^3
    exactly when every row equals ``b_0``.  Otherwise the first failing
    triple is (0, j, k), j the first row that differs, and
    ``_lemma22_failure`` finds its k.
    """
    prime = check_prime(job.prime)
    a = list(itertools.accumulate(range(2 * prime - 1)))
    rows = [[(a[n + k] - k * n - a[n]) % prime for k in range(prime)] for n in range(prime)]
    for j, row in enumerate(rows):
        if row != rows[0]:
            failure = _lemma22_failure(prime, a, [(0, j, k) for k in range(prime)])
            return FAIL, "congruence fails at (i,j,k)=(%d,%d,%d)" % failure
    return PASS, f"a_(j+k) - a_(i+k) = k(j-i) + (a_j - a_i) mod {prime} on [0,{prime})^3"


CHECKS = (
    Check("matrices.su.alpha_unitary", odd, _identity(
        lambda m: (m.alpha_h * m.alpha).first_mismatch(m.ident),
        "conj_transpose(alpha) * alpha = I",
    )),
    Check("matrices.su.beta_unitary", odd, _identity(
        lambda m: (m.beta_h * m.beta).first_mismatch(m.ident),
        "conj_transpose(beta) * beta = I",
    )),
    # [alpha, beta] = xi, checked inverse-free as alpha*beta = beta*alpha*xi
    Check("matrices.su.commutator", odd, _identity(
        lambda m: (m.alpha * m.beta).first_mismatch(m.beta * m.alpha * m.xi),
        "alpha * beta = beta * alpha * xi",
    )),
    Check("matrices.su.s_unitary", odd, _identity(
        lambda m: (m.s_h * m.s).first_mismatch(m.ident),
        "conj_transpose(S) * S = I",
    )),
    Check("matrices.su.t_gram", odd, _identity(
        lambda m: t_conjugate_mismatch(m.t, m.ident, m.ident),
        "conj_transpose(T) * T = l * I",
    )),
    Check("matrices.su.determinants", odd, _su_determinants),
    Check("matrices.weyl.alpha_by_s", odd, _identity(
        lambda m: (m.s_h * m.alpha * m.s).first_mismatch(m.alpha),
        "S^-1 alpha S = alpha",
    )),
    Check("matrices.weyl.beta_by_s", odd, _identity(
        lambda m: (m.s_h * m.beta * m.s).first_mismatch(m.alpha_h * m.beta),
        "S^-1 beta S = alpha^-1 beta",
    )),
    Check("matrices.weyl.alpha_by_t", odd, _identity(
        lambda m: t_conjugate_mismatch(m.t, m.alpha, m.alpha_h * m.beta),
        "conj_transpose(T) alpha T = l (alpha^-1 beta)",
    )),
    Check("matrices.weyl.beta_by_t", odd, _identity(
        lambda m: t_conjugate_mismatch(m.t, m.beta, m.beta_h),
        "conj_transpose(T) beta T = l beta^-1",
    )),
    Check("matrices.l2.beta_conj", at_two, _identity(
        lambda m: (m.beta_h * m.alpha * m.beta).first_mismatch(m.xi * m.alpha),
        "beta^-1 alpha beta = xi alpha",
    )),
    Check("matrices.l2.t_gram", at_two, _identity(
        lambda m: t_conjugate_mismatch(m.t, m.ident, m.ident),
        "conj_transpose(T) T = 2 I",
    )),
    Check("matrices.l2.alpha_by_t", at_two, _identity(
        lambda m: t_conjugate_mismatch(m.t, m.alpha, m.alpha * m.beta),
        "conj_transpose(T) alpha T = 2 (alpha beta)",
    )),
    Check("matrices.l2.beta_by_t", at_two, _identity(
        lambda m: t_conjugate_mismatch(m.t, m.beta, m.beta),
        "conj_transpose(T) beta T = 2 beta",
    )),
    Check("matrices.l2.sigma_candidate", at_two, _identity(
        lambda m: CycMatrix.block_diag(m.s_h * m.alpha * m.s, m.s_h * m.beta * m.s)
        .first_mismatch(CycMatrix.block_diag(m.alpha, m.alpha * m.beta)),
        "derived candidate S2 = diag(1, i): S2^-1 alpha S2 = alpha and "
        "S2^-1 beta S2 = alpha beta (the diagonal Weyl representative is "
        "otherwise undefined at l = 2)",
        status_on_pass=NOTE,
    )),
    Check("matrices.l2.determinants", at_two, _l2_determinants),
    Check("matrices.g1.commutator", always, _identity(
        lambda m: (m.d_alpha * m.d_beta).first_mismatch(m.d_beta * m.d_alpha * m.d_xi),
        "Delta(alpha) Delta(beta) = Delta(beta) Delta(alpha) Delta(xi)",
    )),
    Check("matrices.g1.central_alpha", always, _identity(
        lambda m: (m.g_xi * m.d_alpha).first_mismatch(m.d_alpha * m.g_xi * m.ident2),
        "[Gamma(xi), Delta(alpha)] = I",
    )),
    Check("matrices.g1.central_beta", always, _identity(
        lambda m: (m.g_xi * m.d_beta).first_mismatch(m.d_beta * m.g_xi * m.ident2),
        "[Gamma(xi), Delta(beta)] = I",
    )),
    Check("matrices.g1.alpha_by_gamma_beta", always, _identity(
        lambda m: (m.d_alpha * m.g_beta).first_mismatch(m.g_beta * (m.g_xi * m.d_alpha)),
        "Delta(alpha)^Gamma(beta) = Gamma(xi) Delta(alpha)",
    )),
    Check("matrices.g1.beta_by_gamma_beta", always, _identity(
        lambda m: (m.d_beta * m.g_beta).first_mismatch(m.g_beta * m.d_beta),
        "Delta(beta)^Gamma(beta) = Delta(beta)",
    )),
    Check("matrices.g1.xi_by_gamma_beta", always, _identity(
        lambda m: (m.g_xi * m.g_beta).first_mismatch(m.g_beta * m.g_xi),
        "Gamma(xi)^Gamma(beta) = Gamma(xi)",
    )),
    # exhaustive sweeps of the two index lemmas behind the T computation
    Check("matrices.lemma.root_sum", always, _root_sum),
    Check("matrices.lemma.triangular_congruence", always, _congruence),
    Check("matrices.lemma.root_sum_index_note", always, note(
        "the root-power-sum statement is written with a Kronecker delta in "
        "an index n while the summand exponent uses m; it is verified as "
        "delta_(m mod l, 0) by direct summation"
    )),
)
