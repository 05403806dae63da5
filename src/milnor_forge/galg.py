"""Truncated graded-commutative algebras over F_l.

Elements are finite maps from normal-form monomials (exponent tuples in a
fixed generator order) to nonzero residues.  For an odd prime, odd-degree
generators are exterior (square to zero) and reordering picks up the Koszul
sign; for l = 2 every generator is polynomial and signs vanish.

A context may carry *annihilator pairs*: unordered generator pairs whose
co-occurrence kills a monomial.  This encodes the degree-bounded module
presentations needed by the spectral-sequence scenarios (products of the two
truncated classes of the same tensor slot vanish) without any general
quotient machinery.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .ffla import check_prime, integers

Monomial = tuple[int, ...]


class TruncationOverflowError(Exception):
    """A product escaped the working truncation degree under exact multiply."""


class GeneratorSpec:
    """One algebra generator.

    It carries no parity: a context over an odd prime makes its odd-degree
    generators exterior, and every other generator is polynomial.
    ``bockstein_partner`` names the degree+1 generator equal to the
    Bockstein of this one; at l = 2 a degree-1 generator is its own partner
    (the Bockstein squares it).  ``bidegree`` is the (p, q) placement used by
    spectral-sequence contexts.
    """

    __slots__ = ("name", "degree", "bidegree", "bockstein_partner")

    def __init__(
        self,
        name: str,
        degree: int,
        bidegree: tuple[int, int] | None = None,
        bockstein_partner: str | None = None,
    ):
        if degree <= 0:
            raise ValueError("generator degree must be positive")
        if bidegree is not None and sum(bidegree) != degree:
            raise ValueError(f"bidegree {bidegree} does not sum to {degree}")
        self.name = name
        self.degree = degree
        self.bidegree = bidegree
        self.bockstein_partner = bockstein_partner


class AlgebraContext:
    """Immutable generator data plus the working truncation degree.

    The odd (exterior) generators are those of odd degree at an odd prime;
    ``_odd_positions`` lists their positions and ``_odd_units`` their unit
    monomials.

    Four memos fill lazily.  Three are bounded by the finite set of monomials
    of degree at most ``top_degree``: the basis per degree, the degree of each
    such monomial, and ``_merge_monomials`` of each pair whose product degree
    is within the truncation (``_product`` keys it by left, then right).
    ``_row_images`` is ``invariants.induced_action``'s image pair of each
    matrix row it has met (the image of a degree-1 generator and of its
    Bockstein partner), each pair checked by ``check_image`` before it
    enters, at most l^n entries for n degree-1 generators.
    ``_action_layout`` is the unit monomials of the degree-1 generators and
    their Bockstein partners, set by ``invariants.induced_action`` on its
    first successful call and never on a failed one, so a generator above the
    truncation raises on every call.
    """

    __slots__ = (
        "prime", "generators", "top_degree", "annihilator_pairs",
        "_index", "_degrees", "_odd_positions", "_odd_units",
        "_basis_cache", "_degree_memo", "_merge_memo",
        "_row_images", "_action_layout",
    )

    def __init__(
        self,
        prime: int,
        generators: Sequence[GeneratorSpec],
        top_degree: int,
        annihilator_pairs: Iterable[tuple[str, str]] = (),
    ):
        check_prime(prime)
        self.prime = prime
        self.generators = tuple(generators)
        self.top_degree = top_degree
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        self._degrees = tuple(g.degree for g in self.generators)
        for g in self.generators:
            if g.bockstein_partner is not None:
                partner = g.bockstein_partner
                if partner not in self._index:
                    raise ValueError(f"unknown Bockstein partner {partner}")
                if prime == 2:
                    if partner != g.name:
                        raise ValueError("l = 2 Bockstein partners must be the generator itself")
                elif self.generators[self._index[partner]].degree != g.degree + 1:
                    raise ValueError("Bockstein partner must have degree + 1")
        self._odd_positions = tuple(
            i for i, g in enumerate(self.generators) if prime % 2 and g.degree % 2
        )
        n = len(self.generators)
        self._odd_units = frozenset(
            (0,) * i + (1,) + (0,) * (n - i - 1) for i in self._odd_positions
        )
        pairs = set()
        for a, b in annihilator_pairs:
            if a == b:
                raise ValueError(f"annihilator pair names {a} twice")
            ia, ib = self._index[a], self._index[b]
            pairs.add((min(ia, ib), max(ia, ib)))
        self.annihilator_pairs = frozenset(pairs)
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}
        self._degree_memo: dict[Monomial, int] = {}
        self._merge_memo: dict[Monomial, dict[Monomial, tuple[int, Monomial] | None]] = {}
        self._row_images: dict[tuple[int, ...], tuple[Element, Element | None]] = {}
        self._action_layout = None

    # -- structure queries ---------------------------------------------------

    def position(self, name: str) -> int:
        return self._index[name]

    def spec(self, name: str) -> GeneratorSpec:
        return self.generators[self._index[name]]

    def monomial_degree(self, mono: Monomial) -> int:
        d = self._degree_memo.get(mono)
        if d is None:
            d = sum(e * g for e, g in zip(mono, self._degrees))
            if d <= self.top_degree:
                self._degree_memo[mono] = d
        return d

    def monomial_bidegree(self, mono: Monomial) -> tuple[int, int]:
        p = q = 0
        for e, g in zip(mono, self.generators):
            if e:
                if g.bidegree is None:
                    raise ValueError(f"generator {g.name} carries no bidegree")
                p += e * g.bidegree[0]
                q += e * g.bidegree[1]
        return p, q

    def monomial_killed(self, mono: Monomial) -> bool:
        for i in self._odd_positions:
            if mono[i] > 1:
                return True
        for a, b in self.annihilator_pairs:
            if mono[a] and mono[b]:
                return True
        return False

    # -- element constructors --------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def generator(self, name: str) -> "Element":
        return self.monomial_element({name: 1})

    def monomial_element(self, powers: Mapping[str, int], coeff: int = 1) -> "Element":
        coeff, *exponents = integers((coeff, *powers.values()))
        mono = [0] * len(self.generators)
        for name, e in zip(powers, exponents):
            if e < 0:
                raise ValueError("negative exponent")
            mono[self._index[name]] = e
        mono_t = tuple(mono)
        if self.monomial_degree(mono_t) > self.top_degree:
            raise TruncationOverflowError(
                f"monomial of degree {self.monomial_degree(mono_t)} exceeds "
                f"truncation {self.top_degree}"
            )
        if self.monomial_killed(mono_t):
            return self.zero()
        coeff %= self.prime
        return Element(self, {mono_t: coeff} if coeff else {})

    def basis_of_degree(self, d: int) -> tuple[Monomial, ...]:
        """All normal-form monomials of total degree d, in lexicographic order."""
        if d > self.top_degree:
            raise ValueError(f"degree {d} exceeds truncation {self.top_degree}")
        if d < 0:
            return ()
        cached = self._basis_cache.get(d)
        if cached is not None:
            return cached
        out: list[Monomial] = []
        n = len(self.generators)

        def recurse(pos: int, remaining: int, prefix: list[int]) -> None:
            if pos == n:
                if remaining == 0:
                    mono = tuple(prefix)
                    if not self.monomial_killed(mono):
                        out.append(mono)
                return
            deg = self._degrees[pos]
            max_e = remaining // deg
            if pos in self._odd_positions:
                max_e = min(max_e, 1)
            for e in range(max_e + 1):
                prefix.append(e)
                recurse(pos + 1, remaining - e * deg, prefix)
                prefix.pop()

        recurse(0, d, [])
        result = tuple(sorted(out))
        self._basis_cache[d] = result
        return result

    def render_monomial(self, mono: Monomial) -> str:
        parts = []
        for e, g in zip(mono, self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"


class Element:
    """A finite F_l-linear combination of normal-form monomials.

    The constructor takes outside terms: a non-integer exponent or
    coefficient raises ``TypeError`` (``ffla.integers``), a monomial that is
    not one nonnegative exponent per generator ``ValueError``, and one past
    the truncation is kept.  Each coefficient is reduced mod l, and zeros
    are dropped, as are the monomials the context kills (exterior squares
    and annihilator pairs), as in ``monomial_element``.  Sums, differences,
    negations and scalings of elements are reduced by construction and skip
    that check.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: dict[Monomial, int]):
        p = context.prime
        n = len(context.generators)
        killed = context.monomial_killed
        kept: dict[Monomial, int] = {}
        for m, c in zip(terms, integers(terms.values())):
            if len(m := integers(m)) != n or min(m, default=0) < 0:
                raise ValueError(f"monomial {m} is not {n} nonnegative exponents")
            if (r := c % p) and not killed(m):
                kept[m] = r
        self.context = context
        self.terms = kept

    @classmethod
    def _trusted(cls, context: AlgebraContext, terms: dict[Monomial, int]) -> "Element":
        """Wrap ``terms`` without filtering or copying.

        Only for results the package builds itself, never for outside input:
        every coefficient must already be reduced into ``1..p-1`` (so none is
        zero), and the caller hands over the dict and does not change it.
        """
        el = cls.__new__(cls)
        el.context = context
        el.terms = terms
        return el

    def _check(self, other: "Element") -> None:
        if self.context is not other.context:
            raise ValueError("elements belong to different contexts")

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all monomials, or None (zero/inhomogeneous)."""
        degrees = {self.context.monomial_degree(m) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def coefficient(self, powers: Mapping[str, int]) -> int:
        mono = [0] * len(self.context.generators)
        for name, e in powers.items():
            mono[self.context.position(name)] = e
        return self.terms.get(tuple(mono), 0)

    def coordinates(self, basis: Sequence[Monomial]) -> tuple[int, ...]:
        return tuple(self.terms.get(m, 0) for m in basis)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms, 1, self.context.prime)
        return Element._trusted(self.context, terms)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms, -1, self.context.prime)
        return Element._trusted(self.context, terms)

    def __neg__(self) -> "Element":
        p = self.context.prime
        return Element._trusted(self.context, {m: (-c) % p for m, c in self.terms.items()})

    def scale(self, c: int) -> "Element":
        p = self.context.prime
        c = integers((c,))[0] % p
        return Element._trusted(
            self.context, {m: r for m, v in self.terms.items() if (r := (c * v) % p)}
        )

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.context is other.context
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("Element is unhashable")

    def render(self) -> str:
        """Deterministic plain-text form: sorted monomials, explicit coefficients."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            parts.append(f"{self.terms[mono]}*{self.context.render_monomial(mono)}")
        return " + ".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"<Element {self.render()}>"


def _merge_monomials(ctx: AlgebraContext, left: Monomial, right: Monomial):
    """Merge two monomials into canonical order.

    Returns (sign, merged) or None when ``monomial_killed`` kills the product
    (exterior square or annihilator pair).  The sign counts transpositions of
    odd generators: each right-factor odd generator moves left past every
    later-positioned odd generator of the left factor.
    """
    merged = tuple(a + b for a, b in zip(left, right))
    if ctx.monomial_killed(merged):
        return None
    odd = ctx._odd_positions
    inversions = 0
    for ai, i in enumerate(odd):
        if right[i]:
            for j in odd[ai + 1:]:
                inversions += left[j]
    return (-1 if inversions % 2 else 1, merged)


_UNSEEN = object()


def _product(
    ctx: AlgebraContext,
    a_terms: dict[Monomial, int],
    b_terms: dict[Monomial, int],
    truncate: bool,
) -> dict[Monomial, int]:
    """The package's one product kernel: the Koszul-signed product of two
    reduced term dicts of ``ctx``, as a new reduced term dict.

    Exact mode raises ``TruncationOverflowError`` when a term pair whose
    merge survives would exceed the truncation degree; truncating mode drops
    such pairs.  Monomial merges within the truncation are memoized on the
    context, keyed by left, then right.
    """
    p = ctx.prime
    cap = ctx.top_degree
    merges = ctx._merge_memo
    terms: dict[Monomial, int] = {}
    for m1, c1 in a_terms.items():
        row = merges.get(m1)
        if row is None:
            row = {}
        for m2, c2 in b_terms.items():
            merged = row.get(m2, _UNSEEN)
            if merged is _UNSEEN:
                # only products within the truncation enter the memo
                d = ctx.monomial_degree(m1) + ctx.monomial_degree(m2)
                if d > cap:
                    if truncate or _merge_monomials(ctx, m1, m2) is None:
                        continue
                    raise TruncationOverflowError(
                        f"product degree {d} exceeds truncation {cap}"
                    )
                merged = row[m2] = _merge_monomials(ctx, m1, m2)
                merges[m1] = row
            if merged is None:
                continue
            sign, mono = merged
            c = (terms.get(mono, 0) + sign * c1 * c2) % p
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
    return terms


def multiply(a: Element, b: Element, truncate: bool = False) -> Element:
    """Bilinear Koszul-signed product of two elements of one context.

    Exact mode raises ``TruncationOverflowError`` when a surviving term would
    exceed the truncation degree; truncating mode silently drops such terms.
    The work is ``_product``'s, which ``signed_leibniz`` and
    ``AlgebraMap.__call__`` call directly on raw term dicts: the
    spectral-sequence engine and the Milnor derivations reach the truncating
    mode through ``signed_leibniz``.
    """
    a._check(b)
    return Element._trusted(a.context, _product(a.context, a.terms, b.terms, truncate))


def _accumulate(terms: dict[Monomial, int], other: dict[Monomial, int], c: int, p: int) -> None:
    """In place: ``terms += c * other`` with coefficients kept in ``1..p-1``."""
    for m, v in other.items():
        s = (terms.get(m, 0) + c * v) % p
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)


def signed_leibniz(
    element: Element,
    rules: Mapping[int, tuple[int, Element]],
    truncate: bool = False,
) -> Element:
    """Extend an odd derivation from generator powers to ``element``.

    ``rules`` maps a generator position to ``(power, image)``: the derivation
    sends generator^power to ``image`` and every unlisted generator to zero.
    Each monomial is expanded factor by factor with the signed Leibniz rule
    D(ab) = D(a) b + (-1)^deg(a) a D(b): a factor g^n contributes
    (n // power) * (prefix * g^(n - power)) * image * (suffix), so a power
    below ``power`` contributes nothing.  At l = 2 the sign is vacuous.
    ``truncate`` is passed to the product kernel: drop terms above the
    truncation degree instead of raising ``TruncationOverflowError``.
    """
    ctx = element.context
    p = ctx.prime
    n_gens = len(ctx.generators)
    terms: dict[Monomial, int] = {}
    for mono, coeff in element.terms.items():
        prefix_degree = 0
        for i, e in enumerate(mono):
            if e:
                rule = rules.get(i)
                if rule is not None:
                    power, img = rule
                    sign = -1 if (p != 2 and prefix_degree % 2) else 1
                    c = (sign * (e // power) * coeff) % p
                    if c:
                        left = {mono[:i] + (e - power,) + (0,) * (n_gens - i - 1): 1}
                        right = {(0,) * (i + 1) + mono[i + 1:]: 1}
                        term = _product(
                            ctx, _product(ctx, left, img.terms, truncate), right, truncate
                        )
                        _accumulate(terms, term, c, p)
                prefix_degree += e * ctx._degrees[i]
    return Element._trusted(ctx, terms)


class AlgebraMap:
    """The algebra endomorphism extending given generator images.

    ``_powers`` holds, per generator position, the powers f(g)^1 .. f(g)^k
    of its image that applications of the map have needed so far.
    """

    __slots__ = ("context", "images", "_image_terms", "_powers")

    def __init__(self, context: AlgebraContext, images: Mapping[str, Element]):
        self.context = context
        full: dict[str, Element] = {}
        for g in context.generators:
            img = images.get(g.name)
            full[g.name] = img if img is not None else context.generator(g.name)
        self.images = full
        # the images' terms by generator position
        self._image_terms = tuple([img.terms for img in full.values()])
        self._powers: dict[int, list[dict[Monomial, int]]] = {}

    def __call__(self, element: Element) -> Element:
        """Apply the map: the sum over monomials of coeff * f(monomial).

        f(m) is the product, in generator order, of the powers f(g)^e of the
        factors g^e of m, so no sign arises.  A first power is the image's
        own terms, read directly; each higher power is formed in a loop, one
        product per step, and kept on the map (``_power``).  The constant
        monomial maps to itself.

        Every product is exact, as in ``multiply``: a surviving term pair
        past the truncation raises ``TruncationOverflowError``, which no
        element within the truncation meets under degree-preserving images
        such as ``linear_substitution``'s.
        """
        ctx = self.context
        if element.context is not ctx:
            raise ValueError("element belongs to a different context")
        p = ctx.prime
        first = self._image_terms
        out: dict[Monomial, int] = {}
        for mono, c in element.terms.items():
            image = None
            for i, e in enumerate(mono):
                if e:
                    power = first[i] if e == 1 else self._power(i, e)
                    image = power if image is None else _product(ctx, image, power, False)
            _accumulate(out, {mono: 1} if image is None else image, c, p)
        return Element._trusted(ctx, out)

    def _power(self, i: int, e: int) -> dict[Monomial, int]:
        """f(g_i)^e for e >= 1, from the powers kept on the map; ``__call__``
        asks it only for e >= 2."""
        powers = self._powers.get(i)
        if powers is None:
            powers = self._powers[i] = [self._image_terms[i]]
        while len(powers) < e:
            powers.append(_product(self.context, powers[-1], powers[0], False))
        return powers[e - 1]


def check_image(ctx: AlgebraContext, name: str, img: Element) -> None:
    """The rule for one generator image of an endomorphism of ``ctx``.

    The image must belong to ``ctx`` and be homogeneous of the generator's
    degree (a zero image is accepted); an odd generator's image must be a
    linear combination of odd generators (so exterior squares stay zero).
    The image is checked monomial by monomial, degrees first.  An unknown
    generator name raises ``KeyError``, ahead of the ``ValueError`` for an
    image from another context.
    """
    degree = ctx.spec(name).degree
    if img.context is not ctx:
        raise ValueError("image belongs to a different context")
    for mono in img.terms:
        if ctx.monomial_degree(mono) != degree:
            raise ValueError(f"image of {name} must be homogeneous of degree {degree}")
    if ctx.prime % 2 and degree % 2:
        for mono in img.terms:
            # exactly one nonzero exponent, equal to 1, at an odd generator
            if mono not in ctx._odd_units:
                raise ValueError(
                    f"image of odd generator {name} must be a combination "
                    f"of odd generators"
                )


def linear_substitution(ctx: AlgebraContext, images: Mapping[str, Element]) -> AlgebraMap:
    """Validated construction of the endomorphism sending generators to images.

    Each image, in order, must pass ``check_image``.  Unlisted generators
    map to themselves.
    """
    for name, img in images.items():
        check_image(ctx, name, img)
    return AlgebraMap(ctx, images)


# ---------------------------------------------------------------------------
# standard contexts


_LETTERS = ("x", "y", "z")


def elementary_abelian_context(prime: int, rank: int, top_degree: int) -> AlgebraContext:
    """Mod-l cohomology of the classifying space of (Z/l)^rank, truncated.

    Odd l: an exterior generator of degree 1 and its polynomial Bockstein
    partner of degree 2 per factor.  l = 2: one polynomial degree-1 generator
    per factor, its own Bockstein partner (squaring).
    """
    check_prime(prime)
    if not 1 <= rank <= len(_LETTERS):
        raise ValueError(f"rank must be in [1, {len(_LETTERS)}]")
    gens: list[GeneratorSpec] = []
    for letter in _LETTERS[:rank]:
        if prime == 2:
            gens.append(GeneratorSpec(f"{letter}1", 1, bockstein_partner=f"{letter}1"))
        else:
            gens.append(GeneratorSpec(f"{letter}1", 1, bockstein_partner=f"{letter}2"))
            gens.append(GeneratorSpec(f"{letter}2", 2))
    return AlgebraContext(prime, gens, top_degree)


def random_element(ctx: AlgebraContext, rng, max_degree: int) -> Element:
    """Seeded random element of at most four terms, used by the sampled CLI
    checks."""
    max_degree = min(max_degree, ctx.top_degree)
    out = ctx.zero()
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, max_degree)
        basis = ctx.basis_of_degree(d)
        if not basis:
            continue
        mono = rng.choice(basis)
        coeff = rng.randint(1, ctx.prime - 1) if ctx.prime > 2 else 1
        out = out + Element(ctx, {mono: coeff})
    return out
