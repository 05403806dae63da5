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
    """One algebra generator, equal to another with the same fields.

    ``parity`` is ``"odd"`` for exterior generators (odd prime, odd degree)
    and ``"even"`` otherwise.  ``bockstein_partner`` names the degree+1
    generator equal to the Bockstein of this one; at l = 2 a degree-1
    generator is its own partner (the Bockstein squares it).
    ``bidegree`` is the (p, q) placement used by spectral-sequence contexts.
    """

    __slots__ = ("name", "degree", "parity", "bidegree", "bockstein_partner")

    def __init__(
        self,
        name: str,
        degree: int,
        parity: str = "even",
        bidegree: tuple[int, int] | None = None,
        bockstein_partner: str | None = None,
    ):
        if degree <= 0:
            raise ValueError("generator degree must be positive")
        if parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if bidegree is not None and sum(bidegree) != degree:
            raise ValueError(f"bidegree {bidegree} does not sum to {degree}")
        self.name = name
        self.degree = degree
        self.parity = parity
        self.bidegree = bidegree
        self.bockstein_partner = bockstein_partner

    def _fields(self) -> tuple:
        return self.name, self.degree, self.parity, self.bidegree, self.bockstein_partner

    def __eq__(self, other) -> bool:
        if type(other) is not GeneratorSpec:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class AlgebraContext:
    """Immutable generator data plus the working truncation degree.

    Three memos fill lazily and are bounded by the finite set of monomials of
    degree at most ``top_degree``: the basis per degree, the degree of each
    such monomial, and ``_merge_monomials`` of each pair whose product degree
    is within the truncation (``multiply`` keys it by left, then right).
    ``_action_layout`` is the unit monomials of the degree-1 generators and
    their Bockstein partners, set by ``invariants.induced_action`` on its
    first successful call and never on a failed one, so a generator above the
    truncation raises on every call.  ``_odd_units`` holds the unit monomial
    of every odd generator.
    """

    __slots__ = (
        "prime", "generators", "top_degree", "annihilator_pairs",
        "_index", "_degrees", "_odd_positions", "_odd_units", "_basis_cache",
        "_degree_memo", "_merge_memo", "_action_layout",
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
            expected = "even" if prime == 2 else ("odd" if g.degree % 2 else "even")
            if g.parity != expected:
                raise ValueError(
                    f"generator {g.name}: parity {g.parity} inconsistent with "
                    f"degree {g.degree} at prime {prime}"
                )
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
            i for i, g in enumerate(self.generators) if g.parity == "odd"
        )
        n = len(self.generators)
        self._odd_units = frozenset(
            (0,) * i + (1,) + (0,) * (n - i - 1) for i in self._odd_positions
        )
        pairs = set()
        for a, b in annihilator_pairs:
            ia, ib = self._index[a], self._index[b]
            pairs.add((min(ia, ib), max(ia, ib)))
        self.annihilator_pairs = frozenset(pairs)
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}
        self._degree_memo: dict[Monomial, int] = {}
        self._merge_memo: dict[Monomial, dict[Monomial, tuple[int, Monomial] | None]] = {}
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
        if self.prime != 2:
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

    def scalar(self, c: int) -> "Element":
        unit: Monomial = (0,) * len(self.generators)
        return Element(self, {unit: c})

    def one(self) -> "Element":
        return self.scalar(1)

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
            if self.prime != 2 and pos in self._odd_positions:
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

    The constructor takes outside coefficients: each must be an integer
    (``ffla.integers``) and is reduced mod l, and zeros are dropped.  Sums,
    differences, negations and scalings of elements are reduced by
    construction and skip that check.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: dict[Monomial, int]):
        p = context.prime
        self.context = context
        self.terms = {m: r for m, c in zip(terms, integers(terms.values())) if (r := c % p)}

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
        p = self.context.prime
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = (terms.get(m, 0) + c) % p
        return Element._trusted(self.context, {m: c for m, c in terms.items() if c})

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        p = self.context.prime
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = (terms.get(m, 0) - c) % p
        return Element._trusted(self.context, {m: c for m, c in terms.items() if c})

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

    Returns (sign, merged) or None when the product vanishes (exterior square
    or annihilator pair).  The sign counts transpositions of odd generators:
    each right-factor odd generator moves left past every later-positioned
    odd generator of the left factor.
    """
    merged = tuple(a + b for a, b in zip(left, right))
    if ctx.prime == 2:
        return (1, merged) if not ctx.monomial_killed(merged) else None
    odd = ctx._odd_positions
    for i in odd:
        if merged[i] > 1:
            return None
    if any(merged[a] and merged[b] for a, b in ctx.annihilator_pairs):
        return None
    inversions = 0
    for ai, i in enumerate(odd):
        if right[i]:
            for j in odd[ai + 1:]:
                inversions += left[j]
    return (-1 if inversions % 2 else 1, merged)


_UNSEEN = object()


def multiply(a: Element, b: Element, truncate: bool = False) -> Element:
    """Bilinear Koszul-signed product.

    Exact mode raises ``TruncationOverflowError`` when a surviving term would
    exceed the truncation degree; truncating mode silently drops such terms
    (used only by the spectral-sequence engine, where pages are degreewise).
    Monomial merges within the truncation are memoized on the context.
    """
    a._check(b)
    ctx = a.context
    p = ctx.prime
    cap = ctx.top_degree
    merges = ctx._merge_memo
    terms: dict[Monomial, int] = {}
    for m1, c1 in a.terms.items():
        row = merges.get(m1)
        if row is None:
            row = {}
        for m2, c2 in b.terms.items():
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
    return Element._trusted(ctx, terms)


def _accumulate(terms: dict[Monomial, int], el: Element, c: int, p: int) -> None:
    """In place: ``terms += c * el`` with coefficients kept in ``1..p-1``."""
    for m, v in el.terms.items():
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
    ``truncate`` is passed to ``multiply``: drop terms above the truncation
    degree instead of raising ``TruncationOverflowError``.
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
                        left = Element._trusted(
                            ctx, {mono[:i] + (e - power,) + (0,) * (n_gens - i - 1): 1}
                        )
                        right = Element._trusted(ctx, {(0,) * (i + 1) + mono[i + 1:]: 1})
                        term = multiply(
                            multiply(left, img, truncate=truncate), right,
                            truncate=truncate,
                        )
                        _accumulate(terms, term, c, p)
                prefix_degree += e * ctx._degrees[i]
    return Element._trusted(ctx, terms)


class AlgebraMap:
    """The algebra endomorphism extending given generator images."""

    __slots__ = ("context", "images")

    def __init__(self, context: AlgebraContext, images: Mapping[str, Element]):
        self.context = context
        full: dict[str, Element] = {}
        for g in context.generators:
            img = images.get(g.name)
            full[g.name] = img if img is not None else context.generator(g.name)
        self.images = full

    def __call__(self, element: Element) -> Element:
        """Apply the map: each monomial goes to the product of its factors' images.

        A monomial's product starts from the image of its first generator
        factor (the constant monomial maps to ``one``), so a single generator
        maps to its image as given and each further factor costs one exact
        ``multiply``, which raises ``TruncationOverflowError`` past the
        truncation.
        """
        if element.context is not self.context:
            raise ValueError("element belongs to a different context")
        ctx = self.context
        terms: dict[Monomial, int] = {}
        for mono, coeff in element.terms.items():
            img = None
            for e, g in zip(mono, ctx.generators):
                for _ in range(e):
                    factor = self.images[g.name]
                    img = factor if img is None else multiply(img, factor)
            if img is None:
                img = ctx.one()
            _accumulate(terms, img, coeff, ctx.prime)
        return Element._trusted(ctx, terms)


def linear_substitution(ctx: AlgebraContext, images: Mapping[str, Element]) -> AlgebraMap:
    """Validated construction of the endomorphism sending generators to images.

    Every image must be homogeneous of its generator's degree, checked in one
    pass over its monomials (a zero image is accepted); images of odd
    generators must be linear combinations of odd generators (so exterior
    squares stay zero).  Unlisted generators map to themselves.
    """
    odd_units = ctx._odd_units
    degree_of = ctx.monomial_degree
    for name, img in images.items():
        spec = ctx.spec(name)
        if img.context is not ctx:
            raise ValueError("image belongs to a different context")
        degree = spec.degree
        for mono in img.terms:
            if degree_of(mono) != degree:
                raise ValueError(
                    f"image of {name} must be homogeneous of degree {degree}"
                )
        if spec.parity == "odd":
            for mono in img.terms:
                # exactly one nonzero exponent, equal to 1, at an odd generator
                if mono not in odd_units:
                    raise ValueError(
                        f"image of odd generator {name} must be a combination "
                        f"of odd generators"
                    )
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
            gens.append(
                GeneratorSpec(f"{letter}1", 1, "even", bockstein_partner=f"{letter}1")
            )
        else:
            gens.append(
                GeneratorSpec(f"{letter}1", 1, "odd", bockstein_partner=f"{letter}2")
            )
            gens.append(GeneratorSpec(f"{letter}2", 2, "even"))
    return AlgebraContext(prime, gens, top_degree)


def random_element(ctx: AlgebraContext, rng, max_degree: int, max_terms: int = 4) -> Element:
    """Seeded random element, used by the sampled CLI checks."""
    max_degree = min(max_degree, ctx.top_degree)
    out = ctx.zero()
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        basis = ctx.basis_of_degree(d)
        if not basis:
            continue
        mono = rng.choice(basis)
        coeff = rng.randint(1, ctx.prime - 1) if ctx.prime > 2 else 1
        out = out + Element(ctx, {mono: coeff})
    return out
