"""First-quadrant multiplicative spectral sequences truncated by total degree.

A page is stored per bidegree as a pair of subspaces of the fixed ambient
basis: ``cycles`` (representatives surviving to this page) and ``boundaries``
(the part already killed); the page dimension is the difference.  Turning a
page takes degreewise homology of the induced differential on chosen
representatives, reducing mod boundaries, exactly once per bidegree.  The
linear algebra keeps one echelon basis per subspace and reduces each vector
against it once; a component whose subspaces the turn leaves alone carries
over to the next page unchanged.

A turn's differential (``DifferentialSpec``) is its page, its context and its
images, fixed when it is built: the images are given on page generators and
belong to that context, and ``turn_page`` takes only a page of that context.
A page generator is a power of an ambient generator (power 1 except for the
characteristic-2 scenario where the page-3 class is the square of the fiber
generator); the signed Leibniz extension is applied per monomial, by rules
the differential builds once.  Each turn of a nonzero differential builds
one table of d on every ambient basis monomial (``verify_dd_zero``), checks
d o d = 0 on it, and reads each representative's image off it as the same
combination of rows; a zero differential carries the page over.

Each scenario that several checks of one ``(ss, prime)`` job read is solved
once, by the first of them, and kept in the job's memo (``Job.shared``); a
scenario that one check reads is solved by that check.  Nothing is shared
across jobs or runs: the CLI makes a fresh ``Job`` per (suite, prime) pair and
drops it after.

``run_scenario`` may take a memo of pages (``turns``): the initial page by its
context object, and each turned page by its input page by value (the context
object, the page number and the components, ``SSPage.key``) and its
differential by value (the page, the context object and the images,
``DifferentialSpec.key``).  A miss calls ``turn_page``, so d o d = 0 is
checked on every turn of a nonzero differential computed; a hit returns the
page that turn made.  One ``(ss, prime)`` job keeps one memo in
``Job.shared``, for the bg1 scenario and the scalar sweep, which run on one
context; the other scenarios build contexts of their own.  Each pair of the
sweep runs its own differentials through it, so each distinct (page,
differential) of the job turns once.
The memo only compares values; the hits come from the scenario: every alpha1
gives the same page 3, and d3 depends only on alpha2.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from . import ffla, invariants
from .galg import (
    AlgebraContext,
    Element,
    GeneratorSpec,
    Monomial,
    _accumulate,
    multiply,
    signed_leibniz,
)
from .milnor import job_rank3_context, key_class, milnor_q, two_classes
from .report import FAIL, PASS, Check, Job, always, at_two, note, odd


class DifferentialError(Exception):
    """A differential violated d o d = 0 or left the cycle space."""


class DifferentialSpec:
    """The page-r differential d_r of one context, given on page generators.

    ``images`` maps generator name to (power, image): the differential is
    defined on the page class generator^power and extended by the signed
    Leibniz rule.  Unlisted generators map to zero.  Every image belongs to
    ``context``, which is checked here, and the rules ``signed_leibniz``
    reads, keyed by generator position, are built here once.
    """

    __slots__ = ("page", "context", "images", "_rules")

    def __init__(
        self, page: int, context: AlgebraContext, images: dict[str, tuple[int, Element]]
    ):
        if any(img.context is not context for _, img in images.values()):
            raise ValueError("image belongs to a different context")
        self.page = page
        self.context = context
        self.images = images
        self._rules = {context.position(name): rule for name, rule in images.items()}

    @classmethod
    def build(
        cls,
        page: int,
        ctx: AlgebraContext,
        images: Mapping[str, Element],
        powers: Mapping[str, int] | None = None,
    ) -> "DifferentialSpec":
        powers = dict(powers or {})
        table: dict[str, tuple[int, Element]] = {}
        for name, img in images.items():
            if img.context is not ctx:
                raise ValueError("image belongs to a different context")
            power = powers.get(name, 1)
            if img.is_zero():
                continue
            spec = ctx.spec(name)
            if spec.bidegree is None:
                raise ValueError(f"generator {name} carries no bidegree")
            sp, sq = spec.bidegree
            want = (power * sp + page, power * sq - page + 1)
            for mono in img.terms:
                if ctx.monomial_bidegree(mono) != want:
                    raise ValueError(
                        f"image of {name}^{power} has wrong bidegree; expected {want}"
                    )
            table[name] = (power, img)
        return cls(page, ctx, table)

    def apply(self, element: Element) -> Element:
        """Signed Leibniz extension, truncating above the working degree."""
        if element.context is not self.context:
            raise ValueError("element belongs to a different context")
        return signed_leibniz(element, self._rules, truncate=True)

    def key(self) -> tuple:
        """The differential by value: its page, its context object and, per
        generator, the name, the power and the image's terms."""
        return self.page, self.context, tuple(
            (name, power, tuple(sorted(img.terms.items())))
            for name, (power, img) in sorted(self.images.items())
        )


class PageComponent:
    """One bidegree of a page: its ambient basis and the coordinates of its
    cycles and boundaries.  Equal to another with the same three tuples, which
    ``SSPage.key`` reads."""

    __slots__ = ("basis", "cycles", "boundaries")

    def __init__(
        self,
        basis: tuple[tuple[int, ...], ...],
        cycles: tuple[tuple[int, ...], ...],
        boundaries: tuple[tuple[int, ...], ...],
    ):
        self.basis = basis
        self.cycles = cycles
        self.boundaries = boundaries

    def __eq__(self, other) -> bool:
        if type(other) is not PageComponent:
            return NotImplemented
        return (self.basis, self.cycles, self.boundaries) == (
            other.basis, other.cycles, other.boundaries
        )

    def __hash__(self):
        return hash((self.basis, self.cycles, self.boundaries))

    @property
    def dim(self) -> int:
        return len(self.cycles) - len(self.boundaries)


class SSPage:
    """One page of the spectral sequence, bidegree by bidegree."""

    __slots__ = ("r", "context", "components", "turn_ranks")

    def __init__(
        self,
        r: int,
        context: AlgebraContext,
        components: dict[tuple[int, int], PageComponent],
        turn_ranks: dict[int, int] | None = None,
    ):
        self.r = r
        self.context = context
        self.components = components
        # rank of the differential that produced this page, by source total degree
        self.turn_ranks = turn_ranks or {}

    def key(self) -> tuple:
        """What ``turn_page`` reads of the page, by value: the context object,
        the page number and the components."""
        return self.context, self.r, tuple(sorted(self.components.items()))

    def dim(self, p: int, q: int) -> int:
        comp = self.components.get((p, q))
        return comp.dim if comp else 0

    def dims_by_total_degree(self, upto: int) -> list[int]:
        out = [0] * (upto + 1)
        for (p, q), comp in self.components.items():
            if p + q <= upto:
                out[p + q] += comp.dim
        return out

    def nonzero_bidegrees(self):
        return [key for key, comp in self.components.items() if comp.dim > 0]

    def _check(self, *elements: Element) -> None:
        for element in elements:
            if element.context is not self.context:
                raise ValueError("element belongs to a different context")

    def _component_of(self, element: Element) -> tuple[tuple[int, int], PageComponent]:
        bidegrees = {self.context.monomial_bidegree(m) for m in element.terms}
        if len(bidegrees) != 1:
            raise ValueError("element is not bidegree-homogeneous")
        key = bidegrees.pop()
        comp = self.components.get(key)
        if comp is None:
            raise ValueError(f"no component at bidegree {key}")
        return key, comp

    def class_is_nonzero(self, element: Element) -> bool:
        self._check(element)
        if element.is_zero():
            return False
        _, comp = self._component_of(element)
        vec = element.coordinates(comp.basis)
        p = self.context.prime
        return ffla.in_span(vec, comp.cycles, p) and not ffla.in_span(
            vec, comp.boundaries, p
        )

    def classes_equal(self, a: Element, b: Element) -> bool:
        self._check(a, b)
        diff = a - b
        if diff.is_zero():
            return True
        _, comp = self._component_of(diff)
        return ffla.in_span(
            diff.coordinates(comp.basis), comp.boundaries, self.context.prime
        )


def initial_page(ctx: AlgebraContext) -> SSPage:
    components: dict[tuple[int, int], PageComponent] = {}
    grouped: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for d in range(ctx.top_degree + 1):
        for mono in ctx.basis_of_degree(d):
            grouped.setdefault(ctx.monomial_bidegree(mono), []).append(mono)
    for key, monos in grouped.items():
        basis = tuple(sorted(monos))
        n = len(basis)
        cycles = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        components[key] = PageComponent(basis, cycles, ())
    return SSPage(2, ctx, components)


def verify_dd_zero(dspec: DifferentialSpec) -> dict[Monomial, Element]:
    """d of every ambient basis monomial of the differential's context up to
    the truncation (one ``dspec.apply`` each), after checking d o d = 0 on
    each monomial: by linearity d(d(m)) is the table's combination over the
    terms of d(m)."""
    ctx = dspec.context
    monos = [m for d in range(ctx.top_degree + 1) for m in ctx.basis_of_degree(d)]
    table = {m: dspec.apply(Element._trusted(ctx, {m: 1})) for m in monos}
    for mono in monos:
        twice = _combine(table, table[mono].terms.items(), ctx.prime)
        if twice:
            raise DifferentialError(
                f"d o d != 0 on {ctx.render_monomial(mono)}: "
                f"{Element._trusted(ctx, twice).render()}"
            )
    return table


def _combine(
    table: Mapping[Monomial, Element], coeffs: Iterable[tuple[Monomial, int]], p: int
) -> dict[Monomial, int]:
    """The terms of sum c * table[m] over the (m, c) pairs; a monomial
    missing from the table raises ``KeyError``."""
    terms: dict[Monomial, int] = {}
    for m, c in coeffs:
        if c:
            _accumulate(terms, table[m].terms, c, p)
    return terms


def _complement(
    boundaries: Sequence[Sequence[int]], cycles: Sequence[Sequence[int]], prime: int
) -> list[tuple[int, ...]]:
    """Deterministic cycle representatives spanning cycles modulo boundaries:
    each cycle, in order, that the boundaries and the cycles chosen before it
    do not span."""
    span = ffla._Echelon(prime, boundaries)
    return [tuple(vec) for vec in cycles if span.insert(vec)]


def turn_page(page: SSPage, dspec: DifferentialSpec) -> SSPage:
    """Degreewise homology with respect to the page differential.

    A differential whose every image is zero carries the page over as it
    is, with no table of d and no turn ranks.
    """
    if dspec.page != page.r:
        raise ValueError(f"differential is for page {dspec.page}, page is {page.r}")
    ctx = page.context
    if dspec.context is not ctx:
        raise ValueError("differential belongs to a different context")
    if all(img.is_zero() for _, img in dspec.images.values()):
        # a zero differential kills nothing and every class is a cycle
        return SSPage(page.r + 1, ctx, dict(page.components))
    p = ctx.prime
    table = verify_dd_zero(dspec)
    r = page.r
    shift = (r, 1 - r)

    # rows of the components whose span changes on this turn; every other
    # component carries over as it is
    new_boundaries: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    new_cycles: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    ranks: dict[int, int] = {}

    for key in sorted(page.components):
        comp = page.components[key]
        reps = _complement(comp.boundaries, comp.cycles, p)
        if not reps:
            continue
        target_key = (key[0] + shift[0], key[1] + shift[1])
        target = page.components.get(target_key)
        images = [_combine(table, zip(comp.basis, vec), p) for vec in reps]

        if target is None:
            # untracked target (outside the first quadrant or the truncation):
            # every image must vanish, and all representatives are cycles
            if any(images):
                raise DifferentialError(
                    f"differential image escapes the tracked range at {target_key}"
                )
            continue

        target_cycles = ffla._Echelon(p, target.cycles)
        target_basis = set(target.basis)
        image_vectors: list[tuple[int, ...]] = []
        for image in images:
            if not image.keys() <= target_basis:
                raise DifferentialError(
                    f"differential image at {target_key} leaves the component basis"
                )
            ivec = tuple(image.get(m, 0) for m in target.basis)
            if any(ivec) and any(target_cycles.reduce(ivec)):
                raise DifferentialError(
                    f"differential image at {target_key} is not a cycle representative"
                )
            image_vectors.append(ivec)

        # rank of the induced map: how many images are independent modulo the
        # (linearly independent) old boundaries at the target
        killed = ffla._Echelon(p, target.boundaries)
        rank = sum(killed.insert(v) for v in image_vectors)
        if not rank:
            # every image is an old boundary: all representatives stay cycles
            continue
        ranks[key[0] + key[1]] = ranks.get(key[0] + key[1], 0) + rank
        new_boundaries[target_key] = [*target.boundaries, *(v for v in image_vectors if any(v))]

        # kernel of the induced map: the combinations of the representatives
        # whose image lies in the old boundaries at the target
        kept = ffla.preimage(reps, image_vectors, p, target.boundaries)
        new_cycles[key] = [*comp.boundaries, *kept]

    components: dict[tuple[int, int], PageComponent] = {}
    for key, comp in page.components.items():
        if key not in new_cycles and key not in new_boundaries:
            components[key] = comp
            continue
        cycles = ffla._Echelon(p, new_cycles.get(key, comp.cycles))
        bnd = ffla._Echelon(p, new_boundaries.get(key, comp.boundaries)).basis()
        for b in bnd:
            if any(cycles.reduce(b)):
                raise DifferentialError(
                    f"boundary at {key} is not a cycle; differential is ill-posed"
                )
        components[key] = PageComponent(comp.basis, tuple(cycles.basis()), tuple(bnd))
        if components[key].dim > comp.dim:
            raise DifferentialError(f"page dimension grew at {key}")
    return SSPage(page.r + 1, ctx, components, ranks)


def euler_bookkeeping_holds(old: SSPage, new: SSPage, upto: int) -> bool:
    """dim E_(r+1),n = dim E_r,n - rank(d from n) - rank(d into n), per degree."""
    ranks = new.turn_ranks
    old_dims = old.dims_by_total_degree(upto)
    new_dims = new.dims_by_total_degree(upto)
    for n in range(upto + 1):
        rank_out = ranks.get(n, 0)
        rank_in = ranks.get(n - 1, 0)
        if new_dims[n] != old_dims[n] - rank_out - rank_in:
            return False
    return True


# ---------------------------------------------------------------------------
# scenarios


class Scenario:
    """A fixed spectral-sequence computation: ambient data, differentials, target."""

    __slots__ = (
        "name", "prime", "context", "differentials", "target_degree", "named",
        "permanent", "certify", "annotations",
    )

    def __init__(
        self,
        name: str,
        prime: int,
        context: AlgebraContext,
        differentials: list[DifferentialSpec],
        target_degree: int,
        named: dict[str, Element],
        permanent: Sequence[tuple[Element, str]] = (),
        certify: bool = True,
        annotations: Sequence[str] = (),
    ):
        self.name = name
        self.prime = prime
        self.context = context
        self.differentials = differentials
        self.target_degree = target_degree
        self.named = named
        self.permanent = list(permanent)
        self.certify = certify
        self.annotations = list(annotations)


class ScenarioResult:
    __slots__ = ("scenario", "pages", "final", "dims", "annotations")

    def __init__(
        self,
        scenario: Scenario,
        pages: list[SSPage],
        final: SSPage,
        dims: list[int],
        annotations: list[str],
    ):
        self.scenario = scenario
        self.pages = pages
        self.final = final
        self.dims = dims
        self.annotations = annotations


def run_scenario(
    sc: Scenario, turns: dict[Hashable, SSPage] | None = None
) -> ScenarioResult:
    """Turn the scenario's pages, then certify and read off its dimensions.
    A failed certification raises, so a result's collapse is certified
    exactly when its ``scenario.certify`` is set.

    ``turns`` is a memo of pages: the initial page by its context, and each
    turned page by its input page and differential (``SSPage.key``,
    ``DifferentialSpec.key``).  A page found there is not made again, and
    every page made is stored in it.  Without ``turns`` the run keeps its own.
    """
    turns = {} if turns is None else turns
    if sc.context not in turns:
        turns[sc.context] = initial_page(sc.context)
    page = turns[sc.context]
    pages = [page]
    for dspec in sorted(sc.differentials, key=lambda d: d.page):
        while page.r < dspec.page:
            page = _turn(page, DifferentialSpec(page.r, page.context, {}), turns)
            pages.append(page)
        page = _turn(page, dspec, turns)
        pages.append(page)
    annotations = list(sc.annotations)
    if sc.certify:
        _certify_collapse(sc, page, annotations)
    dims = page.dims_by_total_degree(sc.target_degree)
    return ScenarioResult(sc, pages, page, dims, annotations)


def _turn(page: SSPage, dspec: DifferentialSpec, turns: dict[Hashable, SSPage]) -> SSPage:
    key = page.key(), dspec.key()
    turned = turns.get(key)
    if turned is None:
        turned = turns[key] = turn_page(page, dspec)
    return turned


def _certify_collapse(sc: Scenario, page: SSPage, annotations: list[str]) -> None:
    """Confirm no later differential can change total degrees <= target, or
    raise ``DifferentialError``.

    A possible pair (source, target both nonzero) is tolerated only when the
    declared-permanent classes span the source component; that fact is then
    recorded as an annotation, keeping cited inputs separate from computation.
    """
    nonzero = page.nonzero_bidegrees()
    max_q = max((q for (_, q) in nonzero), default=0)
    for r in range(page.r, max_q + 2):
        for (p, q) in nonzero:
            if p + q > sc.target_degree:
                continue
            target = (p + r, q - r + 1)
            if target[1] < 0 or page.dim(*target) == 0:
                continue
            spanned = _permanent_spans_component(sc, page, (p, q))
            if not spanned:
                raise DifferentialError(
                    f"collapse not certified: possible d_{r} from {(p, q)} to {target}"
                )
            annotations.append(
                f"classes at bidegree {(p, q)} survive by external input; "
                f"a d_{r} into {target} is excluded by citation, not computation"
            )


def _permanent_spans_component(sc: Scenario, page: SSPage, key: tuple[int, int]) -> bool:
    comp = page.components[key]
    vectors = []
    for el, _reason in sc.permanent:
        bidegrees = {sc.context.monomial_bidegree(m) for m in el.terms}
        if bidegrees == {key}:
            vectors.append(el.coordinates(comp.basis))
    if not vectors:
        return False
    p = sc.context.prime
    # permanent classes must span the page component modulo boundaries: the
    # boundaries with them span the same space as the boundaries with the cycles
    full = ffla._Echelon(p, [*comp.boundaries, *comp.cycles])
    joint = ffla._Echelon(p, [*comp.boundaries, *vectors])
    return len(joint) == len(full) and not any(any(full.reduce(v)) for v in vectors)


def scenario_bg1(
    prime: int, alpha1: int = 1, alpha2: int = 1, slack: int = 0
) -> Scenario:
    """Total space of the circle-less fibration with two tensor-slot base classes.

    The base carries, per tensor slot, a truncated polynomial class of degree 2
    and an exterior class of degree 3 whose slotwise product vanishes; the
    fiber is the rank-1 elementary abelian cohomology.  The transgressions hit
    the antidiagonal combinations with unknown nonzero scalars alpha1, alpha2.
    At l = 2 every nonzero scalar is 1 and this returns ``scenario_bg1_two``.

    ``slack`` is the number of extra truncation degrees: the working degree is
    ``target_degree + 3 + slack``.  The default 0 is what the checks verify;
    a positive slack widens every page so that a stability check can confirm
    the dimensions up to ``target_degree`` do not depend on the truncation.
    """
    if alpha1 % prime == 0 or alpha2 % prime == 0:
        raise ValueError("transgression scalars must be nonzero")
    if prime == 2:
        return scenario_bg1_two(slack)
    target = 4
    gens = [
        GeneratorSpec("v2l", 2, (2, 0)),
        GeneratorSpec("v2r", 2, (2, 0)),
        GeneratorSpec("v3l", 3, (3, 0)),
        GeneratorSpec("v3r", 3, (3, 0)),
        GeneratorSpec("z1", 1, (0, 1)),
        GeneratorSpec("z2", 2, (0, 2)),
    ]
    ctx = AlgebraContext(
        prime, gens, target + 3 + slack,
        annihilator_pairs=[("v2l", "v3l"), ("v2r", "v3r")],
    )
    named = {
        "a2": ctx.generator("v2l") - ctx.generator("v2r"),
        "a3": ctx.generator("v3l") - ctx.generator("v3r"),
        "b2": ctx.generator("v2l"),
        "b3": ctx.generator("v3l"),
        "z1": ctx.generator("z1"),
        "z2": ctx.generator("z2"),
    }
    differentials = _bg1_transgressions(named, alpha1, alpha2)
    return Scenario("bg1", prime, ctx, differentials, target, named)


def _bg1_transgressions(
    named: Mapping[str, Element], alpha1: int, alpha2: int
) -> list[DifferentialSpec]:
    """d2(z1) = -alpha1 a2 and d3(z2) = -alpha2 a3 on the context of the odd
    ``scenario_bg1``, given its named classes."""
    a2, a3 = named["a2"], named["a3"]
    return [
        DifferentialSpec.build(2, a2.context, {"z1": a2.scale(-alpha1)}),
        DifferentialSpec.build(3, a3.context, {"z2": a3.scale(-alpha2)}),
    ]


def scenario_bg1_two(slack: int = 0) -> Scenario:
    """The characteristic-2 analogue: polynomial base, fiber class transgressing
    in two stages (the page-3 differential acts on the square of the fiber class).
    The fourth power survives by the rational degree-4 dimension, an external
    input carried as an annotation.  ``slack`` adds truncation degrees as in
    ``scenario_bg1``."""
    target = 4
    gens = [
        GeneratorSpec("a2", 2, (2, 0)),
        GeneratorSpec("a3", 3, (3, 0)),
        GeneratorSpec("b2", 2, (2, 0)),
        GeneratorSpec("b3", 3, (3, 0)),
        GeneratorSpec("z1", 1, (0, 1)),
    ]
    ctx = AlgebraContext(2, gens, target + 3 + slack)
    named = {
        "a2": ctx.generator("a2"),
        "a3": ctx.generator("a3"),
        "b2": ctx.generator("b2"),
        "b3": ctx.generator("b3"),
        "z1": ctx.generator("z1"),
    }
    d2 = DifferentialSpec.build(2, ctx, {"z1": named["a2"]})
    d3 = DifferentialSpec.build(3, ctx, {"z1": named["a3"]}, powers={"z1": 2})
    z14 = ctx.monomial_element({"z1": 4})
    return Scenario(
        "bg1", 2, ctx, [d2, d3], target, named,
        permanent=[(z14, "rational degree-4 dimension is 2, so the class survives")],
    )


def scenario_bpu(prime: int, beta_prime_zero: bool = False) -> Scenario:
    """Degree-ewise page-3 computation over the degree-3 acyclic base class.

    The fiber carries polynomial classes of degrees 2, 4, 6; the degree-4 and
    degree-6 classes support page-3 differentials with unknown nonzero scalars
    (normalized to 1; the beta_prime_zero branch drops the middle term).  At
    l = 3 the base has an extra degree-7 class, included so the bookkeeping
    below degree 7 is honest about its absence of influence.
    """
    if prime == 2:
        raise ValueError("the page-3 scenario is defined for odd primes")
    target = 6
    gens = [
        GeneratorSpec("u3", 3, (3, 0)),
        GeneratorSpec("y2", 2, (0, 2)),
        GeneratorSpec("y4", 4, (0, 4)),
        GeneratorSpec("y6", 6, (0, 6)),
    ]
    if prime == 3:
        gens.append(GeneratorSpec("u7", 7, (7, 0)))
    ctx = AlgebraContext(prime, gens, target + 3)
    u3 = ctx.generator("u3")
    y2 = ctx.generator("y2")
    y4 = ctx.generator("y4")
    named = {"u3": u3, "y2": y2, "y4": y4, "y6": ctx.generator("y6")}
    d_y4 = multiply(y2, u3)
    if beta_prime_zero:
        d_y6 = multiply(multiply(y2, y2), u3)
    else:
        d_y6 = multiply(y4, u3) + multiply(multiply(y2, y2), u3)
    d3 = DifferentialSpec.build(3, ctx, {"y4": d_y4, "y6": d_y6})
    annotations = []
    if beta_prime_zero:
        annotations.append(
            "branch with vanishing middle scalar: the surviving degree-6 "
            "combination of y6 and y2*y4 is killed by external input, not by a "
            "computed differential"
        )
    return Scenario(
        "bpu", prime, ctx, [d3], target, named, certify=False,
        annotations=annotations,
    )


def rational_degree4_dimension(prime: int) -> int:
    """Degree-4 dimension of the rational cohomology of the total space.

    Input constant: the rational cohomology is polynomial on 2(l-1) generators
    of degrees 4, 4, 6, 6, ..., 2l, 2l; the degree-4 count is read off the
    generating function, not hardcoded.
    """
    degrees = []
    for k in range(2, prime + 1):
        degrees.extend([2 * k, 2 * k])
    counts = [1, 0, 0, 0, 0]
    for d in degrees:
        for total in range(d, 5):
            counts[total] += counts[total - d]
    return counts[4]


# ---------------------------------------------------------------------------
# checks


def page_table(result: ScenarioResult) -> str:
    """Per-page, per-total-degree dimension table (part of the report contract)."""
    upto = result.scenario.context.top_degree
    rows = []
    for page in result.pages:
        dims = page.dims_by_total_degree(upto)
        rows.append(f"page {page.r}: " + " ".join(str(d) for d in dims))
    return "; ".join(rows)


def _bg1(job: Job) -> ScenarioResult:
    turns = job.shared("turns", dict)
    return job.shared("bg1", lambda: run_scenario(scenario_bg1(job.prime), turns))


def _bpu(job: Job) -> ScenarioResult:
    return job.shared("bpu", lambda: run_scenario(scenario_bpu(job.prime)))


def _sweep_planned(prime: int, config) -> bool:
    # the sweep runs by default at l = 3, where it is four scenarios
    return prime != 2 and (config.sweep_scalars or prime == 3)


def _at_three(prime: int, config) -> bool:
    return prime == 3


# total-degree dimensions of the quotient-group scenario, both parities
BG1_DIMS = [1, 0, 1, 1, 2]


def _bg1_dims(job: Job) -> tuple[str, str]:
    result = _bg1(job)
    if result.dims != BG1_DIMS:
        return FAIL, f"H^i dims {result.dims}, expected {BG1_DIMS}"
    return PASS, f"H^i dims for i=0..4: {tuple(result.dims)}"


def _bg1_classes(job: Job) -> tuple[str, str]:
    result = _bg1(job)
    sc = result.scenario
    b2 = sc.named["b2"]
    if job.prime == 2:
        checks = [
            ("b2^2", multiply(b2, b2)),
            ("z1^4", sc.context.monomial_element({"z1": 4})),
        ]
    else:
        checks = [
            ("b2*z2", multiply(b2, sc.named["z2"])),
            ("b2^2", multiply(b2, b2)),
        ]
    checks += [("b2", b2), ("b3", sc.named["b3"])]
    for label, el in checks:
        if not result.final.class_is_nonzero(el):
            return FAIL, f"{label} is not a nonzero class on the final page"
    return PASS, "nonzero final classes: " + ", ".join(label for label, _ in checks)


def _e3_structure(job: Job) -> tuple[str, str]:
    result = _bg1(job)
    sc, page3 = result.scenario, result.pages[1]  # pages E_2, E_3, E_4
    got = page3.dims_by_total_degree(5)
    # free module over the degree-2 fiber polynomial class on
    # {1, b2, b2^2, a3, b3}: dims 1,0,2,2,3,2 in degrees 0..5
    want = [1, 0, 2, 2, 3, 2]
    if got != want:
        return FAIL, f"page-3 dims {got}, expected {want}"
    a3, b2 = sc.named["a3"], sc.named["b2"]
    if not page3.class_is_nonzero(a3):
        return FAIL, "a3 vanishes on page 3"
    if not page3.class_is_nonzero(multiply(a3, sc.named["z2"])):
        return FAIL, "a3*z2 vanishes on page 3"
    if not page3.classes_equal(multiply(a3, b2), sc.context.zero()):
        return FAIL, "a3*b2 is nonzero on page 3"
    return PASS, f"page-3 dims {tuple(want)}; a3 != 0, a3*z2 != 0, a3*b2 = 0"


def _d3_square(job: Job) -> tuple[str, str]:
    result = _bg1(job)
    sc, page3 = result.scenario, result.pages[1]  # pages E_2, E_3, E_4
    z1sq = sc.context.monomial_element({"z1": 2})
    if not page3.class_is_nonzero(z1sq):
        return FAIL, "z1^2 does not survive to page 3"
    image = sc.differentials[1].apply(z1sq)
    if not page3.classes_equal(image, sc.named["a3"]):
        return FAIL, f"d3(z1^2) = {image.render()}, expected a3"
    return PASS, "z1^2 survives to page 3 and d3(z1^2) = a3"


def scalar_sweep_results(
    solved: ScenarioResult, turns: dict[Hashable, SSPage]
) -> Iterator[tuple[int, int, ScenarioResult]]:
    """``(alpha1, alpha2, result)`` for every nonzero scalar pair of the odd
    bg1 scenario, alpha1 outer and alpha2 inner, each pair solved when it is
    reached.

    ``solved`` is the (1, 1) result; every other pair is turned with its own
    differentials on that result's ambient algebra, through the memo of pages
    ``turns`` (``run_scenario``).
    """
    sc = solved.scenario
    for a1 in range(1, sc.prime):
        for a2 in range(1, sc.prime):
            if (a1, a2) == (1, 1):
                yield a1, a2, solved
            else:
                differentials = _bg1_transgressions(sc.named, a1, a2)
                pair = Scenario(
                    sc.name, sc.prime, sc.context, differentials, sc.target_degree,
                    sc.named, sc.permanent, sc.certify, sc.annotations,
                )
                yield a1, a2, run_scenario(pair, turns)


def _scalar_sweep(job: Job) -> tuple[str, str]:
    """Every nonzero scalar pair, solved by ``scalar_sweep_results`` through
    the job's memo of pages: each distinct (page, differential) turns
    once, and each pair certifies its own collapse.  The first pair, alpha1
    outer and alpha2 inner, with dims other than ``BG1_DIMS`` fails the
    check."""
    prime = job.prime
    for a1, a2, result in scalar_sweep_results(_bg1(job), job.shared("turns", dict)):
        if result.dims != BG1_DIMS:
            return FAIL, f"dims {result.dims} at scalars ({a1},{a2})"
    return PASS, f"dims stable over all {(prime - 1) ** 2} nonzero scalar pairs"


def _monotone_euler(job: Job) -> tuple[str, str]:
    result = _bg1(job)
    upto = result.scenario.context.top_degree - 1
    for older, newer in zip(result.pages, result.pages[1:]):
        old_dims = older.dims_by_total_degree(upto)
        new_dims = newer.dims_by_total_degree(upto)
        if any(n > o for n, o in zip(new_dims, old_dims)):
            return FAIL, "page dimensions increased"
        if not euler_bookkeeping_holds(older, newer, upto):
            return FAIL, "rank bookkeeping violated"
    return PASS, "dims non-increasing and rank bookkeeping exact on every turn"


def _stability(job: Job) -> tuple[str, str]:
    narrow = _bg1(job).dims
    wide_dims = run_scenario(scenario_bg1(job.prime, slack=2)).dims
    if narrow != wide_dims:
        return FAIL, f"dims changed under wider truncation: {narrow} vs {wide_dims}"
    return PASS, f"dims {tuple(narrow)} stable under truncation + 2"


def _bpu_branch_nonzero(job: Job) -> tuple[str, str]:
    """Page-4 content of the degree-3-base scenario, nonzero middle scalar."""
    result = _bpu(job)
    sc = result.scenario
    want = [1, 0, 1, 1, 1, 0, 1]
    if result.dims != want:
        return FAIL, f"page-4 dims {result.dims}, expected {want}"
    y2, u3 = sc.named["y2"], sc.named["u3"]
    for label, el in (
        ("y2", y2),
        ("u3", u3),
        ("y2^2", multiply(y2, y2)),
        ("y2^3", multiply(multiply(y2, y2), y2)),
    ):
        if not result.final.class_is_nonzero(el):
            return FAIL, f"{label} dies on page 4"
    return PASS, f"page-4 dims {tuple(want)}: classes 1, y2, u3, y2^2, y2^3"


def _bpu_branch_zero(job: Job) -> tuple[str, str]:
    """Page-4 content of the degree-3-base scenario, vanishing middle scalar."""
    sc = scenario_bpu(job.prime, beta_prime_zero=True)
    result = run_scenario(sc)
    want = [1, 0, 1, 1, 1, 0, 2]
    if result.dims != want:
        return FAIL, f"page-4 dims {result.dims}, expected {want}"
    y2 = sc.named["y2"]
    extra = sc.named["y6"] - multiply(y2, sc.named["y4"])
    if not result.final.class_is_nonzero(extra):
        return FAIL, "the y6 - y2*y4 combination dies on page 4 unexpectedly"
    if not result.annotations:
        return FAIL, "missing external-kill annotation"
    return PASS, (
        f"page-4 dims {tuple(want)}; extra degree-6 class y6 - y2*y4 "
        f"tagged: {result.annotations[0]}"
    )


def _u7_bookkeeping(job: Job) -> tuple[str, str]:
    sc = scenario_bpu(3)
    page = initial_page(sc.context)
    # differentials into the degree-7 base class vanish by bidegree
    for r in (2, 3):
        source = (7 - r, r - 1)
        if page.dim(*source) != 0:
            return FAIL, f"unexpected source {source} for a d_{r} into (7,0)"
    return PASS, "no differential can reach the degree-7 base class below degree 7"


# The end-to-end chain: (a) the degree-4 dimension of the scenario equals the
# rational constant, (b) the invariant class whose expansion carries the
# leading term restricted from the total space, and (c) the first Milnor
# primitive is nonzero on that class in degree 2l + 3.


def _h4_rank(job: Job) -> tuple[str, str]:
    result = _bg1(job)
    rational = rational_degree4_dimension(job.prime)
    if result.dims[4] != 2 or rational != 2:
        return FAIL, f"H^4 dim {result.dims[4]}, rational dim {rational}"
    return PASS, (
        "H^4 mod-l dimension 2 equals the rational dimension, so the "
        "integral reduction is onto in degree 4"
    )


def _iota_class(job: Job) -> tuple[AlgebraContext, Element]:
    """The invariant class carrying the restricted leading term (the key class
    ``milnor.key_class``), on the rank-3 context."""
    ctx = job_rank3_context(job)
    return ctx, job.shared("iota_class", lambda: key_class(ctx))


def _leading_term_two(job: Job) -> tuple[str, str]:
    ctx, invariant_class = _iota_class(job)
    u2, _ = two_classes(ctx)
    claim = invariants.span_claim(
        job, 4, "w",
        [("u2^2", multiply(u2, u2)), ("u3*z1+u2*z1^2+z1^4", invariant_class)],
        "invariants of dim 2 contain u2^2 and the class with fiber "
        "leading term z1^4; image dimension matches",
    )
    if claim[0] == PASS and invariant_class.coefficient({"z1": 4}) != 1:
        return FAIL, "fiber leading term z1^4 has wrong coefficient"
    return claim


def _leading_term_odd(job: Job) -> tuple[str, str]:
    _, q_target = _iota_class(job)
    claim = invariants.span_claim(
        job, 4, "w", [("Q0(x1 y1 z1)", q_target)],
        "the invariant line is spanned by a class with x1*y1*z2 "
        "coefficient 1, matching the restricted leading term",
    )
    coeff = q_target.coefficient({"x1": 1, "y1": 1, "z2": 1})
    if claim[0] == PASS and coeff != 1:
        return FAIL, f"coefficient of x1*y1*z2 is {coeff}, expected 1"
    return claim


def _q1_nonzero(job: Job) -> tuple[str, str]:
    prime = job.prime
    ctx, q_target = _iota_class(job)
    value = milnor_q(1, ctx)(q_target)
    degree = value.homogeneous_degree()
    if value.is_zero() or degree != 2 * prime + 3:
        return FAIL, f"Q1 of the invariant class: degree {degree}, zero={value.is_zero()}"
    return PASS, f"Q1 of the invariant class is nonzero in degree {2 * prime + 3}"


CHECKS = (
    Check("ss.bg1.dims", always, _bg1_dims),
    Check("ss.bg1.pages", always, lambda job: (PASS, page_table(_bg1(job)))),
    Check("ss.bg1.classes", always, _bg1_classes),
    Check("ss.bg1.e3_structure", odd, _e3_structure),
    Check("ss.bg1.d3_square", at_two, _d3_square),
    Check("ss.bg1.permanence_note", at_two, note(
        "z1^4 is declared permanent by the rational degree-4 "
        "dimension (external input); without it the page-4 "
        "dimensions are only an upper bound for H^4"
    )),
    Check("ss.bg1.scalar_sweep", _sweep_planned, _scalar_sweep),
    # engine health on the same scenario: monotone dims, rank bookkeeping,
    # stability under a wider truncation (d o d = 0 is checked on every nonzero turn)
    Check("ss.engine.monotone_euler", always, _monotone_euler),
    Check("ss.engine.stability", always, _stability),
    Check("ss.bpu.e4_dims_bnz", odd, _bpu_branch_nonzero),
    Check("ss.bpu.e4_dims_bz", odd, _bpu_branch_zero),
    Check("ss.bpu.pages", odd, lambda job: (PASS, page_table(_bpu(job)))),
    Check("ss.bpu.e4_span_note", odd, note(
        "the prose span of the page-4 term omits y2^3 up to degree 6; "
        "the stated five-class form (with the cube) is what the "
        "computation confirms"
    )),
    Check("ss.bpu.u7_bookkeeping", _at_three, _u7_bookkeeping),
    Check("ss.iota.h4_rank", always, _h4_rank),
    Check("ss.iota.leading_term", at_two, _leading_term_two),
    Check("ss.iota.leading_term", odd, _leading_term_odd),
    Check("ss.iota.q1_nonzero", always, _q1_nonzero),
)
