"""Matrix-group actions on the cohomology of elementary abelian groups.

A group is given by its generators, plain ``FieldMatrix`` values acting on
the degree-1 generators; ``weyl_generators`` and ``sl2_generators`` return
them as label -> matrix, and the checks name a generator by its label.  The
prime is the matrices' modulus, and the rank their row count.  The algebra
map a matrix induces is ``galg.induced_action``'s, which keeps the validated
images of each row on the algebra context.
An invariant subspace is what a list of induced maps all fix
(``fixed_vectors``, which cuts the degree down map by map with
``ffla.preimage``).  No averaging is available (the group order is divisible
by the characteristic).  The invariants of the group are the vectors every
generator fixes, since a vector fixed by g is fixed by g^-1, so only the
generators are applied.
The small-prime closure oracle runs the same routine on every element of a
full breadth-first enumeration of the group, each through its own
``induced_action`` map: its independence from the generator-based answer
lies in which maps it applies, not in separate linear algebra.
Each job computes a subgroup's invariants once (``job_invariants``), and the
dimension-and-span claim of the degree-4 checks has one implementation
(``span_claim``).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Iterable, Sequence

from . import ffla
from .ffla import FieldMatrix, check_prime
from .galg import (
    AlgebraContext,
    AlgebraMap,
    Element,
    Monomial,
    elementary_abelian_context,
    induced_action,
    multiply,
    random_element,
)
from .milnor import job_rank3_context, key_class, milnor_q, rank2_formulas, two_classes
from .report import FAIL, NOTE, PASS, Check, Job, always, at_two, odd


def weyl_generators(prime: int) -> dict[str, FieldMatrix]:
    """The three unipotent generators of the acting subgroup (all primes),
    label -> matrix, in the order the checks draw them."""
    check_prime(prime)
    return {
        "shear_xy": FieldMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], prime),
        "shear_yx": FieldMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]], prime),
        "shear_zx": FieldMatrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]], prime),
    }


def sl2_generators(prime: int) -> dict[str, FieldMatrix]:
    """The two shears generating the rank-2 special linear group, label -> matrix."""
    check_prime(prime)
    return {
        "shear_xy": FieldMatrix([[1, 1], [0, 1]], prime),
        "shear_yx": FieldMatrix([[1, 0], [1, 1]], prime),
    }


def shape_member(m: FieldMatrix) -> bool:
    """Whether the rank-3 matrix has the acting subgroup's shape: last basis
    vector fixed up to lower terms (third column (0,0,1)), top-left 2x2 block
    of determinant 1, bottom row otherwise free."""
    if m[0, 2] != 0 or m[1, 2] != 0 or m[2, 2] != 1:
        return False
    return (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % m.modulus == 1


def shape_count(prime: int) -> int:
    """Independent count of the shape predicate: l^2 choices of bottom row
    times the brute-force count of 2x2 determinant-1 blocks."""
    sl2 = 0
    for a in range(prime):
        for b in range(prime):
            for c in range(prime):
                for d in range(prime):
                    if (a * d - b * c) % prime == 1:
                        sl2 += 1
    return prime * prime * sl2


def fixed_vectors(ctx: AlgebraContext, d: int, maps: Iterable[AlgebraMap]) -> list[Element]:
    """The rref basis, as ``Element``s, of the degree-d vectors every map fixes.

    Cuts the whole degree down map by map, in order, to the ``ffla.preimage``
    of zero under 1 - f* on the current basis.  A map with ``f(el) == el`` on
    every current element (both sides reduced) leaves the subspace as it is,
    and no coordinates or kernel are formed for it.  Once the subspace is zero
    no further map is drawn.  A map that moves a vector by a term outside
    degree d raises ``ValueError``.
    """
    basis = ctx.basis_of_degree(d)
    current = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]

    def as_elements(vectors):
        return [Element(ctx, {mono: c for mono, c in zip(basis, vec) if c})
                for vec in vectors]

    kept = as_elements(current)
    for f in maps:
        if not kept:
            break
        images = [f(el) for el in kept]
        if all(img == el for img, el in zip(images, kept)):
            continue
        moved = [_degree_coordinates(el - img, d, basis) for el, img in zip(kept, images)]
        current = ffla.row_space_basis(ffla.preimage(current, moved, ctx.prime), ctx.prime)
        kept = as_elements(current)
    return kept


def invariant_subspace(
    ctx: AlgebraContext, d: int, gens: Sequence[FieldMatrix]
) -> list[Element]:
    """Basis of the degree-d invariants under the group the matrices ``gens``
    generate.

    The vectors fixed by every generator (``fixed_vectors``), one induced
    map per generator; a vector fixed by g is fixed by g^-1, so these are
    the invariants of the whole group.  That needs every generator
    invertible: a singular one raises ``ValueError``.  The output is
    re-checked for invariance under every generator, with the maps already
    built for the cut.
    """
    maps = []
    for m in gens:
        if m.rank() != m.rows:
            raise ValueError(f"generator {m} is singular")
        maps.append(induced_action(m, ctx))
    out = fixed_vectors(ctx, d, maps)
    for el in out:
        for f in maps:
            if f(el) != el:
                raise AssertionError("computed invariant moved by a generator")
    return out


def element_span_contains(
    ctx: AlgebraContext, d: int, basis_elements: Sequence[Element], candidate: Element
) -> bool:
    """Whether ``candidate`` lies in the span of ``basis_elements``, all of
    them in degree d."""
    monos = ctx.basis_of_degree(d)
    vectors = [_degree_coordinates(el, d, monos) for el in basis_elements]
    return ffla.in_span(_degree_coordinates(candidate, d, monos), vectors, ctx.prime)


def _degree_coordinates(el: Element, d: int, basis: Sequence[Monomial]) -> tuple[int, ...]:
    """``el``'s coordinates on the degree-d ``basis``; a term of any other
    degree, which they would drop, raises ``ValueError``."""
    coords = el.coordinates(basis)
    if len(el.terms) != len(coords) - coords.count(0):
        raise ValueError(f"element has a term outside degree {d}")
    return coords


# ---------------------------------------------------------------------------
# checks


def job_weyl(job: Job) -> dict[str, FieldMatrix]:
    """The acting subgroup's labelled generators, built once per job."""
    return job.shared("weyl", lambda: weyl_generators(job.prime))


def job_invariants(job: Job, d: int, subgroup: str) -> list[Element]:
    """The degree-d invariants on the job's rank-3 context, computed once per
    job: ``"w"`` is the acting subgroup, ``"w0"`` its block-diagonal subgroup
    (the first two generators)."""
    gens = tuple(job_weyl(job).values())
    acting = {"w": gens, "w0": gens[:2]}[subgroup]
    ctx = job_rank3_context(job)
    return job.shared(("invariants", d, subgroup), lambda: invariant_subspace(ctx, d, acting))


def span_claim(
    job: Job, d: int, subgroup: str, classes: Sequence[tuple[str, Element]], passed: str
) -> tuple[str, str]:
    """``(PASS, passed)`` when the subgroup's degree-d invariants
    (``job_invariants``) have one dimension per ``(label, class)`` pair and
    contain every class; otherwise a fail naming the first gap."""
    ctx = job_rank3_context(job)
    inv = job_invariants(job, d, subgroup)
    if len(inv) != len(classes):
        return FAIL, f"dim = {len(inv)}, expected {len(classes)}: {[e.render() for e in inv]}"
    for label, el in classes:
        if not element_span_contains(ctx, d, inv, el):
            return FAIL, f"{label} not in computed span"
    return PASS, passed


def _h4_line(job: Job) -> tuple[str, str]:
    """Odd prime: the full subgroup's degree-4 invariants are the line spanned
    by Q0(x1 y1 z1)."""
    spanning = key_class(job_rank3_context(job))
    return span_claim(
        job, 4, "w", [("Q0(x1 y1 z1)", spanning)], f"dim 1, spanned by {spanning.render()}"
    )


def _xy_class_times_z1(ctx: AlgebraContext) -> Element:
    m = ctx.monomial_element
    return multiply(m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1}), m({"z1": 1}))


def _h4_block_diagonal(job: Job) -> tuple[str, str]:
    """Odd prime: the block-diagonal subgroup's degree-4 invariants have dimension 3."""
    ctx = job_rank3_context(job)
    m = ctx.monomial_element
    expected = [m({"z2": 2}), m({"x1": 1, "y1": 1, "z2": 1}), _xy_class_times_z1(ctx)]
    return span_claim(
        job, 4, "w0", [(el.render(), el) for el in expected],
        "dim 3: z2^2, x1*y1*z2, (x2*y1 - x1*y2)*z1",
    )


def _sign_note(job: Job) -> tuple[str, str]:
    # The displayed values of (1 - f*) on the three subgroup invariants are
    # internally inconsistent: one matches z -> x + z, two match z -> z - x.
    # Both conventions are computed and reported; a vector fixed by f is
    # fixed by f^-1, so the invariant result is convention-independent.
    ctx = job_rank3_context(job)
    shear_zx = job_weyl(job)["shear_zx"]
    f_plus = induced_action(shear_zx, ctx)
    f_minus = induced_action(shear_zx.inverse(), ctx)
    m = ctx.monomial_element
    targets = [
        ("z2^2", m({"z2": 2})),
        ("x1*y1*z2", m({"x1": 1, "y1": 1, "z2": 1})),
        ("(x2*y1 - x1*y2)*z1", _xy_class_times_z1(ctx)),
    ]
    lines = []
    for label, el in targets:
        lines.append(
            f"(1-f*)({label}): z->x+z gives {(el - f_plus(el)).render()}; "
            f"z->z-x gives {(el - f_minus(el)).render()}"
        )
    return NOTE, "; ".join(lines)


def _h4_two(job: Job) -> tuple[str, str]:
    """l = 2: dimension 2 for the full subgroup, with the displayed basis."""
    ctx = job_rank3_context(job)
    u2, _ = two_classes(ctx)
    targets = [("u2^2", multiply(u2, u2)), ("u3*z1 + u2*z1^2 + z1^4", key_class(ctx))]
    return span_claim(job, 4, "w", targets, "dim 2: u2^2 and u3*z1 + u2*z1^2 + z1^4")


def _h4_block_diagonal_two(job: Job) -> tuple[str, str]:
    """l = 2: dimension 4 for the block-diagonal subgroup."""
    ctx = job_rank3_context(job)
    m = ctx.monomial_element
    u2, u3 = two_classes(ctx)
    expected = [multiply(u2, u2), multiply(u3, m({"z1": 1})),
                multiply(u2, m({"z1": 2})), m({"z1": 4})]
    return span_claim(
        job, 4, "w0", [(el.render(), el) for el in expected], "dim 4: u2^2, u3*z1, u2*z1^2, z1^4"
    )


def _u2_invariant(job: Job) -> tuple[str, str]:
    ctx = job_rank3_context(job)
    u2, _ = two_classes(ctx)
    if element_span_contains(ctx, 2, job_invariants(job, 2, "w0"), u2):
        return PASS, "u2 = x1^2 + x1*y1 + y1^2 is invariant in degree 2"
    return FAIL, "u2 not invariant under the block-diagonal subgroup"


def _dickson_fixed(job: Job) -> tuple[str, str]:
    """Fixedness of the rank-2 modular invariants under both shear generators."""
    prime = job.prime
    if prime == 2:
        ctx = elementary_abelian_context(2, 2, 4)
        u2, u3 = two_classes(ctx)
        targets = [("u2", u2), ("u3", u3)]
    else:
        ctx = elementary_abelian_context(prime, 2, 2 * prime + 2)
        targets = [
            ("x1*y1", ctx.monomial_element({"x1": 1, "y1": 1})),
            *rank2_formulas(ctx).items(),
        ]
    for gen_label, gen in sl2_generators(prime).items():
        f = induced_action(gen, ctx)
        for label, el in targets:
            if f(el) != el:
                return FAIL, f"{label} moved by {gen_label}"
    names = ", ".join(label for label, _ in targets)
    return PASS, f"{names} fixed by both shear generators"


CLOSURE_CAP = 10**6


def group_closure(gens: Sequence[FieldMatrix]) -> list[FieldMatrix]:
    """Breadth-first closure of the group the square matrices ``gens``
    generate, all over one prime; it raises ``RuntimeError`` once it has
    found more than ``CLOSURE_CAP`` elements.

    Each round forms a * b for every generator a and every element b found
    in the round before, and keeps the new ones in order of discovery; the
    identity comes last unless a product reached it.  The search runs on
    row tuples: row i of a * b is the combination of b's rows picked out by
    the nonzero entries of row i of a.  A row of a that is a single 1 picks
    one row of b as it is; every other combination is kept in a table that
    lives for this call only.  The prime is the generators' modulus, and
    the identity's size their row count.  Each element becomes a
    ``FieldMatrix`` once, at the end.
    """
    p, n = gens[0].modulus, gens[0].rows
    combos: dict[tuple, tuple[int, ...]] = {}

    def combine(support: tuple[tuple[int, int], ...], b: tuple) -> tuple[int, ...]:
        picked = tuple([b[j] for j, _ in support])
        key = (support, picked)
        row = combos.get(key)
        if row is None:
            row = combos[key] = tuple(
                [sum(c * r[k] for (_, c), r in zip(support, picked)) % p for k in range(n)]
            )
        return row

    # per generator, per row: the function that forms that row of a * b from b
    plans = []
    for a in gens:
        plan = []
        for row in a.entries:
            support = tuple((j, c) for j, c in enumerate(row) if c)
            if len(support) == 1 and support[0][1] == 1:
                plan.append(itemgetter(support[0][0]))
            else:
                plan.append(partial(combine, support))
        plans.append(plan)
    seen = dict.fromkeys(a.entries for a in gens)
    frontier = list(seen)
    while frontier:
        new = []
        for plan in plans:
            for b in frontier:
                c = tuple([row_of(b) for row_of in plan])
                if c not in seen:
                    seen[c] = None
                    new.append(c)
                    if len(seen) > CLOSURE_CAP:
                        raise RuntimeError(f"closure exceeded cap {CLOSURE_CAP}")
        frontier = new
    seen.setdefault(FieldMatrix.identity(n, p).entries)
    return [FieldMatrix._trusted(entries, p) for entries in seen]


def group_closure_oracle(prime: int) -> list[FieldMatrix]:
    """The closure oracle's input: the full enumeration of the group the
    acting subgroup's generator matrices (``weyl_generators``) generate.

    The oracle's checks compare the enumeration's order against the
    shape-predicate count, and recompute the invariants from the full list.
    """
    return group_closure(tuple(weyl_generators(prime).values()))


def enumerable(prime: int, config) -> bool:
    """Whether the closure oracle runs at ``prime``: its group has
    l^2 (l^3 - l) elements, 3000 at l = 5 and 2.4 million at l = 11."""
    return prime <= 5


def _closure(job: Job) -> list[FieldMatrix]:
    return job.shared("closure", lambda: group_closure_oracle(job.prime))


def _closure_order(job: Job) -> tuple[str, str]:
    prime = job.prime
    elements = _closure(job)
    expected_order = prime * prime * (prime**3 - prime)
    if len(elements) == expected_order:
        return PASS, f"|W| = {len(elements)} = l^2 (l^3 - l)"
    return FAIL, f"|W| = {len(elements)}, expected {expected_order}"


def _closure_shape(job: Job) -> tuple[str, str]:
    elements = _closure(job)
    bad = [m for m in elements if not shape_member(m)]
    if bad:
        return FAIL, f"{len(bad)} enumerated elements violate the shape predicate"
    count = shape_count(job.prime)
    if count != len(elements):
        return FAIL, f"shape-predicate count {count} != closure order {len(elements)}"
    return PASS, f"all {len(elements)} elements match the shape predicate"


def _closure_subspace(job: Job) -> tuple[str, str]:
    """Recompute the degree-4 invariants from the full enumeration and
    compare them with the generator side, ``job_invariants(job, 4, "w")``,
    the answer ``invariants.w.h4_dimension`` checks too.  The oracle's
    independence lies in the enumerated side.

    The recomputation is ``fixed_vectors`` over every enumerated element g,
    in enumeration order, each applied through its own ``induced_action``
    map, never composed from others; the generator-based answer applies
    only the generators.  ``galg.induced_action`` builds a map from the
    images of its matrix's rows, each distinct row's pair validated once per
    context, when it is first met, and applying it (``AlgebraMap.__call__``)
    multiplies each monomial's factor images.
    """
    elements = _closure(job)
    ctx = job_rank3_context(job)
    basis = ctx.basis_of_degree(4)
    gen_vectors = [el.coordinates(basis) for el in job_invariants(job, 4, "w")]
    fixed = fixed_vectors(ctx, 4, (induced_action(m, ctx) for m in elements))
    enumerated = [el.coordinates(basis) for el in fixed]
    if ffla.spans_equal(gen_vectors, enumerated, job.prime):
        return PASS, (
            f"generator-based invariants equal the full-enumeration "
            f"invariants (dim {len(enumerated)})"
        )
    return FAIL, "generator-based and enumerated invariant subspaces differ"


def _q0_compat(job: Job) -> tuple[str, str]:
    rng = job.rng(31337)
    ctx = job_rank3_context(job)
    q0 = milnor_q(0, ctx)
    gens = list(job_weyl(job).items())
    for _ in range(10):
        label, action = rng.choice(gens)
        f = induced_action(action, ctx)
        el = random_element(ctx, rng, 6)
        if f(q0(el)) != q0(f(el)):
            return FAIL, f"action {label} does not commute with Q0"
    return PASS, "induced actions commute with Q0 on 10 seeded random elements"


CHECKS = (
    Check("invariants.w.h4_dimension", at_two, _h4_two),
    Check("invariants.w.h4_dimension", odd, _h4_line),
    Check("invariants.w0.h4_dimension", at_two, _h4_block_diagonal_two),
    Check("invariants.w0.h4_dimension", odd, _h4_block_diagonal),
    Check("invariants.w0.u2_invariant", at_two, _u2_invariant),
    Check("invariants.sign_convention_note", odd, _sign_note),
    Check("invariants.dickson.fixed", always, _dickson_fixed),
    Check("invariants.closure.order", enumerable, _closure_order),
    Check("invariants.closure.shape", enumerable, _closure_shape),
    Check("invariants.closure.subspace", enumerable, _closure_subspace),
    Check("invariants.action.q0_compat", always, _q0_compat),
)
