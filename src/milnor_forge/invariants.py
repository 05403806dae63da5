"""Matrix-group actions on the cohomology of elementary abelian groups.

Invariant subspaces are computed as the joint kernel of 1 - g* over the
generators *and their inverses*; no group enumeration is required and no
averaging is available (the group order is divisible by the characteristic).
The small-prime closure oracle cross-checks the generator-based computation
against a full breadth-first enumeration of the generated group.
"""

from __future__ import annotations

from typing import Sequence

from . import ffla
from .ffla import FieldMatrix, check_prime
from .galg import (
    AlgebraContext,
    AlgebraMap,
    Element,
    Monomial,
    elementary_abelian_context,
    linear_substitution,
    multiply,
    random_element,
)
from .milnor import key_class, milnor_q, rank2_formulas, rank3_context, two_classes
from .report import FAIL, NOTE, PASS, Check, Job, always, at_two, odd


class ActionMatrix:
    """An invertible matrix acting on the degree-1 generators."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix: FieldMatrix, label: str):
        n = matrix.rows
        if matrix.cols != n:
            raise ValueError("action matrix must be square")
        if matrix.rank() != n:
            raise ValueError(f"action matrix {label} is singular")
        self.matrix = matrix
        self.label = label

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def inverse(self) -> "ActionMatrix":
        return ActionMatrix(self.matrix.inverse(), f"{self.label}^-1")


class WeylPresentation:
    """Generators of the acting subgroup, plus its closed-form membership test."""

    __slots__ = ("prime", "generators", "rank")

    def __init__(self, prime: int, generators: tuple[ActionMatrix, ...], rank: int):
        self.prime = prime
        self.generators = generators
        self.rank = rank

    def shape_member(self, m: FieldMatrix) -> bool:
        """Last basis vector fixed up to lower terms: third column (0,0,1),
        top-left 2x2 block of determinant 1, bottom row otherwise free."""
        if self.rank != 3:
            raise ValueError("shape predicate defined for rank 3")
        p = self.prime
        if m[0, 2] != 0 or m[1, 2] != 0 or m[2, 2] != 1:
            return False
        det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % p
        return det == 1

    def shape_count(self) -> int:
        """Independent count of the shape predicate: l^2 choices of bottom row
        times the brute-force count of 2x2 determinant-1 blocks."""
        p = self.prime
        sl2 = 0
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        if (a * d - b * c) % p == 1:
                            sl2 += 1
        return p * p * sl2


def weyl_generators(prime: int) -> WeylPresentation:
    """The three unipotent generators of the acting subgroup (all primes)."""
    check_prime(prime)
    mats = (
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "shear_xy"),
        ([[1, 0, 0], [1, 1, 0], [0, 0, 1]], "shear_yx"),
        ([[1, 0, 0], [0, 1, 0], [1, 0, 1]], "shear_zx"),
    )
    gens = tuple(ActionMatrix(FieldMatrix(rows, prime), label) for rows, label in mats)
    return WeylPresentation(prime, gens, 3)


def sl2_generators(prime: int) -> tuple[ActionMatrix, ActionMatrix]:
    """The two shears generating the rank-2 special linear group."""
    check_prime(prime)
    return (
        ActionMatrix(FieldMatrix([[1, 1], [0, 1]], prime), "shear_xy"),
        ActionMatrix(FieldMatrix([[1, 0], [1, 1]], prime), "shear_yx"),
    )


def _action_layout(ctx: AlgebraContext):
    """``(names, partners, units, partner_units)`` over the degree-1
    generators in order: each one's name, its Bockstein partner's name (None
    when it has none or is its own partner, as at l = 2), and the unit
    monomials of both.  ``generator`` raises for a generator above the
    truncation, so this does too."""
    degree_one = [g for g in ctx.generators if g.degree == 1]
    names = tuple(g.name for g in degree_one)
    partners = tuple(
        g.bockstein_partner if g.bockstein_partner != g.name else None
        for g in degree_one
    )
    if None in partners and any(partners):
        raise ValueError("only some degree-1 generators have a Bockstein partner")
    units = tuple(_unit_monomial(ctx, name) for name in names)
    partner_units = tuple(
        _unit_monomial(ctx, name) for name in partners if name is not None
    )
    return names, partners, units, partner_units


def _unit_monomial(ctx: AlgebraContext, name: str) -> Monomial:
    [mono] = ctx.generator(name).terms
    return mono


def induced_action(action: ActionMatrix | FieldMatrix, ctx: AlgebraContext) -> AlgebraMap:
    """The algebra endomorphism induced by a matrix acting on degree-1 generators.

    Convention: with generator row (e_1 .. e_n), the map sends
    e_j -> sum_i M[j][i] e_i, and acts on Bockstein partners by the same
    matrix, so that it commutes with Q_0.  The unit monomials come from the
    context's ``_action_layout``, built on the first call that gets past the
    rank and modulus checks and kept only once it is complete.
    """
    m = action.matrix if isinstance(action, ActionMatrix) else action
    layout = ctx._action_layout
    if layout is None:
        n = sum(1 for g in ctx.generators if g.degree == 1)
    else:
        n = len(layout[0])
    if m.rows != n or m.cols != n:
        raise ValueError(f"matrix rank {m.rows} != {n} degree-1 generators")
    if m.modulus != ctx.prime:
        raise ValueError("modulus mismatch")
    if layout is None:
        layout = ctx._action_layout = _action_layout(ctx)
    names, partners, units, partner_units = layout

    # sum_i row[i] * e_i over distinct generators, with reduced coefficients
    images: dict[str, Element] = {}
    for name, partner, row in zip(names, partners, m.entries):
        images[name] = Element._trusted(ctx, {u: c for u, c in zip(units, row) if c})
        if partner is not None:
            images[partner] = Element._trusted(
                ctx, {u: c for u, c in zip(partner_units, row) if c}
            )
    return linear_substitution(ctx, images)


def invariant_subspace(
    ctx: AlgebraContext, d: int, w: WeylPresentation | Sequence[ActionMatrix]
) -> list[Element]:
    """Basis of the degree-d invariants under the generated group.

    Computed as the joint kernel of 1 - g* over all generators and their
    inverses; the output is re-checked for invariance under every generator,
    with the generators' maps already built for the kernel.
    """
    gens = list(w.generators) if isinstance(w, WeylPresentation) else list(w)
    actions = gens + [g.inverse() for g in gens]
    basis = ctx.basis_of_degree(d)
    n = len(basis)
    if n == 0:
        return []
    p = ctx.prime
    maps = [induced_action(a, ctx) for a in actions]
    stacked: list[tuple[int, ...]] = []
    for f in maps:
        # columns of each block are indexed by the basis monomials, so the
        # stacked system acts on monomial-coefficient vectors
        block = []
        for mono in basis:
            one = Element(ctx, {mono: 1})
            block.append((one - f(one)).coordinates(basis))
        stacked.extend(zip(*block))
    if stacked:
        kernel = ffla.nullspace(FieldMatrix(stacked, p))
    else:
        # trivial group: everything is invariant
        kernel = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    out = []
    for vec in kernel:
        el = Element(ctx, {mono: c for mono, c in zip(basis, vec) if c})
        out.append(el)
    for el in out:
        for f in maps[: len(gens)]:
            if f(el) != el:
                raise AssertionError("computed invariant moved by a generator")
    return out


def element_span_contains(
    ctx: AlgebraContext, d: int, basis_elements: Sequence[Element], candidate: Element
) -> bool:
    monos = ctx.basis_of_degree(d)
    vectors = [el.coordinates(monos) for el in basis_elements]
    return ffla.in_span(candidate.coordinates(monos), vectors, ctx.prime)


# ---------------------------------------------------------------------------
# checks


def _rank3_context(job: Job) -> AlgebraContext:
    return job.shared("rank3_context", lambda: rank3_context(job.prime))


def _weyl(job: Job) -> WeylPresentation:
    """The acting subgroup's generators, shared by the degree-4 checks."""
    return job.shared("weyl", lambda: weyl_generators(job.prime))


def _h4_line(job: Job) -> tuple[str, str]:
    """Odd prime: the full subgroup's degree-4 invariants are the line spanned
    by Q0(x1 y1 z1)."""
    ctx = _rank3_context(job)
    spanning = key_class(ctx)
    inv = invariant_subspace(ctx, 4, _weyl(job))
    if len(inv) != 1:
        return FAIL, f"dim = {len(inv)}, expected 1: {[e.render() for e in inv]}"
    if not element_span_contains(ctx, 4, inv, spanning):
        return FAIL, f"Q0(x1 y1 z1) not in computed span {inv[0].render()}"
    return PASS, f"dim 1, spanned by {spanning.render()}"


def _xy_class_times_z1(ctx: AlgebraContext) -> Element:
    m = ctx.monomial_element
    return multiply(m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1}), m({"z1": 1}))


def _h4_block_diagonal(job: Job) -> tuple[str, str]:
    """Odd prime: the block-diagonal subgroup's degree-4 invariants have dimension 3."""
    ctx = _rank3_context(job)
    m = ctx.monomial_element
    inv = invariant_subspace(ctx, 4, _weyl(job).generators[:2])
    expected = [m({"z2": 2}), m({"x1": 1, "y1": 1, "z2": 1}), _xy_class_times_z1(ctx)]
    if len(inv) != 3:
        return FAIL, f"dim = {len(inv)}, expected 3"
    for el in expected:
        if not element_span_contains(ctx, 4, inv, el):
            return FAIL, f"{el.render()} not in computed span"
    return PASS, "dim 3: z2^2, x1*y1*z2, (x2*y1 - x1*y2)*z1"


def _sign_note(job: Job) -> tuple[str, str]:
    # The displayed values of (1 - f*) on the three subgroup invariants are
    # internally inconsistent: one matches z -> x + z, two match z -> z - x.
    # Both conventions are computed and reported; the kernel intersection
    # includes inverses, so the invariant result is convention-independent.
    ctx = _rank3_context(job)
    shear_zx = _weyl(job).generators[2]
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
    ctx = _rank3_context(job)
    u2, _ = two_classes(ctx)
    inv = invariant_subspace(ctx, 4, _weyl(job))
    if len(inv) != 2:
        return FAIL, f"dim = {len(inv)}, expected 2"
    targets = (("u2^2", multiply(u2, u2)), ("u3*z1 + u2*z1^2 + z1^4", key_class(ctx)))
    for label, el in targets:
        if not element_span_contains(ctx, 4, inv, el):
            return FAIL, f"{label} not in computed span"
    return PASS, "dim 2: u2^2 and u3*z1 + u2*z1^2 + z1^4"


def _h4_block_diagonal_two(job: Job) -> tuple[str, str]:
    """l = 2: dimension 4 for the block-diagonal subgroup."""
    ctx = _rank3_context(job)
    m = ctx.monomial_element
    u2, u3 = two_classes(ctx)
    inv = invariant_subspace(ctx, 4, _weyl(job).generators[:2])
    expected = [
        multiply(u2, u2),
        multiply(u3, m({"z1": 1})),
        multiply(u2, m({"z1": 2})),
        m({"z1": 4}),
    ]
    if len(inv) != 4:
        return FAIL, f"dim = {len(inv)}, expected 4"
    for el in expected:
        if not element_span_contains(ctx, 4, inv, el):
            return FAIL, f"{el.render()} not in computed span"
    return PASS, "dim 4: u2^2, u3*z1, u2*z1^2, z1^4"


def _u2_invariant(job: Job) -> tuple[str, str]:
    ctx = _rank3_context(job)
    u2, _ = two_classes(ctx)
    inv2 = invariant_subspace(ctx, 2, _weyl(job).generators[:2])
    if element_span_contains(ctx, 2, inv2, u2):
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
    for gen in sl2_generators(prime):
        f = induced_action(gen, ctx)
        for label, el in targets:
            if f(el) != el:
                return FAIL, f"{label} moved by {gen.label}"
    names = ", ".join(label for label, _ in targets)
    return PASS, f"{names} fixed by both shear generators"


def group_closure(w: WeylPresentation, cap: int = 10**6) -> list[FieldMatrix]:
    """Breadth-first closure of the generated matrix group.

    Each round forms a * b for every generator a and every element b found
    in the round before, and keeps the new ones in order of discovery; the
    identity comes last unless a product reached it.  The search runs on
    row tuples: row i of a * b is the combination of b's rows picked out by
    the nonzero entries of row i of a.  A row of a that is a single 1 picks
    one row of b as it is; every other combination is kept in a table that
    lives for this call only.  Each element becomes a ``FieldMatrix`` once,
    at the end.
    """
    p = w.prime
    gens = [a.matrix.entries for a in w.generators]
    # per generator, per row: the index of the one row it picks, or the
    # (index, coefficient) pairs of its nonzero entries
    plans = []
    for a in gens:
        plan = []
        for row in a:
            support = tuple((j, c) for j, c in enumerate(row) if c)
            if len(support) == 1 and support[0][1] == 1:
                plan.append(support[0][0])
            else:
                plan.append(support)
        plans.append(plan)
    n = len(gens[0][0])
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

    seen = dict.fromkeys(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for plan in plans:
            for b in frontier:
                c = tuple([b[x] if isinstance(x, int) else combine(x, b) for x in plan])
                if c not in seen:
                    seen[c] = None
                    new.append(c)
                    if len(seen) > cap:
                        raise RuntimeError(f"closure exceeded cap {cap}")
        frontier = new
    seen.setdefault(FieldMatrix.identity(w.rank, p).entries)
    return [FieldMatrix._trusted(entries, p) for entries in seen]


def group_closure_oracle(prime: int) -> tuple[WeylPresentation, list[FieldMatrix]]:
    """The closure oracle's input: the acting subgroup's generators and the
    full enumeration of the group they generate.

    The oracle's checks compare the enumeration's order against the
    shape-predicate count, and recompute the invariants from the full list.
    """
    w = weyl_generators(prime)
    return w, group_closure(w)


def _enumerable(prime: int, config) -> bool:
    # the group has l^2 (l^3 - l) elements: 3000 at l = 5, 2.4 million at l = 11
    return prime <= 5


def _closure(job: Job) -> tuple[WeylPresentation, list[FieldMatrix]]:
    return job.shared("closure", lambda: group_closure_oracle(job.prime))


def _closure_order(job: Job) -> tuple[str, str]:
    prime = job.prime
    _, elements = _closure(job)
    expected_order = prime * prime * (prime**3 - prime)
    if len(elements) == expected_order:
        return PASS, f"|W| = {len(elements)} = l^2 (l^3 - l)"
    return FAIL, f"|W| = {len(elements)}, expected {expected_order}"


def _closure_shape(job: Job) -> tuple[str, str]:
    w, elements = _closure(job)
    bad = [m for m in elements if not w.shape_member(m)]
    if bad:
        return FAIL, f"{len(bad)} enumerated elements violate the shape predicate"
    count = w.shape_count()
    if count != len(elements):
        return FAIL, f"shape-predicate count {count} != closure order {len(elements)}"
    return PASS, f"all {len(elements)} elements match the shape predicate"


def _closure_subspace(job: Job) -> tuple[str, str]:
    """Recompute the degree-4 invariants from the full enumeration.

    The recomputation intersects the degree-4 space with the kernel of
    1 - g* for every enumerated element g in turn, in enumeration order; each
    g is applied through its own validated ``induced_action``, never composed
    from others.  The ``Element``s of the current subspace's basis are kept
    and rebuilt only when the subspace changes.  An element g fixes them all
    when ``f(el) == el`` for each (both sides are reduced, so this is
    ``el - f(el)`` being zero); g then leaves the subspace unchanged, and the
    coordinate rows, kernel and row reduction are formed only for an element
    that moves a vector.
    """
    prime = job.prime
    w, elements = _closure(job)
    ctx = _rank3_context(job)
    from_generators = invariant_subspace(ctx, 4, w)
    basis = ctx.basis_of_degree(4)
    current = list(FieldMatrix.identity(len(basis), prime).entries)

    def as_elements(vectors):
        return [Element(ctx, {mono: c for mono, c in zip(basis, vec) if c})
                for vec in vectors]

    kept = as_elements(current)
    for mat in elements:
        f = induced_action(mat, ctx)
        images = [f(el) for el in kept]
        if all(img == el for img, el in zip(images, kept)):
            # every current vector is fixed by this element: the kernel is
            # the whole coefficient space, so ``current`` stays as it is
            continue
        rows = [(el - img).coordinates(basis) for el, img in zip(kept, images)]
        coeff_kernel = ffla.nullspace(FieldMatrix(list(zip(*rows)), prime))
        p = prime
        current = ffla.row_space_basis(
            [
                tuple(
                    sum(k * v for k, v in zip(kvec, col)) % p
                    for col in zip(*current)
                )
                for kvec in coeff_kernel
            ],
            p,
        )
        if not current:
            break
        kept = as_elements(current)
    gen_vectors = [el.coordinates(basis) for el in from_generators]
    if ffla.spans_equal(gen_vectors, current, prime):
        return PASS, (
            f"generator-based invariants equal the full-enumeration "
            f"invariants (dim {len(current)})"
        )
    return FAIL, "generator-based and enumerated invariant subspaces differ"


def _q0_compat(job: Job) -> tuple[str, str]:
    rng = job.rng(31337)
    ctx = _rank3_context(job)
    q0 = milnor_q(0, ctx)
    gens = weyl_generators(job.prime).generators
    for _ in range(10):
        action = rng.choice(gens)
        f = induced_action(action, ctx)
        el = random_element(ctx, rng, 6)
        if f(q0(el)) != q0(f(el)):
            return FAIL, f"action {action.label} does not commute with Q0"
    return PASS, "induced actions commute with Q0 on 10 seeded random elements"


CHECKS = (
    Check("invariants.w.h4_dimension", at_two, _h4_two),
    Check("invariants.w.h4_dimension", odd, _h4_line),
    Check("invariants.w0.h4_dimension", at_two, _h4_block_diagonal_two),
    Check("invariants.w0.h4_dimension", odd, _h4_block_diagonal),
    Check("invariants.w0.u2_invariant", at_two, _u2_invariant),
    Check("invariants.sign_convention_note", odd, _sign_note),
    Check("invariants.dickson.fixed", always, _dickson_fixed),
    Check("invariants.closure.order", _enumerable, _closure_order),
    Check("invariants.closure.shape", _enumerable, _closure_shape),
    Check("invariants.closure.subspace", _enumerable, _closure_subspace),
    Check("invariants.action.q0_compat", always, _q0_compat),
)
