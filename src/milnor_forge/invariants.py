"""Matrix-group actions on the cohomology of elementary abelian groups.

Invariant subspaces are computed as the joint kernel of 1 - g* over the
generators *and their inverses*; no group enumeration is required and no
averaging is available (the group order is divisible by the characteristic).
The small-prime closure oracle cross-checks the generator-based computation
against a full breadth-first enumeration of the generated group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import ffla
from .ffla import FieldMatrix, check_prime
from .galg import AlgebraContext, AlgebraMap, Element, elementary_abelian_context, linear_substitution, multiply
from .milnor import milnor_q
from .report import FAIL, NOTE, PASS, CheckReport, run_check


@dataclass(frozen=True)
class ActionMatrix:
    """An invertible matrix acting on the degree-1 generators."""

    matrix: FieldMatrix
    label: str

    def __post_init__(self) -> None:
        n = self.matrix.rows
        if self.matrix.cols != n:
            raise ValueError("action matrix must be square")
        if self.matrix.rank() != n:
            raise ValueError(f"action matrix {self.label} is singular")

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def inverse(self) -> "ActionMatrix":
        return ActionMatrix(self.matrix.inverse(), f"{self.label}^-1")


@dataclass(frozen=True)
class WeylPresentation:
    """Generators of the acting subgroup, plus its closed-form membership test."""

    prime: int
    generators: tuple[ActionMatrix, ...]
    rank: int

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


def induced_action(action: ActionMatrix | FieldMatrix, ctx: AlgebraContext) -> AlgebraMap:
    """The algebra endomorphism induced by a matrix acting on degree-1 generators.

    Convention: with generator row (e_1 .. e_n), the map sends
    e_j -> sum_i M[j][i] e_i, and acts on Bockstein partners by the same
    matrix, so that it commutes with Q_0.
    """
    m = action.matrix if isinstance(action, ActionMatrix) else action
    degree_one = [g for g in ctx.generators if g.degree == 1]
    n = len(degree_one)
    if m.rows != n or m.cols != n:
        raise ValueError(f"matrix rank {m.rows} != {n} degree-1 generators")
    if m.modulus != ctx.prime:
        raise ValueError("modulus mismatch")

    units = ctx._unit_memo

    def combination(row: tuple[int, ...], names: list[str]) -> Element:
        # sum_i row[i] * names[i]: distinct generators, reduced coefficients
        terms = {}
        for c, name in zip(row, names):
            if c:
                unit = units.get(name)
                if unit is None:
                    # ``generator`` raises above the truncation; nothing is kept
                    unit = units[name] = ctx.generator(name).terms
                for mono in unit:
                    terms[mono] = c
        return Element._trusted(ctx, terms)

    targets = [g.name for g in degree_one]
    partners = [g.bockstein_partner for g in degree_one]
    images: dict[str, Element] = {}
    for gen, row in zip(degree_one, m.entries):
        images[gen.name] = combination(row, targets)
        partner = gen.bockstein_partner
        if partner is not None and partner != gen.name:
            images[partner] = combination(row, partners)
    return linear_substitution(ctx, images)


def invariant_subspace(
    ctx: AlgebraContext, d: int, w: WeylPresentation | Sequence[ActionMatrix]
) -> list[Element]:
    """Basis of the degree-d invariants under the generated group.

    Computed as the joint kernel of 1 - g* over all generators and their
    inverses; the output is re-checked for invariance under every generator.
    """
    gens = list(w.generators) if isinstance(w, WeylPresentation) else list(w)
    actions = gens + [g.inverse() for g in gens]
    basis = ctx.basis_of_degree(d)
    n = len(basis)
    if n == 0:
        return []
    p = ctx.prime
    stacked: list[tuple[int, ...]] = []
    for f in (induced_action(a, ctx) for a in actions):
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
    gen_maps = [induced_action(a, ctx) for a in gens]
    for el in out:
        for f in gen_maps:
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
# check suites


@lru_cache(maxsize=None)
def _rank3_context(prime: int) -> AlgebraContext:
    return elementary_abelian_context(prime, 3, 8)


def verify_degree4_invariants(prime: int) -> list[CheckReport]:
    """Degree-4 invariant dimensions for an odd prime: the full subgroup gives a
    line spanned by Q0(x1 y1 z1); the block-diagonal subgroup gives dimension 3."""
    check_prime(prime)
    if prime == 2:
        raise ValueError("use verify_degree4_invariants_two for the prime 2")
    ctx = _rank3_context(prime)
    w = weyl_generators(prime)
    m = ctx.monomial_element
    q0 = milnor_q(0, ctx)
    spanning = q0(m({"x1": 1, "y1": 1, "z1": 1}))

    def full() -> tuple[str, str]:
        inv = invariant_subspace(ctx, 4, w)
        if len(inv) != 1:
            return FAIL, f"dim = {len(inv)}, expected 1: {[e.render() for e in inv]}"
        if not element_span_contains(ctx, 4, inv, spanning):
            return FAIL, f"Q0(x1 y1 z1) not in computed span {inv[0].render()}"
        return PASS, f"dim 1, spanned by {spanning.render()}"

    def subgroup() -> tuple[str, str]:
        w0 = w.generators[:2]
        inv = invariant_subspace(ctx, 4, w0)
        expected = [
            m({"z2": 2}),
            m({"x1": 1, "y1": 1, "z2": 1}),
            multiply(m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1}), m({"z1": 1})),
        ]
        if len(inv) != 3:
            return FAIL, f"dim = {len(inv)}, expected 3"
        for el in expected:
            if not element_span_contains(ctx, 4, inv, el):
                return FAIL, f"{el.render()} not in computed span"
        return PASS, "dim 3: z2^2, x1*y1*z2, (x2*y1 - x1*y2)*z1"

    def sign_note() -> tuple[str, str]:
        # The displayed values of (1 - f*) on the three subgroup invariants are
        # internally inconsistent: one matches z -> x + z, two match z -> z - x.
        # Both conventions are computed and reported; the kernel intersection
        # includes inverses, so the invariant result is convention-independent.
        f_plus = induced_action(w.generators[2], ctx)
        f_minus = induced_action(w.generators[2].inverse(), ctx)
        targets = [
            ("z2^2", m({"z2": 2})),
            ("x1*y1*z2", m({"x1": 1, "y1": 1, "z2": 1})),
            (
                "(x2*y1 - x1*y2)*z1",
                multiply(m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1}), m({"z1": 1})),
            ),
        ]
        lines = []
        for label, el in targets:
            lines.append(
                f"(1-f*)({label}): z->x+z gives {(el - f_plus(el)).render()}; "
                f"z->z-x gives {(el - f_minus(el)).render()}"
            )
        return NOTE, "; ".join(lines)

    return [
        run_check("invariants.w.h4_dimension", prime, full),
        run_check("invariants.w0.h4_dimension", prime, subgroup),
        run_check("invariants.sign_convention_note", prime, sign_note),
    ]


def verify_degree4_invariants_two() -> list[CheckReport]:
    """The l = 2 degree-4 invariants: dimension 2 for the full subgroup with the
    displayed basis, dimension 4 for the block-diagonal subgroup."""
    ctx = _rank3_context(2)
    w = weyl_generators(2)
    m = ctx.monomial_element
    u2 = m({"x1": 2}) + m({"x1": 1, "y1": 1}) + m({"y1": 2})
    u3 = m({"x1": 1, "y1": 2}) + m({"x1": 2, "y1": 1})
    u2_sq = multiply(u2, u2)
    mixed = (
        multiply(u3, m({"z1": 1})) + multiply(u2, m({"z1": 2})) + m({"z1": 4})
    )

    def full() -> tuple[str, str]:
        inv = invariant_subspace(ctx, 4, w)
        if len(inv) != 2:
            return FAIL, f"dim = {len(inv)}, expected 2"
        for label, el in (("u2^2", u2_sq), ("u3*z1 + u2*z1^2 + z1^4", mixed)):
            if not element_span_contains(ctx, 4, inv, el):
                return FAIL, f"{label} not in computed span"
        return PASS, "dim 2: u2^2 and u3*z1 + u2*z1^2 + z1^4"

    def subgroup() -> tuple[str, str]:
        inv = invariant_subspace(ctx, 4, w.generators[:2])
        expected = [
            u2_sq,
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

    def u2_invariant() -> tuple[str, str]:
        inv2 = invariant_subspace(ctx, 2, w.generators[:2])
        if element_span_contains(ctx, 2, inv2, u2):
            return PASS, "u2 = x1^2 + x1*y1 + y1^2 is invariant in degree 2"
        return FAIL, "u2 not invariant under the block-diagonal subgroup"

    return [
        run_check("invariants.w.h4_dimension", 2, full),
        run_check("invariants.w0.h4_dimension", 2, subgroup),
        run_check("invariants.w0.u2_invariant", 2, u2_invariant),
    ]


def dickson_invariance(prime: int) -> list[CheckReport]:
    """Fixedness of the rank-2 modular invariants under both shear generators."""
    check_prime(prime)
    if prime == 2:
        ctx = elementary_abelian_context(2, 2, 4)
        m = ctx.monomial_element
        targets = [
            ("u2", m({"x1": 2}) + m({"x1": 1, "y1": 1}) + m({"y1": 2})),
            ("u3", m({"x1": 1, "y1": 2}) + m({"x1": 2, "y1": 1})),
        ]
    else:
        ctx = elementary_abelian_context(prime, 2, 2 * prime + 2)
        m = ctx.monomial_element
        targets = [
            ("x1*y1", m({"x1": 1, "y1": 1})),
            ("Q0(x1 y1)", m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1})),
            ("Q1(x1 y1)", m({"x2": prime, "y1": 1}) - m({"x1": 1, "y2": prime})),
            (
                "Q1 Q0(x1 y1)",
                m({"x2": 1, "y2": prime}) - m({"x2": prime, "y2": 1}),
            ),
        ]

    def body() -> tuple[str, str]:
        for gen in sl2_generators(prime):
            f = induced_action(gen, ctx)
            for label, el in targets:
                if f(el) != el:
                    return FAIL, f"{label} moved by {gen.label}"
        names = ", ".join(label for label, _ in targets)
        return PASS, f"{names} fixed by both shear generators"

    return [run_check("invariants.dickson.fixed", prime, body)]


def group_closure(w: WeylPresentation, cap: int = 10**6) -> list[FieldMatrix]:
    """Breadth-first closure of the generated matrix group."""
    gens = [a.matrix for a in w.generators]
    seen = {m.entries: m for m in gens}
    frontier = list(gens)
    while frontier:
        new: list[FieldMatrix] = []
        for a in gens:
            for b in frontier:
                c = a * b
                if c.entries not in seen:
                    seen[c.entries] = c
                    new.append(c)
                    if len(seen) > cap:
                        raise RuntimeError(f"closure exceeded cap {cap}")
        frontier = new
    ident = FieldMatrix.identity(w.rank, w.prime)
    seen.setdefault(ident.entries, ident)
    return list(seen.values())


def group_closure_oracle(prime: int) -> list[CheckReport]:
    """Small-prime cross-check: enumerate the group, compare order against the
    shape-predicate count, and recompute the invariants from the full list.

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
    check_prime(prime)
    if prime > 5:
        raise ValueError("closure oracle restricted to l <= 5")
    w = weyl_generators(prime)
    elements = group_closure(w)
    expected_order = prime * prime * (prime**3 - prime)

    def order() -> tuple[str, str]:
        if len(elements) == expected_order:
            return PASS, f"|W| = {len(elements)} = l^2 (l^3 - l)"
        return FAIL, f"|W| = {len(elements)}, expected {expected_order}"

    def shape() -> tuple[str, str]:
        bad = [m for m in elements if not w.shape_member(m)]
        if bad:
            return FAIL, f"{len(bad)} enumerated elements violate the shape predicate"
        count = w.shape_count()
        if count != len(elements):
            return FAIL, f"shape-predicate count {count} != closure order {len(elements)}"
        return PASS, f"all {len(elements)} elements match the shape predicate"

    def subspace() -> tuple[str, str]:
        ctx = _rank3_context(prime)
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

    return [
        run_check("invariants.closure.order", prime, order),
        run_check("invariants.closure.shape", prime, shape),
        run_check("invariants.closure.subspace", prime, subspace),
    ]
