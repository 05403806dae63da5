import random

import pytest
from hypothesis import given, strategies as st

from milnor_forge import galg, invariants
from milnor_forge.cli import RunConfig
from milnor_forge.ffla import FieldMatrix, nullspace, row_space_basis, spans_equal
from milnor_forge.galg import (
    AlgebraContext,
    AlgebraMap,
    Element,
    GeneratorSpec,
    TruncationOverflowError,
    elementary_abelian_context,
    linear_substitution,
    multiply,
    random_element,
)
from milnor_forge.invariants import (
    element_span_contains,
    group_closure,
    induced_action,
    invariant_subspace,
    shape_count,
    shape_member,
    sl2_generators,
    weyl_generators,
)
from milnor_forge.milnor import job_rank3_context, key_class, milnor_q, rank3_context
from milnor_forge.report import FAIL, PASS, Job


def assert_all_pass(reports):
    bad = [r for r in reports if r.status == FAIL]
    assert not bad, "\n".join(f"{r.check_id}: {r.details}" for r in bad)


def weyl(prime):
    """The acting subgroup's generator matrices, in order."""
    return list(weyl_generators(prime).values())


class TestWeylGenerators:
    def test_displayed_matrices(self):
        w = weyl_generators(3)
        assert list(w) == ["shear_xy", "shear_yx", "shear_zx"]
        mats = [m.entries for m in w.values()]
        assert mats == [
            ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (1, 0, 1)),
        ]

    def test_same_matrices_at_two(self):
        for a, b in zip(weyl(2), weyl(3)):
            assert a.entries == b.entries

    def test_generators_invertible(self):
        for p in (2, 3, 5):
            for g in weyl(p):
                assert g.rank() == 3

    def test_singular_generator_rejected(self):
        # a vector fixed by a singular g need not be fixed by the group
        ctx = elementary_abelian_context(3, 3, 8)
        singular = FieldMatrix([[1, 1, 0], [2, 2, 0], [0, 0, 1]], 3)
        for gens in ([singular], [*weyl(3), singular]):
            with pytest.raises(ValueError, match="singular"):
                invariant_subspace(ctx, 4, gens)


class TestInducedAction:
    def test_identity_action(self):
        ctx = elementary_abelian_context(3, 3, 8)
        f = induced_action(FieldMatrix.identity(3, 3), ctx)
        el = ctx.monomial_element({"x1": 1, "z2": 1})
        assert f(el) == el

    def test_shear_moves_z_only(self):
        ctx = elementary_abelian_context(3, 3, 8)
        f = induced_action(weyl_generators(3)["shear_zx"], ctx)
        assert f(ctx.generator("z1")) == ctx.generator("x1") + ctx.generator("z1")
        assert f(ctx.generator("z2")) == ctx.generator("x2") + ctx.generator("z2")
        assert f(ctx.generator("x1")) == ctx.generator("x1")
        assert f(ctx.generator("y1")) == ctx.generator("y1")

    def test_action_then_inverse_is_identity(self):
        ctx = elementary_abelian_context(5, 3, 8)
        g = weyl_generators(5)["shear_xy"]
        f, finv = induced_action(g, ctx), induced_action(g.inverse(), ctx)
        el = ctx.monomial_element({"x1": 1, "y2": 1, "z1": 1}) + ctx.monomial_element(
            {"y2": 2}
        )
        assert finv(f(el)) == el

    def test_rank_mismatch(self):
        ctx = elementary_abelian_context(3, 2, 6)
        with pytest.raises(ValueError):
            induced_action(FieldMatrix.identity(3, 3), ctx)

    def test_shape_mismatch_names_both_shapes(self):
        ctx = rank3_context(5)
        with pytest.raises(ValueError) as raised:
            induced_action(FieldMatrix([[1, 0], [0, 1], [0, 0]], 5), ctx)
        assert raised.value.args == ("matrix is 3 x 2, not 3 x 3 for 3 degree-1 generators",)

    def test_partner_above_truncation_raises_on_every_call(self):
        # the degree-2 partners lie above truncation 1; no failure is kept, so
        # a call after all three partners have failed once still raises
        ctx = elementary_abelian_context(5, 3, 1)
        for _ in range(4):
            with pytest.raises(TruncationOverflowError):
                induced_action(FieldMatrix.identity(3, 5), ctx)

    def test_partners_on_some_generators_only_are_rejected(self):
        gens = [
            GeneratorSpec("x1", 1, bockstein_partner="x2"),
            GeneratorSpec("x2", 2),
            GeneratorSpec("y1", 1),
        ]
        ctx = AlgebraContext(3, gens, 4)
        for _ in range(2):
            with pytest.raises(ValueError, match="Bockstein partner"):
                induced_action(FieldMatrix.identity(2, 3), ctx)

    def test_contexts_at_one_prime_keep_separate_unit_memos(self):
        wide = elementary_abelian_context(5, 3, 8)
        narrow = elementary_abelian_context(5, 3, 1)
        plane = elementary_abelian_context(5, 2, 4)
        induced_action(FieldMatrix.identity(3, 5), wide)
        with pytest.raises(TruncationOverflowError):
            induced_action(FieldMatrix.identity(3, 5), narrow)
        # the rank-2 context puts y2 at another position than the rank-3 one
        f = induced_action(sl2_generators(5)["shear_xy"], plane)
        assert f(plane.generator("x2")) == plane.generator("x2") + plane.generator("y2")
        g = induced_action(weyl_generators(5)["shear_xy"], wide)
        assert g(wide.generator("x2")) == wide.generator("x2") + wide.generator("y2")

    def test_each_distinct_row_is_validated_once(self, monkeypatch):
        # over the 216 enumerated matrices at l = 3, the image rule runs on
        # each distinct row's image and partner image once, when the row is
        # first met, and on nothing else
        ctx = elementary_abelian_context(3, 3, 8)
        checked = []
        real = galg.check_image
        monkeypatch.setattr(
            galg, "check_image",
            lambda ctx, name, img: checked.append(img) or real(ctx, name, img),
        )
        elements = group_closure(weyl(3))
        for m in elements:
            induced_action(m, ctx)
        rows = {row for m in elements for row in m.entries}
        assert len(elements) == 216
        assert len(checked) == 2 * len(rows) == 2 * len(ctx._row_images)
        kept = [img for pair in ctx._row_images.values() for img in pair]
        assert {id(img) for img in checked} == {id(img) for img in kept}

    def test_a_pair_that_fails_the_rule_is_never_kept(self):
        # partner images built from the degree-1 units instead of the
        # partners' own: every call raises for the first partner image, and
        # no row's pair is kept
        ctx = elementary_abelian_context(3, 3, 8)
        ctx._partner_units = ctx._degree_one_units
        for m in [FieldMatrix.identity(3, 3), *group_closure(weyl(3))[:3]]:
            with pytest.raises(ValueError) as raised:
                induced_action(m, ctx)
            assert raised.value.args == ("image of x2 must be homogeneous of degree 2",)
            assert ctx._row_images == {}


class TestInvariantDimensions:
    @pytest.mark.parametrize("prime", (3, 5, 7, 11))
    def test_full_subgroup_line(self, prime):
        ctx = elementary_abelian_context(prime, 3, 7)
        inv = invariant_subspace(ctx, 4, weyl(prime))
        assert len(inv) == 1
        q0 = milnor_q(0, ctx)
        spanning = q0(ctx.monomial_element({"x1": 1, "y1": 1, "z1": 1}))
        assert element_span_contains(ctx, 4, inv, spanning)

    @pytest.mark.parametrize("prime", (3, 5))
    def test_subgroup_dimension_three(self, prime):
        ctx = elementary_abelian_context(prime, 3, 7)
        inv = invariant_subspace(ctx, 4, weyl(prime)[:2])
        assert len(inv) == 3

    def test_two_dimensions(self):
        ctx = elementary_abelian_context(2, 3, 7)
        assert len(invariant_subspace(ctx, 4, weyl(2))) == 2
        assert len(invariant_subspace(ctx, 4, weyl(2)[:2])) == 4

    def test_trivial_group_whole_space(self):
        ctx = elementary_abelian_context(3, 3, 7)
        inv = invariant_subspace(ctx, 4, [])
        assert len(inv) == 15

    def test_span_test_rejects_terms_outside_its_degree(self):
        # degree-4 coordinates alone would put K + x1 in the span of K
        ctx = rank3_context(3)
        key, x1 = key_class(ctx), ctx.generator("x1")
        assert element_span_contains(ctx, 4, [key], key.scale(2))
        for basis, candidate in (([key], key + x1), ([key + x1], key)):
            with pytest.raises(ValueError, match="outside degree 4"):
                element_span_contains(ctx, 4, basis, candidate)

    def test_fixed_vectors_rejects_a_map_that_moves_a_vector_out_of_its_degree(self):
        # x2 -> x2 + x2 y2 moves the key class by terms of degree 6; degree-4
        # coordinates alone would call every degree-4 vector fixed
        ctx = rank3_context(3)
        x2 = ctx.generator("x2")
        f = AlgebraMap(ctx, {"x2": x2 + multiply(x2, ctx.generator("y2"))})
        assert f(key_class(ctx)) != key_class(ctx)
        with pytest.raises(ValueError, match="outside degree 4"):
            invariants.fixed_vectors(ctx, 4, [f])
        # a map that fixes every vector forms no coordinates
        assert len(invariants.fixed_vectors(ctx, 4, [AlgebraMap(ctx, {})])) == 15

    def test_one_induced_map_per_generator(self, monkeypatch):
        # no inverse is applied, and the closing invariance re-check reuses
        # the generators' maps
        calls = []
        real = invariants.induced_action

        def counted(m, ctx):
            calls.append(m)
            return real(m, ctx)

        monkeypatch.setattr(invariants, "induced_action", counted)
        ctx = elementary_abelian_context(5, 3, 8)
        assert len(invariant_subspace(ctx, 4, weyl(5))) == 1
        assert len(calls) == 3

    @pytest.mark.parametrize("subgroup", ("w", "w0"))
    @pytest.mark.parametrize("d", (2, 3, 4))
    @pytest.mark.parametrize("prime", (2, 3, 5, 7))
    def test_generators_alone_give_the_inverse_closed_answer(self, prime, d, subgroup):
        # reference: the vectors fixed by every generator and every inverse
        ctx = elementary_abelian_context(prime, 3, 4)
        gens = weyl(prime)
        gens = {"w": gens, "w0": gens[:2]}[subgroup]
        both = [induced_action(a, ctx) for a in (*gens, *(g.inverse() for g in gens))]
        assert invariant_subspace(ctx, d, gens) == invariants.fixed_vectors(ctx, d, both)

    @pytest.mark.parametrize("prime", (2, 3, 5))
    def test_inverse_generators_same_subspace(self, prime):
        ctx = elementary_abelian_context(prime, 3, 7)
        gens = weyl(prime)
        inverted = [g.inverse() for g in gens]
        a = invariant_subspace(ctx, 4, gens)
        b = invariant_subspace(ctx, 4, inverted)
        monos = ctx.basis_of_degree(4)
        assert spans_equal(
            [el.coordinates(monos) for el in a],
            [el.coordinates(monos) for el in b],
            prime,
        )

    @pytest.mark.parametrize("prime", (3, 5))
    def test_q1_nonzero_on_invariant_generator(self, prime):
        ctx = elementary_abelian_context(prime, 3, 2 * prime + 6)
        q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
        value = q1(q0(ctx.monomial_element({"x1": 1, "y1": 1, "z1": 1})))
        assert not value.is_zero()
        assert value.homogeneous_degree() == 2 * prime + 3


class TestSuites:
    @pytest.mark.parametrize("suite,prime,calls", [
        ("invariants", 2, 3), ("invariants", 3, 2), ("invariants", 5, 2), ("invariants", 7, 2),
        ("ss", 2, 1), ("ss", 3, 1),
    ])
    def test_each_subgroup_invariants_computed_once_per_job(
        self, monkeypatch, job_records, suite, prime, calls
    ):
        # one call per (degree, subgroup) a job reads: the full group's
        # degree-4 line is shared by the dimension check and the oracle
        seen = []
        real = invariants.invariant_subspace

        def counted(ctx, d, gens):
            seen.append(d)
            return real(ctx, d, gens)

        monkeypatch.setattr(invariants, "invariant_subspace", counted)
        assert_all_pass(job_records(suite, prime, f"{suite}."))
        assert len(seen) == calls

    @pytest.mark.parametrize("prime", (3, 5, 7, 11))
    def test_degree4_suite(self, prime, job_records):
        reports = job_records("invariants", prime, ("invariants.w.", "invariants.w0.", "invariants.sign_convention_note"))
        assert_all_pass(reports)
        notes = [r for r in reports if r.check_id == "invariants.sign_convention_note"]
        assert notes and notes[0].status == "note"

    def test_degree4_suite_two(self, job_records):
        assert_all_pass(job_records("invariants", 2, ("invariants.w.", "invariants.w0.", "invariants.sign_convention_note")))

    def test_failure_details_name_the_generator(self, monkeypatch, job_records):
        # every induced map doubles the degree-1 generators and fixes their
        # partners: it moves x1*y1 and does not commute with Q0, and the
        # failing checks name the generator they drew
        def doubling(m, ctx):
            return linear_substitution(ctx, {
                g.name: ctx.generator(g.name).scale(2)
                for g in ctx.generators if g.degree == 1
            })

        monkeypatch.setattr(invariants, "induced_action", doubling)
        reports = {r.check_id: r for r in job_records("invariants", 5, "invariants.")}
        got = {
            check_id: (reports[check_id].status, reports[check_id].details)
            for check_id in ("invariants.dickson.fixed", "invariants.action.q0_compat")
        }
        assert got == {
            "invariants.dickson.fixed": (FAIL, "x1*y1 moved by shear_xy"),
            "invariants.action.q0_compat": (FAIL, "action shear_yx does not commute with Q0"),
        }

    @pytest.mark.parametrize("prime", (2, 3, 5, 7))
    def test_dickson_fixed(self, prime, job_records):
        assert_all_pass(job_records("invariants", prime, "invariants.dickson."))


def reference_closure(gens):
    """Independent breadth-first closure through ``FieldMatrix.__mul__``:
    rounds of generator * frontier products in discovery order, the identity
    appended last unless a product reached it."""
    seen = {m.entries: m for m in gens}
    frontier = list(gens)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a * b
                if c.entries not in seen:
                    seen[c.entries] = c
                    new.append(c)
        frontier = new
    ident = FieldMatrix.identity(gens[0].rows, gens[0].modulus)
    seen.setdefault(ident.entries, ident)
    return list(seen.values())


def reference_invariants(ctx, d, gens):
    """Independent invariants as one stacked joint kernel of 1 - g* over the
    generators and their inverses: each map's block has a column per basis
    monomial, so the stack acts on monomial-coefficient vectors.  With no
    generators the whole degree is invariant."""
    basis = ctx.basis_of_degree(d)
    stacked = []
    for action in [*gens, *(g.inverse() for g in gens)]:
        f = induced_action(action, ctx)
        units = [Element(ctx, {mono: 1}) for mono in basis]
        stacked.extend(zip(*[(one - f(one)).coordinates(basis) for one in units]))
    if not stacked:
        return [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    return nullspace(FieldMatrix(stacked, ctx.prime))


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("prime", (2, 3, 5, 7))
def test_invariants_match_stacked_reference(prime, d):
    ctx = elementary_abelian_context(prime, 3, 8)
    w = weyl(prime)
    basis = ctx.basis_of_degree(d)
    for gens in (w, w[:2], []):
        got = [el.coordinates(basis) for el in invariant_subspace(ctx, d, gens)]
        assert got == row_space_basis(got, prime)
        assert spans_equal(got, reference_invariants(ctx, d, gens), prime)


class TestClosureOracle:
    @pytest.mark.parametrize("prime,order", [(2, 24), (3, 216), (5, 3000)])
    def test_group_order(self, prime, order):
        elements = group_closure(weyl(prime))
        assert len(elements) == order
        assert order == prime**2 * (prime**3 - prime)

    @pytest.mark.parametrize("prime", (2, 3, 5))
    def test_enumeration_matches_reference_order(self, prime):
        w = weyl(prime)
        elements = group_closure(w)
        assert elements == reference_closure(w)
        assert all((m.rows, m.cols, m.modulus) == (3, 3, prime) for m in elements)

    def test_enumeration_is_generic_in_the_generators(self):
        # no shear, and rows with a single entry 2, with two entries and
        # with a single 1: together they generate GL(2, F_3), of order 48
        gens = [FieldMatrix([[0, 2], [1, 2]], 3), FieldMatrix([[2, 0], [0, 1]], 3)]
        elements = group_closure(gens)
        assert elements == reference_closure(gens)
        assert len(elements) == 48

    def test_closure_is_a_group(self):
        elements = group_closure(weyl(3))
        index = {m.entries for m in elements}
        sample = elements[:12]
        for a in sample:
            for b in sample:
                assert (a * b).entries in index

    def test_closed_under_each_generator(self):
        w = weyl(3)
        elements = group_closure(w)
        index = {m.entries for m in elements}
        assert len(index) == len(elements)
        for a in w:
            for m in elements:
                assert (a * m).entries in index

    def test_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(invariants, "CLOSURE_CAP", 10)
        with pytest.raises(RuntimeError, match=r"^closure exceeded cap 10$"):
            group_closure(weyl(3))

    def test_enumeration_at_seven_matches_shape_predicate(self):
        # the oracle's checks stay fenced to l <= 5; the enumeration itself
        # is checked at l = 7 directly
        prime = 7
        elements = group_closure(weyl(prime))
        assert len(elements) == 16464 == prime**2 * (prime**3 - prime)
        assert all(shape_member(m) for m in elements)
        assert shape_count(prime) == len(elements)

    @pytest.mark.parametrize("prime", (2, 3, 5))
    def test_oracle_suite(self, prime, job_records):
        assert_all_pass(job_records("invariants", prime, "invariants.closure."))

    def test_oracle_rejects_large_prime(self, planned_ids):
        ids = planned_ids("invariants", 7)
        assert ids and not any(i.startswith("invariants.closure.") for i in ids)

    def test_shape_count_matches_formula(self):
        for prime in (2, 3):
            assert shape_count(prime) == prime**2 * (prime**3 - prime)

    def test_subspace_check_fails_on_a_wrong_generator_answer(self, monkeypatch, job_records):
        # the oracle is handed the 3-dimensional block-diagonal answer
        # instead of the line the full group fixes
        real = invariants.invariant_subspace
        monkeypatch.setattr(
            invariants, "invariant_subspace",
            lambda ctx, d, gens: real(ctx, d, gens[:2]),
        )
        reports = {r.check_id: r for r in job_records("invariants", 3, "invariants.closure.")}
        assert reports["invariants.closure.subspace"].status == FAIL

    def test_late_non_generator_element_is_checked(self, monkeypatch, job_records):
        # the last enumerated element that is neither a generator nor a
        # generator's inverse is given a validated map that moves Q0(x1 y1 z1);
        # the generator-based answer never sees it, so only an oracle that
        # applies every enumerated element can notice
        w = weyl(3)
        near_generators = {a.entries for a in w} | {a.inverse().entries for a in w}
        late = [m for m in group_closure(w) if m.entries not in near_generators][-1]
        real = invariants.induced_action

        def induced(m, ctx):
            if m.entries != late.entries:
                return real(m, ctx)
            return linear_substitution(ctx, {
                "z1": ctx.generator("z1").scale(2),
                "z2": ctx.generator("z2").scale(2),
            })

        ctx = elementary_abelian_context(3, 3, 8)
        q0_xyz = milnor_q(0, ctx)(ctx.monomial_element({"x1": 1, "y1": 1, "z1": 1}))
        assert induced(late, ctx)(q0_xyz) != q0_xyz
        monkeypatch.setattr(invariants, "induced_action", induced)
        reports = {r.check_id: r for r in job_records("invariants", 3, "invariants.closure.")}
        assert reports["invariants.closure.subspace"].status == FAIL
        assert reports["invariants.closure.order"].status == PASS
        assert reports["invariants.closure.shape"].status == PASS

    def test_block_diagonal_answer_fails_every_full_group_claim(self, monkeypatch, job_records):
        # the full group's invariants replaced by the block-diagonal answer:
        # both suites' line claims and the oracle must all see it
        real = invariants.invariant_subspace

        def block_diagonal(ctx, d, gens):
            return real(ctx, d, gens[:2])

        monkeypatch.setattr(invariants, "invariant_subspace", block_diagonal)
        reports = {r.check_id: r for r in job_records("invariants", 3, "invariants.")}
        reports.update((r.check_id, r) for r in job_records("ss", 3, "ss.iota."))
        for check_id in ("invariants.w.h4_dimension", "ss.iota.leading_term"):
            assert reports[check_id].status == FAIL
            assert reports[check_id].details.startswith("dim = 3, expected 1: [")
        closure = reports["invariants.closure.subspace"]
        assert closure.status == FAIL
        assert closure.details == "generator-based and enumerated invariant subspaces differ"

    @pytest.mark.parametrize("prime,order", [(2, 24), (3, 216), (5, 3000)])
    def test_every_enumerated_element_gets_its_own_applied_map(self, monkeypatch, prime, order):
        # one induced_action call per enumerated element, in enumeration
        # order, each with that element's own matrix, each returning a map of
        # its own that is applied: an oracle that skipped elements, reused a
        # map or composed maps from others would fail one of these
        job = Job(prime, RunConfig(primes=(prime,)))
        elements = invariants._closure(job)
        answer = invariant_subspace(job_rank3_context(job), 4, weyl(prime))
        monkeypatch.setattr(invariants, "invariant_subspace", lambda ctx, d, gens: answer)
        real = induced_action
        calls = []

        def induced(m, ctx):
            f, applied = real(m, ctx), []
            calls.append((m, f, applied))

            def apply(el):
                applied.append(el)
                return f(el)

            return apply

        monkeypatch.setattr(invariants, "induced_action", induced)
        assert invariants._closure_subspace(job)[0] == PASS
        assert len(elements) == len(calls) == order
        assert all(called is m for (called, _, _), m in zip(calls, elements))
        assert len({id(f) for _, f, _ in calls}) == order
        assert all(applied for _, _, applied in calls)

    def test_induced_images_match_generator_sums(self):
        # the images as sums of scaled generators, built with public arithmetic
        ctx = elementary_abelian_context(3, 3, 8)
        degree_one = [g for g in ctx.generators if g.degree == 1]
        for m in group_closure(weyl(3)):
            f = induced_action(m, ctx)
            for j, gen in enumerate(degree_one):
                for name, targets in (
                    (gen.name, [t.name for t in degree_one]),
                    (gen.bockstein_partner, [t.bockstein_partner for t in degree_one]),
                ):
                    expected = ctx.zero()
                    for i, target in enumerate(targets):
                        expected = expected + ctx.generator(target).scale(m[j, i])
                    assert f.images[name] == expected


class TestSL2Generation:
    @staticmethod
    def _power(m, k):
        out = FieldMatrix.identity(m.rows, m.modulus)
        for _ in range(k):
            out = out * m
        return out

    @pytest.mark.parametrize("prime", (3, 5, 7))
    def test_conjugation_matrices_power_up_to_shears(self, prime):
        # ((1,-1),(0,1))^(l-1) = ((1,1),(0,1)) and ((-1,0),(1,-1))^(l-1) = ((1,0),(1,1))
        a = FieldMatrix([[1, -1], [0, 1]], prime)
        b = FieldMatrix([[-1, 0], [1, -1]], prime)
        assert self._power(a, prime - 1) == FieldMatrix([[1, 1], [0, 1]], prime)
        assert self._power(b, prime - 1) == FieldMatrix([[1, 0], [1, 1]], prime)

    @pytest.mark.parametrize("prime", (2, 3, 5))
    def test_shears_generate_special_linear_group(self, prime):
        gens = list(sl2_generators(prime).values())
        seen = {m.entries for m in gens}
        frontier = list(gens)
        while frontier:
            new = []
            for a in gens:
                for b in frontier:
                    c = a * b
                    if c.entries not in seen:
                        seen.add(c.entries)
                        new.append(c)
            frontier = new
        assert len(seen) == prime**3 - prime


class TestSL2Fixedness:
    def test_xy_under_shear(self):
        # (x1 + y1) y1 = x1 y1 over an odd prime since y1^2 = 0
        ctx = elementary_abelian_context(3, 2, 6)
        f = induced_action(sl2_generators(3)["shear_xy"], ctx)
        xy = ctx.monomial_element({"x1": 1, "y1": 1})
        assert f(xy) == xy

    def test_u3_fixed_at_two(self):
        ctx = elementary_abelian_context(2, 2, 4)
        m = ctx.monomial_element
        u3 = m({"x1": 1, "y1": 2}) + m({"x1": 2, "y1": 1})
        for gen in sl2_generators(2).values():
            assert induced_action(gen, ctx)(u3) == u3


CTXS = {p: elementary_abelian_context(p, 3, 8) for p in (2, 3, 5)}


@st.composite
def ctx_action_element(draw):
    prime = draw(st.sampled_from(sorted(CTXS)))
    ctx = CTXS[prime]
    gens = weyl(prime)
    action = draw(st.sampled_from(gens + [g.inverse() for g in gens]))
    el = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, 6))
        basis = ctx.basis_of_degree(d)
        if basis:
            mono = draw(st.sampled_from(basis))
            coeff = draw(st.integers(1, prime - 1)) if prime > 2 else 1
            el = el + Element(ctx, {mono: coeff})
    return ctx, action, el


def test_actions_commute_with_bockstein():
    # Q0 and Q1 read the same degree-1 generators and partners as the
    # action, so a partner mixed up on either side shows here
    for prime in (2, 3, 5, 7):
        ctx = rank3_context(prime)
        rng = random.Random(prime)
        actions = [*weyl(prime), *(g.inverse() for g in weyl(prime))]
        qs = milnor_q(0, ctx), milnor_q(1, ctx)
        for _ in range(60):
            f = induced_action(rng.choice(actions), ctx)
            el = random_element(ctx, rng, 6)
            for q in qs:
                assert f(q(el, truncate=True)) == q(f(el), truncate=True), (prime, el.render())


@given(ctx_action_element())
def test_invariant_output_is_invariant(data):
    ctx, _, _ = data
    w = weyl(ctx.prime)
    for el in invariant_subspace(ctx, 4, w):
        for g in w:
            assert induced_action(g, ctx)(el) == el
            assert induced_action(g.inverse(), ctx)(el) == el
