import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from milnor_forge import cli, specseq
from milnor_forge.galg import AlgebraContext, Element, GeneratorSpec, multiply, signed_leibniz
from milnor_forge.milnor import Derivation
from milnor_forge.report import FAIL
from milnor_forge.specseq import (
    DifferentialError,
    DifferentialSpec,
    PageComponent,
    Scenario,
    SSPage,
    euler_bookkeeping_holds,
    initial_page,
    rational_degree4_dimension,
    run_scenario,
    scenario_bg1,
    scenario_bg1_two,
    scenario_bpu,
    turn_page,
    verify_dd_zero,
)


def assert_all_pass(reports):
    bad = [r for r in reports if r.status == FAIL]
    assert not bad, "\n".join(f"{r.check_id}: {r.details}" for r in bad)


def with_differentials(sc, differentials, certify=None):
    """``sc`` with ``differentials`` in place of its own, and with
    ``certify`` when it is given."""
    return Scenario(
        sc.name, sc.context, differentials, sc.target_degree, sc.named,
        sc.permanent, sc.certify if certify is None else certify, sc.annotations,
    )


def module_basis_dims_oracle(upto):
    """Independent count of the free module over one degree-2 class on
    {1, b2, b2^2, a3, b3}: the page-3 answer of the first scenario."""
    spanning = [0, 2, 4, 3, 3]  # degrees of 1, b2, b2^2, a3, b3
    dims = [0] * (upto + 1)
    for base_degree in spanning:
        k = 0
        while base_degree + 2 * k <= upto:
            dims[base_degree + 2 * k] += 1
            k += 1
    return dims


class TestKoszulToyCases:
    def test_acyclic_transgression_odd(self):
        # exterior fiber class transgressing onto a polynomial base class:
        # the homology is one-dimensional, concentrated in degree zero
        ctx = AlgebraContext(
            5,
            [GeneratorSpec("y", 2, (2, 0)), GeneratorSpec("x", 1, (0, 1))],
            8,
        )
        d2 = DifferentialSpec.build(2, ctx, {"x": ctx.generator("y")})
        page3 = turn_page(initial_page(ctx), d2)
        assert page3.dims_by_total_degree(7) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_polynomial_fiber_halves_at_two(self):
        # at characteristic 2 only odd powers die: the homology is the
        # polynomial algebra on the square of the fiber class
        ctx = AlgebraContext(
            2,
            [GeneratorSpec("y", 2, (2, 0)), GeneratorSpec("x", 1, (0, 1))],
            8,
        )
        d2 = DifferentialSpec.build(2, ctx, {"x": ctx.generator("y")})
        page3 = turn_page(initial_page(ctx), d2)
        assert page3.dims_by_total_degree(7) == [1, 0, 1, 0, 1, 0, 1, 0]


class TestPageMechanics:
    def test_zero_differential_keeps_dims(self):
        sc = scenario_bg1(3)
        page = initial_page(sc.context)
        turned = turn_page(page, DifferentialSpec(2, sc.context, {}))
        upto = sc.context.top_degree
        assert turned.dims_by_total_degree(upto) == page.dims_by_total_degree(upto)
        assert turned.r == 3

    def test_zero_turn_carries_every_component_over(self, monkeypatch):
        # a differential whose images are all zero, listed or not, keeps
        # every component of a page that a real d2 made, records no ranks
        # and builds no table of d; a zero spec of the wrong page or context
        # is still refused
        sc, other = scenario_bg1(3), scenario_bg1(3)
        page3 = turn_page(initial_page(sc.context), sc.differentials[0])
        assert page3.turn_ranks

        def no_table(dspec):
            raise AssertionError("a table of d was built")

        monkeypatch.setattr(specseq, "verify_dd_zero", no_table)
        for images in ({}, {"z1": (1, sc.context.zero())}):
            turned = turn_page(page3, DifferentialSpec(3, sc.context, images))
            assert turned.r == 4 and turned.context is sc.context
            assert turned.components == page3.components
            assert turned.turn_ranks == {}
        with pytest.raises(ValueError, match="^differential is for page 2, page is 3$"):
            turn_page(page3, DifferentialSpec(2, sc.context, {}))
        with pytest.raises(ValueError, match="^differential belongs to a different context$"):
            turn_page(page3, DifferentialSpec(3, other.context, {}))

    def test_apply_rejects_another_context(self):
        # d2 of one scenario on z1 of a wider one: the element belongs to a
        # context other than the differential's, and a differential cannot
        # be built on one context with the images of another
        sc, wide = scenario_bg1(3), scenario_bg1(3, slack=2)
        d2 = sc.differentials[0]
        z1 = wide.context.generator("z1")
        with pytest.raises(ValueError, match="element belongs to a different context"):
            d2.apply(z1)
        with pytest.raises(ValueError, match="image belongs to a different context"):
            DifferentialSpec(2, wide.context, {"z1": (1, sc.named["a2"].scale(-1))})
        own = d2.apply(sc.context.generator("z1"))
        assert own.context is sc.context and own.render() == "1*v2r + 2*v2l"
        # a spec with no images is bound to the context it is built on
        empty = DifferentialSpec(2, wide.context, {}).apply(z1)
        assert empty.context is wide.context and empty.is_zero()
        with pytest.raises(ValueError, match="element belongs to a different context"):
            DifferentialSpec(2, sc.context, {}).apply(z1)

    def test_page_number_mismatch(self):
        sc = scenario_bg1(3)
        page = initial_page(sc.context)
        with pytest.raises(ValueError):
            turn_page(page, DifferentialSpec(3, sc.context, {}))

    def test_differential_of_another_context_rejected(self, monkeypatch):
        # an equal scenario on another context object: its differentials, the
        # zero one too, are turned on no page but their own context's, and
        # the rejection comes before any table of d is built
        sc, other = scenario_bg1(3), scenario_bg1(3)
        page = initial_page(sc.context)

        def no_table(dspec):
            raise AssertionError("a table of d was built")

        monkeypatch.setattr(specseq, "verify_dd_zero", no_table)
        for dspec in (DifferentialSpec(2, other.context, {}), other.differentials[0]):
            with pytest.raises(ValueError, match="^differential belongs to a different context$"):
                turn_page(page, dspec)

    def test_dd_nonzero_rejected_with_witness(self):
        gens = [
            GeneratorSpec("a2", 2, (2, 0)),
            GeneratorSpec("w1", 1, (0, 1)),
            GeneratorSpec("w2", 2, (0, 2)),
        ]
        ctx = AlgebraContext(3, gens, 6)
        bad = DifferentialSpec.build(
            2, ctx,
            {"w1": ctx.generator("a2"),
             "w2": multiply(ctx.generator("a2"), ctx.generator("w1"))},
        )
        with pytest.raises(DifferentialError) as err:
            verify_dd_zero(bad)
        assert str(err.value) == "d o d != 0 on w2: 1*a2^2"

    def test_bidegree_validation(self):
        sc = scenario_bg1(3)
        ctx = sc.context
        with pytest.raises(ValueError):
            DifferentialSpec.build(2, ctx, {"z1": ctx.generator("v3l")})

    def test_euler_bookkeeping_across_turns(self):
        sc = scenario_bg1(5)
        result = run_scenario(sc)
        upto = sc.context.top_degree - 1
        for older, newer in zip(result.pages, result.pages[1:]):
            assert euler_bookkeeping_holds(older, newer, upto)

    def test_product_of_classes(self):
        sc = scenario_bg1(3)
        page3 = turn_page(initial_page(sc.context), sc.differentials[0])
        b2, z2 = sc.named["b2"], sc.named["z2"]
        for el in (b2, z2):
            # a single monomial whose coordinate vector is one of the page's
            # cycle rows, and a nonzero class there
            (mono,) = el.terms
            comp = page3.components[sc.context.monomial_bidegree(mono)]
            assert el.coordinates(comp.basis) in comp.cycles
            assert page3.class_is_nonzero(el)
        prod = multiply(b2, z2)
        assert page3.class_is_nonzero(prod)
        # b2 * a3 is a boundary on page 3 even though it is nonzero ambiently
        a3b2 = multiply(sc.named["a3"], b2)
        assert not a3b2.is_zero()
        assert not page3.class_is_nonzero(a3b2)

    def test_page_queries_reject_an_element_of_another_context(self):
        # the same generators with a wider truncation: the monomials would
        # read as valid coordinates against this page's basis
        sc = scenario_bg1(3)
        page, own = run_scenario(sc).pages[-1], sc.named["b2"]
        b2 = scenario_bg1(3, slack=2).named["b2"]
        assert page.class_is_nonzero(own) and page.classes_equal(own, own)
        with pytest.raises(ValueError, match="^element belongs to a different context$"):
            page.class_is_nonzero(b2)
        for a, b in ((b2, b2.context.zero()), (b2, b2), (own, b2)):
            with pytest.raises(ValueError, match="^element belongs to a different context$"):
                page.classes_equal(a, b)


def brute_force_turn_dims(sc, dspec):
    """Independent homology oracle for one turn from the starting page:
    dim = (monomials - rank out) - rank in, per bidegree, using only the raw
    differential matrices and row reduction."""
    from milnor_forge.ffla import FieldMatrix, rref
    from milnor_forge.galg import Element

    ctx = sc.context
    comps = {}
    for d in range(ctx.top_degree + 1):
        for mono in ctx.basis_of_degree(d):
            comps.setdefault(ctx.monomial_bidegree(mono), []).append(mono)
    r = dspec.page
    shift = (r, 1 - r)

    def rank_of(sources, targets):
        if not sources or not targets:
            return 0
        rows = []
        for mono in sources:
            image = dspec.apply(Element(ctx, {mono: 1}))
            rows.append([image.terms.get(t, 0) for t in targets])
        if not any(any(row) for row in rows):
            return 0
        return rref(FieldMatrix(rows, ctx.prime))[0]

    dims = {}
    for key, monos in comps.items():
        out_rank = rank_of(monos, comps.get((key[0] + shift[0], key[1] + shift[1]), []))
        in_rank = rank_of(comps.get((key[0] - shift[0], key[1] - shift[1]), []), monos)
        dims[key] = len(monos) - out_rank - in_rank
    return dims


@pytest.mark.parametrize("prime", (2, 3, 5, 7))
def test_first_turn_matches_rank_oracle(prime):
    sc = scenario_bg1_two() if prime == 2 else scenario_bg1(prime)
    dspec = sc.differentials[0]
    oracle = brute_force_turn_dims(sc, dspec)
    page3 = turn_page(initial_page(sc.context), dspec)
    for key, dim in oracle.items():
        assert page3.dim(*key) == dim, f"bidegree {key}: {page3.dim(*key)} != {dim}"


def test_second_scenario_turn_matches_rank_oracle():
    for prime, branch in ((3, False), (3, True), (5, False)):
        sc = scenario_bpu(prime, branch)
        page3 = turn_page(initial_page(sc.context), DifferentialSpec(2, sc.context, {}))
        dspec = sc.differentials[0]
        oracle = brute_force_turn_dims(sc, dspec)
        page4 = turn_page(page3, dspec)
        for key, dim in oracle.items():
            assert page4.dim(*key) == dim


def test_second_turn_matches_restructured_first_turn_odd():
    # independent route to page 4: present page 3 as a fresh algebra on the
    # surviving classes (fiber polynomial class, truncated base classes with
    # their product relations) and transgress there in a single turn
    for prime in (3, 5):
        original = run_scenario(scenario_bg1(prime))
        fresh_gens = [
            GeneratorSpec("b2", 2, (2, 0)),
            GeneratorSpec("a3", 3, (3, 0)),
            GeneratorSpec("b3", 3, (3, 0)),
            GeneratorSpec("z2", 2, (0, 2)),
        ]
        ctx = AlgebraContext(
            prime, fresh_gens, 7,
            annihilator_pairs=[("a3", "b2"), ("b3", "b2")],
        )
        d3 = DifferentialSpec.build(
            3, ctx, {"z2": ctx.generator("a3").scale(-1)}
        )
        page = turn_page(initial_page(ctx), DifferentialSpec(2, ctx, {}))
        page4 = turn_page(page, d3)
        # the fresh presentation is only faithful through degree 6
        assert page4.dims_by_total_degree(5) == original.pages[-1].dims_by_total_degree(5)


def test_second_turn_matches_restructured_first_turn_two():
    original = run_scenario(scenario_bg1_two())
    fresh_gens = [
        GeneratorSpec("b2", 2, (2, 0)),
        GeneratorSpec("a3", 3, (3, 0)),
        GeneratorSpec("b3", 3, (3, 0)),
        GeneratorSpec("w", 2, (0, 2)),  # the class of the fiber square
    ]
    ctx = AlgebraContext(2, fresh_gens, 7)
    d3 = DifferentialSpec.build(3, ctx, {"w": ctx.generator("a3")})
    page = turn_page(initial_page(ctx), DifferentialSpec(2, ctx, {}))
    page4 = turn_page(page, d3)
    assert page4.dims_by_total_degree(5) == original.pages[-1].dims_by_total_degree(5)


class TestFirstScenarioOdd:
    @pytest.mark.parametrize("prime", (3, 5, 7, 11))
    def test_final_dims(self, prime):
        result = run_scenario(scenario_bg1(prime))
        assert result.dims == [1, 0, 1, 1, 2]
        assert result.scenario.certify

    def test_page3_matches_module_oracle(self):
        sc = scenario_bg1(3)
        page3 = turn_page(initial_page(sc.context), sc.differentials[0])
        assert page3.dims_by_total_degree(5) == module_basis_dims_oracle(5)

    def test_scalar_independence_exhaustive_at_three(self):
        for a1, a2 in itertools.product((1, 2), repeat=2):
            assert run_scenario(scenario_bg1(3, a1, a2)).dims == [1, 0, 1, 1, 2]

    def test_scalar_example_at_five(self):
        assert run_scenario(scenario_bg1(5, 2, 3)).dims == [1, 0, 1, 1, 2]

    def test_nonzero_scalars_required(self):
        with pytest.raises(ValueError):
            scenario_bg1(3, 3, 1)

    def test_checks_pass(self, job_records):
        for prime in (3, 5):
            assert_all_pass(job_records("ss", prime, "ss.bg1."))


class TestScenarioBuilders:
    def test_bg1_at_two_is_the_characteristic_two_scenario(self):
        sc, two = scenario_bg1(2), scenario_bg1_two()
        fields = lambda ctx: [
            (g.name, g.degree, g.bidegree, g.bockstein_partner) for g in ctx.generators
        ]
        assert fields(sc.context) == fields(two.context)
        assert sc.context.top_degree == two.context.top_degree
        assert run_scenario(sc).dims == run_scenario(two).dims

    @pytest.mark.parametrize("prime", (2, 3, 5))
    def test_slack_widens_truncation_only(self, prime):
        narrow, wide = scenario_bg1(prime), scenario_bg1(prime, slack=2)
        assert wide.context.top_degree == narrow.context.top_degree + 2
        assert wide.target_degree == narrow.target_degree
        assert run_scenario(wide).dims == run_scenario(narrow).dims


class TestFirstScenarioTwo:
    def test_final_dims(self):
        result = run_scenario(scenario_bg1_two())
        assert result.dims == [1, 0, 1, 1, 2]
        assert result.scenario.certify
        assert any("external input" in a for a in result.annotations)

    def test_square_survives_and_transgresses(self):
        sc = scenario_bg1_two()
        page3 = turn_page(initial_page(sc.context), sc.differentials[0])
        z1sq = sc.context.monomial_element({"z1": 2})
        assert page3.class_is_nonzero(z1sq)
        image = sc.differentials[1].apply(z1sq)
        assert page3.classes_equal(image, sc.named["a3"])

    def test_odd_powers_die_on_page_three(self):
        sc = scenario_bg1_two()
        page3 = turn_page(initial_page(sc.context), sc.differentials[0])
        assert not page3.class_is_nonzero(sc.context.generator("z1"))
        assert not page3.class_is_nonzero(sc.context.monomial_element({"z1": 3}))

    def test_without_permanence_only_upper_bound(self):
        sc = scenario_bg1_two()
        bound = Scenario(
            sc.name, sc.context, sc.differentials, sc.target_degree, sc.named,
            permanent=[], certify=False,
        )
        result = run_scenario(bound)
        assert result.dims[4] == 2  # upper bound for the degree-4 dimension
        assert result.scenario is bound and not bound.certify
        strict = Scenario(
            sc.name, sc.context, sc.differentials, sc.target_degree, sc.named,
            permanent=[], certify=True,
        )
        with pytest.raises(DifferentialError):
            run_scenario(strict)

    def test_checks_pass(self, job_records):
        assert_all_pass(job_records("ss", 2, "ss.bg1."))


class TestSecondScenario:
    @pytest.mark.parametrize("prime", (3, 5))
    def test_nonzero_branch_dims(self, prime):
        result = run_scenario(scenario_bpu(prime, beta_prime_zero=False))
        assert result.dims == [1, 0, 1, 1, 1, 0, 1]

    @pytest.mark.parametrize("prime", (3, 5))
    def test_zero_branch_dims_with_tag(self, prime):
        result = run_scenario(scenario_bpu(prime, beta_prime_zero=True))
        assert result.dims == [1, 0, 1, 1, 1, 0, 2]
        assert result.annotations

    def test_dd_zero_both_branches(self):
        for branch in (False, True):
            sc = scenario_bpu(3, beta_prime_zero=branch)
            verify_dd_zero(sc.differentials[0])

    def test_starting_page_dims(self):
        # module basis up to degree 7: 1, y2, y2^2, y2^3, y4, y2*y4, y6 on the
        # fiber side and the four u3 multiples; the degree-7 base class is the
        # only difference between the primes 3 and 5
        sc5 = scenario_bpu(5)
        assert initial_page(sc5.context).dims_by_total_degree(7) == [1, 0, 1, 1, 2, 1, 3, 2]
        sc3 = scenario_bpu(3)
        assert initial_page(sc3.context).dims_by_total_degree(7) == [1, 0, 1, 1, 2, 1, 3, 3]

    def test_degree7_base_class_present_only_at_three(self):
        assert any(g.name == "u7" for g in scenario_bpu(3).context.generators)
        assert not any(g.name == "u7" for g in scenario_bpu(5).context.generators)

    def test_checks_pass(self, job_records):
        for prime in (3, 5):
            assert_all_pass(job_records("ss", prime, "ss.bpu."))

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            scenario_bpu(2)


class TestRationalInput:
    def test_degree4_dimension_is_two(self):
        for prime in (2, 3, 5, 7, 11, 13):
            assert rational_degree4_dimension(prime) == 2

    def test_oracle_by_enumeration(self):
        # polynomial algebra on degrees 4,4,6,6,...,2l,2l: enumerate all
        # monomials of total degree 4 directly
        for prime in (3, 5, 7):
            degrees = []
            for k in range(2, prime + 1):
                degrees.extend([2 * k, 2 * k])
            count = 0
            # degree-4 monomials use at most one generator (smallest degree 4)
            count += sum(1 for d in degrees if d == 4)
            assert rational_degree4_dimension(prime) == count == 2


class TestChainCheck:
    @pytest.mark.parametrize("prime", (2, 3, 5))
    def test_iota_suite(self, prime, job_records):
        assert_all_pass(job_records("ss", prime, "ss.iota."))

    @pytest.mark.parametrize("prime", (2, 3, 5, 7))
    def test_engine_invariants(self, prime, job_records):
        assert_all_pass(job_records("ss", prime, "ss.engine."))


@given(st.sampled_from((3, 5)), st.data())
def test_page_dims_never_increase(prime, data):
    a1 = data.draw(st.integers(1, prime - 1))
    a2 = data.draw(st.integers(1, prime - 1))
    result = run_scenario(scenario_bg1(prime, a1, a2))
    upto = result.scenario.context.top_degree - 1
    for older, newer in zip(result.pages, result.pages[1:]):
        old_dims = older.dims_by_total_degree(upto)
        new_dims = newer.dims_by_total_degree(upto)
        assert all(n <= o for n, o in zip(new_dims, old_dims))


@given(st.sampled_from((2, 3, 5)), st.data())
def test_dd_zero_on_random_elements(prime, data):
    sc = scenario_bg1_two() if prime == 2 else scenario_bg1(prime)
    ctx = sc.context
    el = ctx.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        d = data.draw(st.integers(0, 5))
        basis = ctx.basis_of_degree(d)
        if basis:
            mono = data.draw(st.sampled_from(basis))
            from milnor_forge.galg import Element

            coeff = data.draw(st.integers(1, prime - 1)) if prime > 2 else 1
            el = el + Element(ctx, {mono: coeff})
    for dspec in sc.differentials:
        assert dspec.apply(dspec.apply(el)).is_zero()


@given(st.sampled_from((2, 3, 5)), st.data())
def test_differential_is_the_derivation_of_its_rules(prime, data):
    # d_r is a milnor.Derivation that adds its page: rebuilt from its rules
    # by generator name, each scenario differential keeps the same rules by
    # position, and applies to any element as the derivation of those rules
    # does with truncation, which is signed_leibniz on the rules it keeps
    if prime == 2:
        scenarios = [scenario_bg1_two()]
    else:
        alphas = data.draw(st.tuples(st.integers(1, prime - 1), st.integers(1, prime - 1)))
        scenarios = [scenario_bg1(prime, *alphas), scenario_bpu(prime, data.draw(st.booleans()))]
    powers = set()
    for sc in scenarios:
        ctx = sc.context
        monos = [m for d in range(ctx.top_degree + 1) for m in ctx.basis_of_degree(d)]
        el = ctx.zero()
        for mono in data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4)):
            el = el + Element(ctx, {mono: data.draw(st.integers(1, max(1, prime - 1)))})
        for dspec in sc.differentials:
            rules = {ctx.generators[i].name: rule for i, rule in dspec.rules.items()}
            powers |= {power for power, _ in rules.values()}
            rebuilt = DifferentialSpec(dspec.page, ctx, rules)
            assert isinstance(rebuilt, Derivation) and rebuilt.rules == dspec.rules
            assert rebuilt.apply(el) == Derivation(ctx, rules)(el, truncate=True)
            assert dspec.apply(el) == signed_leibniz(el, dspec.rules, truncate=True)
    # at l = 2 the page-3 differential is given on the square of z1
    assert powers == ({1, 2} if prime == 2 else {1})


class TestTurnPageErrors:
    """Every error ``turn_page`` raises, message included.  The differentials
    (and, for the last three, the pages) are built by hand where
    ``DifferentialSpec.build`` or ``initial_page`` would not produce them."""

    @staticmethod
    def context(*gens, prime=3, top=2):
        return AlgebraContext(prime, [GeneratorSpec(*g) for g in gens], top)

    @staticmethod
    def with_component(page, key, cycles, boundaries):
        """``page`` with the component at ``key`` replaced by the given
        subspaces, each a list of elements of that bidegree."""
        basis = page.components[key].basis
        comp = PageComponent(
            basis,
            tuple(el.coordinates(basis) for el in cycles),
            tuple(el.coordinates(basis) for el in boundaries),
        )
        return SSPage(page.r, page.context, {**page.components, key: comp})

    def test_dd_nonzero_through_turn(self):
        # d(w2) = a2*w1 and d(w1) = a2, so d d(w2) = a2^2; the first failing
        # monomial in degree order is w2, before a2*w2 and w1*w2
        ctx = self.context(
            ("a2", 2, (2, 0)), ("w1", 1, (0, 1)),
            ("w2", 2, (0, 2)), top=6,
        )
        a2, w1 = ctx.generator("a2"), ctx.generator("w1")
        bad = DifferentialSpec(2, ctx, {"w1": (1, a2), "w2": (1, multiply(a2, w1))})
        with pytest.raises(DifferentialError) as err:
            turn_page(initial_page(ctx), bad)
        assert str(err.value) == "d o d != 0 on w2: 1*a2^2"

    def test_image_escapes_tracked_range(self):
        # d(y) = x lands at (4, -1), below the first quadrant
        ctx = self.context(("y", 2, (2, 0)), ("x", 1, (0, 1)))
        bad = DifferentialSpec(2, ctx, {"y": (1, ctx.generator("x"))})
        with pytest.raises(DifferentialError) as err:
            turn_page(initial_page(ctx), bad)
        assert str(err.value) == "differential image escapes the tracked range at (4, -1)"

    def test_image_leaves_component_basis(self):
        # d(x) = w sits at (0, 2), not at the target bidegree (2, 0)
        ctx = self.context(
            ("y", 2, (2, 0)), ("x", 1, (0, 1)), ("w", 2, (0, 2)),
        )
        bad = DifferentialSpec(2, ctx, {"x": (1, ctx.generator("w"))})
        with pytest.raises(DifferentialError) as err:
            turn_page(initial_page(ctx), bad)
        assert str(err.value) == "differential image at (2, 0) leaves the component basis"

    def test_image_not_a_cycle_representative(self):
        ctx = self.context(("y", 2, (2, 0)), ("x", 1, (0, 1)))
        d2 = DifferentialSpec.build(2, ctx, {"x": ctx.generator("y")})
        page = self.with_component(initial_page(ctx), (2, 0), [], [])
        with pytest.raises(DifferentialError) as err:
            turn_page(page, d2)
        assert str(err.value) == "differential image at (2, 0) is not a cycle representative"

    def test_boundary_not_a_cycle(self):
        # y2 is listed as a boundary at (2, 0) but not as a cycle
        ctx = self.context(
            ("y1", 2, (2, 0)), ("y2", 2, (2, 0)), ("x", 1, (0, 1)),
        )
        y1, y2 = ctx.generator("y1"), ctx.generator("y2")
        d2 = DifferentialSpec.build(2, ctx, {"x": y1})
        page = self.with_component(initial_page(ctx), (2, 0), [y1], [y2])
        with pytest.raises(DifferentialError) as err:
            turn_page(page, d2)
        assert str(err.value) == "boundary at (2, 0) is not a cycle; differential is ill-posed"

    def test_page_dimension_grew(self):
        # two zero boundary rows understate the old dimension at (2, 0)
        ctx = self.context(
            ("y1", 2, (2, 0)), ("y2", 2, (2, 0)), ("x", 1, (0, 1)),
        )
        y1, y2 = ctx.generator("y1"), ctx.generator("y2")
        d2 = DifferentialSpec.build(2, ctx, {"x": y1})
        page = self.with_component(initial_page(ctx), (2, 0), [y1, y2], [ctx.zero()] * 2)
        assert page.dim(2, 0) == 0
        with pytest.raises(DifferentialError) as err:
            turn_page(page, d2)
        assert str(err.value) == "page dimension grew at (2, 0)"


def _all_differentials():
    """(scenario, differential) for every differential a scenario turns."""
    scenarios = [scenario_bg1_two(), scenario_bg1(3), scenario_bg1(5, 2, 3)]
    scenarios += [scenario_bpu(prime, branch) for prime in (3, 5) for branch in (False, True)]
    return [(sc, dspec) for sc in scenarios for dspec in sc.differentials]


@given(st.data())
def test_table_combination_is_apply(data):
    # d is linear: the table row combination over an element's terms is d of it
    sc, dspec = data.draw(st.sampled_from(_all_differentials()))
    ctx = sc.context
    table = verify_dd_zero(dspec)
    monos = [m for d in range(ctx.top_degree + 1) for m in ctx.basis_of_degree(d)]
    assert list(table) == monos
    el = ctx.zero()
    for mono in data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4)):
        el = el + Element(ctx, {mono: data.draw(st.integers(1, ctx.prime - 1))})
    combined = ctx.zero()
    for mono, coeff in el.terms.items():
        combined = combined + table[mono].scale(coeff)
    assert combined == dspec.apply(el)


def count_sweep_calls(monkeypatch, prime, runs=1):
    """The ``turn_page``, ``verify_dd_zero`` and ``DifferentialSpec.apply``
    calls of each of ``runs`` runs of ``verify ss --sweep-scalars`` at one prime in
    this process; each run must exit 0."""
    counts = []
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(specseq, "turn_page", counted("turn_page", specseq.turn_page))
    monkeypatch.setattr(
        specseq, "verify_dd_zero", counted("verify_dd_zero", specseq.verify_dd_zero)
    )
    monkeypatch.setattr(
        DifferentialSpec, "apply", counted("apply", DifferentialSpec.apply)
    )
    argv = ["ss", "--sweep-scalars", "--primes", str(prime), "--format", "json"]
    for _ in range(runs):
        calls.update(turn_page=0, verify_dd_zero=0, apply=0)
        assert cli.main(argv) == 0
        counts.append(dict(calls))
    return counts


def test_sweep_at_seven_checks_every_turn(monkeypatch):
    # bg1 at (1, 1), the widened bg1 and the two bpu branches (a zero d2,
    # then d3) are 8 turns.  The sweep turns each distinct (page,
    # differential) once: the page-2 turns of the 5 other alpha1 (their d2
    # differs), and the page-3 turns of the 5 other alpha2 (every alpha1
    # gives the same page 3, so d3 decides).  That is 8 + 2(l - 2) = 18
    # turns, and every turn but the two zero d2 still checks d o d once.
    [calls] = count_sweep_calls(monkeypatch, 7)
    assert calls["turn_page"] == 18
    assert calls["verify_dd_zero"] == 16
    assert calls["apply"] <= 2804


def test_sweep_at_eleven(monkeypatch, capsys):
    # 8 + 2(l - 2) turns at l = 11, each but the two zero d2 checking
    # d o d once
    [calls] = count_sweep_calls(monkeypatch, 11)
    assert "all 100 nonzero scalar pairs" in capsys.readouterr().out
    assert calls["turn_page"] == 26
    assert calls["verify_dd_zero"] == 24


def test_turn_memo_does_not_outlive_the_job(monkeypatch):
    # both runs get their bg1 scenarios on the same context objects, so a
    # memo kept past the first job would hold every bg1 turn of the second
    monkeypatch.setattr(specseq, "scenario_bg1", functools.cache(specseq.scenario_bg1))
    first, second = count_sweep_calls(monkeypatch, 7, runs=2)
    assert first["turn_page"] == second["turn_page"] == 18
    assert first["verify_dd_zero"] == second["verify_dd_zero"] == 16


def test_sweep_pair_with_wrong_dims_fails_and_names_scalars(monkeypatch, job_records):
    # wrong dims for every pair with d2(z1) = -2 a2; the sweep meets (2, 1)
    # first, after (1, 1) and (1, 2)
    original = specseq.run_scenario

    def wrong_when_alpha1_is_two(sc, *args, **kwargs):
        result = original(sc, *args, **kwargs)
        if sc.differentials[0](sc.named["z1"]) == sc.named["a2"].scale(-2):
            return specseq.ScenarioResult(
                result.scenario, result.pages, [1, 0, 1, 1, 3], result.annotations,
            )
        return result

    monkeypatch.setattr(specseq, "run_scenario", wrong_when_alpha1_is_two)
    [record] = job_records("ss", 3, "ss.bg1.scalar_sweep")
    assert record.status == FAIL
    assert record.details == "dims [1, 0, 1, 1, 3] at scalars (2,1)"


def snapshot(result):
    """What a result carries: dims, every page's components (basis, cycles,
    boundaries) and turn ranks, certification and annotations."""
    pages = [(page.r, sorted(page.components.items()), page.turn_ranks) for page in result.pages]
    return result.dims, pages, result.scenario.certify, result.annotations


@pytest.mark.parametrize("prime", (3, 5, 7))
def test_sweep_tree_matches_each_pair_solved_from_scratch(prime):
    solved = run_scenario(scenario_bg1(prime))
    visited = []
    for a1, a2, result in specseq.scalar_sweep_results(solved, {}):
        visited.append((a1, a2))
        assert snapshot(result) == snapshot(run_scenario(scenario_bg1(prime, a1, a2)))
    assert visited == list(itertools.product(range(1, prime), repeat=2))


class TestTurnMemo:
    """``run_scenario(sc, turns)`` turns a page only when the memo holds no
    turn of an equal page (same context object, page number and components)
    by an equal differential, and gives the from-scratch result for every
    scenario."""

    PRIME = 5

    @pytest.fixture
    def turns(self):
        return {}

    @pytest.fixture
    def solved(self, turns):
        return run_scenario(scenario_bg1(self.PRIME), turns)

    @pytest.fixture
    def computed(self, monkeypatch):
        """The page numbers of the turns computed from here on."""
        inputs = []
        turn = specseq.turn_page

        def recorder(page, dspec):
            inputs.append(page.r)
            return turn(page, dspec)

        monkeypatch.setattr(specseq, "turn_page", recorder)
        return inputs

    def scalars(self, solved, alpha1, alpha2):
        sc = solved.scenario
        return with_differentials(sc, specseq._bg1_transgressions(sc.named, alpha1, alpha2))

    def test_same_scenario_hits_on_every_turn(self, turns, solved, computed):
        result = run_scenario(solved.scenario, turns)
        assert computed == []
        assert all(mine is theirs for mine, theirs in zip(result.pages, solved.pages))
        assert snapshot(result) == snapshot(solved)

    def test_same_d2_hits_on_page_two_only(self, turns, solved, computed):
        result = run_scenario(self.scalars(solved, 1, 3), turns)
        assert computed == [3]
        assert result.pages[1] is solved.pages[1]
        assert snapshot(result) == snapshot(run_scenario(scenario_bg1(self.PRIME, 1, 3)))

    def test_d2_with_another_scalar_misses_then_hits_on_page_three(
        self, turns, solved, computed
    ):
        # d2 scaled by 2 has the kernel and image of d2, so page 3 is equal
        # by value, and the d3 is the same
        result = run_scenario(self.scalars(solved, 2, 1), turns)
        assert computed == [2]
        assert result.pages[1] is not solved.pages[1]
        assert result.pages[1].key() == solved.pages[1].key()
        assert result.pages[2] is solved.pages[2]
        assert snapshot(result) == snapshot(run_scenario(scenario_bg1(self.PRIME, 2, 1)))

    @pytest.mark.parametrize("slack", (0, 2))
    def test_another_context_never_hits(self, turns, solved, computed, slack):
        # with slack 0 the pages equal the solved ones but for the context
        sc = scenario_bg1(self.PRIME, slack=slack)
        result = run_scenario(sc, turns)
        assert computed == [2, 3]
        assert all(page.context is sc.context for page in result.pages)
        assert snapshot(result) == snapshot(run_scenario(scenario_bg1(self.PRIME, slack=slack)))

    def test_zero_differential_on_another_context_misses(self, turns, computed):
        # each run's zero d2 is bound to its own context, as its pages are, so
        # the context tells the two runs apart
        one, other = scenario_bg1(self.PRIME), scenario_bg1(self.PRIME)
        for sc in (one, other):
            d3_only = with_differentials(sc, sc.differentials[1:], certify=False)
            result = run_scenario(d3_only, turns)
            assert all(page.context is sc.context for page in result.pages)
        assert computed == [2, 3, 2, 3]

    def test_d3_only_then_both_misses_where_the_input_page_differs(self, turns, computed):
        # the d3-only run turns page 2 with a zero d2, so its page 3 differs
        # from the full scenario's, although both turn page 3 with one d3
        sc = scenario_bg1(self.PRIME)
        run_scenario(with_differentials(sc, sc.differentials[1:], certify=False), turns)
        result = run_scenario(sc, turns)
        assert computed == [2, 3, 2, 3]
        assert snapshot(result) == snapshot(run_scenario(scenario_bg1(self.PRIME)))

    def test_both_then_d3_only_misses_where_the_input_page_differs(
        self, turns, solved, computed
    ):
        sc = solved.scenario
        d3_only = with_differentials(sc, sc.differentials[1:], certify=False)
        result = run_scenario(d3_only, turns)
        assert computed == [2, 3]
        assert snapshot(result) == snapshot(run_scenario(d3_only))

    def test_d2_only_then_both_misses_on_page_three(self, turns, computed):
        sc = scenario_bg1(self.PRIME)
        d2_only = run_scenario(with_differentials(sc, sc.differentials[:1], certify=False), turns)
        result = run_scenario(sc, turns)
        assert computed == [2, 3]
        assert result.pages[1] is d2_only.pages[1]
        assert snapshot(result) == snapshot(run_scenario(scenario_bg1(self.PRIME)))
