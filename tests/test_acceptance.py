"""Acceptance criteria, one test per criterion, each timed against its bound.

Every check here is exact (integer or residue equality); the runtime bounds
are part of the contract.  Each test prints one line so a verbose run reads
as the acceptance checklist.
"""

import random
import time


from milnor_forge import cyclo, invariants, specseq
from milnor_forge.ffla import FieldMatrix, nullspace, rref
from milnor_forge.galg import (
    Element,
    elementary_abelian_context,
    multiply,
    random_element,
)
from milnor_forge.milnor import milnor_q
from milnor_forge.report import FAIL

SEED = 1729


def random_homogeneous(ctx, rng, degree, max_terms=3):
    """Seeded random element of one degree: up to ``max_terms`` draws of a
    basis monomial and a nonzero coefficient."""
    basis = ctx.basis_of_degree(degree)
    out = ctx.zero()
    if not basis:
        return out
    for _ in range(rng.randint(1, max_terms)):
        mono = rng.choice(basis)
        coeff = rng.randint(1, ctx.prime - 1) if ctx.prime > 2 else 1
        out = out + Element(ctx, {mono: coeff})
    return out


def assert_all_pass(reports):
    bad = [r for r in reports if r.status == FAIL]
    assert not bad, "\n".join(f"{r.check_id}: {r.details}" for r in bad)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(number, label, elapsed=None):
    suffix = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {label}: PASS{suffix}")


def test_criterion_01_matrix_suite_odd_primes(job_records):
    with Stopwatch() as sw:
        for prime in (3, 5, 7, 11, 13):
            assert_all_pass(
                job_records("matrices", prime, ("matrices.su.", "matrices.weyl.", "matrices.g1."))
            )
    assert sw.elapsed < 5.0
    report(1, "matrix suite exact for l in {3,5,7,11,13}", sw.elapsed)


def test_criterion_02_matrix_suite_two(job_records):
    with Stopwatch() as sw:
        reports = job_records("matrices", 2, ("matrices.l2.", "matrices.g1."))
    assert_all_pass(reports)
    flagged = [r for r in reports if r.check_id == "matrices.l2.sigma_candidate"]
    assert len(flagged) == 1 and flagged[0].status == "note"
    assert sw.elapsed < 0.1
    report(2, "Gaussian-integer suite with flagged diagonal candidate", sw.elapsed)


def test_criterion_03_lemma_sweeps():
    with Stopwatch() as sw:
        for prime in (2, 3, 5, 7, 11, 13):
            for m in range(prime):
                assert cyclo.root_power_sum(prime, m) == (
                    prime if m % prime == 0 else 0
                )
            for i in range(prime):
                for j in range(prime):
                    for k in range(prime):
                        assert cyclo.lemma22_holds(prime, i, j, k)
    assert sw.elapsed < 1.0
    report(3, "root-power-sum and index-congruence sweeps for l <= 13", sw.elapsed)


def test_criterion_04_milnor_expansions(job_records):
    with Stopwatch() as sw:
        for prime in (3, 5, 7):
            reports = job_records("milnor", prime, ("milnor.q0.", "milnor.q1.", "milnor.q1q0."))
            assert_all_pass(reports)
            notes = [r for r in reports if r.check_id == "milnor.q1q0.xyz_exponent_note"]
            assert notes and notes[0].status == "note"
        assert_all_pass(job_records("milnor", 2, ("milnor.q1.", "milnor.q0q1.")))
    assert sw.elapsed < 2.0
    report(4, "Milnor expansions verbatim, corrected exponent noted", sw.elapsed)


def test_criterion_05_dickson_mui_products(job_records):
    with Stopwatch() as sw:
        for prime in (3, 5, 7):
            assert_all_pass(job_records("milnor", prime, "milnor.dickson_mui."))
    assert sw.elapsed < 10.0
    report(5, "rank-2 modular generator product identity for l in {3,5,7}", sw.elapsed)


def test_criterion_06_invariant_dimensions():
    with Stopwatch() as sw:
        for prime in (3, 5, 7, 11):
            ctx = elementary_abelian_context(prime, 3, 7)
            w = list(invariants.weyl_generators(prime).values())
            inv = invariants.invariant_subspace(ctx, 4, w)
            assert len(inv) == 1
            q0 = milnor_q(0, ctx)
            spanning = q0(ctx.monomial_element({"x1": 1, "y1": 1, "z1": 1}))
            assert invariants.element_span_contains(ctx, 4, inv, spanning)
            inv0 = invariants.invariant_subspace(ctx, 4, w[:2])
            assert len(inv0) == 3
        ctx2 = elementary_abelian_context(2, 3, 7)
        w2 = list(invariants.weyl_generators(2).values())
        m = ctx2.monomial_element
        u2 = m({"x1": 2}) + m({"x1": 1, "y1": 1}) + m({"y1": 2})
        u3 = m({"x1": 1, "y1": 2}) + m({"x1": 2, "y1": 1})
        inv = invariants.invariant_subspace(ctx2, 4, w2)
        assert len(inv) == 2
        for el in (
            multiply(u2, u2),
            multiply(u3, m({"z1": 1})) + multiply(u2, m({"z1": 2})) + m({"z1": 4}),
        ):
            assert invariants.element_span_contains(ctx2, 4, inv, el)
        assert len(invariants.invariant_subspace(ctx2, 4, w2[:2])) == 4
    assert sw.elapsed < 2.0
    report(6, "degree-4 invariant dimensions and bases, all primes", sw.elapsed)


def test_criterion_07_group_closure_oracle(job_records):
    with Stopwatch() as sw:
        for prime in (2, 3, 5):
            assert_all_pass(job_records("invariants", prime, "invariants.closure."))
    assert sw.elapsed < 1.0
    report(7, "closure enumeration matches generators and shape predicate", sw.elapsed)


def test_criterion_08_spectral_sequences():
    with Stopwatch() as sw:
        for prime in (2, 3, 5, 7, 11):
            sc = (
                specseq.scenario_bg1_two()
                if prime == 2
                else specseq.scenario_bg1(prime)
            )
            result = specseq.run_scenario(sc)
            assert result.dims == [1, 0, 1, 1, 2]
            assert result.scenario.certify
        for a1 in (1, 2):
            for a2 in (1, 2):
                assert specseq.run_scenario(
                    specseq.scenario_bg1(3, a1, a2)
                ).dims == [1, 0, 1, 1, 2]
        for prime in (3, 5):
            nz = specseq.run_scenario(specseq.scenario_bpu(prime, False))
            assert nz.dims == [1, 0, 1, 1, 1, 0, 1]
            z = specseq.run_scenario(specseq.scenario_bpu(prime, True))
            assert z.dims == [1, 0, 1, 1, 1, 0, 2]
            assert z.annotations, "externally-killed class must be tagged"
    assert sw.elapsed < 3.0
    report(8, "page dimensions for both scenarios, scalars swept at 3", sw.elapsed)


def test_criterion_09_end_to_end_chain(job_records):
    with Stopwatch() as sw:
        for prime in (2, 3, 5, 7, 11):
            reports = job_records("ss", prime, "ss.iota.")
            assert_all_pass(reports)
            ids = {r.check_id for r in reports}
            assert {"ss.iota.h4_rank", "ss.iota.leading_term", "ss.iota.q1_nonzero"} <= ids
    report(9, "degree-4 rank, restriction leading term, Q1 nonvanishing", sw.elapsed)


# ---------------------------------------------------------------------------
# criterion 10: property suites, fixed seed, 200 cases each, zero failures


CASES = 200


def _abelian_cases():
    return {p: elementary_abelian_context(p, 3, 12) for p in (2, 3, 5)}


def test_criterion_10a_q_squares():
    rng = random.Random(SEED)
    ctxs = _abelian_cases()
    for _ in range(CASES):
        ctx = ctxs[rng.choice((2, 3, 5))]
        q = milnor_q(rng.choice((0, 1)), ctx)
        el = random_element(ctx, rng, 5)
        assert q(q(el, truncate=True), truncate=True).is_zero()
    report(10, f"(a) Q_j o Q_j = 0, {CASES} cases")


def test_criterion_10b_anticommutation():
    rng = random.Random(SEED + 1)
    ctxs = _abelian_cases()
    for _ in range(CASES):
        ctx = ctxs[rng.choice((3, 5))]
        q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
        el = random_element(ctx, rng, 5)
        assert (
            q0(q1(el, truncate=True), truncate=True)
            + q1(q0(el), truncate=True)
        ).is_zero()
    report(10, f"(b) Q0 Q1 + Q1 Q0 = 0 at odd primes, {CASES} cases")


def test_criterion_10c_leibniz():
    rng = random.Random(SEED + 2)
    ctxs = _abelian_cases()
    for _ in range(CASES):
        ctx = ctxs[rng.choice((2, 3, 5))]
        q = milnor_q(rng.choice((0, 1)), ctx)
        da = rng.randint(0, 4)
        a = random_homogeneous(ctx, rng, da)
        b = random_element(ctx, rng, 4)
        sign = -1 if (ctx.prime != 2 and da % 2) else 1
        expected = multiply(q(a, truncate=True), b, True) + multiply(
            a, q(b, truncate=True), True
        ).scale(sign)
        assert q(multiply(a, b, True), truncate=True) == expected
    report(10, f"(c) signed Leibniz rule, {CASES} cases")


def test_criterion_10d_graded_commutativity():
    rng = random.Random(SEED + 3)
    ctxs = _abelian_cases()
    for _ in range(CASES):
        ctx = ctxs[rng.choice((2, 3, 5))]
        da, db = rng.randint(0, 5), rng.randint(0, 5)
        a = random_homogeneous(ctx, rng, da)
        b = random_homogeneous(ctx, rng, db)
        ab, ba = multiply(a, b, True), multiply(b, a, True)
        if ctx.prime != 2 and (da * db) % 2:
            assert ab == ba.scale(-1)
        else:
            assert ab == ba
    report(10, f"(d) graded commutativity, {CASES} cases")


def test_criterion_10e_action_bockstein_compat():
    rng = random.Random(SEED + 4)
    ctxs = _abelian_cases()
    for _ in range(CASES):
        prime = rng.choice((2, 3, 5))
        ctx = ctxs[prime]
        gens = tuple(invariants.weyl_generators(prime).values())
        action = rng.choice(gens + tuple(g.inverse() for g in gens))
        f = invariants.induced_action(action, ctx)
        q0 = milnor_q(0, ctx)
        el = random_element(ctx, rng, 6)
        assert f(q0(el)) == q0(f(el))
    report(10, f"(e) actions commute with the Bockstein, {CASES} cases")


def test_criterion_10f_dd_zero():
    rng = random.Random(SEED + 5)
    scenarios = [
        specseq.scenario_bg1_two(),
        specseq.scenario_bg1(3),
        specseq.scenario_bg1(5),
        specseq.scenario_bpu(3, False),
        specseq.scenario_bpu(3, True),
        specseq.scenario_bpu(5, False),
    ]
    for _ in range(CASES):
        sc = rng.choice(scenarios)
        el = random_element(sc.context, rng, 6)
        for dspec in sc.differentials:
            assert dspec.apply(dspec.apply(el)).is_zero()
    report(10, f"(f) d o d = 0 on scenario elements, {CASES} cases")


def test_criterion_10g_page_dims_monotone():
    rng = random.Random(SEED + 6)
    for _ in range(CASES):
        prime = rng.choice((2, 3, 5, 7))
        if prime == 2:
            sc = specseq.scenario_bg1_two()
        else:
            sc = specseq.scenario_bg1(
                prime, rng.randint(1, prime - 1), rng.randint(1, prime - 1)
            )
        result = specseq.run_scenario(sc)
        upto = sc.context.top_degree - 1
        for older, newer in zip(result.pages, result.pages[1:]):
            old_dims = older.dims_by_total_degree(upto)
            new_dims = newer.dims_by_total_degree(upto)
            assert all(n <= o for n, o in zip(new_dims, old_dims))
    report(10, f"(g) page dimensions never increase, {CASES} cases")


def test_criterion_10h_rank_nullity():
    rng = random.Random(SEED + 7)
    for _ in range(CASES):
        prime = rng.choice((2, 3, 5, 7))
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = FieldMatrix(
            [[rng.randrange(prime) for _ in range(cols)] for _ in range(rows)],
            prime,
        )
        rank, _ = rref(m)
        kernel = nullspace(m)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert not any(m.apply(v))
    report(10, f"(h) rank-nullity and exact kernels, {CASES} cases")


def test_criterion_11_matrix_suite_at_31(job_records):
    with Stopwatch() as sw:
        reports = job_records("matrices", 31, "matrices.")
    assert_all_pass(reports)
    assert {r.check_id.split(".")[1] for r in reports} >= {"su", "weyl", "g1", "lemma"}
    assert sw.elapsed < 2.0
    report(11, "matrix suite exact at l = 31", sw.elapsed)
