"""The paper's degree-4 key class, its rank-3 context and the l = 2 classes
u2 and u3 (``milnor.rank3_context``, ``two_classes`` and ``key_class``), and
the records of every check that reads them."""

import pytest

from milnor_forge.cli import RunConfig, run
from milnor_forge.galg import elementary_abelian_context
from milnor_forge.milnor import key_class, rank3_context, two_classes

PRIMES = (2, 3, 5, 7, 11)


def terms(ctx, *summands):
    """The reduced terms of sum(coeff * monomial) over (coeff, powers) pairs,
    each monomial given by its exponent per generator name."""
    out = {}
    for coeff, powers in summands:
        mono = tuple(powers.get(g.name, 0) for g in ctx.generators)
        out[mono] = coeff % ctx.prime
    return out


@pytest.mark.parametrize("prime", PRIMES)
def test_rank3_context(prime):
    ctx = rank3_context(prime)
    assert ctx.prime == prime
    assert ctx.top_degree == 2 * prime + 6
    if prime == 2:
        want = [("x1", 1, "x1"), ("y1", 1, "y1"), ("z1", 1, "z1")]
    else:
        want = [
            ("x1", 1, "x2"), ("x2", 2, None),
            ("y1", 1, "y2"), ("y2", 2, None),
            ("z1", 1, "z2"), ("z2", 2, None),
        ]
    got = [(g.name, g.degree, g.bockstein_partner) for g in ctx.generators]
    assert got == want


@pytest.mark.parametrize("ctx", [rank3_context(2), elementary_abelian_context(2, 2, 4)])
def test_two_classes(ctx):
    u2, u3 = two_classes(ctx)
    assert u2.terms == terms(ctx, (1, {"x1": 2}), (1, {"x1": 1, "y1": 1}), (1, {"y1": 2}))
    assert u3.terms == terms(ctx, (1, {"x1": 1, "y1": 2}), (1, {"x1": 2, "y1": 1}))


@pytest.mark.parametrize("prime", PRIMES[1:])
def test_two_classes_only_at_two(prime):
    with pytest.raises(ValueError):
        two_classes(rank3_context(prime))


def test_key_class_at_two():
    # u3 z1 + u2 z1^2 + z1^4, multiplied out
    ctx = rank3_context(2)
    assert key_class(ctx).terms == terms(
        ctx,
        (1, {"x1": 1, "y1": 2, "z1": 1}),
        (1, {"x1": 2, "y1": 1, "z1": 1}),
        (1, {"x1": 2, "z1": 2}),
        (1, {"x1": 1, "y1": 1, "z1": 2}),
        (1, {"y1": 2, "z1": 2}),
        (1, {"z1": 4}),
    )


@pytest.mark.parametrize("prime", PRIMES[1:])
def test_key_class_at_odd_primes(prime):
    # Q0(x1 y1 z1) = x2 y1 z1 - x1 y2 z1 + x1 y1 z2
    ctx = rank3_context(prime)
    assert key_class(ctx).terms == terms(
        ctx,
        (1, {"x2": 1, "y1": 1, "z1": 1}),
        (-1, {"x1": 1, "y2": 1, "z1": 1}),
        (1, {"x1": 1, "y1": 1, "z2": 1}),
    )


# (check id, prime, status, details) of every record whose check reads the
# key class, u2, u3 or the rank-3 context, at l = 2, 3 and 17
PINNED = (
    ("milnor.q0q1.xyz_two", 2, "pass", (
        "Q0 Q1(x1 y1 z1) = 1*x1*y1^2*z1^4 + 1*x1*y1^4*z1^2 + "
        "1*x1^2*y1*z1^4 + 1*x1^2*y1^4*z1 + 1*x1^4*y1*z1^2 + "
        "1*x1^4*y1^2*z1"
    )),
    ("milnor.q1.invariant_two", 2, "pass", (
        "Q1(u3 z1 + u2 z1^2 + z1^4) = 1*x1*y1^2*z1^4 + 1*x1*y1^4*z1^2 + "
        "1*x1^2*y1*z1^4 + 1*x1^2*y1^4*z1 + 1*x1^4*y1*z1^2 + "
        "1*x1^4*y1^2*z1"
    )),
    ("milnor.q1.xyz_two", 2, "pass", (
        "Q1(x1 y1 z1) = 1*x1*y1*z1^4 + 1*x1*y1^4*z1 + 1*x1^4*y1*z1"
    )),
    ("milnor.q1.xy", 3, "pass", "Q1(x1 y1) = 1*x2^3*y1 + 2*x1*y2^3"),
    ("milnor.q1q0.xyz", 3, "pass", (
        "Q1 Q0(x1 y1 z1) = 1*x2*y2^3*z1 + 2*x2*y1*z2^3 + 2*x2^3*y2*z1 + "
        "1*x2^3*y1*z2 + 1*x1*y2*z2^3 + 2*x1*y2^3*z2"
    )),
    ("milnor.q1.xy", 17, "pass", "Q1(x1 y1) = 1*x2^17*y1 + 16*x1*y2^17"),
    ("milnor.q1q0.xyz", 17, "pass", (
        "Q1 Q0(x1 y1 z1) = 1*x2*y2^17*z1 + 16*x2*y1*z2^17 + "
        "16*x2^17*y2*z1 + 1*x2^17*y1*z2 + 1*x1*y2*z2^17 + 16*x1*y2^17*z2"
    )),
    ("invariants.dickson.fixed", 2, "pass", "u2, u3 fixed by both shear generators"),
    ("invariants.w.h4_dimension", 2, "pass", "dim 2: u2^2 and u3*z1 + u2*z1^2 + z1^4"),
    ("invariants.w0.h4_dimension", 2, "pass", "dim 4: u2^2, u3*z1, u2*z1^2, z1^4"),
    ("invariants.w0.u2_invariant", 2, "pass", (
        "u2 = x1^2 + x1*y1 + y1^2 is invariant in degree 2"
    )),
    ("invariants.dickson.fixed", 3, "pass", (
        "x1*y1, Q0(x1 y1), Q1(x1 y1), Q1 Q0(x1 y1) fixed by both shear "
        "generators"
    )),
    ("invariants.w.h4_dimension", 3, "pass", (
        "dim 1, spanned by 1*x2*y1*z1 + 2*x1*y2*z1 + 1*x1*y1*z2"
    )),
    ("invariants.w0.h4_dimension", 3, "pass", "dim 3: z2^2, x1*y1*z2, (x2*y1 - x1*y2)*z1"),
    ("invariants.dickson.fixed", 17, "pass", (
        "x1*y1, Q0(x1 y1), Q1(x1 y1), Q1 Q0(x1 y1) fixed by both shear "
        "generators"
    )),
    ("invariants.w.h4_dimension", 17, "pass", (
        "dim 1, spanned by 1*x2*y1*z1 + 16*x1*y2*z1 + 1*x1*y1*z2"
    )),
    ("invariants.w0.h4_dimension", 17, "pass", "dim 3: z2^2, x1*y1*z2, (x2*y1 - x1*y2)*z1"),
    ("ss.iota.h4_rank", 2, "pass", (
        "H^4 mod-l dimension 2 equals the rational dimension, so the "
        "integral reduction is onto in degree 4"
    )),
    ("ss.iota.leading_term", 2, "pass", (
        "invariants of dim 2 contain u2^2 and the class with fiber "
        "leading term z1^4; image dimension matches"
    )),
    ("ss.iota.q1_nonzero", 2, "pass", "Q1 of the invariant class is nonzero in degree 7"),
    ("ss.iota.h4_rank", 3, "pass", (
        "H^4 mod-l dimension 2 equals the rational dimension, so the "
        "integral reduction is onto in degree 4"
    )),
    ("ss.iota.leading_term", 3, "pass", (
        "the invariant line is spanned by a class with x1*y1*z2 "
        "coefficient 1, matching the restricted leading term"
    )),
    ("ss.iota.q1_nonzero", 3, "pass", "Q1 of the invariant class is nonzero in degree 9"),
    ("ss.iota.h4_rank", 17, "pass", (
        "H^4 mod-l dimension 2 equals the rational dimension, so the "
        "integral reduction is onto in degree 4"
    )),
    ("ss.iota.leading_term", 17, "pass", (
        "the invariant line is spanned by a class with x1*y1*z2 "
        "coefficient 1, matching the restricted leading term"
    )),
    ("ss.iota.q1_nonzero", 17, "pass", "Q1 of the invariant class is nonzero in degree 37"),
)


def _reads_key_class(check_id):
    return check_id.startswith(
        ("invariants.w.", "invariants.w0.", "milnor.q1.", "ss.iota.")
    ) or check_id in ("invariants.dickson.fixed", "milnor.q1q0.xyz", "milnor.q0q1.xyz_two")


@pytest.mark.parametrize("suite", ("milnor", "invariants", "ss"))
def test_pinned_records(suite):
    config = RunConfig(primes=(2, 3, 17), suites=(suite,))
    got = [
        (r.check_id, r.prime, r.status, r.details)
        for r in run(config)
        if _reads_key_class(r.check_id)
    ]
    assert sorted(got) == sorted(p for p in PINNED if p[0].startswith(suite + "."))
