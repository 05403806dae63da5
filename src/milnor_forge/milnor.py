"""Milnor primitives Q_j as signed derivations, and the displayed-expansion checks.

The generator rule is Q_j(g) = (Q_0 g)^(l^j) for a degree-1 generator g with
Bockstein partner Q_0 g, and Q_j = 0 on the degree-2 partners; at l = 2 the
partner is g itself with squaring, so Q_j(g) = g^(2^(j+1)).  The rule is never
special-cased per example: every displayed expansion below is reproduced from
it by the Leibniz extension alone.

The module also holds the one definition of the paper's degree-4 key class
(``key_class``), of u2 and u3 at l = 2 (``two_classes``), of the rank-3
context that carries them (``rank3_context``) and of the displayed rank-2
values Q0(x1 y1), Q1(x1 y1) and Q1 Q0(x1 y1) (``rank2_formulas``); the
invariants and spectral-sequence checks read these.
"""

from __future__ import annotations

from typing import Mapping

from .galg import (
    AlgebraContext,
    Element,
    TruncationOverflowError,
    elementary_abelian_context,
    multiply,
    random_element,
    signed_leibniz,
)
from .report import FAIL, PASS, Check, Job, always, at_two, note, odd


class Derivation:
    """A degree-homogeneous odd derivation determined by generator images.

    Extension to products follows the signed Leibniz rule
    D(ab) = D(a) b + (-1)^deg(a) a D(b) (``galg.signed_leibniz``); at l = 2
    the sign is vacuous.
    """

    __slots__ = ("context", "images", "_rules")

    def __init__(self, context: AlgebraContext, shift: int, images: Mapping[str, Element]):
        self.context = context
        cleaned: dict[str, Element] = {}
        for name, img in images.items():
            spec = context.spec(name)
            if img.context is not context:
                raise ValueError("image belongs to a different context")
            if img.is_zero():
                continue
            deg = img.homogeneous_degree()
            if deg is None or deg != spec.degree + shift:
                raise ValueError(
                    f"image of {name} must be homogeneous of degree "
                    f"{spec.degree + shift}"
                )
            cleaned[name] = img
        self.images = cleaned
        self._rules = {context.position(name): (1, img) for name, img in cleaned.items()}

    def __call__(self, element: Element, truncate: bool = False) -> Element:
        if element.context is not self.context:
            raise ValueError("element belongs to a different context")
        return signed_leibniz(element, self._rules, truncate)


def milnor_q(j: int, ctx: AlgebraContext) -> Derivation:
    """The j-th Milnor primitive on a context of degree-1 generators and partners."""
    if j < 0:
        raise ValueError("index must be non-negative")
    p = ctx.prime
    shift = 2 * p**j - 1
    names, partners = ctx.degree_one, ctx.declared_partners
    if None in partners:
        raise ValueError(
            f"degree-1 generator {names[partners.index(None)]} has no Bockstein partner"
        )
    known = {*names, *partners}
    for g in ctx.generators:
        if g.name not in known:
            raise ValueError(f"generator {g.name} is neither degree 1 nor a Bockstein partner")
        if g.degree == 1 and 1 + shift > ctx.top_degree:
            raise TruncationOverflowError(
                f"Q_{j} image degree {1 + shift} exceeds truncation {ctx.top_degree}"
            )
    # Q_j(g) = (Q_0 g)^(l^j), where Q_0 g is g's partner, or g^2 at l = 2 (g is
    # its own partner there); Q_j of a partner generator is zero
    power = 2 * p**j if p == 2 else p**j
    images = {
        name: ctx.monomial_element({partner: power}) for name, partner in zip(names, partners)
    }
    return Derivation(ctx, shift, images)


def rank3_context(prime: int) -> AlgebraContext:
    """The rank-3 context of x1, y1, z1 (and their partners at odd l) that
    carries the key class, truncated at degree 2l + 6."""
    return elementary_abelian_context(prime, 3, 2 * prime + 6)


def two_classes(ctx: AlgebraContext) -> tuple[Element, Element]:
    """The l = 2 invariants u2 = x1^2 + x1 y1 + y1^2 and u3 = x1 y1^2 + x1^2 y1,
    on any context of characteristic 2 with generators x1 and y1."""
    if ctx.prime != 2:
        raise ValueError("u2 and u3 are defined at l = 2")
    m = ctx.monomial_element
    u2 = m({"x1": 2}) + m({"x1": 1, "y1": 1}) + m({"y1": 2})
    u3 = m({"x1": 1, "y1": 2}) + m({"x1": 2, "y1": 1})
    return u2, u3


def key_class(ctx: AlgebraContext) -> Element:
    """The degree-4 class that spans the invariant line and lifts to the total
    space: u3 z1 + u2 z1^2 + z1^4 at l = 2, Q0(x1 y1 z1) at an odd prime."""
    m = ctx.monomial_element
    if ctx.prime == 2:
        u2, u3 = two_classes(ctx)
        return multiply(u3, m({"z1": 1})) + multiply(u2, m({"z1": 2})) + m({"z1": 4})
    return milnor_q(0, ctx)(m({"x1": 1, "y1": 1, "z1": 1}))


def rank2_formulas(ctx: AlgebraContext) -> dict[str, Element]:
    """The displayed rank-2 values at an odd prime l, by label:
    Q0(x1 y1) = x2 y1 - x1 y2, Q1(x1 y1) = x2^l y1 - x1 y2^l and
    Q1 Q0(x1 y1) = x2 y2^l - x2^l y2, on any context with x1, y1 and their
    partners x2, y2."""
    if ctx.prime == 2:
        raise ValueError("the rank-2 formulas are displayed at odd primes")
    p = ctx.prime
    m = ctx.monomial_element
    return {
        "Q0(x1 y1)": m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1}),
        "Q1(x1 y1)": m({"x2": p, "y1": 1}) - m({"x1": 1, "y2": p}),
        "Q1 Q0(x1 y1)": m({"x2": 1, "y2": p}) - m({"x2": p, "y2": 1}),
    }


def dickson_mui_generators(prime: int, ctx: AlgebraContext) -> tuple[Element, Element]:
    """The two polynomial generators of the rank-2 modular invariant ring.

    Returns (d1, d2) of degrees 2l+2 and 2l^2-2l: d1 = Q1 Q0(x1 y1) and d2 the
    closed telescoping sum whose product with d1 is Q2 Q0(x1 y1).
    """
    m = ctx.monomial_element
    d1 = rank2_formulas(ctx)["Q1 Q0(x1 y1)"]
    d2 = ctx.zero()
    for k in range(prime + 1):
        d2 = d2 + m({"x2": k * (prime - 1), "y2": (prime - k) * (prime - 1)})
    return d1, d2


# ---------------------------------------------------------------------------
# checks


def job_rank3_context(job: Job) -> AlgebraContext:
    """The job's ``rank3_context``, built once per job; the invariants and
    spectral-sequence checks read it too."""
    return job.shared("rank3_context", lambda: rank3_context(job.prime))


def _q(job: Job, j: int) -> Derivation:
    """Q_j on the job's rank-3 context."""
    ctx = job_rank3_context(job)
    return job.shared(("q", j), lambda: milnor_q(j, ctx))


def _compare(got: Element, want: Element, label: str) -> tuple[str, str]:
    if got != want:
        return FAIL, f"{label}: computed {got.render()} but expected {want.render()}"
    if got.is_zero():
        return FAIL, f"{label}: result is zero"
    return PASS, f"{label} = {got.render()}"


def _displayed(expansions, check_id: str):
    """The body comparing one computed expansion with its displayed value."""

    def body(job: Job) -> tuple[str, str]:
        label, got, want = expansions(job)[check_id]
        return _compare(got, want, label)

    return body


def _odd_expansions(job: Job) -> dict[str, tuple[str, Element, Element]]:
    """Q_0/Q_1 expansions on two and three exterior factors, odd prime:
    (label, computed, displayed) by check id."""

    def build():
        prime = job.prime
        q0, q1 = _q(job, 0), _q(job, 1)
        m = q0.context.monomial_element
        xy = m({"x1": 1, "y1": 1})
        q0_xy = q0(xy)
        shown = rank2_formulas(q0.context)
        return {
            "milnor.q0.xy": ("Q0(x1 y1)", q0_xy, shown["Q0(x1 y1)"]),
            "milnor.q1.xy": ("Q1(x1 y1)", q1(xy), shown["Q1(x1 y1)"]),
            "milnor.q1q0.xy": ("Q1 Q0(x1 y1)", q1(q0_xy), shown["Q1 Q0(x1 y1)"]),
            "milnor.q1q0.xyz": (
                "Q1 Q0(x1 y1 z1)", q1(key_class(q0.context)),
                -m({"x2": prime, "y2": 1, "z1": 1})
                + m({"x2": prime, "y1": 1, "z2": 1})
                + m({"x2": 1, "y2": prime, "z1": 1})
                - m({"x2": 1, "y1": 1, "z2": prime})
                - m({"x1": 1, "y2": prime, "z2": 1})
                + m({"x1": 1, "y2": 1, "z2": prime}),
            ),
        }

    return job.shared("odd_expansions", build)


def _two_expansions(job: Job) -> dict[str, tuple[str, Element, Element]]:
    """The l = 2 expansions: Q1 on the rank-3 product and the invariant class."""

    def build():
        q0, q1 = _q(job, 0), _q(job, 1)
        m = q0.context.monomial_element
        q1_xyz = q1(m({"x1": 1, "y1": 1, "z1": 1}))
        six_terms = (
            m({"x1": 4, "y1": 2, "z1": 1})
            + m({"x1": 4, "y1": 1, "z1": 2})
            + m({"x1": 2, "y1": 4, "z1": 1})
            + m({"x1": 2, "y1": 1, "z1": 4})
            + m({"x1": 1, "y1": 4, "z1": 2})
            + m({"x1": 1, "y1": 2, "z1": 4})
        )
        return {
            "milnor.q1.xyz_two": (
                "Q1(x1 y1 z1)", q1_xyz,
                m({"x1": 4, "y1": 1, "z1": 1})
                + m({"x1": 1, "y1": 4, "z1": 1})
                + m({"x1": 1, "y1": 1, "z1": 4}),
            ),
            "milnor.q0q1.xyz_two": ("Q0 Q1(x1 y1 z1)", q0(q1_xyz), six_terms),
            "milnor.q1.invariant_two": (
                "Q1(u3 z1 + u2 z1^2 + z1^4)", q1(key_class(q0.context)), six_terms,
            ),
        }

    return job.shared("two_expansions", build)


def _dickson_planned(prime: int, config) -> bool:
    return prime != 2 and prime <= config.dickson_cap


def _dickson(job: Job) -> tuple[Element, Element, Element]:
    """Q2 Q0(x1 y1) and the rank-2 modular generators (d1, d2)."""

    def build():
        prime = job.prime
        ctx = elementary_abelian_context(prime, 2, 2 * prime * prime + 2)
        q0, q2 = milnor_q(0, ctx), milnor_q(2, ctx)
        lhs = q2(q0(ctx.monomial_element({"x1": 1, "y1": 1})))
        return (lhs, *dickson_mui_generators(prime, ctx))

    return job.shared("dickson", build)


def _dickson_product(job: Job) -> tuple[str, str]:
    """Division-free product identity Q2 Q0(x1 y1) = d1 * d2."""
    lhs, d1, d2 = _dickson(job)
    return _compare(
        lhs, multiply(d1, d2), "Q2 Q0(x1 y1) = Q1 Q0(x1 y1) * (telescoping sum)"
    )


def _dickson_degrees(job: Job) -> tuple[str, str]:
    prime = job.prime
    lhs, d1, d2 = _dickson(job)
    deg1 = d1.homogeneous_degree()
    deg2 = d2.homogeneous_degree()
    deg_lhs = lhs.homogeneous_degree()
    want = (2 * prime + 2, 2 * prime * prime - 2 * prime, 2 * prime * prime + 2)
    if (deg1, deg2, deg_lhs) == want:
        return PASS, f"degrees ({deg1}, {deg2}) sum to {deg_lhs}"
    return FAIL, f"degrees ({deg1}, {deg2}, {deg_lhs}) != {want}"


def _squares(job: Job) -> tuple[str, str]:
    rng = job.rng(7919)
    q0, q1 = _q(job, 0), _q(job, 1)
    for _ in range(25):
        el = random_element(q0.context, rng, 4)
        if not q0(q0(el)).is_zero():
            return FAIL, f"Q0 Q0 != 0 on {el.render()}"
        if not q1(q1(el), truncate=True).is_zero():
            return FAIL, f"Q1 Q1 != 0 on {el.render()}"
    return PASS, "Q_j o Q_j = 0 on 25 seeded random elements, j in {0, 1}"


def _anticommute(job: Job) -> tuple[str, str]:
    rng = job.rng(7919)
    q0, q1 = _q(job, 0), _q(job, 1)
    for _ in range(25):
        el = random_element(q0.context, rng, 4)
        lhs = q0(q1(el, truncate=True), truncate=True)
        rhs = q1(q0(el), truncate=True)
        combined = lhs + rhs if job.prime != 2 else lhs - rhs
        if not combined.is_zero():
            return FAIL, f"Q0 Q1 + Q1 Q0 != 0 on {el.render()}"
    return PASS, "Q0 Q1 + Q1 Q0 = 0 on 25 seeded random elements"


CHECKS = (
    Check("milnor.q0.xy", odd, _displayed(_odd_expansions, "milnor.q0.xy")),
    Check("milnor.q1.xy", odd, _displayed(_odd_expansions, "milnor.q1.xy")),
    Check("milnor.q1q0.xy", odd, _displayed(_odd_expansions, "milnor.q1q0.xy")),
    Check("milnor.q1q0.xyz", odd, _displayed(_odd_expansions, "milnor.q1q0.xyz")),
    Check("milnor.q1q0.xyz_exponent_note", odd, note(
        "the printed six-term expansion of Q1 Q0(x1 y1 z1) contains the "
        "degree-7 term -x2*y1*z2 where the derivation rule forces the "
        "homogeneous term -x2*y1*z2^l; the derived exponent is asserted"
    )),
    Check("milnor.q1.xyz_two", at_two, _displayed(_two_expansions, "milnor.q1.xyz_two")),
    Check("milnor.q0q1.xyz_two", at_two, _displayed(_two_expansions, "milnor.q0q1.xyz_two")),
    Check(
        "milnor.q1.invariant_two", at_two,
        _displayed(_two_expansions, "milnor.q1.invariant_two"),
    ),
    Check("milnor.dickson_mui.product", _dickson_planned, _dickson_product),
    Check("milnor.dickson_mui.degrees", _dickson_planned, _dickson_degrees),
    Check("milnor.q.squares", always, _squares),
    Check("milnor.q.anticommute", always, _anticommute),
)
