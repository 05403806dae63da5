"""Milnor primitives Q_j as signed derivations, and the displayed-expansion checks.

The generator rule is Q_j(g) = (Q_0 g)^(l^j) for a degree-1 generator g with
Bockstein partner Q_0 g, and Q_j = 0 on the degree-2 partners; at l = 2 the
partner is g itself with squaring, so Q_j(g) = g^(2^(j+1)).  The rule is never
special-cased per example: every displayed expansion below is reproduced from
it by the Leibniz extension alone.
"""

from __future__ import annotations

from typing import Mapping

from .ffla import check_prime
from .galg import (
    AlgebraContext,
    Element,
    TruncationOverflowError,
    elementary_abelian_context,
    multiply,
    signed_leibniz,
)
from .report import FAIL, NOTE, PASS, CheckReport, run_check


class Derivation:
    """A degree-homogeneous odd derivation determined by generator images.

    Extension to products follows the signed Leibniz rule
    D(ab) = D(a) b + (-1)^deg(a) a D(b) (``galg.signed_leibniz``); at l = 2
    the sign is vacuous.
    """

    __slots__ = ("context", "shift", "images", "_rules")

    parity = "odd"

    def __init__(self, context: AlgebraContext, shift: int, images: Mapping[str, Element]):
        self.context = context
        self.shift = shift
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
    images: dict[str, Element] = {}
    partners = set()
    for g in ctx.generators:
        if g.degree == 1:
            if g.bockstein_partner is None:
                raise ValueError(f"degree-1 generator {g.name} has no Bockstein partner")
            partners.add(g.bockstein_partner)
    for g in ctx.generators:
        if g.degree == 1:
            target_degree = 1 + shift
            if target_degree > ctx.top_degree:
                raise TruncationOverflowError(
                    f"Q_{j} image degree {target_degree} exceeds truncation "
                    f"{ctx.top_degree}"
                )
            if p == 2:
                images[g.name] = ctx.monomial_element({g.name: 2 ** (j + 1)})
            else:
                images[g.name] = ctx.monomial_element({g.bockstein_partner: p**j})
        elif g.name in partners:
            pass  # Q_j of a partner generator is zero
        else:
            raise ValueError(
                f"generator {g.name} is neither degree 1 nor a Bockstein partner"
            )
    return Derivation(ctx, shift, images)


# ---------------------------------------------------------------------------
# displayed-expansion checks


def _compare(check_id: str, prime: int, got: Element, want: Element,
             label: str, require_nonzero: bool = True) -> CheckReport:
    def body() -> tuple[str, str]:
        if got != want:
            return FAIL, f"{label}: computed {got.render()} but expected {want.render()}"
        if require_nonzero and got.is_zero():
            return FAIL, f"{label}: result is zero"
        return PASS, f"{label} = {got.render()}"

    return run_check(check_id, prime, body)


def verify_q_expansion_odd(prime: int) -> list[CheckReport]:
    """Q_0/Q_1 expansions on two and three exterior factors, odd prime."""
    check_prime(prime)
    if prime == 2:
        raise ValueError("use verify_q_expansion_two for the prime 2")
    ctx = elementary_abelian_context(prime, 3, 2 * prime + 6)
    q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
    m = ctx.monomial_element

    xy = m({"x1": 1, "y1": 1})
    xyz = m({"x1": 1, "y1": 1, "z1": 1})

    q0_xy = q0(xy)
    want_q0_xy = m({"x2": 1, "y1": 1}) - m({"x1": 1, "y2": 1})
    q1_xy = q1(xy)
    want_q1_xy = m({"x2": prime, "y1": 1}) - m({"x1": 1, "y2": prime})
    q1q0_xy = q1(q0_xy)
    want_q1q0_xy = m({"x2": 1, "y2": prime}) - m({"x2": prime, "y2": 1})

    q1q0_xyz = q1(q0(xyz))
    want_q1q0_xyz = (
        -m({"x2": prime, "y2": 1, "z1": 1})
        + m({"x2": prime, "y1": 1, "z2": 1})
        + m({"x2": 1, "y2": prime, "z1": 1})
        - m({"x2": 1, "y1": 1, "z2": prime})
        - m({"x1": 1, "y2": prime, "z2": 1})
        + m({"x1": 1, "y2": 1, "z2": prime})
    )

    return [
        _compare("milnor.q0.xy", prime, q0_xy, want_q0_xy, "Q0(x1 y1)"),
        _compare("milnor.q1.xy", prime, q1_xy, want_q1_xy, "Q1(x1 y1)"),
        _compare("milnor.q1q0.xy", prime, q1q0_xy, want_q1q0_xy, "Q1 Q0(x1 y1)"),
        _compare("milnor.q1q0.xyz", prime, q1q0_xyz, want_q1q0_xyz, "Q1 Q0(x1 y1 z1)"),
        run_check(
            "milnor.q1q0.xyz_exponent_note", prime,
            lambda: (
                NOTE,
                "the printed six-term expansion of Q1 Q0(x1 y1 z1) contains the "
                "degree-7 term -x2*y1*z2 where the derivation rule forces the "
                "homogeneous term -x2*y1*z2^l; the derived exponent is asserted",
            ),
        ),
    ]


def verify_q_expansion_two() -> list[CheckReport]:
    """The l = 2 expansions: Q1 on the rank-3 product and the invariant class."""
    ctx = elementary_abelian_context(2, 3, 8)
    q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)
    m = ctx.monomial_element

    xyz = m({"x1": 1, "y1": 1, "z1": 1})
    q1_xyz = q1(xyz)
    want_q1_xyz = (
        m({"x1": 4, "y1": 1, "z1": 1})
        + m({"x1": 1, "y1": 4, "z1": 1})
        + m({"x1": 1, "y1": 1, "z1": 4})
    )

    six_terms = (
        m({"x1": 4, "y1": 2, "z1": 1})
        + m({"x1": 4, "y1": 1, "z1": 2})
        + m({"x1": 2, "y1": 4, "z1": 1})
        + m({"x1": 2, "y1": 1, "z1": 4})
        + m({"x1": 1, "y1": 4, "z1": 2})
        + m({"x1": 1, "y1": 2, "z1": 4})
    )
    q0q1_xyz = q0(q1_xyz)

    u2 = m({"x1": 2}) + m({"x1": 1, "y1": 1}) + m({"y1": 2})
    u3 = m({"x1": 1, "y1": 2}) + m({"x1": 2, "y1": 1})
    invariant = (
        multiply(u3, m({"z1": 1}))
        + multiply(u2, m({"z1": 2}))
        + m({"z1": 4})
    )
    q1_invariant = q1(invariant)

    return [
        _compare("milnor.q1.xyz_two", 2, q1_xyz, want_q1_xyz, "Q1(x1 y1 z1)"),
        _compare("milnor.q0q1.xyz_two", 2, q0q1_xyz, six_terms, "Q0 Q1(x1 y1 z1)"),
        _compare(
            "milnor.q1.invariant_two", 2, q1_invariant, six_terms,
            "Q1(u3 z1 + u2 z1^2 + z1^4)",
        ),
    ]


def dickson_mui_generators(prime: int, ctx: AlgebraContext) -> tuple[Element, Element]:
    """The two polynomial generators of the rank-2 modular invariant ring.

    Returns (d1, d2) of degrees 2l+2 and 2l^2-2l: d1 = Q1 Q0(x1 y1) and d2 the
    closed telescoping sum whose product with d1 is Q2 Q0(x1 y1).
    """
    m = ctx.monomial_element
    d1 = m({"x2": 1, "y2": prime}) - m({"x2": prime, "y2": 1})
    d2 = ctx.zero()
    for k in range(prime + 1):
        d2 = d2 + m({"x2": k * (prime - 1), "y2": (prime - k) * (prime - 1)})
    return d1, d2


def dickson_mui_check(prime: int) -> list[CheckReport]:
    """Division-free product identity Q2 Q0(x1 y1) = d1 * d2, plus degree bookkeeping."""
    check_prime(prime)
    if prime == 2:
        raise ValueError("the rank-2 modular generators at l = 2 live in dickson_invariance")
    ctx = elementary_abelian_context(prime, 2, 2 * prime * prime + 2)
    q0, q2 = milnor_q(0, ctx), milnor_q(2, ctx)
    m = ctx.monomial_element
    xy = m({"x1": 1, "y1": 1})
    lhs = q2(q0(xy))
    d1, d2 = dickson_mui_generators(prime, ctx)
    rhs = multiply(d1, d2)

    reports = [
        _compare(
            "milnor.dickson_mui.product", prime, lhs, rhs,
            "Q2 Q0(x1 y1) = Q1 Q0(x1 y1) * (telescoping sum)",
        )
    ]

    def degrees() -> tuple[str, str]:
        deg1 = d1.homogeneous_degree()
        deg2 = d2.homogeneous_degree()
        deg_lhs = lhs.homogeneous_degree()
        want = (2 * prime + 2, 2 * prime * prime - 2 * prime, 2 * prime * prime + 2)
        if (deg1, deg2, deg_lhs) == want:
            return PASS, f"degrees ({deg1}, {deg2}) sum to {deg_lhs}"
        return FAIL, f"degrees ({deg1}, {deg2}, {deg_lhs}) != {want}"

    reports.append(run_check("milnor.dickson_mui.degrees", prime, degrees))
    return reports
