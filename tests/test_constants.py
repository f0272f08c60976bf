"""Interval certificates for the float literals the bounds and gates rest on.

``bounds.S0``, ``bounds.S0_ARGMIN``, ``measures.SUP_G``,
``measures.SUP_G_ARGMAX`` and ``measures.EXTENDED_SIGMA`` are literals in
the source.  ``prove_constants`` encloses the true constants in intervals
(``mpmath.iv`` at 30 digits, outward rounded) and asserts each step of the
two proofs below; the tests then place every literal against its enclosure.

s0 = min over the reals of sin x / x.  The function is even.  On [0, pi]
it is >= 0, and for |x| >= 2 pi it is >= -1/|x| >= -1/(2 pi) > s0.  Its
derivative is f(x) / x^2 with f(x) = x cos x - sin x, and f' = -x sin x > 0
on (pi, 2 pi), f(pi) < 0 < f(2 pi): f has exactly one root x0 there, where
sin x / x falls to its minimum on [pi, 2 pi].  So s0 = sin x0 / x0, with x0
bracketed by interval bisection to 1e-26.

sup G = sup over t of G(0, t) = (2 - 2 cos t - 2 t sin t) / t^2 (even in
t, -1 at t = 0).  G' = -2 h / t^3 with h(t) = t^2 cos t + 2 - 2 cos t -
2 t sin t and h' = -t^2 sin t > 0 on (pi, 2 pi), h(pi) < 0 < h(2 pi): the
only critical point t* there is the maximum of G on [pi, 2 pi], bracketed
the same way.  Elsewhere G stays below G(t*):
  * (0, 0.5]: G = -1 + sum_{j>=2} (-1)^j 2 (2j - 1) / (2j)! t^(2j-2), each
    coefficient at most 1/4, so G <= -1 + t^2 / (4 (1 - t^2)) <= -11/12;
  * [0.5, pi] and [2 pi, 60]: branch and bound, halving each box until
    G's interval upper bound on it is below the lower end of G(t*);
  * t > 60: |G| <= (4 + 2t) / t^2 < 0.035, decreasing in t.
"""

import functools
import math

import pytest

from pairpack.bounds import S0, S0_ARGMIN
from pairpack.measures import EXTENDED_SIGMA, SUP_G, SUP_G_ARGMAX

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv
iv.dps = 30


def _bracket(f, lo, hi):
    """[lo, hi] narrowed to at most 1e-26 around the root of an increasing f
    with f(lo) < 0 < f(hi), every sign decided by an interval evaluation."""
    assert f(lo).b < 0 < f(hi).a
    while (hi - lo).b > 1e-26:
        mid = ((lo + hi) / 2).a
        value = f(mid)
        assert value.b < 0 or value.a > 0, "sign at the midpoint undecided"
        lo, hi = (mid, hi) if value.b < 0 else (lo, mid)
    return iv.mpf([lo, hi])


def _g(t):
    return (2 - 2 * iv.cos(t) - 2 * t * iv.sin(t)) / (t * t)


def _assert_below(a: float, b: float, level) -> None:
    """G's interval upper bound is below ``level`` on every box of a cover
    of [a, b] by halving, no box narrower than 1e-6."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if not _g(iv.mpf([a, b])).b < level:
            assert b - a > 1e-6, f"G not below the level on [{a}, {b}]"
            stack += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]


def prove_constants() -> dict:
    """Enclosures of x0, s0, t* and sup G, every step of the module's proofs
    asserted on the way."""
    pi, two_pi = iv.pi, 2 * iv.pi
    x0 = _bracket(lambda x: x * iv.cos(x) - iv.sin(x), pi.b, two_pi.a)
    s0 = iv.sin(x0) / x0
    assert (-1 / two_pi).a > s0.b                           # |x| >= 2 pi
    t_star = _bracket(lambda t: t * t * iv.cos(t) + 2 - 2 * iv.cos(t) - 2 * t * iv.sin(t),
                      pi.b, two_pi.a)
    sup_g = _g(t_star)
    half = iv.mpf(0.5)
    assert (-1 + half * half / (4 * (1 - half * half))).b < sup_g.a    # (0, 0.5]
    _assert_below(0.5, 3.15, sup_g.a)                                  # [0.5, pi]
    _assert_below(6.28, 60.0, sup_g.a)                                 # [2 pi, 60]
    assert ((4 + 2 * iv.mpf(60)) / 60 ** 2).b < 0.035 < sup_g.a        # t > 60
    return {"x0": x0, "s0": s0, "t_star": t_star, "sup_g": sup_g}


enclosures = functools.cache(prove_constants)


def largest_double_below(value: float, exact) -> bool:
    return value <= exact.a and math.nextafter(value, math.inf) > exact.b


def smallest_double_above(value: float, exact) -> bool:
    return value >= exact.b and math.nextafter(value, -math.inf) < exact.a


def nearest_double(value: float, exact) -> bool:
    """``exact`` lies within half an ulp of ``value``."""
    half_ulp = iv.mpf(math.ulp(value)) / 2
    return (value - half_ulp).a <= exact.a and exact.b <= (value + half_ulp).b


# name: (literal, the certificate it must pass)
CERTIFICATES = {
    "S0": (S0, lambda v, e: largest_double_below(v, e["s0"])),
    "S0_ARGMIN": (S0_ARGMIN, lambda v, e: nearest_double(v, e["x0"])),
    "SUP_G": (SUP_G, lambda v, e: smallest_double_above(v, e["sup_g"])),
    "SUP_G_ARGMAX": (SUP_G_ARGMAX, lambda v, e: nearest_double(v, e["t_star"])),
    "EXTENDED_SIGMA": (EXTENDED_SIGMA, lambda v, e: v <= (1 / e["sup_g"]).a),
}


@pytest.mark.parametrize("name", CERTIFICATES)
def test_literal_is_proven(name):
    literal, certificate = CERTIFICATES[name]
    assert certificate(literal, enclosures())


# Each literal moved the wrong way by one ulp.  EXTENDED_SIGMA = 1 / SUP_G
# is one ulp below the largest double <= 1 / sup G (1.7048313528085763,
# which passes too), so it moves by two, to the first double above.
@pytest.mark.parametrize("name, planted, ulps", [
    ("S0", -0.21723362821122164, 1),
    ("S0_ARGMIN", 4.493409457909063, 1),
    ("SUP_G", 0.5865682833393333, 1),
    ("SUP_G_ARGMAX", 4.085573885476823, 1),
    ("EXTENDED_SIGMA", 1.7048313528085766, 2),
])
def test_planted_literal_fails(name, planted, ulps):
    literal, certificate = CERTIFICATES[name]
    assert abs(planted - literal) == ulps * math.ulp(literal)
    assert not certificate(planted, enclosures())
