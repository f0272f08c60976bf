"""Bound constants for long-term averages of pair-correlation form factors.

For an admissible measure the averaged form factor is squeezed between

    lower:  1 + s0 (C - 1)          and        upper:  C,

where C is the optimization constant of the measure and s0 is the global
minimum of sin x / x, held as the proven float literal ``S0``.  C itself
is only known through its upper bound 1 / K(0,0); since s0 < 0,
substituting that bound into the lower-bound formula is still valid.  A
second, measure-independent floor of 1/2 comes from the triangle-transform
witness.  All reported numbers are the limiting constants; no asymptotic
slack is added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import C3_MAX, kernel_k00
from .measures import Measure
from .quadrature import bisect

THEOREM2_FLOOR = 0.5
_REFUTATION_XTOL = 1e-6      # refutation_threshold's bisection tolerance in ell
_MAX_DEGREE = 2 ** 53        # the degrees up to which floats hold every integer
# s0 = min sin x / x, attained at the root of tan x = x in (pi, 3 pi / 2):
# S0 is the largest double <= s0 (rounded down) and S0_ARGMIN the double
# nearest that root (rounded to nearest), both proved by the interval
# enclosures of tests/test_constants.py::test_literal_is_proven.
S0 = -0.21723362821122166
S0_ARGMIN = 4.493409457909064


@dataclass(frozen=True)
class BoundsReport:
    """Every bound constant attached to one measure.

    c_nu_upper  : 1 / K(0,0), an upper bound for the optimization constant
                  and hence for the limiting averages.
    lower_thm1  : 1 + s0 (1/K - 1); <= 1 exactly when upper >= 1.  Where
                  K(0,0) > 1 it exceeds both 1 and ``upper``: the curves cross.
    lower_cor8  : (1/2 + s0 (1/K - 1))_+ + 1/2.
    lower_thm2  : the universal floor 1/2.
    upper       : same as c_nu_upper.
    clamp_active: whether the positive-part clamp in lower_cor8 actually
                  bound (useful when reading the lower curve of a sweep).
    """

    c_nu_upper: float
    lower_thm1: float
    lower_cor8: float
    lower_thm2: float
    upper: float
    measure: Measure
    clamp_active: bool


def average_bounds(m: Measure, extended: bool = False) -> BoundsReport:
    """Assemble the full bounds report from K(0,0) and s0.  For a batch
    measure every field but ``measure`` and ``lower_thm2`` is an array over
    the batch, from one batched K(0,0) call."""
    inv_k = 1.0 / kernel_k00(m, extended=extended)
    lower_thm1 = 1.0 + S0 * (inv_k - 1.0)
    inner = 0.5 + S0 * (inv_k - 1.0)
    return BoundsReport(c_nu_upper=inv_k, lower_thm1=lower_thm1,
                        lower_cor8=np.maximum(inner, 0.0) + 0.5,
                        lower_thm2=THEOREM2_FLOOR, upper=inv_k, measure=m,
                        clamp_active=inner < 0.0)


def selberg_bounds(m_degree: int) -> tuple[float, float]:
    """Average bounds for the zero ordinates of a degree-m primitive
    L-function: the measure is the unit atom plus |a| da on [-1/m, 1/m].

    upper = (1/sqrt2) cot(1/(sqrt2 m)) + 1/(2m);
    lower = (1/2 + s0 (upper - 1))_+ + 1/2.
    """
    md = _degree(m_degree)
    th = 1.0 / (np.sqrt(2.0) * md)
    upper = (1.0 / np.sqrt(2.0)) / np.tan(th) + 1.0 / (2.0 * md)
    inner = 0.5 + S0 * ((1.0 / np.sqrt(2.0)) / np.tan(th) - (2.0 * md - 1.0) / (2.0 * md))
    lower = max(inner, 0.0) + 0.5
    return lower, upper


def dedekind_bounds(n: int) -> tuple[float, float]:
    """Average bounds for zeros of a degree-n Dedekind zeta function: the
    measure is the unit atom plus n |a| da on [-1/n, 1/n].

    upper = sqrt(n/2) cot(1/sqrt(2n)) + 1/2.
    """
    nd = _degree(n)
    th = 1.0 / np.sqrt(2.0 * nd)
    upper = np.sqrt(nd / 2.0) / np.tan(th) + 0.5
    inner = 0.5 + S0 * (np.sqrt(nd / 2.0) / np.tan(th) - 0.5)
    lower = max(inner, 0.0) + 0.5
    return lower, upper


def _degree(n) -> float:
    """A degree as a float: a whole number from 1 to _MAX_DEGREE."""
    if not (1 <= n <= _MAX_DEGREE and n == int(n)):
        raise ValueError("degree must be a whole number from 1 to 2^53")
    return float(n)


def reim_zeta_bounds(c: float) -> tuple[float, float]:
    """Average bounds for zeros of the real or imaginary part of zeta along
    the shifted line with parameter c >= 0: measure (1, 1, 4c, 1/2).

    Returns (1 + s0 (1/K - 1), 1/K)."""
    if c < 0:
        raise ValueError("c must be >= 0")
    rep = average_bounds(Measure(c1=1.0, c2=1.0, c3=4.0 * c, delta=0.5))
    return rep.lower_thm1, rep.upper


def figure1_data(c_min: float, c_max: float, steps: int) -> list[tuple[float, float, float]]:
    """Rows (c, lower, upper) of the bound curves on a uniform c-grid,
    ready for plotting.  The lower value is the better of the two lower
    bounds (they coincide whenever the clamp is slack)."""
    for name, value in (("c_min", c_min), ("c_max", c_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (0 <= c_min < c_max):
        raise ValueError("need 0 <= c_min < c_max")
    if c_max > C3_MAX / 4.0:
        raise ValueError(f"c_max must keep c3 = 4 c_max <= {C3_MAX:g}, got {c_max:g}")
    if not (1 <= steps < math.inf and steps == int(steps)):
        raise ValueError(f"steps must be a whole number >= 1, got {steps!r}")
    cs = np.linspace(c_min, c_max, int(steps) + 1)
    rep = average_bounds(Measure(1.0, 1.0, 4.0 * cs, 0.5))
    return list(zip(cs.tolist(), np.maximum(rep.lower_thm1, rep.lower_cor8).tolist(),
                    rep.upper.tolist()))


def gonek_ki_conjectured_average(b: float, ell: float, c: float) -> float:
    """The average the conjectured form-factor expression would produce on
    the window [b, b + ell]:

        e^{-4 c b} (1 - e^{-4 c ell}) / (8 c ell),

    extended continuously by 1/2 at c = 0.  Strictly below 1/2 for every
    c > 0, which is what contradicts the certified lower bounds.
    """
    if not b > 0.5:
        raise ValueError("b must be > 1/2")
    if not ell > 0:
        raise ValueError("ell must be > 0")
    if not c >= 0:
        raise ValueError("c must be >= 0")
    if c == 0.0:
        return 0.5
    x = 4.0 * c * ell
    return float(np.exp(-4.0 * c * b) * (-np.expm1(-x)) / (2.0 * x))


def refutation_threshold(c: float, b: float, floor: float = THEOREM2_FLOOR) -> float:
    """Smallest ell at which the conjectured average drops below ``floor``.

    The average decreases in ell from its ell -> 0 limit e^{-4 c b} / 2, so
    the crossing is found by bracketing and bisection to _REFUTATION_XTOL.
    Returns 0.0 when the average is already below the floor in the ell -> 0
    limit; for the default floor 1/2 that is always the case when c > 0.
    """
    if not c > 0:
        raise ValueError("c must be > 0")
    if not b > 0.5:
        raise ValueError("b must be > 1/2")
    if not math.isfinite(floor):
        raise ValueError(f"floor must be finite, got {floor}")
    limit0 = 0.5 * np.exp(-4.0 * c * b)
    if limit0 <= floor:
        return 0.0
    lo, hi = 1e-12, 1.0
    while gonek_ki_conjectured_average(b, hi, c) > floor:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("no crossing found below ell = 1e12")
    return bisect(lambda ell: gonek_ki_conjectured_average(b, ell, c) - floor,
                  lo, hi, xtol=_REFUTATION_XTOL)
