"""Closed-form reproducing kernels of the weighted band-limited spaces.

Every kernel value K(w, z) is a sum over a table of rows e^{-shift L}
sinh((s + o) L) / (s + o), s = 2 pi i z: ``kernel_c3zero`` sums
``_c3zero_rows``, and every entry point of the section K(0, .) the table
that ``_section_rows`` chooses.  One point and complex points sum the rows'
sinh quotients (``_row_sum``).  A grid of real points reads rows with
purely imaginary offsets as real sines (``_sine_rows``) and sums the other
c3 > 0 sections' rows as +- pairs, (u sin(u) A L + cos(u) B L^2) / (u^2 +
(o L)^2) with u = 2 pi z L, one real sine and cosine per point for every
row (``_pair_sum``), taking the two quotients only where a pair cancels,
near its removable points s = +-o.  The section is summed for one measure
at a time.  The diagonal K(0, 0), whose reciprocal every printed bound is,
is read from each regime's own solve instead (``kernel_k00``), for one
measure or a batch.  Two regimes:

* c3 = 0: the full kernel K(w, z) for all complex w, z, the transform of
  the solution u_w: rows e^{eta xi} at eta = +-i om and -2 pi i w.  Its
  coefficients share a pole at 2 c1 pi^2 w^2 = c2; near it they are one
  divided difference by the contour rule of close roots below, whose nodes
  are 16 more rows.  A pure atom (c2 = 0) is that case at w = 0.  K(0, 0) =
  Delta sinc(th) / (c1 (cos th + th sin th)), th = om Delta / 2 =
  sqrt(sigma / 2); a pure atom's, Delta / c1, at any c3.

* c3 > 0: only the section K(0, z) has a closed form: mu plus cosh rows at
  the characteristic quartic roots eta1, eta2, whose two weights solve one
  2 x 2 boundary system per measure (the notes above ``_contour``), whose
  determinant is the paper's divisor up to a factor.  Near the degenerate
  line lam = 4 c3^2 the system is solved in means and divided differences,
  Cauchy integrals taken by the contour rule, whose nodes give 16 more
  rows, the last 16 of the table.  K(0, 0) = (2 mu c3 L - sum_k w_k b_k
  E_k / eta_k) / c3 comes from the same solve, from the factors b and E its
  boundary entries form, and so does the divisor's factor det.  The solve
  takes one measure as the 0-d case of a batch, bit-identical alone and
  inside a batch (the layout notes above ``_contour`` say why); a batch
  stops at K(0, 0) and det, and only one measure's solve builds the rows.

Sign convention: B carries a minus sign on its integral term, fixed by
requiring the removable singularities to cancel and confirmed against the
independent integral-equation oracle in the tests.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRoots, InvalidRegime, NotAdmissible
from .measures import Measure
from .special import _sinh_quot

DEGENERACY_RTOL = 1e-9
# largest c3 of the c3 > 0 closed forms: correct to 1e145 for c1 in [1e-6, 1e6]
# and Delta in [1e-4, 1e3]; c2 c3^2 can overflow at 1e150, c3^2 at 1.3e154
C3_MAX = 1e140
# smallest Delta of the closed forms: below about 1e-77 the c3 = 0 contour's
# 1 / (4 L^4) overflows, and a subnormal Delta leaves no L = Delta / 2
DELTA_MIN = 1e-70
SCRIPT_L_SIGMA_MAX = 2.9     # certified nonvanishing range for the divisor
_CIRCLE = np.exp(1j * np.pi * (np.arange(8) + 0.5) / 4.0)   # _contour's 8 points
_CONTOUR_ROWS = 2 * _CIRCLE.size    # its rows +-eta_k, the last of a table that has them
# complex constants, as arrays: their products with complex arrays skip a
# Python scalar's conversion and a float array's cast
_TWO_PI_I = np.array(2j * np.pi)


class CaseTag(enum.Enum):
    PURELY_IMAGINARY = "purely_imaginary"    # lam > 4 c3^2
    CONJUGATE_QUADRANT = "conjugate_quadrant"  # lam < 4 c3^2
    DEGENERATE = "degenerate"                # lam = 4 c3^2


# indexed by 2 degenerate + (lam > 4 c3^2)
_CASE_TAGS = np.array([CaseTag.CONJUGATE_QUADRANT, CaseTag.PURELY_IMAGINARY,
                       CaseTag.DEGENERATE, CaseTag.DEGENERATE], dtype=object)


class LimitPath(enum.Enum):
    """Which limit a kernel value took: REMOVABLE_W, the c3 = 0 coefficients
    as the contour sum at their pole; DEGENERATE_ETA, close roots of c3 > 0."""
    NONE = "none"
    REMOVABLE_W = "removable_w"
    DEGENERATE_ETA = "degenerate_eta"


@dataclass(frozen=True)
class EtaPair:
    """The two characteristic roots, with Re >= 0 and eta1 + eta2 != 0.

    eta1 carries the '+' branch of the discriminant square root; the final
    kernel value is invariant under swapping the two roots.
    """

    eta1: complex
    eta2: complex
    degenerate: bool
    case_tag: CaseTag


@dataclass(frozen=True)
class KernelEvaluation:
    value: complex
    limit_path: LimitPath = LimitPath.NONE


def quartic_roots(m: Measure) -> EtaPair:
    """Roots eta1, eta2 of  eta^4 + 2(lam - c3^2) eta^2 + c3^2 (2 lam + c3^2) = 0
    with lam = c2/c1, taking eta^2 = c3^2 - lam +/- sqrt(lam) Lam and the
    square roots with nonnegative real part.  Lam = sqrt(lam - 4 c3^2 + 0j)
    is real in the purely imaginary case and +i|Lam| in the conjugate
    quadrant.  eta2^2 takes the '-' sign; in the purely imaginary case
    eta1^2 = c3^2 (2 lam + c3^2) / eta2^2 (Vieta), so that both stay
    accurate as c3 -> 0.  For a batch measure every field is an array over
    the batch (``case_tag`` an object array)."""
    _require_two_roots(m)
    lam, c3_sq = m.c2 / m.c1, m.c3 * m.c3
    # eta2^2 = c3^2 - lam - sqrt(lam) Lam adds terms of one sign.  Where Lam
    # is real, eta1^2 comes from the product of the roots, c3^2 (2 lam +
    # c3^2), as the sum c3^2 - lam + sqrt(lam) Lam cancels when c3 -> 0;
    # elsewhere eta1^2 is the conjugate of eta2^2.  The choice is a sum of
    # products by 1 and 0, exact for finite values, at a numpy scalar's cost
    # for one measure.  A real eta1^2 < 0 can carry the imaginary part -0;
    # + 0 makes it +0, so that the principal square root takes the '+' branch
    real_lam = lam > 4.0 * c3_sq
    eta2_sq = c3_sq - lam - np.sqrt(lam) * np.sqrt(lam - 4.0 * c3_sq + 0j)
    eta1_sq = (c3_sq * ((2.0 * lam + c3_sq) / eta2_sq) * real_lam
               + np.conj(eta2_sq) * (1 - real_lam) + 0.0)
    return _eta_pair(np.sqrt(np.array([eta1_sq, eta2_sq])), lam, c3_sq)


def _require_two_roots(m: Measure) -> None:
    """Refuse a measure, or any entry of a batch, without two quartic roots."""
    if _any((m.c3 > C3_MAX) | (m.c3 == 0.0) | (m.c2 == 0.0)):
        _require_c3_bound(m)
        if _any(m.c3 == 0.0):
            raise InvalidRegime("c3 = 0 has its own kernel formula; no quartic roots")
        raise InvalidRegime("c2 = 0 degenerates to the pure sinc kernel")


def _any(mask) -> bool:
    """Whether a mask is set: one measure's Python bool as it is (a plain
    ``if``), any entry of an array (``np.count_nonzero``, about a third of
    ``ndarray.any``'s cost on a short mask)."""
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else mask


def _degenerate(lam, c3_sq):
    """The degenerate-line mask lam = 4 c3^2, to DEGENERACY_RTOL in the roots."""
    # eta1^2 - eta2^2 scales as sqrt(lam - 4 c3^2), hence the squared rtol
    return abs(lam - 4.0 * c3_sq) <= DEGENERACY_RTOL ** 2 * (lam + 4.0 * c3_sq)


def _eta_pair(eta, lam, c3_sq) -> EtaPair:
    """The EtaPair of the roots (eta1, eta2) on a leading axis."""
    degenerate = _degenerate(lam, c3_sq)
    return EtaPair(eta[0], eta[1], degenerate, _CASE_TAGS[2 * degenerate + (lam > 4.0 * c3_sq)])


def quartic_residual(m: Measure, eta: complex) -> float:
    """Relative residual of eta in the characteristic quartic, which verify's
    ``quartic_residual`` check reads."""
    lam, c3_sq = m.lam(), m.c3 * m.c3
    val = eta ** 4 + 2.0 * (lam - c3_sq) * eta ** 2 + c3_sq * (2.0 * lam + c3_sq)
    scale = abs(eta) ** 4 + 2.0 * abs(lam - c3_sq) * abs(eta) ** 2 \
        + c3_sq * (2.0 * lam + c3_sq)
    return abs(val) / max(scale, 1e-300)


def _require_c3_bound(m: Measure) -> None:
    """Refuse a measure, or any entry of a batch, with c3 > C3_MAX."""
    if _any(m.c3 > C3_MAX):
        raise ValueError(f"c3 must be <= {C3_MAX:g}, got {np.max(m.c3):g}")


def _require_delta_floor(delta) -> None:
    """Refuse a Delta, or any entry of a batch's, below DELTA_MIN."""
    if _any(delta < DELTA_MIN):
        raise ValueError(f"delta must be >= {DELTA_MIN:g}, got {np.min(delta):g}")


def mu(m: Measure) -> float:
    """mu = c3^2 / (2 c2 + c3^2 c1); zero exactly when c3 = 0.  In long
    double, whose range holds c3^2 and 2 c2 for every admissible measure,
    and rounded once: in double, c3^2 underflows below c3 = 1.5e-154 and
    mu with it.  For a batch measure, an array over the batch."""
    _require_c3_bound(m)
    if _any((m.c2 == 0.0) & (m.c3 == 0.0)):
        raise ValueError("mu requires c2 > 0 or c3 > 0")
    c1, c2, c3 = np.array([m.c1, m.c2, m.c3], dtype=np.longdouble)
    c3_sq = c3 * c3
    return (c3_sq / (c2 + c2 + c3_sq * c1)).astype(float)[()]


def script_L(m: Measure) -> complex:
    """The divisor A(eta1) B(eta2) - B(eta1) A(eta2) = det Gamma' / (2 c3^3)
    of the c3 > 0 kernel (notes above ``_contour``): the transform
    solution's det times eta1^2 - eta2^2 = 2 sqrt(lam) sqrt(lam - 4 c3^2),
    with c2 - 4 c3^2 c1 exact, so that it keeps its relative accuracy next
    to the degenerate line.  For a batch measure, an array over the batch.

    Real and negative when the roots are purely imaginary; purely imaginary
    with negative imaginary part when they sit in conjugate quadrants.
    Certified nonzero for sigma <= 2.9 away from the degenerate line.
    """
    if _any((m.c3 == 0.0) | (m.c2 == 0.0)):
        raise InvalidRegime("script_L needs c2 > 0 and c3 > 0")
    if _any(m.sigma() > SCRIPT_L_SIGMA_MAX):
        raise NotAdmissible(
            f"sigma = {np.max(m.sigma()):.6g} > {SCRIPT_L_SIGMA_MAX}: nonvanishing of the "
            "divisor is not certified there")
    det = k0_transform_solution(m).det
    # the roots' mask (their c3 floor moves no measure onto or off the line)
    if _any(_degenerate(m.c2 / m.c1, m.c3 * m.c3)):
        raise DegenerateRoots("lam = 4 c3^2: the two-root divisor is not defined")
    c1, c2 = m.c1, m.c2
    sq, sq_err = _two_product(m.c3, m.c3)
    t, t_err = _two_product(sq, c1)
    disc = ((c2 - 4.0 * t) - 4.0 * (t_err + sq_err * c1)) / c1      # lam - 4 c3^2
    roots = np.sqrt(np.array([c2 / c1, disc]) + 0j)
    return 2.0 * roots[0] * roots[1] * det


def _two_product(a, b):
    """(p, e) with p = a b rounded and p + e = a b exactly (Dekker's product
    over Veltkamp's halves), for Python floats or arrays."""
    p, a_big, b_big = a * b, a * 134217729.0, b * 134217729.0      # 2^27 + 1
    a_hi, b_hi = a_big - (a_big - a), b_big - (b_big - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# ---------------------------------------------------------------------------
# c3 > 0: the section from one boundary matrix per measure
# ---------------------------------------------------------------------------
#
# With L = Delta/2, lam = c2/c1 and mu = c3^2 / (c1 c3^2 + 2 c2), the
# section's solution is u0(xi) = mu + e^{-c3 L} (w1 cosh(eta1 xi) + w2
# cosh(eta2 xi)).  Its two end conditions (j = 1, 2) are one 2 x 2 boundary
# system per measure, Gamma (w1, w2) = -mu (1/c3, 1/c3^2), with
#
#     Gamma_jk = e^{-c3 L} (e^{-eta_k L} / (c3 + eta_k)^j + e^{eta_k L} / (c3 - eta_k)^j) / 2.
#
# Column k scaled by P_k^2, P = c3^2 - zeta, zeta = eta^2, is entire and
# even in eta.  In units of c3 (P = 1 - zeta, Q = 1 + zeta, L for c3 L), with
# u = 1 - eta = P / (1 + eta), b = e^{-u L} and E = expm1(-2 eta L), so
# that e^{-(1 + eta) L} = b (1 + E), its entries are F1 = P b (1 + E u / 2)
# = P phi1 and F2 = b (Q + E u^2 / 2), and Cramer's rule gives w1 = mu P1^2
# G2 / det Gamma', w2 = -mu P2^2 G1 / det Gamma', with G = F1 - F2 = zeta
# gamma, gamma = b (E u^2 / (2 eta) - 2).
#
# It is solved in numpy's long double (64-bit mantissa on x86-64) from lam
# / c3^2 alone: P2 = lam + sqrt(lam (lam - 4)) and Q2 = 2 - P2 add terms of
# one sign (or a real and an imaginary one), P1 = 4 lam / P2 and Q1 = 4 / Q2
# (Vieta) keep the small root's factors as c3 -> 0, and zeta = 1 - P.  Each
# weight is then one rounding from the exact solution (in double, with P, Q
# and the roots rounded apart, bench-mix sections read up to 1.4e-15).
#
# The paper's divisor is det Gamma' / (2 c3^3) (``script_L``): the moments of
# e^{-(c3 -+ eta) a} over [0, L] give A(eta) = 1 + 2 lam (Q / P^2 - Gamma_2 -
# L Gamma_1) and B(eta) = zeta + 2 lam - c3^2 - 4 lam c3 (c3 / P - Gamma_1).
# At a root of the quartic (mu(eta) = 0 for the operator's symbol), P^2 - 2
# lam P + 4 lam c3^2 = 0, the constant parts cancel: A = -2 lam (Gamma_2 + L
# Gamma_1) and B = 4 lam c3 Gamma_1.  The L terms drop out of A(eta1) B(eta2)
# - B(eta1) A(eta2) = 8 lam^2 c3 det Gamma, and det Gamma' = (P1 P2)^2 det
# Gamma with P1 P2 = 4 lam c3^2.
#
# Where the roots are near (|zeta1 - zeta2| < _NEAR_GAP lam), Cramer's rule
# cancels (and divides 0 by 0 on the degenerate line lam = 4 c3^2).  There
# the section is written in the means Xbar = (X1 + X2) / 2 and divided
# differences X' = (X1 - X2) / (zeta1 - zeta2) of X = phi1, F2, gamma (even
# and entire in eta), F1' and G' by the product rule, and det Gamma' /
# (zeta1 - zeta2) = F1' F2bar - F1bar F2'.  X' is Cauchy's integral of
# X(zeta) / ((zeta - zeta1) (zeta - zeta2)) around both roots, taken by the
# trapezoid rule at ``_contour``'s 8 nodes (Kassam and Trefethen, SIAM J.
# Sci. Comput. 26, 2005), which no cancellation between X1 and X2 enters.
# Near roots are close (|zeta1 - zeta2| L^2 < _CLOSE_GAP) for sigma <= 40;
# close roots take w1 = w2 = p/2 and 16 more rows, the divided difference of
# cosh(eta xi) at the same nodes.
#
# K(0, 0) needs no sinh quotient: at z = 0 the rows +-eta sum to 2 e^{-c3 L}
# sinh(eta L) / eta = -b E / (c3 eta) in these units, and the mu row to 2 mu
# L, so that K(0, 0) = (2 mu c3 L - sum_k w_k b_k E_k / eta_k) / c3, plus the
# same sum over the contour rows where the roots are close.  Summed in long
# double from the solve's own b and E and rounded once, it is within an ulp
# or two of mpmath where the five rows' weights, each rounded to double, put
# the rows' sum at z = 0 up to 1.9e-15 away near the line.
#
# One code path serves one measure and a batch; "near" and "close" are masks
# over the measures.  Layout:
#
# * Real parameters are Python floats for one measure and arrays over the
#   batch, flattened to one axis, for a batch; cast once to long double.
# * The solve runs in complex long double, each root's quantities in a
#   variable of their own: numpy scalars for one measure, arrays over the
#   measures for a batch, with contour nodes on a trailing axis.  The same
#   statements serve both, bit for bit: long double has no fused
#   multiply-add, so each of numpy's scalar operations (+, -, *, /, exp,
#   expm1, sqrt, abs, the casts) rounds as its array loop does
#   (tests/test_kernels.py::TestLongDoubleScalars).  complex128 would not:
#   its array multiply fuses a product into the sum and its scalar one does
#   not, so a double solve would round one measure apart from a batch.
# * Where some measures take another value (near, close), ``_put`` writes it
#   at their mask, () for every entry, into a copy of the rest.
# * A square that a Python float can reach is written as a product, c3 * c3:
#   Python's ``**`` calls libm pow, which rounds apart from numpy's square
#   in about 0.1% of doubles, and so would tag roots on the degenerate line
#   differently alone and in a batch.
# * Every sum over rows or over contour nodes runs over a contiguous last
#   axis, so that one measure and a batch sum in the same order.
#
# The rows come in pairs +-o with one weight w, and at real points a pair
# is summed from the factors C = b (1 + E / 2) = e^{-c3 L} cosh(eta c3 L)
# and S = -eta b E / 2 = e^{-c3 L} eta sinh(eta c3 L) (``_pair_sum``), which
# the solve forms from the same b and E in long double, at the roots and at
# the contour nodes, so that neither cosh(o L) nor sinh(o L) overflows where
# c3 Delta runs into the thousands.

_CLOSE_GAP = 1e-2       # |zeta1 - zeta2| L^2 below which the rows take the contour
_C3_FLOOR = 1e-60       # c3 / sqrt(lam) below which the section is solved at that floor
_C3_TINY = 1e-150       # and c3 itself, so that c3^2 stays a normal double
_NEAR_GAP = 1e-3        # |zeta1 - zeta2| / lam below which Cramer's rule loses digits
_CLOSE_GAP_X = np.longdouble(_CLOSE_GAP)    # a long-double array's test against it
# c3 on the four root rows and the contour rows, 0 on the mu row
_SHIFT_PATTERN = {n: np.array([1.0] * 4 + [0.0] + [1.0] * (n - 5)) for n in (5, 21)}
# complex long-double constants, as numpy scalars: a 0-d array operand would
# send a scalar operation through the array machinery
_ONE_X, _TWO_X, _FOUR_X, _HALF_X = (np.clongdouble(v) for v in (1, 2, 4, 0.5))
_HALF, _TINY = np.longdouble(0.5), np.longdouble(1e-300)     # real long-double constants


def _contour(zeta1, zeta2, L):
    """Nodes eta_k = sqrt(zeta_k) and weights c_k, on a trailing axis of 8,
    with X' = sum_k c_k X(eta_k) for every even entire X.  zeta_k =
    (zeta1 + zeta2)/2 + rho _CIRCLE_k with rho = 1 / (2 L^2), and c_k =
    rho _CIRCLE_k / (8 (zeta_k - zeta1) (zeta_k - zeta2)).  The rule's
    aliasing error is (|zeta1 - zeta2| / (2 rho))^8 relative, at most 1e-16
    where |zeta1 - zeta2| L^2 < _CLOSE_GAP.  The arguments broadcast against
    a trailing axis; the circle must not pass through zeta1 or zeta2."""
    arc = 0.5 / (L * L) * _CIRCLE
    zeta = 0.5 * (zeta1 + zeta2) + arc
    return np.sqrt(zeta), arc / (8.0 * (zeta - zeta1) * (zeta - zeta2))


def _boundary_entries(eta, P, Q, mL):
    """(phi1, F2, gamma, b, b E) at the points eta (Re eta >= 0, eta != 0)
    in units of c3: the scaled boundary matrix's entries F1 = P phi1, F2 and
    G = F1 - F2 = eta^2 gamma, and the factors b and b E, from which a row
    pair's value at z = 0 (the notes above ``_contour``) and its factors at
    real points (``_pair_sum``) follow.  P = 1 - eta^2, Q = 1 + eta^2 and mL
    = -c3 Delta / 2 broadcast against eta; complex long doubles, numpy
    scalars or arrays."""
    u = P / (_ONE_X + eta)
    b, e = np.exp(mL * u), np.expm1((eta + eta) * mL)
    half_u = u * _HALF_X
    half_eu = e * half_u
    half_eu2 = half_eu * u
    return b * (_ONE_X + half_eu), b * (Q + half_eu2), b * (half_eu2 / eta - _TWO_X), b, b * e


def _put(x, sel, v):
    """A copy of x with v at ``sel``, a mask or () for every entry; for a
    numpy scalar x, a numpy scalar."""
    x = np.array(x)
    x[sel] = v
    return x[()]


@dataclass(frozen=True)
class TransformSolution:
    """Fourier-side solution u0 of the kernel section K(0, .), as rows.

    The section K(0, z) is ``_row_sum`` over five rows: offsets (eta1, eta2,
    -eta1, -eta2, 0), shifts (c3, c3, c3, c3, 0), weights (w1, w2, w1, w2, 2
    mu), with w1, w2 the boundary system's solution (see above).  ``close``
    is set where the rows take the contour rule: there w1,2 = p/2 and 16
    more rows carry q c', c' the eta^2-divided difference of cosh(eta1 t)
    and cosh(eta2 t), with p = w1 + w2 and q = (w1 - w2) (eta1^2 - eta2^2) /
    2: offsets +-eta_k, shift c3, weights q c_k at the 8 contour nodes.
    ``pairs`` holds, for each pair of rows +-o with weight w (eta1, eta2,
    then the contour nodes), ((o L)^2, A L, B L^2) with A = 2 w C and B = 2
    w c3 S, which ``_pair_sum`` sums at real points in place of the
    quotients: shape (3, 2) or (3, 10).  ``clear`` is set where both roots'
    pairs have no removable point s = +-o within the pair gap of a real z:
    |Re eta| c3 Delta / 2 > sqrt(2) _PAIR_GAP.

    ``k00`` is K(0, 0) = (2 mu c3 L - sum_k w_k b_k E_k / eta_k) / c3 in
    units of c3, the rows' values at z = 0 in closed form (notes above
    ``_contour``), summed in long double with the contour rows where
    ``close`` is set and rounded once.  ``det`` = script_L / (eta1^2 -
    eta2^2) = det Gamma' / (2 c3^3 (eta1^2 - eta2^2)), read as (F1' F2bar -
    F1bar F2') / (2 c3^3) where the roots are near, sums no row.

    For one measure the scalar fields are numpy scalars (``k00`` a float,
    ``det`` a complex128) and the rows have shape (5,) or (21,).  A batch
    measure's solution holds only ``k00``, ``det`` and ``close``, arrays of
    the batch's shape, which its callers read; its rows, ``pairs`` and
    ``clear`` are None.  Every array is read-only.

    The coefficients are stored with the damping e^{-c3 Delta/2} factored
    out of Gamma's entries, which keeps them finite for c3 Delta in the
    thousands, where cosh(eta L) overflows.
    """

    offsets: np.ndarray | None
    shifts: np.ndarray | None
    weights: np.ndarray | None
    pairs: np.ndarray | None
    close: bool
    clear: bool | None
    k00: float
    det: complex


def k0_transform_solution(m: Measure) -> TransformSolution:
    """The section's TransformSolution (c2 > 0, c3 > 0).  One measure's is
    cached: a bounds sweep and an oracle cross-check each evaluate several
    sections of one measure, and the returned object and its arrays are
    shared and read-only.  A batch is solved in one uncached pass that
    stops at K(0, 0) and det (rows, pairs and clear None)."""
    return _transform_solution(m) if isinstance(m.c3, np.ndarray) else _cached_solution(m)


def _transform_solution(m: Measure) -> TransformSolution:
    _require_two_roots(m)
    _require_delta_floor(m.delta)
    # below c3 = 1e-60 sqrt(lam), where the section moves by less than 1e-60
    # with c3, the system in units of c3 is solved at that floor; below c3 =
    # 1e-150, where c3^2 and mu would underflow, at that one (there lam <
    # 1e-180, and the section is the pure atom's up to lam Delta^2)
    lam_d = m.c2 / m.c1
    if _any((m.c3 < _C3_TINY) | (m.c3 * m.c3 < _C3_FLOOR * _C3_FLOOR * lam_d)):
        floor = np.maximum(_C3_FLOOR * np.sqrt(lam_d), _C3_TINY)
        m = Measure(m.c1, m.c2, np.maximum(m.c3, floor), m.delta)
    shape = getattr(m.c1, "shape", ())
    c1, c2, c3, L = m.c1, m.c2, m.c3, m.delta / 2.0
    if shape:
        c1, c2, c3, L = (v.reshape(-1) for v in (c1, c2, c3, L))
    # in units of c3 and long double: lam = c2 / (c1 c3^2), mL = -c3 L, mu,
    # and per root P, Q, zeta and eta (notes above ``_contour``)
    c3_sq, scale = c3 * c3, c3 * L
    mu_v = c3_sq / (2.0 * c2 + c3_sq * c1)
    c3_x, c2_x, c1_x, mL, mu = np.array([c3, c2, c1, -L, mu_v], dtype=np.clongdouble)
    lam, mL, L_x = c2_x / (c1_x * c3_x * c3_x), c3_x * mL, -mL
    root = np.sqrt(lam * (lam - _FOUR_X))
    P2, Q2 = lam + root, (_TWO_X - lam) - root
    P1, Q1 = _FOUR_X / P2 * lam, _FOUR_X / Q2
    zeta1, zeta2 = _ONE_X - P1, _ONE_X - P2
    eta1, eta2 = np.sqrt(zeta1), np.sqrt(zeta2)
    gap = zeta1 - zeta2
    phi1_1, f2_1, gamma1, b1, be1 = _boundary_entries(eta1, P1, Q1, mL)
    phi1_2, f2_2, gamma2, b2, be2 = _boundary_entries(eta2, P2, Q2, mL)
    f1_1, f1_2, g1, g2 = P1 * phi1_1, P2 * phi1_2, zeta1 * gamma1, zeta2 * gamma2    # F1, G
    p1_sq, p2_sq = P1 * P1, P2 * P2
    # one |zeta1 - zeta2| for both masks; a product, so that (c3 L)^2 may
    # underflow to 0 (c3 L < 1.5e-154 gives sigma < 1e-187: close, rightly)
    a_gap = abs(gap)
    close = a_gap * (scale * scale) < _CLOSE_GAP_X
    any_close = _any(close)
    near = close & (a_gap < _NEAR_GAP * lam.real) if any_close else close
    any_near = any_close and _any(near)
    # Cramer's rule: w1 = mu P1^2 G2 / det Gamma', w2 = -mu P2^2 G1 / det
    # Gamma', det Gamma' = F1(1) F2(2) - F1(2) F2(1); and the solution's det,
    # det Gamma' / (2 (zeta1 - zeta2))
    det_g, two_gap = f1_1 * f2_2 - f1_2 * f2_1, gap + gap
    if any_near:    # replaced below: there det Gamma' and the gap can vanish
        det_g, two_gap = _put(det_g, near, _ONE_X), _put(two_gap, near, _ONE_X)
    det = det_g / two_gap
    ratio = mu / det_g
    w1, w2 = p1_sq * g2 * ratio, -(p2_sq * g1) * ratio
    if any_close:   # the contour rule; near measures' means and divided differences
        # q = (w1 - w2) (zeta1 - zeta2) c3^2 / 2 and p = w1 + w2 in units of c3
        q, p = (w1 - w2) * (gap * (c3_x * c3_x * _HALF_X)), w1 + w2
        # the close measures (() keeps one measure's numpy scalars)
        sel = () if close.all() else close
        z1_c, z2_c, mL_c, c3_c = (v[sel][..., None] for v in (zeta1, zeta2, mL, c3_x))
        nodes, c = _contour(z1_c, z2_c, -mL_c)
        zn = nodes * nodes
        phi1_c, f2_c, gamma_c, b_c, be_c = _boundary_entries(
            nodes, _ONE_X - zn, _ONE_X + zn, mL_c)
        if any_near:    # means of (phi1, F2, gamma, F1, G, P, zeta, P^2); F1'
            # and G' by the product rule, with P' = -1 and zeta' = 1
            dd_phi1, dd_f2, dd_gamma = ((c * x).sum(-1) for x in (phi1_c, f2_c, gamma_c))
            m_phi1, m_f2, m_gamma, m_f1, m_g, m_p, m_zeta, m_p_sq = (
                _HALF_X * (x1[sel] + x2[sel]) for x1, x2 in (
                    (phi1_1, phi1_2), (f2_1, f2_2), (gamma1, gamma2), (f1_1, f1_2), (g1, g2),
                    (P1, P2), (zeta1, zeta2), (p1_sq, p2_sq)))
            f1_dd = m_p * dd_phi1 - m_phi1
            g_dd = m_gamma + m_zeta * dd_gamma
            det_dd = f1_dd * m_f2 - m_f1 * dd_f2       # det Gamma' / (zeta1 - zeta2)
            p2_dd = -(m_p + m_p)                        # (P^2)'
            gap_c, ratio = gap[sel], mu[sel] / det_dd
            q_dd = c3_x[sel] * c3_x[sel] * (
                m_p_sq * m_g - _HALF_X * _HALF_X * gap_c * gap_c * p2_dd * g_dd) * ratio
            p_dd = (p2_dd * m_g - m_p_sq * g_dd) * ratio
            keep = near[sel]
            q = _put(q, sel, np.where(keep, q_dd, q[sel]))
            p = _put(p, sel, np.where(keep, p_dd, p[sel]))
            det = _put(det, sel, np.where(keep, _HALF_X * det_dd, det[sel]))
        half_p = _HALF_X * p[sel]                    # and q c' on 16 more rows
        w1, w2 = _put(w1, sel, half_p), _put(w2, sel, half_p)
        c = q[sel][..., None] * c / (c3_c * c3_c)
    # -K(0, 0) c3: the mu row's -2 mu c3 L and each root's pair of rows
    k00 = (w1 * (be1 / eta1) + w2 * (be2 / eta2)) + (mu + mu) * mL
    if any_close:
        k00 = _put(k00, sel, k00[sel] + (c * (be_c / nodes)).sum(-1))
    k00, det = k00.real / -c3_x.real, det.astype(complex)
    if shape:       # a batch stops here
        close, k00, det = (v.reshape(shape) for v in (close, k00.astype(float), det))
        close.setflags(write=False), k00.setflags(write=False), det.setflags(write=False)
        return TransformSolution(None, None, None, None, close, None, k00, det)
    # one measure's rows: offsets (eta1, eta2, -eta1, -eta2, 0) and weights
    # (w1, w2, w1, w2, 2 mu), then where close the contour rows +-nodes with
    # weights c; and the pairs' table ((o L)^2, A L, B L^2) at eta1, eta2 and
    # the nodes: A L = 2 w C L = w L (2 b + b E) and B L^2 = 2 w c3 S L^2 =
    # -w L eta b E c3 L (``_pair_sum``)
    o1, o2, wl1, wl2, cl_sq = eta1 * c3_x, eta2 * c3_x, w1 * L_x, w2 * L_x, mL * mL
    rows = [[o1, o2, -o1, -o2, 0.0], [w1, w2, w1, w2, mu + mu]]
    pairs = [[zeta1 * cl_sq, zeta2 * cl_sq], [wl1 * (b1 + b1 + be1), wl2 * (b2 + b2 + be2)],
             [wl1 * eta1 * (be1 * mL), wl2 * eta2 * (be2 * mL)]]
    if close:
        o_c, wl_c = nodes * c3_c, c * L_x
        rows = np.concatenate([rows, [o_c, c], [-o_c, c]], -1)
        pairs = np.concatenate([pairs, [zn * cl_sq, wl_c * (b_c + b_c + be_c),
                                        wl_c * nodes * (be_c * mL)]], -1)
    (offsets, weights), pairs = np.array(rows, dtype=complex), np.array(pairs, dtype=complex)
    shifts = c3 * _SHIFT_PATTERN[len(offsets)]
    # both roots' removable points s = +-o more than the pair gap off real z
    clear = (abs(eta1.real) * scale > _AXIS_GAP) & (abs(eta2.real) * scale > _AXIS_GAP)
    offsets.setflags(write=False), weights.setflags(write=False)
    shifts.setflags(write=False), pairs.setflags(write=False)
    return TransformSolution(offsets, shifts, weights, pairs, close, clear, float(k00), det)


_cached_solution = functools.lru_cache(maxsize=8)(_transform_solution)


def kernel_k0z(m: Measure, z: complex, extended: bool = False) -> KernelEvaluation:
    """K(0, z) for c3 > 0 and finite z, real entire and even in z, as
    ``kernel_k0z_grid`` sums it.  limit_path: DEGENERATE_ETA for the section's
    contour rows, REMOVABLE_W for a pure atom's (u_0's pole), NONE elsewhere."""
    m.require_single()
    if m.c3 == 0.0:
        raise InvalidRegime("use kernel_c3zero for c3 = 0")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    m.require_admissible(extended=extended)
    offsets, weights, shifts, close = _section_rows(m, m.c2 == 0.0)
    value = _row_sum(offsets, weights, m.delta / 2.0, np.array(z), shifts)
    path = LimitPath.NONE if not close else (
        LimitPath.REMOVABLE_W if m.c2 == 0.0 else LimitPath.DEGENERATE_ETA)
    return KernelEvaluation(value=complex(value), limit_path=path)


def _row_sum(offsets, weights, L, z, shifts=None):
    """sum_r weights_r e^{-shifts_r L} sinh((s + offsets_r) L) / (s + offsets_r),
    s = 2 pi i z, over one measure's rows at the points z.  The contour
    rows, the last 16 of a longer table, are summed apart from the rest."""
    terms = weights * _sinh_quot(_TWO_PI_I * z[..., None] + offsets, L, shifts)
    if terms.shape[-1] <= _CONTOUR_ROWS:
        return np.add.reduce(terms, -1)
    return (np.add.reduce(terms[..., :-_CONTOUR_ROWS], -1)
            + np.add.reduce(terms[..., -_CONTOUR_ROWS:], -1))


# The section at a grid of real points z, where s = 2 pi i z = i x, and u =
# x L.  Rows whose offsets are purely imaginary, o = i nu (u_0's +-i om away
# from its pole, purely imaginary roots, the mu row), have real quotients
# there, e^{-shift L} sinh((s + o) L) / (s + o) = L e^{-shift L} sin(u + nu
# L) / (u + nu L): one real sine per row and point, which no removable point
# cancels (``_sine_rows``).
#
# The other c3 > 0 sections' rows come in pairs +-o with one weight w and
# the shift c3 (u_0 is even), besides the mu row o = 0.  With q(x) = e^{-c3
# L} sinh(x L) / x, a pair sums to
#
#     w (q(s + o) + q(s - o)) = (s sinh(s L) A - cosh(s L) B) / (s^2 - o^2)
#                             = (u sin(u) A L + cos(u) B L^2) / (u^2 + (o L)^2),
#
# A = 2 w e^{-c3 L} cosh(o L), B = 2 w e^{-c3 L} o sinh(o L): per point one
# real sin(u) and cos(u) for every pair instead of a complex expm1 and exp
# per row (``_pair_sum``).  The solve gives ((o L)^2, A L, B L^2) from its
# long-double b and E (notes above ``_contour``), so that neither cosh(o L)
# nor sinh(o L) overflows where c3 Delta runs into the thousands; the mu row
# adds 2 mu L sin(u) / u.  At s = +-o the numerator cancels: where |u^2 +
# (o L)^2| <= _PAIR_GAP (|u| + |o L|), that is min |s -+ o| L below about
# _PAIR_GAP, the entry is the two rows' ``special._sinh_quot``.
_PAIR_GAP = 0.1
# |Re o| L above which no real z is near o: near entries have min |s -+ o| L
# <= sqrt(2) _PAIR_GAP, since max |s -+ o| >= (|s| + |o|) / sqrt(2)
_AXIS_GAP = math.sqrt(2.0) * _PAIR_GAP
# a near entry's two rows s + o and s - o, and the row of o for each pair
_PLUS_MINUS = np.array([[1.0], [-1.0]], dtype=complex)
_PAIR_ROWS = np.array([0, 1] + list(range(5, 13)))
# added to u and to u + nu L, so that sin(u) / u is 1 at u = 0; it moves no
# bit where |u| > 1e-274
_U_TINY = 1e-290


def _sine_rows(offsets, weights, shifts, L, u):
    """sum_r weights_r e^{-shifts_r L} sinh((s + o_r) L) / (s + o_r) at real
    points u = x L (one axis) for one measure's purely imaginary offsets o_r
    = i nu_r; shifts None is shift 0.  The rows are summed in sequence."""
    w = weights * L if shifts is None else weights * (L * np.exp(shifts * -L))
    v = u + (offsets.imag * L)[:, None]
    v += _U_TINY
    t = np.sin(v)
    t /= v
    return np.add.reduce(w[:, None] * t, 0)


def _pair_sum(pairs, offsets, weights, c3, L, u, z, test: bool) -> np.ndarray:
    """The c3 > 0 section at real points u = x L (z = x / (2 pi)) from the
    solve's pair table ((o L)^2, A L, B L^2), its two root pairs or, for
    close measures, all ten, and the mu row's weight, the fifth; the rows'
    offsets, weights and shift c3 give a near entry's two rows.  Without
    ``test`` no entry is tested for a removable point (the caller knows
    there is none).  Entries are (pairs, points), and the pairs are summed
    in sequence."""
    sn, cs = np.sin(u), np.cos(u)
    usn, uu = u * sn, u * u
    d = uu + pairs[0][:, None]
    t = usn * pairs[1][:, None]
    t += cs * pairs[2][:, None]
    near = test and np.abs(d) <= (np.abs(u) * _PAIR_GAP
                                  + (np.sqrt(np.abs(pairs[0])) * _PAIR_GAP)[:, None])
    if _any(near):
        d[near] = 1.0
        t /= d
        # the near entries' z, and o and w by their rows
        pair_at, z_at = near.nonzero()
        at = _PAIR_ROWS[pair_at]
        s_n, o_n, w_n = _TWO_PI_I * z[z_at], offsets[at], weights[at]
        q = _sinh_quot(s_n + o_n * _PLUS_MINUS, L, c3)
        t[near] = w_n * (q[0] + q[1])
    else:
        t /= d
    total = np.add.reduce(t, 0)
    total += weights[4] * L * (sn / u)
    return total


def kernel_k00(m: Measure, extended: bool = False) -> float:
    """K(0, 0), the diagonal kernel value whose reciprocal upper-bounds the
    optimization constant of the averaged form factor, read from each
    regime's own solve rather than summed from the section's rows: where c3
    = 0 or c2 = 0, Delta sinc(th) / (c1 (cos th + th sin th)) with th = om
    Delta / 2 = sqrt(sigma / 2) (``_sinc_k00``; Delta / c1 at a pure atom);
    where c3 > 0, the TransformSolution's ``k00``.  For a batch measure, an
    array over the batch, each entry bit-identical to its measure's alone."""
    k00 = _k00(m, extended)
    return np.array(k00) if isinstance(k00, np.ndarray) else float(k00)


def _k00(m: Measure, extended: bool):
    """K(0, 0) of admissible measures, the regime chosen here, once: sinc
    where c2 = 0 or c3 = 0.  A batch of both regimes is split by it."""
    m.require_admissible(extended=extended)
    sinc = (m.c2 == 0.0) | (m.c3 == 0.0)
    if isinstance(sinc, np.ndarray):
        if _any(sinc) and not sinc.all():
            out = np.empty(sinc.shape)
            for mask in (sinc, ~sinc):
                out[mask] = _k00(Measure(m.c1[mask], m.c2[mask], m.c3[mask], m.delta[mask]),
                                 extended)
            return out
        sinc = _any(sinc)
    return _sinc_k00(m.c1, m.c2, m.delta) if sinc else k0_transform_solution(m).k00


# ---------------------------------------------------------------------------
# c3 = 0: the full kernel, its coefficient pole a divided difference
# ---------------------------------------------------------------------------
#
# With L = Delta/2, s = -2 pi i w, zeta = s^2, om^2 = 2 c2 / c1 and E(eta) =
# cosh(eta L) - eta L sinh(eta L), the c3 = 0 solution is, on the support,
#
#     c1 u_w(xi) = e^{s xi} + om^2 (D[g_e] / E(i om) + s D[g_o] / cos(om L)),
#     g_e(zeta) = E(sqrt zeta) cos(om xi) - E(i om) cosh(sqrt zeta xi),
#     g_o(zeta) = cosh(sqrt zeta L) sin(om xi) / om - cos(om L) sinh(sqrt zeta xi) / sqrt zeta,
#
# D[g] = (g(zeta) - g(-om^2)) / (zeta + om^2) the divided difference at the
# coefficient pole zeta = -om^2 (2 c1 pi^2 w^2 = c2), where g_e and g_o (the
# numerators N_e, N_o of c1 u = D[N_e] / E(i om) + s D[N_o] / cos(om L) with
# their factor zeta + om^2 divided out), even entire in sqrt zeta, vanish.
# Away from the pole D[g] = g(zeta) / (zeta + om^2); within |zeta + om^2|
# L^2 < _CLOSE_GAP it is ``_contour``'s 8-node sum.

def _c3zero_rows(c1, c2, delta, w: complex):
    """(offsets, weights, close) of u_w (c3 = 0, one measure, one finite w):
    u_w(xi) = 1/2 sum_r weights_r e^{offsets_r xi}, whose ``_row_sum`` at z
    is K(conj w, z).  The rows are (i om, -i om, s) with weights (a - i b, a
    + i b, 2 c), and where ``close`` the 16 contour rows +-eta_k."""
    if not cmath.isfinite(w):
        raise ValueError(f"w must be finite, got {w}")
    _require_delta_floor(delta)
    L, om = delta / 2.0, math.sqrt(2.0 * c2 / c1)
    s = -2j * np.pi * w
    close = abs(s * s + om * om) * (L * L) < _CLOSE_GAP
    return (_pole_rows if close else _far_rows)(c1, om, L, s) + (close,)


def _far_rows(c1, om, L, s):
    """The three rows with D[g] = g(zeta) / (zeta + om^2), from Python
    complex numbers (``cmath``)."""
    zeta, sL, th = s * s, s * L, om * L
    gap, ch, cos_th = zeta + om * om, cmath.cosh(sL), np.cos(th)
    # om^2 / gap is 1 at w = 0: a(0) = 1 / (c1 E(i om)) exactly
    alpha = om * om / gap * (ch - sL * cmath.sinh(sL)) / (c1 * (cos_th + th * np.sin(th)))
    i_beta = 1j * s * om * ch / (c1 * gap * cos_th)
    # + 0.0 turns a zero part -0 into +0: the rows' quotients reflect s + o
    # by the sign of its real part
    return (np.array([1j * om, -1j * om, s + 0.0]),
            np.array([alpha - i_beta, alpha + i_beta, 2.0 * zeta / (c1 * gap) + 0.0]))


def _pole_rows(c1, om, L, s):
    """The 19 rows with D[g] = sum_k c_k g(eta_k^2) at ``_contour``'s nodes
    (d: om^2 D[E] and om D[cosh(. L)]), whose cosh(eta_k xi) and s sinh(eta_k
    xi) / eta_k are the rows +-eta_k."""
    c1, om, L = np.array([c1, om, L], dtype=float).reshape(3, 1, 1)
    om_sq, th, cos_th = om * om, om * L, np.cos(om * L)
    nodes, c = _contour(s * s, -om_sq, L)                   # (1, node)
    nL = nodes * L
    ch = np.cosh(nL)
    d = (c * np.array([om_sq * (ch - nL * np.sinh(nL)), om * ch])).sum(-1, keepdims=True)
    alpha, i_beta = d[0] / (c1 * (cos_th + th * np.sin(th))), 1j * s * d[1] / (c1 * cos_th)
    k, ratio, ones = -om_sq / c1 * c, s / nodes, np.ones_like(alpha)
    offsets = np.concatenate([1j * om * ones, -1j * om * ones, s * ones, nodes, -nodes], -1)
    weights = np.concatenate([alpha - i_beta, alpha + i_beta, 2.0 / c1 * ones,
                              k * (1.0 + ratio), k * (1.0 - ratio)], -1)
    return offsets.reshape(19), weights.reshape(19)


def kernel_c3zero(m: Measure, w: complex, z: complex,
                  extended: bool = False) -> KernelEvaluation:
    """Full kernel K(w, z) for c3 = 0 and any c2 >= 0, Hermitian and entire in
    each variable, at finite w and z: the transform of u_{conj w} at z over
    ``_c3zero_rows``.  limit_path: REMOVABLE_W where they include the contour
    rows at the coefficients' pole 2 c1 pi^2 w^2 = c2, NONE elsewhere."""
    m.require_single()
    if m.c3 != 0.0:
        raise InvalidRegime("use kernel_k0z for c3 > 0")
    m.require_admissible(extended=extended)
    w, z = complex(w), complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    offsets, weights, close = _c3zero_rows(m.c1, m.c2, m.delta, w.conjugate())
    val = _row_sum(offsets, weights, m.delta / 2.0, np.array(z))
    return KernelEvaluation(value=complex(val),
                            limit_path=LimitPath.REMOVABLE_W if close else LimitPath.NONE)


# ---------------------------------------------------------------------------
# the section K(0, z) of either regime
# ---------------------------------------------------------------------------

def _section_rows(m: Measure, sinc: bool):
    """``_row_sum``'s (offsets, weights, shifts, close) of one measure's
    K(0, .), cached: u_0's (shifts None) where ``sinc`` (c2 = 0 or c3 = 0),
    else the TransformSolution's."""
    if sinc:
        offsets, weights, close = _c3zero_section(m.c1, m.c2, m.delta)
        return offsets, weights, None, close
    sol = k0_transform_solution(m)
    return sol.offsets, sol.weights, sol.shifts, sol.close


@functools.lru_cache(maxsize=8)
def _c3zero_section(c1, c2, delta):
    """u_0's rows and close flag; away from the pole c(0) = 0, leaving the two
    rows +-i om."""
    offsets, weights, close = _c3zero_rows(c1, c2, delta, 0j)
    if not close:
        offsets, weights = offsets[:2], weights[:2]
    offsets.setflags(write=False), weights.setflags(write=False)
    return offsets, weights, close


def kernel_k0z_grid(m: Measure, z: np.ndarray, extended: bool = False) -> np.ndarray:
    """K(0, z) of one measure over an array of finite points, for any c3 >=
    0, over ``_section_rows`` (``_section`` chooses how the rows are
    summed); the result has z's shape."""
    m.require_single()
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z[~np.isfinite(z)][0]}")
    m.require_admissible(extended=extended)
    return _section(m, m.c2 == 0.0 or m.c3 == 0.0, z)


def _section(m: Measure, sinc: bool, z: np.ndarray) -> np.ndarray:
    """One measure's section at finite points z: ``_row_sum`` at one point
    or at complex points.  At a grid of real points (notes above
    ``_sine_rows``), a section whose offsets are all purely imaginary by
    ``_sine_rows``, another c3 > 0 section by ``_pair_sum``, and u_0 at its
    pole by ``_row_sum``."""
    L = m.delta / 2.0
    offsets, weights, shifts, close = _section_rows(m, sinc)
    sine = not np.count_nonzero(offsets.real)           # purely imaginary offsets
    if z.size < 2 or np.count_nonzero(z.imag) or (sinc and not sine):
        return np.asarray(_row_sum(offsets, weights, L, z, shifts))
    x = z.real.reshape(-1)
    u = x * (2.0 * np.pi * L) + _U_TINY
    if sine:
        return _sine_rows(offsets, weights, shifts, L, u).reshape(z.shape)
    sol = k0_transform_solution(m)
    return _pair_sum(sol.pairs, offsets, weights, shifts[0], L, u, x,
                     bool(close) or not sol.clear).reshape(z.shape)


def _sinc_k00(c1, c2, delta):
    """K(0, 0) where c3 = 0 or c2 = 0: the transform of u_0's rows +-i om
    at z = 0, Delta sin(th) / (th c1 (cos th + th sin th)) with th = om
    Delta / 2 = sqrt(sigma / 2), whose denominator stays positive for th <=
    0.92 (its first zero is at th = 2.80).  In long double, rounded once;
    th + 1e-300 moves no bit of th above 1e-280, and below it sin(th) / th
    rounds to 1: Delta / c1 at a pure atom."""
    _require_delta_floor(delta)
    c1, c2, delta = np.array([c1, c2, delta], dtype=np.longdouble)
    th = np.sqrt((c2 + c2) / c1) * (delta * _HALF) + _TINY
    sin_th = np.sin(th)
    return (delta * (sin_th / th) / (c1 * (np.cos(th) + th * sin_th))).astype(float)


def k0_endpoint_value(m: Measure) -> float:
    """Value of the transform-side solution u0 at the support endpoint L =
    Delta/2; the coefficient of the 1/x far field of K(0, x): half the sum
    of weights_r e^{(offsets_r - shifts_r) L} over ``_section_rows``.  The
    measure must pass the extended admissibility gate."""
    m.require_single()
    m.require_admissible(extended=True)
    offsets, weights, shifts, _ = _section_rows(m, m.c2 == 0.0 or m.c3 == 0.0)
    exponents = offsets if shifts is None else offsets - shifts
    return float(0.5 * np.sum(weights * np.exp(exponents * (m.delta / 2.0))).real)
