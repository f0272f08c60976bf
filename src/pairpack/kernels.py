"""Closed-form reproducing kernels of the weighted band-limited spaces.

Two regimes:

* c3 = 0: the full kernel K(w, z) is available for all complex w, z.  It is
  assembled from coefficient functions of w and two transformed basis
  functions of z, plus a shifted sinc term.  The w-side coefficients share
  a removable singularity at 2 c1 pi^2 w^2 = c2, handled by a symmetric
  circle average (the kernel is entire in each variable).

* c3 > 0: only the section K(0, z) has a closed form.  It is built from the
  characteristic quartic roots eta1, eta2, the moment functions A, B, the
  transform C(eta, z), and the constant mu.  Numerator and divisor of the
  two-root formula are both antisymmetric in the roots, so the section is
  written in the means and eta^2-divided differences of A, B and C.  That
  one formula holds on the degenerate line lam = 4 c3^2 as well; for close
  roots the divided differences come from the eta^2 power series of the
  moments.

Sign conventions: B carries a minus sign on its integral term and the
second basis transform r(z) a minus sign on its first term.  Both are fixed
by requiring the removable singularities to actually cancel and are
confirmed against the independent integral-equation oracle in the tests.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRoots, InvalidRegime, NotAdmissible
from .measures import Measure
from .special import _SERIES_RADIUS, exp_moment, sin_quot, sinc_band_c, sinh_quot_scaled

DEGENERACY_RTOL = 1e-9
SCRIPT_L_SIGMA_MAX = 2.9     # certified nonvanishing range for the divisor
_REMOVABLE_RTOL = 1e-8       # w-side singularity detection, relative to c2
_CIRCLE_RADIUS = 1e-3        # radius of the 4-point limit average


class CaseTag(enum.Enum):
    PURELY_IMAGINARY = "purely_imaginary"    # lam > 4 c3^2
    CONJUGATE_QUADRANT = "conjugate_quadrant"  # lam < 4 c3^2
    DEGENERATE = "degenerate"                # lam = 4 c3^2


# indexed by 2 degenerate + (lam > 4 c3^2)
_CASE_TAGS = np.array([CaseTag.CONJUGATE_QUADRANT, CaseTag.PURELY_IMAGINARY,
                       CaseTag.DEGENERATE, CaseTag.DEGENERATE], dtype=object)


class LimitPath(enum.Enum):
    NONE = "none"
    REMOVABLE_W = "removable_w"
    REMOVABLE_Z = "removable_z"
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
    at_w: complex
    at_z: complex
    limit_path: LimitPath = LimitPath.NONE


def quartic_roots(m: Measure) -> EtaPair:
    """Roots eta1, eta2 of  eta^4 + 2(lam - c3^2) eta^2 + c3^2 (2 lam + c3^2) = 0
    with lam = c2/c1, taking eta^2 = c3^2 - lam +/- sqrt(lam) Lam and the
    square roots with nonnegative real part.  Lam = sqrt(lam - 4 c3^2 + 0j)
    is real in the purely imaginary case and +i|Lam| in the conjugate
    quadrant.  For a batch measure every field is an array over the batch
    (``case_tag`` an object array)."""
    if np.any(m.c3 == 0.0):
        raise InvalidRegime("c3 = 0 has its own kernel formula; no quartic roots")
    if np.any(m.c2 == 0.0):
        raise InvalidRegime("c2 = 0 degenerates to the pure sinc kernel")
    lam, c3 = m.lam(), m.c3
    big_lam = np.sqrt(lam - 4.0 * c3 ** 2 + 0j)
    eta1_sq = c3 ** 2 - lam + np.sqrt(lam) * big_lam
    eta2_sq = c3 ** 2 - lam - np.sqrt(lam) * big_lam
    eta1 = np.sqrt(eta1_sq)   # principal branch has Re >= 0
    eta2 = np.sqrt(eta2_sq)
    degenerate = abs(eta1_sq - eta2_sq) <= DEGENERACY_RTOL * (abs(eta1_sq) + abs(eta2_sq))
    tag = _CASE_TAGS[2 * degenerate + (lam > 4.0 * c3 ** 2)]
    return EtaPair(eta1=eta1, eta2=eta2, degenerate=degenerate, case_tag=tag)


def quartic_residual(m: Measure, eta: complex) -> float:
    """Relative residual of eta in the characteristic quartic (test hook)."""
    lam, c3 = m.lam(), m.c3
    val = eta ** 4 + 2.0 * (lam - c3 ** 2) * eta ** 2 + c3 ** 2 * (2.0 * lam + c3 ** 2)
    scale = abs(eta) ** 4 + 2.0 * abs(lam - c3 ** 2) * abs(eta) ** 2 \
        + c3 ** 2 * (2.0 * lam + c3 ** 2)
    return abs(val) / max(scale, 1e-300)


def mu(m: Measure) -> float:
    """mu = c3^2 / (2 c2 + c3^2 c1); zero exactly when c3 = 0."""
    if np.any((m.c2 == 0.0) & (m.c3 == 0.0)):
        raise ValueError("mu requires c2 > 0 or c3 > 0")
    return m.c3 ** 2 / (2.0 * m.c2 + m.c3 ** 2 * m.c1)


def script_L(m: Measure) -> complex:
    """The divisor A(eta1) B(eta2) - B(eta1) A(eta2) of the c3 > 0 kernel,
    evaluated as (eta1^2 - eta2^2) (A' Bbar - Abar B') from the section's
    transform solution.  For a batch measure, an array over the batch.

    Real and negative when the roots are purely imaginary; purely imaginary
    with negative imaginary part when they sit in conjugate quadrants.
    Certified nonzero for sigma <= 2.9 away from the degenerate line.
    """
    if np.any(m.c3 == 0.0) or np.any(m.c2 == 0.0):
        raise InvalidRegime("script_L needs c2 > 0 and c3 > 0")
    if np.any(m.sigma() > SCRIPT_L_SIGMA_MAX):
        raise NotAdmissible(
            f"sigma = {np.max(m.sigma()):.6g} > {SCRIPT_L_SIGMA_MAX}: nonvanishing of the "
            "divisor is not certified there")
    sol = k0_transform_solution(m)
    if np.any(sol.roots.degenerate):
        raise DegenerateRoots("lam = 4 c3^2: the two-root divisor is not defined")
    return (sol.roots.eta1 ** 2 - sol.roots.eta2 ** 2) * sol.det


# ---------------------------------------------------------------------------
# c3 > 0: the section in means and eta^2-divided differences
# ---------------------------------------------------------------------------
#
# Each root-dependent quantity X (A, B, C(., z), cosh(. L)) is an even entire
# function of eta, hence of zeta = eta^2.  The section needs only the mean
# Xbar = (X1 + X2) / 2 and the divided difference X' = (X1 - X2) / (zeta1 -
# zeta2), both finite where the roots meet.  For close roots X' is summed from
# the Taylor coefficients x_n of X in zeta as sum_n x_n h_n, with the power
# sums h_n = sum_{i<n} zeta1^i zeta2^(n-1-i) (McCurdy, Ng and Parlett, Math.
# Comp. 43, 1984).  The roots can meet only where |eta| L <= sqrt(3 sigma)/4,
# well inside the series radius.
#
# Every step works on arrays of measures; "close roots" is a mask over them.

_CLOSE_GAP = 1e-2       # |zeta1 - zeta2| L^2 below which X1 - X2 cancels
_CLOSE_RADIUS = 0.5     # largest |zeta| L^2 handed to the series
_ORDERS = np.arange(1, 13)  # terms below 1e-20 of the first at |zeta| L^2 < 0.5
_FACT_2N = np.array([math.factorial(2 * n) for n in _ORDERS], dtype=float)
_K01 = np.arange(2)[:, None, None]                              # I_0 and I_1
_K_TAYLOR = np.stack([2 * _ORDERS, 2 * _ORDERS + 1])[:, None]   # their series
_EVEN = 2 * np.arange(10)   # (sL)^20 / 20! < 5e-19 at |s L| < 1
_FACT_EVEN = np.array([math.factorial(j) for j in _EVEN], dtype=float)
_ODD_DIV = 1.0 / (2 * _ORDERS + _EVEN[:, None] + 1)    # 1 / (2n + 2m + 1)


def _power_sums(zeta1, zeta2, L):
    """The power sums h_n, n in _ORDERS, on a trailing axis, and the mask of
    measures whose roots are close enough for the series (the others get
    h = (1, 0, ..., 0)).  Arguments are 1-d arrays over measures."""
    close = ((np.abs(zeta1 - zeta2) * L * L < _CLOSE_GAP)
             & (np.maximum(np.abs(zeta1), np.abs(zeta2)) * L * L < _CLOSE_RADIUS))
    h = np.zeros(close.shape + _ORDERS.shape, dtype=complex)
    h[:, 0] = 1.0
    if close.any():
        z1, z2 = zeta1[close], zeta2[close]
        power = np.ones_like(z2)
        for i in range(1, len(_ORDERS)):
            power = power * z2
            h[close, i] = z1 * h[close, i - 1] + power
    return h, close


def _divisor_terms(lam, c3, L, eta1, eta2, inv_gap, h, close):
    """(Abar, A', Bbar, B') over 1-d arrays of measures, inv_gap =
    1 / (zeta1 - zeta2) off the close roots.  One moment call
    gives I_k(eta) = phi_k(eta - c3) + phi_k(-eta - c3) for k = 0, 1 at both
    roots; one more gives both Taylor rows of the close-root series.  Bbar
    uses zeta1 + zeta2 = 2 (c3^2 - lam) exactly."""
    mom = exp_moment(_K01, np.array([eta1, -eta1, eta2, -eta2]) - c3, L)
    i = mom[:, 0::2] + mom[:, 1::2]                  # (order k, root, measure)
    mean = 0.5 * (i[:, 0] + i[:, 1])
    dd = (i[:, 0] - i[:, 1]) * inv_gap
    if close.any():
        # Taylor coefficients of I_k in zeta: 2 phi_{2n+k}(-c3) / (2n)!
        taylor = 2.0 * exp_moment(_K_TAYLOR, -c3[close, None], L[close, None]) / _FACT_2N
        dd[:, close] = np.sum(h[close] * taylor, axis=-1)
    (i0, i1), (i0_dd, i1_dd) = mean, dd
    return (1.0 + lam * i1, lam * i1_dd,
            lam * (1.0 - 2.0 * c3 * i0), 1.0 - 2.0 * lam * c3 * i0_dd)


@dataclass(frozen=True)
class TransformSolution:
    """Fourier-side solution u0 of the kernel section K(0, .):

        u0(t) = e^{-scale} (p_scaled cbar(t) + q_scaled c'(t)) + mu,

    with cbar and c' the mean and eta^2-divided difference of cosh(eta1 t)
    and cosh(eta2 t).  Both coefficients stay finite where the roots meet.
    ``det`` = A' Bbar - Abar B' is the divisor over eta1^2 - eta2^2.
    ``close`` is set where the divided differences come from the close-root
    series with the power sums ``power_sums``.  The section is
    K(0, z) = sum_r weights_r e^{-shifts_r L} sinh((s + offsets_r) L) /
    (s + offsets_r), s = 2 pi i z, over five rows: offsets (eta1, eta2, -eta1,
    -eta2, 0), shifts (c3, c3, c3, c3, 0), weights (w1, w2, w1, w2, 2 mu),
    w1,2 = p_scaled/2 +- q_scaled/(eta1^2 - eta2^2); where ``close`` is set,
    w1,2 = p_scaled/2 and q_scaled times the series of C' is added.  For a
    batch measure every field is an array of the batch's shape (the rows and
    ``power_sums`` with one more, trailing axis), and every array is read-only.

    The coefficients are stored with the exponential damping e^{-c3 Delta/2}
    factored out: both right-hand sides of the defining linear system carry
    that factor exactly, and keeping it symbolic lets the assembly survive
    c3 Delta in the thousands, where the coefficients underflow and
    cosh(eta L) overflows individually.
    """

    roots: EtaPair
    p_scaled: complex
    q_scaled: complex
    det: complex
    mu: float
    scale: float        # c3 * delta / 2
    power_sums: np.ndarray
    close: bool
    offsets: np.ndarray
    shifts: np.ndarray
    weights: np.ndarray

    def endpoint_value(self, m: Measure) -> complex:
        """u0 at the endpoint Delta/2 (used by far-field tail corrections)."""
        L = m.delta / 2.0
        e1, e2 = self.roots.eta1, self.roots.eta2
        # e^{-c3 L} cosh(eta L): both exponents are nonpositive for large c3
        c1, c2 = ((np.exp((e - m.c3) * L) + np.exp(-(e + m.c3) * L)) / 2.0 for e in (e1, e2))
        series = np.exp(-self.scale) * np.sum(
            self.power_sums * np.expand_dims(L, -1) ** (2 * _ORDERS) / _FACT_2N, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            dd = np.where(self.close, series, (c1 - c2) / (e1 ** 2 - e2 ** 2))
        return self.p_scaled * 0.5 * (c1 + c2) + self.q_scaled * dd + self.mu


def k0_transform_solution(m: Measure) -> TransformSolution:
    """The section's TransformSolution (c2 > 0, c3 > 0).  One measure's is
    cached: a bounds sweep and an oracle cross-check each evaluate several
    sections of one measure, and the returned object and its arrays are
    shared and read-only.  A batch is solved in one
    uncached pass."""
    return _cached_solution(m) if np.ndim(m.c3) == 0 else _transform_solution(m)


def _transform_solution(m: Measure) -> TransformSolution:
    roots = quartic_roots(m)
    shape = np.shape(m.c3)
    c1, c2, c3, eta1, eta2 = (np.ravel(v) for v in (m.c1, m.c2, m.c3, roots.eta1, roots.eta2))
    L, lam = np.ravel(m.delta) / 2.0, c2 / c1
    zeta1, zeta2 = eta1 ** 2, eta2 ** 2
    h, close = _power_sums(zeta1, zeta2, L)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_gap = np.where(close, 0.0, 1.0 / (zeta1 - zeta2))
    a, a_dd, b, b_dd = _divisor_terms(lam, c3, L, eta1, eta2, inv_gap, h, close)
    det = a_dd * b - a * b_dd
    # exact closed forms: R1 = e^{-c3 L} rho1, R2 = e^{-c3 L} rho2
    denom = c1 * (2.0 * c2 + c3 ** 2 * c1)
    rho1 = 2.0 * c2 * (1.0 + c3 * L) / denom
    rho2 = 4.0 * c2 * c3 ** 2 / denom
    p, q, mu_v = -(rho1 * b_dd + rho2 * a_dd) / det, (rho1 * b + rho2 * a) / det, np.ravel(mu(m))
    w1, w2, zero = 0.5 * p + q * inv_gap, 0.5 * p - q * inv_gap, np.zeros_like(c3)
    fields = dict(p_scaled=p, q_scaled=q, det=det, mu=mu_v, scale=c3 * L, close=close,
                  power_sums=h, offsets=np.array([eta1, eta2, -eta1, -eta2, zero]).T,
                  shifts=np.array([c3, c3, c3, c3, zero]).T,
                  weights=np.array([w1, w2, w1, w2, 2.0 * mu_v]).T)
    for name, v in fields.items():
        fields[name] = v = v.reshape(shape + v.shape[1:])
        v.flags.writeable = False
    return TransformSolution(roots=roots, **{k: v[()] for k, v in fields.items()})


_cached_solution = functools.lru_cache(maxsize=8)(_transform_solution)


def kernel_k0z(m: Measure, z: complex, extended: bool = False) -> KernelEvaluation:
    """K(0, z) for c3 > 0, real entire and even in z."""
    m.require_single()
    if m.c3 == 0.0:
        raise InvalidRegime("use kernel_c3zero for c3 = 0")
    value = complex(kernel_k0z_grid(m, z, extended=extended))
    close = m.c2 > 0.0 and k0_transform_solution(m).close
    return KernelEvaluation(value=value, at_w=0.0, at_z=complex(z),
                            limit_path=LimitPath.DEGENERATE_ETA if close else LimitPath.NONE)


def _aux_C_split(m: Measure, sol: TransformSolution, s, close):
    """q_scaled times the eta^2-divided difference of e^{-c3 Delta/2}
    C(eta, z) at the entries of the mask ``close`` over the measures
    broadcast against s = 2 pi i z: the measures whose roots are close,
    where the five-row sum leaves it out.  C is the sum of two sinh
    quotients.

    The difference is the moment series sum_n h_n M_2n(s) / (2n)!,
    M_j(s) = integral of t^j e^{s t} over the support, where |s L| < 1.
    Elsewhere it follows from C = N(zeta) / (s^2 - zeta), N = 2 s sinh(sL)
    cosh(eta L) - 2 cosh(sL) eta sinh(eta L), as Nbar g' + N' gbar with
    g = 1 / (s^2 - zeta); there |s^2 - zeta| L^2 > 1/2, so g stays bounded.
    """
    def pick(x, *tail):
        return np.broadcast_to(x, close.shape + tail)[close]
    s, L, e1, e2 = pick(s), pick(m.delta / 2.0), pick(sol.roots.eta1), pick(sol.roots.eta2)
    h = pick(sol.power_sums, len(_ORDERS))
    series = np.empty_like(s)
    small = np.abs(s * L) < _SERIES_RADIUS
    if small.any():
        # M_2n(s) + M_2n(-s) = 2 sum_m s^2m L^(2n+2m+1) / ((2m)! (2n+2m+1)),
        # both sums taken in sequence from their smallest terms
        ss, Ls = s[small], L[small]
        even = (ss * Ls)[:, None] ** _EVEN / _FACT_EVEN
        odd = h[small] * Ls[:, None] ** (2 * _ORDERS) / _FACT_2N
        inner = np.cumsum(odd[:, None, ::-1] * _ODD_DIV[:, ::-1], axis=-1)[..., -1]
        series[small] = 2.0 * Ls * np.cumsum((even * inner)[:, ::-1], axis=-1)[:, -1]
    big = ~small
    if big.any():
        sb, Lb, hb = s[big], L[big], h[big]
        e = np.array([e1[big], e2[big]])
        cosh_l, eta_sinh_l = np.cosh(e * Lb), e * np.sinh(e * Lb)
        odd = hb * Lb[:, None] ** (2 * _ORDERS - 1) / _FACT_2N    # h_n L^(2n-1) / (2n)!
        cosh_l_dd, eta_sinh_l_dd = (odd * Lb[:, None]).sum(-1), (odd * 2 * _ORDERS).sum(-1)
        a, b = 2.0 * sb * np.sinh(sb * Lb), 2.0 * np.cosh(sb * Lb)
        g1, g2 = 1.0 / (sb * sb - e[0] ** 2), 1.0 / (sb * sb - e[1] ** 2)
        series[big] = ((a * cosh_l.mean(axis=0) - b * eta_sinh_l.mean(axis=0)) * g1 * g2
                       + (a * cosh_l_dd - b * eta_sinh_l_dd) * 0.5 * (g1 + g2))
    return pick(sol.q_scaled) * np.exp(-pick(sol.scale)) * series


def _k0z_section(m: Measure, z):
    """K(0, z) for c2 > 0, c3 > 0, the measures broadcast against z: one
    quotient call over the five rows of TransformSolution."""
    sol = k0_transform_solution(m)
    s = 2j * np.pi * z
    quot = sinh_quot_scaled(s[..., None] + sol.offsets, np.asarray(m.delta / 2.0)[..., None],
                            sol.shifts)
    val = np.sum(sol.weights * quot, axis=-1)
    if sol.close.any():
        val = np.array(val)             # writable, also at one measure and one z
        close = np.broadcast_to(sol.close, val.shape)
        val[close] += _aux_C_split(m, sol, s, close)
    return val


def kernel_k00(m: Measure, extended: bool = False) -> float:
    """K(0, 0), the diagonal kernel value whose reciprocal upper-bounds the
    optimization constant of the averaged form factor: the real section at
    z = 0.  For a batch measure, an array over the batch."""
    k00 = np.real(kernel_k0z_grid(m, 0.0, extended=extended))
    return float(k00) if k00.ndim == 0 else k00


# ---------------------------------------------------------------------------
# c3 = 0: the full two-variable kernel
# ---------------------------------------------------------------------------

def _coeff_abc(m: Measure, w: complex):
    """Coefficient functions a(w), b(w), c(w) of the c3 = 0 solution.  All
    three share the denominator 2 c1 pi^2 w^2 - c2."""
    c1, c2, d = m.c1, m.c2, m.delta
    om = np.sqrt(2.0 * c2 / c1)
    th = om * d / 2.0
    den = 2.0 * c1 * np.pi ** 2 * w * w - c2
    cw = np.cos(np.pi * d * w)
    sw = np.sin(np.pi * d * w)
    a = -2.0 * c2 * (cw + np.pi * d * w * sw) / (
        c1 * den * (2.0 * np.cos(th) + om * d * np.sin(th)))
    b = om * 1j * np.pi * w * cw / (den * np.cos(th))
    c = 2.0 * np.pi ** 2 * w * w / den
    return a, b, c


def _a0(m: Measure):
    """a(0) = 2 / (c1 (2 cos(th) + 2 th sin(th))), th = om Delta / 2, the one
    coefficient left at w = 0 (b(0) = c(0) = 0); 1/c1 for a pure atom."""
    th = np.sqrt(2.0 * m.c2 / m.c1) * m.delta / 2.0
    return 2.0 / (m.c1 * (2.0 * np.cos(th) + 2.0 * th * np.sin(th)))


def _near_coeff_zero(m: Measure, v: complex) -> bool:
    """True when 2 c1 pi^2 v^2 - c2 is within tolerance of its zero."""
    if m.c2 == 0.0:
        return False
    return abs(2.0 * m.c1 * np.pi ** 2 * v * v - m.c2) <= _REMOVABLE_RTOL * m.c2


def _kernel_c3zero_raw(m: Measure, w: complex, z: complex) -> complex:
    # a q(z) + b r(z) + 2 c sin(2 pi (z - wb) L) / (2 pi (z - wb)), q and r
    # the transforms of cos(om t) and sin(om t): three quotients, one call
    wb = np.conj(w)
    a, b, c = _coeff_abc(m, wb)
    s, om = 2.0 * np.pi * z, np.sqrt(2.0 * m.c2 / m.c1)
    plus, minus, shifted = sin_quot(np.array([s + om, s - om, 2.0 * np.pi * (z - wb)]),
                                    m.delta / 2.0)
    return a * (plus + minus) + 1j * b * (minus - plus) + 2.0 * c * shifted


def kernel_c3zero(m: Measure, w: complex, z: complex,
                  extended: bool = False) -> KernelEvaluation:
    """Full kernel K(w, z) for c3 = 0; Hermitian, entire in each variable.

    Near the shared zero of the coefficient denominators the value is
    recovered as a 4-point circle average around the singular parameter,
    exact to fourth order because the kernel is analytic there.
    """
    m.require_single()
    if m.c3 != 0.0:
        raise InvalidRegime("use kernel_k0z for c3 > 0")
    m.require_admissible(extended=extended)
    w = complex(w)
    z = complex(z)
    if m.c2 == 0.0:
        val = sinc_band_c(m.delta, z, center=np.conj(w)) / m.c1
        return KernelEvaluation(value=complex(val), at_w=w, at_z=z)

    # the z-side removable points are absorbed by the sinc-quotient split in
    # q and r, so only the w side needs an actual limit branch
    path = LimitPath.NONE
    if _near_coeff_zero(m, z):
        path = LimitPath.REMOVABLE_Z
    if _near_coeff_zero(m, w):
        path = LimitPath.REMOVABLE_W
        r0 = _CIRCLE_RADIUS * max(1.0, abs(w))
        pts = [w + r0 * np.exp(1j * np.pi * (k + 0.5) / 2.0) for k in range(4)]
        val = sum(_kernel_c3zero_raw(m, p, z) for p in pts) / 4.0
    else:
        val = _kernel_c3zero_raw(m, w, z)
    return KernelEvaluation(value=complex(val), at_w=w, at_z=z, limit_path=path)


# ---------------------------------------------------------------------------
# vectorized section evaluation
# ---------------------------------------------------------------------------

def _k0z_c3zero(m: Measure, z):
    """K(0, z) = a(0) q(z) for c3 = 0 or a pure atom (c2 = 0, om = 0), the
    two rows of q(z) = sum_+- sin((2 pi z +- om) L) / (2 pi z +- om) in one call."""
    om = np.multiply.outer(np.sqrt(2.0 * m.c2 / m.c1), [1.0, -1.0])
    q = sin_quot(2.0 * np.pi * z[..., None] + om, np.asarray(m.delta / 2.0)[..., None])
    return _a0(m) * np.sum(q, axis=-1)


def kernel_k0z_grid(m: Measure, z: np.ndarray, extended: bool = False) -> np.ndarray:
    """K(0, z) over an array of points, for any c3 >= 0: one quotient call
    per regime, over two rows (c3 = 0 or a pure atom) or the section's five
    cached rows (plus the close-root series where the roots nearly meet).
    For a batch measure the result has the batch's shape followed by z's,
    and the regimes are masks over the batch."""
    m.require_admissible(extended=extended)
    z = np.asarray(z, dtype=complex)
    if np.ndim(m.c1) == 0:
        regime = _k0z_section if m.c2 > 0.0 and m.c3 > 0.0 else _k0z_c3zero
        return np.asarray(regime(m, z))
    c1, c2, c3, delta = (np.reshape(v, (-1,) + (1,) * z.ndim)
                         for v in (m.c1, m.c2, m.c3, m.delta))
    out = np.empty(c1.shape[:1] + z.shape, dtype=complex)
    section = ((c2 > 0.0) & (c3 > 0.0)).ravel()
    for mask, regime in ((~section, _k0z_c3zero), (section, _k0z_section)):
        if mask.any():
            out[mask] = regime(Measure(c1[mask], c2[mask], c3[mask], delta[mask]), z)
    return out.reshape(np.shape(m.c1) + z.shape)


def k0_endpoint_value(m: Measure) -> float:
    """Value of the transform-side solution u0 at the support endpoint
    Delta/2; the coefficient of the 1/x far field of K(0, x).  The measure
    must pass the extended admissibility gate."""
    m.require_single()
    if m.c3 > 0.0 and m.c2 > 0.0:
        return float(k0_transform_solution(m).endpoint_value(m).real)
    # u0(t) = a(0) cos(om t); om = 0 for a pure atom
    m.require_admissible(extended=True)
    return float(_a0(m) * np.cos(np.sqrt(2.0 * m.c2 / m.c1) * m.delta / 2.0))
