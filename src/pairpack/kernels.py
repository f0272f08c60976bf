"""Closed-form reproducing kernels of the weighted band-limited spaces.

Every kernel value is one sum of sinh quotients over a table of rows,
``_row_sum``: ``kernel_c3zero`` sums ``_c3zero_rows``, and every entry point
of the section K(0, .) the table that ``_section_rows`` chooses.  Two regimes:

* c3 = 0: the full kernel K(w, z) for all complex w, z, the transform of
  the solution u_w: rows e^{eta xi} at eta = +-i om and -2 pi i w.  Its
  coefficients share a pole at 2 c1 pi^2 w^2 = c2; near it they are one
  divided difference by the contour rule of close roots below, whose nodes
  are 16 more rows.  A pure atom (c2 = 0) is that case at w = 0.

* c3 > 0: only the section K(0, z) has a closed form.  It is built from the
  characteristic quartic roots eta1, eta2, the moment functions A, B, the
  transform C(eta, z), and the constant mu.  Numerator and divisor of the
  two-root formula are both antisymmetric in the roots, so the section is
  written in the means and eta^2-divided differences of A, B and C.  That
  one formula holds on the degenerate line lam = 4 c3^2 as well; for close
  roots the divided differences are Cauchy integrals, taken by the 8-point
  trapezoid rule on a circle around both roots.  One measure is the 0-d
  case of a batch: its real parameters stay Python floats, its complex
  values are arrays with leading axes (roots, moment orders, contour
  nodes), and its values are bit-identical alone and inside a batch (the
  layout notes above ``_contour`` say why).

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
from .special import _sinh_quot, exp_moments

DEGENERACY_RTOL = 1e-9
# largest c3 of the c3 > 0 closed forms: correct to 1e145 for c1 in [1e-6, 1e6]
# and Delta in [1e-4, 1e3]; c2 c3^2 can overflow at 1e150, c3^2 at 1.3e154
C3_MAX = 1e140
SCRIPT_L_SIGMA_MAX = 2.9     # certified nonvanishing range for the divisor
_CIRCLE = np.exp(1j * np.pi * (np.arange(8) + 0.5) / 4.0)   # _contour's 8 points
# complex constants, as arrays: their products with complex arrays skip a
# Python scalar's conversion and a float array's cast
_Z0, _HALF, _ONE = np.zeros((), dtype=complex), np.array(0.5 + 0j), np.array(1.0 + 0j)
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


_CONTOUR_PATHS = {3: LimitPath.REMOVABLE_W, 5: LimitPath.DEGENERATE_ETA}


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
    return _roots(m)[0]


def _roots(m: Measure):
    """The EtaPair and the roots stacked as one array, (eta1, eta2) on a
    leading axis."""
    c2, c3 = m.c2, m.c3
    if np.count_nonzero((c3 > C3_MAX) | (c3 == 0.0) | (c2 == 0.0)):
        _require_c3_bound(m)
        if np.count_nonzero(c3 == 0.0):
            raise InvalidRegime("c3 = 0 has its own kernel formula; no quartic roots")
        raise InvalidRegime("c2 = 0 degenerates to the pure sinc kernel")
    lam, c3_sq = c2 / m.c1, c3 * c3
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
    eta = np.sqrt(np.array([eta1_sq, eta2_sq]))
    # eta1^2 - eta2^2 scales as sqrt(lam - 4 c3^2), hence the squared rtol
    degenerate = abs(lam - 4.0 * c3_sq) <= DEGENERACY_RTOL ** 2 * (lam + 4.0 * c3_sq)
    tag = _CASE_TAGS[2 * degenerate + real_lam]
    return EtaPair(eta1=eta[0], eta2=eta[1], degenerate=degenerate, case_tag=tag), eta


def quartic_residual(m: Measure, eta: complex) -> float:
    """Relative residual of eta in the characteristic quartic (test hook)."""
    lam, c3_sq = m.lam(), m.c3 * m.c3
    val = eta ** 4 + 2.0 * (lam - c3_sq) * eta ** 2 + c3_sq * (2.0 * lam + c3_sq)
    scale = abs(eta) ** 4 + 2.0 * abs(lam - c3_sq) * abs(eta) ** 2 \
        + c3_sq * (2.0 * lam + c3_sq)
    return abs(val) / max(scale, 1e-300)


def _require_c3_bound(m: Measure) -> None:
    """Refuse a measure, or any entry of a batch, with c3 > C3_MAX."""
    if np.count_nonzero(m.c3 > C3_MAX):
        raise ValueError(f"c3 must be <= {C3_MAX:g}, got {np.max(m.c3):g}")


def mu(m: Measure) -> float:
    """mu = c3^2 / (2 c2 + c3^2 c1); zero exactly when c3 = 0."""
    _require_c3_bound(m)
    if np.count_nonzero((m.c2 == 0.0) & (m.c3 == 0.0)):
        raise ValueError("mu requires c2 > 0 or c3 > 0")
    c3_sq = m.c3 * m.c3
    return c3_sq / (2.0 * m.c2 + c3_sq * m.c1)


def script_L(m: Measure) -> complex:
    """The divisor A(eta1) B(eta2) - B(eta1) A(eta2) of the c3 > 0 kernel,
    evaluated as (eta1^2 - eta2^2) (A' Bbar - Abar B') from the section's
    transform solution.  For a batch measure, an array over the batch.

    Real and negative when the roots are purely imaginary; purely imaginary
    with negative imaginary part when they sit in conjugate quadrants.
    Certified nonzero for sigma <= 2.9 away from the degenerate line.
    """
    if np.count_nonzero((m.c3 == 0.0) | (m.c2 == 0.0)):
        raise InvalidRegime("script_L needs c2 > 0 and c3 > 0")
    if np.count_nonzero(m.sigma() > SCRIPT_L_SIGMA_MAX):
        raise NotAdmissible(
            f"sigma = {np.max(m.sigma()):.6g} > {SCRIPT_L_SIGMA_MAX}: nonvanishing of the "
            "divisor is not certified there")
    sol = k0_transform_solution(m)
    if np.count_nonzero(sol.roots.degenerate):
        raise DegenerateRoots("lam = 4 c3^2: the two-root divisor is not defined")
    # complex products on arrays, as in the transform solution, so that a
    # measure's divisor is the same alone and in a batch
    zeta = np.array([sol.roots.eta1, sol.roots.eta2]) ** 2
    return ((zeta[:1] - zeta[1:]) * sol.det)[0]


# ---------------------------------------------------------------------------
# c3 > 0: the section in means and eta^2-divided differences
# ---------------------------------------------------------------------------
#
# Each root-dependent quantity X (A, B, C(., z), cosh(. L)) is an even entire
# function of eta, hence of zeta = eta^2.  The section needs only the mean
# Xbar = (X1 + X2) / 2 and the divided difference X' = (X1 - X2) / (zeta1 -
# zeta2), both finite where the roots meet.  For close roots X' is Cauchy's
# integral of X(zeta) / ((zeta - zeta1) (zeta - zeta2)) over a circle around
# both roots, taken by the trapezoid rule (Kassam and Trefethen, SIAM J. Sci.
# Comput. 26, 2005): a weighted sum of X at 8 nodes, which no cancellation
# between X1 and X2 enters.
#
# One code path serves one measure and a batch; "close roots" is a mask over
# the measures.  Layout:
#
# * Real parameters keep their own type: c1, c2, c3, L = Delta/2 and lam are
#   Python floats for one measure and arrays over the batch, flattened to
#   one axis, for a batch; every real-only step (denominators, rho1, rho2,
#   mu, the close test) costs a Python float operation for one measure.  The
#   real coefficients that multiply complex values are cast once, as one
#   complex array.
# * Complex quantities are arrays with the measures on the last axis (one
#   entry for one measure) and roots, signs, moment orders and contour nodes
#   on leading ones, so that a constant of shape (k, 1) broadcasts alike
#   against one measure and a batch.  A per-measure complex value keeps its
#   measure axis (``det`` has shape (1,), never ()): numpy's complex multiply
#   on numpy scalars skips the fused multiply-add of its array loop, so a
#   0-d product would round apart from the same measure's product inside a
#   batch.  Several values of one measure are stacked on a leading axis and
#   computed by one ufunc call.
# * A square that a Python float can reach is written as a product, c3 * c3:
#   Python's ``**`` calls libm pow, which rounds apart from numpy's square
#   in about 0.1% of doubles, and so would tag roots on the degenerate line
#   differently alone and in a batch.
# * Every sum over rows or over the 8 contour nodes runs over a contiguous
#   last axis, so that one measure and a batch sum in the same order
#   (``exp_moments`` returns C-contiguous arrays for this reason).

_CLOSE_GAP = 1e-2       # |zeta1 - zeta2| L^2 below which X1 - X2 cancels
# c3 on the four root rows and the contour rows, 0 on the mu row
_SHIFT_PATTERN = {n: np.array([1.0] * 4 + [0.0] + [1.0] * (n - 5)) for n in (5, 21)}
_SIGNS = np.array([1.0, -1.0], dtype=complex)[:, None, None]   # +-, then root or order
_AB_OFFSET = np.array([[1.0], [1.0], [1.0], [0.0]], dtype=complex)
_W_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0]], dtype=complex)    # w1, w2, w1, w2


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


@dataclass(frozen=True)
class TransformSolution:
    """Fourier-side solution u0 of the kernel section K(0, .):

        u0(t) = e^{-scale} (p_scaled cbar(t) + q_scaled c'(t)) + mu,

    with cbar and c' the mean and eta^2-divided difference of cosh(eta1 t)
    and cosh(eta2 t).  Both coefficients stay finite where the roots meet.
    ``det`` = A' Bbar - Abar B' is the divisor over eta1^2 - eta2^2.
    ``close`` is set where the divided differences come from ``_contour``.
    The section K(0, z) is ``_row_sum`` over five rows: offsets (eta1, eta2,
    -eta1, -eta2, 0), shifts (c3, c3, c3, c3, 0), weights (w1, w2, w1, w2,
    2 mu), w1,2 = p_scaled/2 +- q_scaled/(eta1^2 - eta2^2).
    Where ``close`` is set, w1,2 = p_scaled/2 and 16 more rows carry
    q_scaled c': offsets +-eta_k, shift c3, weights q_scaled c_k at the 8
    contour nodes (weight 0 for the other measures of such a batch).  For
    one measure the scalar fields are numpy scalars and the rows have shape
    (5,) or (21,); for a batch measure every field is an array of the
    batch's shape (the rows with one more, trailing, C-contiguous axis).
    Every array is read-only.

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
    close: bool
    offsets: np.ndarray
    shifts: np.ndarray
    weights: np.ndarray


def k0_transform_solution(m: Measure) -> TransformSolution:
    """The section's TransformSolution (c2 > 0, c3 > 0).  One measure's is
    cached: a bounds sweep and an oracle cross-check each evaluate several
    sections of one measure, and the returned object and its arrays are
    shared and read-only.  A batch is solved in one
    uncached pass."""
    return _transform_solution(m) if isinstance(m.c3, np.ndarray) else _cached_solution(m)


def _transform_solution(m: Measure) -> TransformSolution:
    roots, eta = _roots(m)
    shape = getattr(m.c1, "shape", ())
    c1, c2, c3, L = _flat(m.c1), _flat(m.c2), _flat(m.c3), _flat(m.delta / 2.0)
    lam, c3_sq = c2 / c1, c3 * c3
    eta = eta.reshape(2, -1)                                # (root, measure)
    zeta = eta ** 2
    gap = zeta[0] - zeta[1]
    close = abs(gap) * L * L < _CLOSE_GAP
    n_close = np.count_nonzero(close)
    # I_k(eta) = phi_k(eta - c3) + phi_k(-eta - c3), k = 0, 1, at both roots
    pm_eta = _SIGNS * eta                                   # (sign, root, measure)
    i = exp_moments(1, pm_eta - c3, L)                      # (k, sign, root, measure)
    i = i[:, 0] + i[:, 1]
    # ((2 I0bar, 2 I1bar), (I0', I1')): sums and differences over the roots,
    # the differences then divided by zeta1 - zeta2
    sd = i[:, 0] + _SIGNS * i[:, 1]
    if n_close:
        inv_gap = np.divide(1.0, gap, out=np.zeros(gap.shape, dtype=complex), where=~close)
    else:
        inv_gap = _ONE / gap
    sd[1] *= inv_gap
    if n_close:     # the close measures' divided differences at the 8 contour nodes
        z1, z2 = zeta[:, close, None]
        L_c, c3_c = np.array([L, c3]).reshape(2, -1)[:, close, None]
        nodes, c = _contour(z1, z2, L_c)
        i_c = exp_moments(1, np.concatenate([nodes, -nodes], axis=1) - c3_c, L_c)
        sd[1][:, close] += (c * (i_c[..., :8] + i_c[..., 8:])).sum(-1)
    # the real coefficients below, and exact closed forms R1 = e^{-c3 L} rho1,
    # R2 = e^{-c3 L} rho2
    d = 2.0 * c2 + c3_sq * c1
    mu_v, denom = c3_sq / d, c1 * d
    rho1, rho2 = 2.0 * c2 * (1.0 + c3 * L) / denom, 4.0 * c2 * c3_sq / denom
    coef = np.array([-c3, 0.5 * lam, -(2.0 * lam * c3), lam, rho1, rho2, -rho1, -rho2],
                    dtype=complex).reshape(8, -1)
    # (Bbar / lam, Abar, B', A') = (1 - 2 c3 I0bar, 1 + lam I1bar,
    # 1 - 2 lam c3 I0', lam I1'); Bbar uses zeta1 + zeta2 = 2 (c3^2 - lam)
    ab = sd.reshape(4, -1) * coef[:4] + _AB_OFFSET
    ab[0] *= coef[3]
    ab = ab.reshape(2, 2, -1)                               # ((Bbar, Abar), (B', A'))
    det = ab[1, 1] * ab[0, 0] - ab[0, 1] * ab[1, 0]
    # (q, p) = (rho1 Bbar + rho2 Abar, -rho1 B' - rho2 A') / det
    qp = ab * coef[4:].reshape(2, 2, -1)
    qp = (qp[:, 0] + qp[:, 1]) / det
    # the rows, (measure, row): offsets and weights in one table
    n_rows = 21 if n_close else 5
    table = np.zeros((2, eta.shape[1], n_rows), dtype=complex)
    table[0, :, :4] = pm_eta.reshape(4, -1).T
    table[1, :, :4] = (_HALF * qp[1] + _W_SIGNS * (qp[0] * inv_gap)).T    # w1, w2, w1, w2
    table[1, :, 4] = 2.0 * mu_v
    if n_close:     # contour rows: node 0 and weight 0 for the measures not close
        table[0, close, 5:13], table[0, close, 13:] = nodes, -nodes
        table[1, close, 5:13] = table[1, close, 13:] = qp[0][close][:, None] * c
    shifts = np.asarray(c3).reshape(-1, 1) * _SHIFT_PATTERN[n_rows]
    rows = shape + (n_rows,)
    table.flags.writeable = qp.flags.writeable = False
    return TransformSolution(
        roots, qp[1].reshape(shape)[()], qp[0].reshape(shape)[()], _field(det, shape),
        _field(np.asarray(mu_v), shape), _field(np.asarray(c3 * L), shape), _field(close, shape),
        table[0].reshape(rows), _field(shifts, rows), table[1].reshape(rows))


def _flat(v):
    """A batch parameter on one axis; a Python float as it is."""
    return v.reshape(-1) if isinstance(v, np.ndarray) else v


def _field(v, shape):
    """Array v in the batch's shape and read-only, or a numpy scalar for one
    measure."""
    v = v.reshape(shape)
    if v.ndim:
        v.flags.writeable = False
    return v[()]


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
    offsets, weights, shifts, head = _section_rows(m)
    value = _row_sum(offsets, weights, m.delta / 2.0, np.array(z), head, shifts)
    path = _CONTOUR_PATHS[head] if offsets.shape[-1] > head else LimitPath.NONE
    return KernelEvaluation(value=complex(value), limit_path=path)


def _row_sum(offsets, weights, L, z, head, shifts=None):
    """sum_r weights_r e^{-shifts_r L} sinh((s + offsets_r) L) / (s + offsets_r),
    s = 2 pi i z, over rows on a last axis, the measures' axes followed by
    z's.  The first ``head`` rows are summed apart from the contour rows after
    them, so that a batch's zero-weight padding leaves their rounding."""
    if offsets.ndim > 1:        # a batch: z's axes go between the measures' and the rows'
        units = (1,) * z.ndim
        offsets, weights, shifts = (r if r is None else r.reshape(r.shape[:-1] + units + (-1,))
                                    for r in (offsets, weights, shifts))
        L = L.reshape(L.shape + units + (1,))
    terms = weights * _sinh_quot(_TWO_PI_I * z[..., None] + offsets, L, shifts)
    if terms.shape[-1] <= head:
        return np.add.reduce(terms, -1)
    return np.add.reduce(terms[..., :head], -1) + np.add.reduce(terms[..., head:], -1)


def kernel_k00(m: Measure, extended: bool = False) -> float:
    """K(0, 0), the diagonal kernel value whose reciprocal upper-bounds the
    optimization constant of the averaged form factor: the real section at
    z = 0.  For a batch measure, an array over the batch."""
    k00 = _section(m, _Z0, extended).real
    return float(k00) if k00.ndim == 0 else k00


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
    """(offsets, weights, close) of u_w (c3 = 0, one finite w): u_w(xi) = 1/2
    sum_r weights_r e^{offsets_r xi}, whose ``_row_sum`` at z is K(conj w, z).
    The rows, on a last axis after a batch's axes, are (i om, -i om, s)
    with weights (a - i b, a + i b, 2 c), and where ``close`` the 16 contour
    rows +-eta_k (weight 0 for the other measures of a batch)."""
    if not cmath.isfinite(w):
        raise ValueError(f"w must be finite, got {w}")
    shape = getattr(c1, "shape", ())
    c1, L = _flat(c1), _flat(delta / 2.0)
    om = (np.sqrt if shape else math.sqrt)(2.0 * _flat(c2) / c1)
    s = -2j * np.pi * w
    close = abs(s * s + om * om) * (L * L) < _CLOSE_GAP
    if not shape:
        return (_pole_rows if close else _far_rows)(c1, om, L, s) + (close,)
    table = np.zeros((2, close.size, 19 if np.count_nonzero(close) else 3), dtype=complex)
    for mask, rows, width in ((~close, _far_rows, 3), (close, _pole_rows, 19)):
        if np.count_nonzero(mask):
            table[:, mask, :width] = rows(c1[mask], om[mask], L[mask], s)
    rows = shape + table.shape[-1:]
    return table[0].reshape(rows), table[1].reshape(rows), close.reshape(shape)


def _far_rows(c1, om, L, s):
    """The three rows with D[g] = g(zeta) / (zeta + om^2): a batch's values
    are arrays, one measure's complex values Python numbers (``cmath``)."""
    cm = np if isinstance(L, np.ndarray) else cmath
    zeta, sL, th = s * s, s * L, om * L
    gap, ch, cos_th = zeta + om * om, cm.cosh(sL), np.cos(th)
    # om^2 / gap is 1 at w = 0: a(0) = 1 / (c1 E(i om)) exactly
    alpha = om * om / gap * (ch - sL * cm.sinh(sL)) / (c1 * (cos_th + th * np.sin(th)))
    i_beta = 1j * s * om * ch / (c1 * gap * cos_th)
    return (np.array([1j * om, -1j * om, s + 0.0 * om]).T,
            np.array([alpha - i_beta, alpha + i_beta, 2.0 * zeta / (c1 * gap) + 0.0 * om]).T)


def _pole_rows(c1, om, L, s):
    """The 19 rows with D[g] = sum_k c_k g(eta_k^2) at ``_contour``'s nodes
    (d: om^2 D[E] and om D[cosh(. L)]), whose cosh(eta_k xi) and s sinh(eta_k
    xi) / eta_k are the rows +-eta_k."""
    rows = np.shape(c1) + (19,)
    c1, om, L = np.array([c1, om, L], dtype=float).reshape(3, -1, 1)
    om_sq, th, cos_th = om * om, om * L, np.cos(om * L)
    nodes, c = _contour(s * s, -om_sq, L)                   # (measure, node)
    nL = nodes * L
    ch = np.cosh(nL)
    d = (c * np.array([om_sq * (ch - nL * np.sinh(nL)), om * ch])).sum(-1, keepdims=True)
    alpha, i_beta = d[0] / (c1 * (cos_th + th * np.sin(th))), 1j * s * d[1] / (c1 * cos_th)
    k, ratio, ones = -om_sq / c1 * c, s / nodes, np.ones_like(alpha)
    offsets = np.concatenate([1j * om * ones, -1j * om * ones, s * ones, nodes, -nodes], -1)
    weights = np.concatenate([alpha - i_beta, alpha + i_beta, 2.0 / c1 * ones,
                              k * (1.0 + ratio), k * (1.0 - ratio)], -1)
    return offsets.reshape(rows), weights.reshape(rows)


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
    val = _row_sum(offsets, weights, m.delta / 2.0, np.array(z), 3)
    return KernelEvaluation(value=complex(val),
                            limit_path=LimitPath.REMOVABLE_W if close else LimitPath.NONE)


# ---------------------------------------------------------------------------
# the section K(0, z) of either regime
# ---------------------------------------------------------------------------

def _section_rows(m: Measure):
    """``_row_sum``'s (offsets, weights, shifts, head) of K(0, .) for measures
    of one regime: the TransformSolution's rows (head 5) where c2 > 0 and
    c3 > 0, else u_0's (head 3, shifts None).  One measure's are cached."""
    if np.count_nonzero((m.c2 == 0.0) | (m.c3 == 0.0)):
        rows = _c3zero_section if isinstance(m.c1, np.ndarray) else _cached_c3zero_section
        return rows(m.c1, m.c2, m.delta) + (None, 3)
    sol = k0_transform_solution(m)
    return sol.offsets, sol.weights, sol.shifts, 5


def _c3zero_section(c1, c2, delta):
    """u_0's rows; away from the pole c(0) = 0, leaving the two rows +-i om."""
    offsets, weights, _ = _c3zero_rows(c1, c2, delta, 0j)
    if offsets.shape[-1] == 3:
        offsets, weights = offsets[..., :2], weights[..., :2]
    offsets.setflags(write=False), weights.setflags(write=False)
    return offsets, weights


_cached_c3zero_section = functools.lru_cache(maxsize=8)(_c3zero_section)


def kernel_k0z_grid(m: Measure, z: np.ndarray, extended: bool = False) -> np.ndarray:
    """K(0, z) over an array of finite points, for any c3 >= 0: one
    ``_row_sum`` per regime over ``_section_rows``.  For a batch measure the
    result has the batch's shape followed by z's, and the regimes are masks
    over the batch."""
    z = np.asarray(z, dtype=complex)
    if np.count_nonzero(np.isfinite(z)) < z.size:
        raise ValueError(f"z must be finite, got {z[~np.isfinite(z)][0]}")
    return _section(m, z, extended)


def _section(m: Measure, z: np.ndarray, extended: bool) -> np.ndarray:
    """``kernel_k0z_grid`` at points known to be finite."""
    m.require_admissible(extended=extended)
    sinc = (m.c2 == 0.0) | (m.c3 == 0.0)
    if np.count_nonzero(sinc) in (0, getattr(sinc, "size", 1)):
        offsets, weights, shifts, head = _section_rows(m)
        return np.asarray(_row_sum(offsets, weights, m.delta / 2.0, z, head, shifts))
    out = np.empty(sinc.shape + z.shape, dtype=complex)
    for mask in (sinc, ~sinc):
        out[mask] = _section(Measure(m.c1[mask], m.c2[mask], m.c3[mask], m.delta[mask]),
                             z, extended)
    return out


def k0_endpoint_value(m: Measure) -> float:
    """Value of the transform-side solution u0 at the support endpoint L =
    Delta/2; the coefficient of the 1/x far field of K(0, x): half the sum
    of weights_r e^{(offsets_r - shifts_r) L} over ``_section_rows``.  The
    measure must pass the extended admissibility gate."""
    m.require_single()
    m.require_admissible(extended=True)
    offsets, weights, shifts, _ = _section_rows(m)
    exponents = offsets if shifts is None else offsets - shifts
    return float(0.5 * np.sum(weights * np.exp(exponents * (m.delta / 2.0))).real)
