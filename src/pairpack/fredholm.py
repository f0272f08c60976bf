"""Independent integral-equation oracle.

Solves

    c1 u(xi) + c2 * integral_{-d/2}^{d/2} u(a) |xi - a| e^{-c3 |xi - a|} da
        = e^{-2 pi i w xi},      xi in [-d/2, d/2],

by a Nystrom scheme on a composite Gauss-Legendre rule.  The support is cut
into P = ceil(c3 Delta / PANEL_C3_WIDTH) equal panels, so that the kernel's
exponential spans at most e^5 across one panel.  Each panel carries its own
Gauss-Legendre nodes: n of them when P = 1, otherwise max(24, ceil(n / P)).
A layout of more than MAX_NODES nodes, which every c3 Delta above about 425
needs, is refused before anything is allocated.

Within a panel the kernel is smooth on each side of its kink a = xi, and the
panel's block of the system matrix is built by spectral integration:
J_ij = integral from the panel's left end to x_i of the Lagrange basis
function l_j is exact for degree below the panel's node count (Greengard,
SIAM J. Numer. Anal. 28, 1991).  Row i integrates the left branch of the
kernel with J_i and the right branch with w - J_i.  Across panels the kernel
has no kink, its exponential factor is at most 1, and the column's Gauss
weight integrates it (Lee and Greengard, SIAM J. Sci. Comput. 18, 1997).  J
depends only on the panel's node count and is built once per count.

Because u extends to an entire function, the scheme converges spectrally; at
the default 200 nodes it reproduces the closed forms to machine precision.

The system matrix does not depend on w.  It is assembled and inverted once
per (measure, node count) and kept, read-only, in a small cache together
with its nodes, weights and condition number ||M||_1 ||M^-1||_1.  Every
solve is u = M^-1 b plus one refinement step against M, and the
linear-system residual of each solution uses that one matrix.

Everything downstream of a solve (transform evaluation, reproducing-property
residuals, differential-equation residuals) never touches the closed-form
kernels, so agreement between the two routes is a genuine cross-check.  The
residuals take u's derivatives at the ends of the support from the integral
equation differentiated under the integral sign, never from a fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import IllConditioned, InvalidRegime, RemovablePoint
from .kernels import _coeff_abc, _near_coeff_zero
from .measures import Measure, norm_bounds, nu_hat
from .quadrature import (barycentric_matrix, barycentric_weights,
                         gauss_legendre, panel_rule)
from .special import sinc_band, sinc_band_c

DEFAULT_NODES = 200
# largest c3 times panel width; at 200 to 800 nodes on one panel, spectral
# integration agrees with a product quadrature to 3e-15 up to 5, 2e-13 at 10
# and 3e-9 at 20
PANEL_C3_WIDTH = 5.0
_BLOCK_ENTRIES = 1 << 18  # matrix entries per row block of the assembly
CONDITION_LIMIT = 1e8
MAX_NODES = 2048         # largest node count: M alone is 32 MB there

TestFunction = Sequence[tuple[float, float]]

# named sinc combinations usable as reproducing-property test functions
SINC_PRESETS: dict[str, TestFunction] = {
    "center0": ((0.0, 1.0),),
    "center2p5": ((2.5, 1.0),),
    "offcenter_pair": ((0.0, 1.0), (1.5, 0.7)),
}


@dataclass
class NystromSolution:
    """Discrete solution of the integral equation at Gauss-Legendre nodes.

    ``nodes``, ``weights`` and the system matrix are read-only arrays shared
    by every solve of the same measure and node count."""

    nodes: np.ndarray
    weights: np.ndarray
    u_values: np.ndarray
    measure: Measure
    w: complex
    condition_estimate: float
    _matrix: np.ndarray = field(repr=False, default=None)

    def interpolate(self, targets) -> np.ndarray:
        """Barycentric interpolation of u to arbitrary points of the support,
        each point from the nodes of its panel."""
        t = np.atleast_1d(np.asarray(targets, dtype=float))
        panels = _panel_count(self.measure)
        per = len(self.nodes) // panels
        which = np.clip(np.floor((t / self.measure.delta + 0.5) * panels), 0, panels - 1)
        out = np.empty(len(t), dtype=complex)
        for p in np.unique(which).astype(int):
            at, own = which == p, slice(p * per, (p + 1) * per)
            out[at] = barycentric_matrix(self.nodes[own], _barycentric_weights(per),
                                         t[at]) @ self.u_values[own]
        return out


def _panel_count(m: Measure) -> int:
    """P >= 1 (held to MAX_NODES, past which every layout is refused)."""
    return max(1, math.ceil(min(m.c3 * m.delta / PANEL_C3_WIDTH, MAX_NODES)))


@functools.lru_cache(maxsize=4)
def _integration_matrix(n: int) -> np.ndarray:
    """J_ij = integral from -1 to x_i of the Lagrange basis function l_j of
    the n Gauss-Legendre nodes x of [-1, 1]; exact for degree < n.

    Gauss's rule gives f's Legendre coefficients exactly,
    a_k = (2k + 1)/2 sum_j w_j P_k(x_j) f_j, and the antiderivative identity
    integral from -1 to x of P_k = (P_{k+1}(x) - P_{k-1}(x)) / (2k + 1), with
    P_{-1} = -1 for k = 0, integrates each term:

        J_ij = w_j / 2 * sum_{k < n} (P_{k+1}(x_i) - P_{k-1}(x_i)) P_k(x_j).

    Read-only; scale by the half-width for an interval of another length.
    """
    x, w = gauss_legendre(n, -1.0, 1.0)
    P = np.empty((n + 2, n))             # P_{-1} ... P_n at the nodes
    P[0], P[1], P[2] = -1.0, 1.0, x
    for k in range(1, n):
        P[k + 2] = ((2 * k + 1) * x * P[k + 1] - k * P[k]) / (k + 1)
    J = (P[2:] - P[:-2]).T @ P[1:-1]
    J *= 0.5 * w
    J.flags.writeable = False
    return J


def _indefinite_integrals(v: np.ndarray, panels: int) -> np.ndarray:
    """J v on panels of half-width 1: the panel's J plus the whole integrals
    of the panels before it, for each column of v.  Scale by the half-width
    for panels of another width."""
    per = len(v) // panels
    J = _integration_matrix(per)
    if panels == 1:                      # nothing before it: J alone, at J's cost
        return J @ v
    # the panels' columns side by side, so that J acts on all in one product
    cols = v.reshape(panels, per, -1).swapaxes(0, 1).reshape(per, -1)
    totals = (gauss_legendre(per, -1.0, 1.0)[1] @ cols).reshape(panels, -1)
    before = np.zeros_like(totals)
    np.cumsum(totals[:-1], axis=0, out=before[1:])
    out = J @ cols + before.ravel()
    return out.reshape(per, panels, -1).swapaxes(0, 1).reshape(v.shape)


@functools.lru_cache(maxsize=4)
def _barycentric_weights(n: int) -> np.ndarray:
    """Barycentric weights of the n Gauss-Legendre nodes of [-1, 1];
    read-only.  They serve the nodes of any interval: an affine map of the
    nodes scales every weight by one factor, which cancels in the
    barycentric formula."""
    bary_w = barycentric_weights(gauss_legendre(n, -1.0, 1.0)[0])
    bary_w.flags.writeable = False
    return bary_w


def _assemble(m: Measure, nodes: np.ndarray, weights: np.ndarray, panels: int) -> np.ndarray:
    """The Nystrom matrix c1 I + c2 K on the composite rule.

    Within the panel (a, b) of x_i, on (a, x_i) the kernel is the smooth
    (x_i - t) e^{-c3 (x_i - t)}, on (x_i, b) the smooth
    (t - x_i) e^{-c3 (t - x_i)}; the panel's J integrates the first against
    u over (a, x_i), and w - J the second over (x_i, b):

        K_ij = d_ij (J_ij e_ij - (w_j - J_ij) / e_ij),
        d_ij = x_i - x_j,  e_ij = e^{-c3 d_ij},

    where the panel width keeps e_ij and 1 / e_ij below e^PANEL_C3_WIDTH.
    Every other panel lies on one side of x_i, and its Gauss rule integrates
    the kernel there: K_ij = w_j |d_ij| e^{-c3 |d_ij|}.
    """
    n = len(nodes)
    per, h = n // panels, m.delta / (2 * panels)
    J = _integration_matrix(per)
    M = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, per):
        own = slice(lo, lo + per)
        for r in range(lo, lo + per, rows):
            i = slice(r, min(r + rows, lo + per))
            d = nodes[i, None] - nodes[own]
            e = np.exp(-m.c3 * d)
            left = h * J[r - lo:i.stop - lo]
            M[i, own] = (m.c2 * d) * (left * e - (weights[own] - left) / e)
            for far in (slice(0, lo), slice(lo + per, n)):
                s = np.abs(nodes[i, None] - nodes[far])
                M[i, far] = (m.c2 * weights[far]) * s * np.exp(-m.c3 * s)
    M[np.diag_indices(n)] += m.c1
    return M


@functools.lru_cache(maxsize=4)
def _nystrom_system(m: Measure, n: int):
    """(nodes, weights, M, M^-1, cond(M, 1)) for the measure and node
    count.  M does not depend on w, so every solve and residual of one
    measure shares one assembly and one inverse; the arrays are read-only.
    cond is ||M||_1 ||M^-1||_1, numpy's formula for cond(M, 1).  A bad node
    count or layout is refused before anything is allocated."""
    if n < 16:
        raise ValueError("need at least 16 nodes")
    panels = _panel_count(m)
    per = n if panels == 1 else max(24, -(-n // panels))
    if panels * per > MAX_NODES:
        raise ValueError(f"{panels * per} nodes exceed the cap of {MAX_NODES} "
                         f"({panels} panels of {per} at c3 Delta = {m.c3 * m.delta:.6g})")
    h = m.delta / (2 * panels)
    x, w = gauss_legendre(per, -h, h)
    nodes = (h * (2 * np.arange(panels) + 1) - m.delta / 2.0)[:, None] + x
    nodes, weights = nodes.ravel(), np.tile(w, panels)
    M = _assemble(m, nodes, weights, panels)
    M_inv = np.linalg.inv(M)
    cond = float(np.linalg.norm(M, 1) * np.linalg.norm(M_inv, 1))
    for arr in (nodes, weights, M, M_inv):
        arr.flags.writeable = False
    return nodes, weights, M, M_inv, cond


def _real_columns(v: np.ndarray) -> np.ndarray:
    """[Re v | Im v] for a matrix v of complex columns, so that a real
    matrix acts on all of them in one real product."""
    return np.concatenate([v.real, v.imag], axis=1)


def _complex_columns(r: np.ndarray) -> np.ndarray:
    """Inverse of _real_columns."""
    k = r.shape[1] // 2
    return r[:, :k] + 1j * r[:, k:]


def solve_integral_eq(m: Measure, w: complex, n: int = DEFAULT_NODES) -> NystromSolution:
    """Solve the defining integral equation for the data e^{-2 pi i w xi}.

    u = M^-1 b, then one refinement step u += M^-1 (b - M u), each a real
    product on [Re b | Im b].  Requires an admissible measure (which keeps
    the integral operator a contraction, hence the system uniquely
    solvable) and n >= 16, laid out in panels as the module docstring
    says; a layout of more than MAX_NODES nodes raises ValueError.
    """
    m.require_single()
    m.require_admissible(extended=True)
    nodes, weights, M, M_inv, cond = _nystrom_system(m, n)
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"1-norm condition estimate {cond:.3e} > {CONDITION_LIMIT:.0e}")
    b = _real_columns(np.exp(-2j * np.pi * w * nodes)[:, None])
    u = M_inv @ b
    u += M_inv @ (b - M @ u)
    return NystromSolution(nodes=nodes, weights=weights, u_values=_complex_columns(u)[:, 0],
                           measure=m, w=complex(w), condition_estimate=cond, _matrix=M)


def system_residual(sol: NystromSolution) -> float:
    """Relative residual of the solved linear system, against the matrix
    the solve used (shared by every solve of the measure)."""
    b = _real_columns(np.exp(-2j * np.pi * sol.w * sol.nodes)[:, None])
    r = sol._matrix @ _real_columns(sol.u_values[:, None]) - b
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def uniqueness_ratio(m: Measure, n: int = DEFAULT_NODES) -> float:
    """sigma_min(W^1/2 M W^-1/2) / a_sq for the Nystrom matrix M and the
    Gauss-Legendre weights W.  The weighted matrix is the integral operator
    T in the L2 norm of the support, and <T u, u> = integral of |u_hat|^2
    nu_hat >= a_sq ||u||^2 for every u supported there, so a ratio below 1
    means the discretization has lost the unique solvability of the
    equation."""
    m.require_single()
    _, weights, M, _, _ = _nystrom_system(m, n)
    root_w = np.sqrt(weights)
    weighted = root_w[:, None] * M / root_w[None, :]
    sigma_min = float(np.linalg.svd(weighted, compute_uv=False)[-1])
    return sigma_min / norm_bounds(m, extended=True).a_sq


def closed_form_u(m: Measure, w: complex, xi) -> Union[complex, np.ndarray]:
    """Closed-form solution for c3 = 0:

        u(xi) = a(w) cos(om xi) + b(w) sin(om xi) + c(w) e^{-2 pi i w xi}

    on the support and zero outside, om = sqrt(2 c2 / c1).  Not defined at
    the coefficient poles w = +/- sqrt(c2 / (2 c1)) / pi.
    """
    m.require_single()
    if m.c3 != 0.0:
        raise InvalidRegime("closed_form_u only covers c3 = 0")
    xi_arr = np.asarray(xi, dtype=float)
    inside = np.abs(xi_arr) <= m.delta / 2.0 + 1e-15
    if m.c2 == 0.0:
        out = np.exp(-2j * np.pi * w * xi_arr) / m.c1
        out = np.where(inside, out, 0.0)
        return out if out.shape else complex(out)
    if _near_coeff_zero(m, w):
        raise RemovablePoint(
            "w is at the coefficient pole; perturb or use a limit")
    om = np.sqrt(2.0 * m.c2 / m.c1)
    a, b, c = _coeff_abc(m, w)
    out = a * np.cos(om * xi_arr) + b * np.sin(om * xi_arr) \
        + c * np.exp(-2j * np.pi * w * xi_arr)
    out = np.where(inside, out, 0.0)
    return out if out.shape else complex(out)


def k_from_u(sol: NystromSolution, z) -> Union[complex, np.ndarray]:
    """Transform k_w(z) = integral of u(a) e^{2 pi i a z} over the support.

    Valid for |Re z| up to about n / (pi Delta); beyond that the fixed
    quadrature rule cannot resolve the oscillation.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    vals = np.exp(2j * np.pi * np.outer(z_arr, sol.nodes)) @ (sol.weights * sol.u_values)
    if np.isscalar(z) or np.asarray(z).shape == ():
        return complex(vals[0])
    return vals




# ---------------------------------------------------------------------------
# residuals, from u's derivatives at the ends of the support
# ---------------------------------------------------------------------------

def _boundary_jet(sol: NystromSolution, side: int) -> np.ndarray:
    """u, u', u'', u''' at xi = side Delta/2 (side = -1 or +1), from the
    integral equation differentiated under the integral sign.

    With h(s) = s e^{-c3 s} and s_j = Delta/2 - side x_j the nodes' distance
    from the end, the m-th derivative of the integral term there is

        F_m = side^m sum_j w_j u_j h^(m)(s_j) + 2 u^(m-2)   (last term m >= 2),

    and c1 u^(m) = (-2 pi i w)^m e^{-2 pi i w xi} - c2 F_m.  The kernel's
    kink, which gives the 2 u^(m-2), sits at the end, so every integrand is
    smooth and the nodes' Gauss rule integrates it.
    """
    m, w = sol.measure, sol.w
    L, c3 = m.delta / 2.0, m.c3
    s = L - side * sol.nodes
    e = np.exp(-c3 * s)
    h = np.stack([s * e, (1.0 - c3 * s) * e, c3 * (c3 * s - 2.0) * e,
                  c3 * c3 * (3.0 - c3 * s) * e])
    k = np.arange(4)
    F = side ** k * (h @ (sol.weights * sol.u_values))
    jet = ((-2j * np.pi * w) ** k * np.exp(-2j * np.pi * w * side * L) - m.c2 * F) / m.c1
    jet[2:] -= 2.0 * m.c2 / m.c1 * jet[:2]        # the kink's 2 u^(m-2) in F_m
    return jet


def reproducing_residual(m: Measure, w: complex,
                         test_fn: Union[str, TestFunction] = "center0",
                         n: int = DEFAULT_NODES) -> float:
    """| integral of f(x) k_w(x) nu_hat(x) over the real line  -  f(w) |
    for a test function f given as a combination of translated sinc kernels
    (members of the band-limited space).

    The line integral is split into three regions: a quadrature-evaluated
    core |x| <= X0 where the discrete transform is trustworthy, a far region
    where k_w is replaced by its three-term boundary expansion (exact up to
    O(1/x^4)), and a closed-form tail beyond the outer truncation consisting
    of the non-oscillatory components integrated analytically.  The
    expansion takes u, u' and u'' at the ends of the support from the
    boundary jets.
    """
    if isinstance(test_fn, str):
        test_fn = SINC_PRESETS[test_fn]
    terms = [(float(t), float(c)) for (t, c) in test_fn]

    sol = solve_integral_eq(m, w, n=n)
    # u, u', u'' at -Delta/2 and Delta/2
    ub, upb, uppb, _ = np.stack([_boundary_jet(sol, -1), _boundary_jet(sol, 1)], axis=1)

    X0 = 0.5 * n / (np.pi * m.delta)
    a_sq = norm_bounds(m, extended=True).a_sq
    X1 = max(max(50.0, 20.0 / a_sq) * 40.0 / m.delta, 2.0 * X0)
    plen = 1.0 / (2.0 * m.delta)

    def f_vals(x):
        out = np.zeros(len(x), dtype=complex)
        for (t, c) in terms:
            out += c * sinc_band(m.delta, x, center=t)
        return out

    # quadrature core
    pts, wts = panel_rule(-X0, X0, plen)
    total = np.sum(wts * f_vals(pts) * k_from_u(sol, pts)
                   * nu_hat(m, pts))

    # far region with the boundary expansion of k_w
    def k_far(x):
        ep = np.exp(1j * np.pi * m.delta * x)
        em = np.exp(-1j * np.pi * m.delta * x)
        ix = 2j * np.pi * x
        return ((ub[1] * ep - ub[0] * em) / ix
                - (upb[1] * ep - upb[0] * em) / ix ** 2
                + (uppb[1] * ep - uppb[0] * em) / ix ** 3)

    for (a, b) in ((X0, X1), (-X1, -X0)):
        pts, wts = panel_rule(a, b, plen)
        total += np.sum(wts * f_vals(pts) * k_far(pts) * nu_hat(m, pts))

    # analytic tail: non-oscillatory components of f * k_far * c1
    for (t, c) in terms:
        ep = np.exp(1j * np.pi * m.delta * t)
        em = np.exp(-1j * np.pi * m.delta * t)
        d1c = (em * ub[0] + ep * ub[1]) / (4.0 * np.pi ** 2)
        d2c = 1j * (em * upb[0] + ep * upb[1]) / (8.0 * np.pi ** 3)
        if abs(t) < 1e-12:
            j1, j2 = 2.0 / X1, 0.0
        else:
            lg = np.log((X1 + t) / (X1 - t))
            j1 = lg / t
            j2 = lg / t ** 2 - 2.0 / (t * X1)
        total += c * m.c1 * (d1c * j1 + d2c * j2)

    f_at_w = sum(c * sinc_band_c(m.delta, w, center=t) for (t, c) in terms)
    return float(abs(total - f_at_w))


def ode_residual(m: Measure, sol: NystromSolution) -> float:
    """Residual of the differential equation u satisfies on the support,

    c3 = 0:  c1 u'' + 2 c2 u = f = -4 pi^2 w^2 e^{-2 pi i w xi},
    c3 > 0:  c1 u'''' + a u'' + b u = f = (4 pi^2 w^2 + c3^2)^2 e^{-2 pi i w xi},
             a = 2 (c2 - c1 c3^2),  b = 2 c2 c3^2 + c1 c3^4,

    without differentiating the nodal u.  With J the indefinite integration
    from -Delta/2 on the nodes, panel by panel (exact for piecewise
    polynomials of degree below the nodes per panel), the equation
    integrated four times from there reads

        v = c1 u + a J^2 u + b J^4 u - J^4 f = P,

    P the cubic in t = xi + Delta/2 with Taylor coefficients c1 u, c1 u',
    c1 u'' + a u and c1 u''' + a u' at -Delta/2.  For c3 = 0, integrated
    twice, v = c1 u + 2 c2 J^2 u - J^2 f and P = c1 u + c1 u' t.  v comes
    from the nodal u and P from the boundary jet, the integral equation
    itself, so v = P holds to rounding exactly when the nodal u solves the
    equation.  Returns max |v - P| over the nodes relative to the largest
    term of v; 0 by convention when c2 = 0.
    """
    if m.c2 == 0.0:
        return 0.0
    c1, c2, c3, w = m.c1, m.c2, m.c3, sol.w
    L, panels = m.delta / 2.0, _panel_count(m)
    h = m.delta / (2 * panels)

    def twice(v):
        return h * h * _indefinite_integrals(_indefinite_integrals(v, panels), panels)

    u, t = sol.u_values, sol.nodes + L
    u0, u1, u2, u3 = _boundary_jet(sol, -1)
    data = np.exp(-2j * np.pi * w * sol.nodes)
    if c3 == 0.0:
        f = -4.0 * np.pi ** 2 * w ** 2 * data
    else:
        f = (4.0 * np.pi ** 2 * w ** 2 + c3 ** 2) ** 2 * data
    uf_2 = twice(_real_columns(np.stack([u, f], axis=1)))
    u_2, f_2 = _complex_columns(uf_2).T
    if c3 == 0.0:
        terms = (c1 * u, 2.0 * c2 * u_2, -f_2)
        P = c1 * (u0 + u1 * t)
    else:
        u_4, f_4 = _complex_columns(twice(uf_2)).T
        a, b = 2.0 * (c2 - c1 * c3 ** 2), 2.0 * c2 * c3 ** 2 + c1 * c3 ** 4
        terms = (c1 * u, a * u_2, b * u_4, -f_4)
        P = c1 * u0 + t * (c1 * u1 + t * ((c1 * u2 + a * u0) / 2.0
                                          + t * (c1 * u3 + a * u1) / 6.0))
    largest = max(float(np.max(np.abs(x))) for x in terms)
    return float(np.max(np.abs(sum(terms) - P))) / largest
