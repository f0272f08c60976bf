"""Independent integral-equation oracle.

Solves

    c1 u(xi) + c2 * integral_{-d/2}^{d/2} u(a) |xi - a| e^{-c3 |xi - a|} da
        = e^{-2 pi i w xi},      xi in [-d/2, d/2],

by a product-quadrature Nystrom scheme: the unknown lives on a global
Gauss-Legendre grid, and for every collocation point the integral is split
at the kernel kink a = xi and evaluated by per-panel Gauss rules applied to
the barycentric interpolant of u.  Because u extends to an entire function,
the scheme converges spectrally; at the default 200 nodes it reproduces the
closed forms to machine precision.

The system matrix does not depend on w.  It is assembled once per
(measure, node count) and kept, read-only, in a small cache together with
its nodes, weights and condition number; every solve of that measure and
the linear-system residual of each solution use that one matrix.

Everything downstream of a solve (transform evaluation, reproducing-property
residuals, differential-equation residuals) never touches the closed-form
kernels, so agreement between the two routes is a genuine cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import IllConditioned, InvalidRegime, RemovablePoint
from .kernels import _coeff_abc, _near_coeff_zero
from .measures import Measure, norm_bounds, nu_hat
from .quadrature import (barycentric_matrix, barycentric_weights,
                         gauss_legendre, panel_rule)
from .special import sinc_band, sinc_band_c

DEFAULT_NODES = 200
_PANEL_ORDER = 40
_ROW_BLOCK = 8           # matrix rows per batched product (~1 MB of temporaries at n = 200)
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
    _bary_w: np.ndarray = field(repr=False, default=None)
    _matrix: np.ndarray = field(repr=False, default=None)

    def interpolate(self, targets) -> np.ndarray:
        """Barycentric interpolation of u to arbitrary points of the support."""
        P = barycentric_matrix(self.nodes, self._bary_w, np.atleast_1d(targets))
        return P @ self.u_values


def _assemble_matrix(m: Measure, nodes: np.ndarray, bary_w: np.ndarray) -> np.ndarray:
    """The Nystrom matrix c1 I + c2 K.

    Row i integrates the kernel against the barycentric interpolant of u over
    the 2 x 40 Gauss points q of the panels (-L, x_i) and (x_i, L).  In
    Cauchy form, with R_i = [1 / (q - x_j)], s_i = R_i beta and
    r_i = (qw k) / s_i, that row of K is beta * (r_i^T R_i), so a block of
    rows costs two batched matrix products.  A panel point within 1e-14 of
    the node spread from its nearest node x_j interpolates to the unit
    vector e_j instead.
    """
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    L = m.delta / 2.0
    gx, gw = gauss_legendre(_PANEL_ORDER, -1.0, 1.0)  # reference panel
    a = np.stack([np.full(n, -L), x], axis=1)          # (n, 2) panel ends
    b = np.stack([x, np.full(n, L)], axis=1)
    half = 0.5 * (b - a)
    q = (half[:, :, None] * gx + (0.5 * (a + b))[:, :, None]).reshape(n, -1)
    qw = (half[:, :, None] * gw).reshape(n, -1)
    dist = np.abs(x[:, None] - q)
    qwk = qw * (dist * np.exp(-m.c3 * dist))
    live = np.repeat(b - a > 1e-15 * m.delta, _PANEL_ORDER, axis=1)

    # exact hits, from the nearest node of every panel point
    order = np.argsort(x)
    xs = x[order]
    right = np.clip(np.searchsorted(xs, q), 1, n - 1)
    near = np.where(q - xs[right - 1] < xs[right] - q, right - 1, right)
    hit = np.abs(q - xs[near]) < 1e-14 * max(np.ptp(x), 1e-300)
    use = live & ~hit

    K = np.empty((n, n))
    buf = np.empty((_ROW_BLOCK, 2 * _PANEL_ORDER, n))
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        R = np.subtract(q[lo:hi, :, None], x, out=buf[:hi - lo])
        R[hit[lo:hi]] = 1.0
        np.reciprocal(R, out=R)
        r = np.where(use[lo:hi], qwk[lo:hi] / (R @ bary_w), 0.0)
        K[lo:hi] = (r[:, None, :] @ R)[:, 0, :] * bary_w
    rows, pts = np.nonzero(hit & live)
    np.add.at(K, (rows, order[near[rows, pts]]), qwk[rows, pts])
    M = m.c2 * K
    M[np.diag_indices(n)] += m.c1
    return M


@functools.lru_cache(maxsize=4)
def _nystrom_system(m: Measure, n: int):
    """(nodes, weights, barycentric weights, M, cond(M, 1)) for the measure
    and node count.  M does not depend on w, so every solve and residual of
    one measure shares one assembly; the arrays are read-only.  A node count
    outside [16, MAX_NODES] is refused before anything is allocated."""
    if n < 16:
        raise ValueError("need at least 16 nodes")
    if n > MAX_NODES:
        raise ValueError(f"{n} nodes exceed the cap of {MAX_NODES}")
    L = m.delta / 2.0
    nodes, weights = gauss_legendre(n, -L, L)
    bary_w = barycentric_weights(nodes)
    M = _assemble_matrix(m, nodes, bary_w)
    cond = float(np.linalg.cond(M, 1))
    for arr in (nodes, weights, bary_w, M):
        arr.flags.writeable = False
    return nodes, weights, bary_w, M, cond


def solve_integral_eq(m: Measure, w: complex, n: int = DEFAULT_NODES) -> NystromSolution:
    """Solve the defining integral equation for the data e^{-2 pi i w xi}.

    Requires an admissible measure (which keeps the integral operator a
    contraction, hence the system uniquely solvable) and 16 <= n <= MAX_NODES
    nodes.
    """
    m.require_admissible(extended=True)
    nodes, weights, bary_w, M, cond = _nystrom_system(m, n)
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"1-norm condition estimate {cond:.3e} > {CONDITION_LIMIT:.0e}")
    rhs = np.exp(-2j * np.pi * w * nodes)
    u = np.linalg.solve(M, rhs)
    return NystromSolution(nodes=nodes, weights=weights, u_values=u,
                           measure=m, w=complex(w), condition_estimate=cond,
                           _bary_w=bary_w, _matrix=M)


def system_residual(sol: NystromSolution) -> float:
    """Relative residual of the solved linear system, against the matrix
    the solve used (shared by every solve of the measure)."""
    rhs = np.exp(-2j * np.pi * sol.w * sol.nodes)
    return float(np.linalg.norm(sol._matrix @ sol.u_values - rhs) / np.linalg.norm(rhs))


def uniqueness_ratio(m: Measure, n: int = DEFAULT_NODES) -> float:
    """sigma_min(W^1/2 M W^-1/2) / a_sq for the Nystrom matrix M and the
    Gauss-Legendre weights W.  The weighted matrix is the integral operator
    T in the L2 norm of the support, and <T u, u> = integral of |u_hat|^2
    nu_hat >= a_sq ||u||^2 for every u supported there, so a ratio below 1
    means the discretization has lost the unique solvability of the
    equation."""
    _, weights, _, M, _ = _nystrom_system(m, n)
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
# reproducing-property residual
# ---------------------------------------------------------------------------

def _chebyshev_fit(sol: NystromSolution, deg: int = 80):
    """Chebyshev coefficients of u on the support, noise-truncated."""
    L = sol.measure.delta / 2.0
    xc = np.cos(np.pi * np.arange(deg + 1) / deg) * L
    uc = sol.interpolate(xc)
    coef = cheb.chebfit(xc / L, uc, deg)
    mx = np.max(np.abs(coef))
    keep = np.nonzero(np.abs(coef) > 1e-13 * mx)[0]
    return coef[:keep.max() + 1] if len(keep) else coef[:1]


def reproducing_residual(m: Measure, w: complex,
                         test_fn: Union[str, TestFunction] = "center0",
                         n: int = DEFAULT_NODES,
                         truncation: float = None) -> float:
    """| integral of f(x) k_w(x) nu_hat(x) over the real line  -  f(w) |
    for a test function f given as a combination of translated sinc kernels
    (members of the band-limited space).

    The line integral is split into three regions: a quadrature-evaluated
    core |x| <= X0 where the discrete transform is trustworthy, a far region
    where k_w is replaced by its three-term boundary expansion (exact up to
    O(1/x^4)), and a closed-form tail beyond the outer truncation consisting
    of the non-oscillatory components integrated analytically.
    """
    if isinstance(test_fn, str):
        test_fn = SINC_PRESETS[test_fn]
    terms = [(float(t), float(c)) for (t, c) in test_fn]

    sol = solve_integral_eq(m, w, n=n)
    L = m.delta / 2.0
    coef = _chebyshev_fit(sol)
    d1 = cheb.chebder(coef) / L
    d2 = cheb.chebder(d1) / L
    ub = cheb.chebval([-1.0, 1.0], coef)
    upb = cheb.chebval([-1.0, 1.0], d1)
    uppb = cheb.chebval([-1.0, 1.0], d2)

    X0 = 0.5 * n / (np.pi * m.delta)
    if truncation is None:
        a_sq = norm_bounds(m, extended=True).a_sq
        truncation = max(50.0, 20.0 / a_sq) * 40.0 / m.delta
    X1 = max(truncation, 2.0 * X0)
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


# ---------------------------------------------------------------------------
# differential-equation residual
# ---------------------------------------------------------------------------

def _weighted_integrals(sol: NystromSolution) -> dict[str, complex]:
    """integral of u(a) g(a) da over the support for each weight g used by
    the conditions at xi = 0, split at the |a| kink, with u interpolated
    barycentrically once:  abs_exp = |a| e,  sgn_exp = sgn(a) e,  exp = e,
    alpha_exp = a e,  with e = e^{-c3 |a|}."""
    L = sol.measure.delta / 2.0
    q, qw = (np.stack(parts) for parts in zip(gauss_legendre(60, -L, 0.0),
                                               gauss_legendre(60, 0.0, L)))
    uq = sol.interpolate(q.ravel()).reshape(q.shape)
    e = np.exp(-sol.measure.c3 * np.abs(q))
    weights = {"abs_exp": np.abs(q) * e, "sgn_exp": np.sign(q) * e,
               "exp": e, "alpha_exp": q * e}
    # one sum per panel, then the two panels
    return {kind: complex(np.sum(np.sum(qw * uq * g, axis=1)))
            for kind, g in weights.items()}


def ode_residual(m: Measure, sol: NystromSolution) -> float:
    """Largest of the interior differential-equation residual and the
    residuals of the integro-differential conditions at xi = 0, normalized
    by the data magnitude.

    c3 = 0:  c1 u'' + 2 c2 u = -4 pi^2 w^2 e^{-2 pi i w xi}, two conditions.
    c3 > 0:  c1 u'''' + 2 (c2 - c1 c3^2) u'' + (2 c2 c3^2 + c1 c3^4) u
             = (4 pi^2 w^2 + c3^2)^2 e^{-2 pi i w xi}, four conditions; the
             w = 0 instance uses the even-solution form u'(0) = u'''(0) = 0.

    Derivatives come from a noise-truncated Chebyshev fit of u, evaluated on
    the interior 90 percent of the support where spectral differentiation of
    the fit is most accurate.  Returns 0 by convention when c2 = 0.
    """
    if m.c2 == 0.0:
        return 0.0
    w = sol.w
    L = m.delta / 2.0
    coef = _chebyshev_fit(sol)
    derivs = [coef]
    for _ in range(4):
        derivs.append(cheb.chebder(derivs[-1]) / L)

    tg = np.linspace(-0.9, 0.9, 181)
    xg = tg * L
    u0g = cheb.chebval(tg, derivs[0])
    u2g = cheb.chebval(tg, derivs[2])
    at0 = [cheb.chebval(0.0, derivs[k]) for k in range(4)]

    c1, c2, c3 = m.c1, m.c2, m.c3
    wi = _weighted_integrals(sol)
    if c3 == 0.0:
        rhs = -4.0 * np.pi ** 2 * w ** 2 * np.exp(-2j * np.pi * w * xg)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        interior = np.max(np.abs(c1 * u2g + 2.0 * c2 * u0g - rhs)) / scale
        bc1 = abs(c1 * at0[0] + c2 * wi["abs_exp"] - 1.0)
        bc2 = abs(c1 * at0[1] - c2 * wi["sgn_exp"]
                  + 2j * np.pi * w)
        return float(max(interior, bc1, bc2))

    u4g = cheb.chebval(tg, derivs[4])
    rhs = (4.0 * np.pi ** 2 * w ** 2 + c3 ** 2) ** 2 * np.exp(-2j * np.pi * w * xg)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    interior = np.max(np.abs(
        c1 * u4g + 2.0 * (c2 - c1 * c3 ** 2) * u2g
        + (2.0 * c2 * c3 ** 2 + c1 * c3 ** 4) * u0g - rhs)) / scale
    bc1 = abs(c1 * at0[0] + c2 * wi["abs_exp"] - 1.0)
    bc3 = abs(c1 * at0[2] + (2.0 * c2 - c1 * c3 ** 2) * at0[0]
              - 2.0 * c2 * c3 * wi["exp"]
              + 4.0 * np.pi ** 2 * w ** 2 + c3 ** 2) / scale
    if w == 0:
        # even solution: the odd-order conditions collapse to u'(0) = u'''(0) = 0
        bc2 = abs(at0[1])
        bc4 = abs(at0[3]) / scale
    else:
        bc2 = abs(c1 * at0[1] - c2 * wi["sgn_exp"]
                  + c2 * c3 * wi["alpha_exp"]
                  + 2j * np.pi * w)
        bc4 = abs(c1 * at0[3] - (c1 * c3 ** 2 - 2.0 * c2) * at0[1]
                  - 2.0 * c2 * c3 ** 2 * wi["sgn_exp"]
                  - 2j * np.pi * w * (4.0 * np.pi ** 2 * w ** 2 + c3 ** 2)) / scale
    return float(max(interior, bc1, bc2, bc3, bc4))
