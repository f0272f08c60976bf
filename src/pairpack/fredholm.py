"""Independent integral-equation oracle.

Solves

    c1 u(xi) + c2 * integral_{-d/2}^{d/2} u(a) |xi - a| e^{-c3 |xi - a|} da
        = e^{-2 pi i w xi},      xi in [-d/2, d/2],

by a Nystrom scheme on a global Gauss-Legendre grid.  The kernel is smooth
on each side of its kink a = xi, and the system matrix is assembled by one
of two routes, chosen from c3 * Delta:

* c3 Delta <= 5, spectral integration.  J_ij = integral from -d/2 to x_i of
  the Lagrange basis function l_j is exact for degree < n (Greengard,
  SIAM J. Numer. Anal. 28, 1991).  Row i integrates the left branch of the
  kernel with J_i and the right branch with w - J_i.  J depends only on n
  and is built once per node count.
* above that, product quadrature.  The integral is split at the kink and
  evaluated by per-panel Gauss rules applied to the barycentric interpolant
  of u.  The right branch grows like e^{c3 Delta} on the nodes, which J's
  weights would have to cancel; this route has no such cancellation.

Because u extends to an entire function, both converge spectrally; at the
default 200 nodes they reproduce the closed forms to machine precision.

The system matrix does not depend on w.  It is assembled and inverted once
per (measure, node count) and kept, read-only, in a small cache together
with its nodes, weights and condition number ||M||_1 ||M^-1||_1.  Every
solve is u = M^-1 b plus one refinement step against M, and the
linear-system residual of each solution uses that one matrix.

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
from numpy.polynomial import legendre as leg

from .errors import IllConditioned, InvalidRegime, RemovablePoint
from .kernels import _coeff_abc, _near_coeff_zero
from .measures import Measure, norm_bounds, nu_hat
from .quadrature import (barycentric_matrix, barycentric_weights,
                         gauss_legendre, panel_rule)
from .special import sinc_band, sinc_band_c

DEFAULT_NODES = 200
_PANEL_ORDER = 40
_ROW_BLOCK = 8           # matrix rows per batched product (~1 MB of temporaries at n = 200)
# largest c3 Delta assembled by spectral integration; at 200 to 800 nodes the
# two routes' solutions agree to 3e-15 up to 5, 2e-13 at 10 and 3e-9 at 20
SPECTRAL_C3_DELTA = 5.0
_BLOCK_ENTRIES = 1 << 18  # matrix entries per row block of the spectral assembly
_CHEB_DEG = 80           # degree of the Chebyshev interpolant behind u's derivatives
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


def _assemble_spectral(m: Measure, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The Nystrom matrix c1 I + c2 K by spectral integration.

    On (-L, x_i) the kernel is the smooth (x_i - a) e^{-c3 (x_i - a)}, on
    (x_i, L) the smooth (a - x_i) e^{-c3 (a - x_i)}; J integrates the first
    against u over (-L, x_i), and w - J the second over (x_i, L):

        K_ij = d_ij (J_ij e_ij - (w_j - J_ij) / e_ij),
        d_ij = x_i - x_j,  e_ij = e^{-c3 d_ij}.
    """
    n = len(nodes)
    L = m.delta / 2.0
    J = _integration_matrix(n)
    M = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, rows):
        d = nodes[lo:lo + rows, None] - nodes
        e = np.exp(-m.c3 * d)
        left = L * J[lo:lo + rows]
        M[lo:lo + rows] = (m.c2 * d) * (left * e - (weights - left) / e)
    M[np.diag_indices(n)] += m.c1
    return M


def _system_matrix(m: Measure, nodes: np.ndarray, weights: np.ndarray,
                   bary_w: np.ndarray) -> np.ndarray:
    """The Nystrom matrix by the route c3 Delta selects (module docstring)."""
    if m.c3 * m.delta <= SPECTRAL_C3_DELTA:
        return _assemble_spectral(m, nodes, weights)
    return _assemble_matrix(m, nodes, bary_w)


def _assemble_matrix(m: Measure, nodes: np.ndarray, bary_w: np.ndarray) -> np.ndarray:
    """The Nystrom matrix c1 I + c2 K by product quadrature.

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
    """(nodes, weights, barycentric weights, M, M^-1, cond(M, 1)) for the
    measure and node count.  M does not depend on w, so every solve and
    residual of one measure shares one assembly and one inverse; the arrays
    are read-only.  cond is ||M||_1 ||M^-1||_1, numpy's formula for
    cond(M, 1).  A node count outside [16, MAX_NODES] is refused before
    anything is allocated."""
    if n < 16:
        raise ValueError("need at least 16 nodes")
    if n > MAX_NODES:
        raise ValueError(f"{n} nodes exceed the cap of {MAX_NODES}")
    L = m.delta / 2.0
    nodes, weights = gauss_legendre(n, -L, L)
    bary_w = barycentric_weights(nodes)
    M = _system_matrix(m, nodes, weights, bary_w)
    M_inv = np.linalg.inv(M)
    cond = float(np.linalg.norm(M, 1) * np.linalg.norm(M_inv, 1))
    for arr in (nodes, weights, bary_w, M, M_inv):
        arr.flags.writeable = False
    return nodes, weights, bary_w, M, M_inv, cond


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
    solvable) and 16 <= n <= MAX_NODES nodes.
    """
    m.require_admissible(extended=True)
    nodes, weights, bary_w, M, M_inv, cond = _nystrom_system(m, n)
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"1-norm condition estimate {cond:.3e} > {CONDITION_LIMIT:.0e}")
    b = _real_columns(np.exp(-2j * np.pi * w * nodes)[:, None])
    u = M_inv @ b
    u += M_inv @ (b - M @ u)
    return NystromSolution(nodes=nodes, weights=weights, u_values=_complex_columns(u)[:, 0],
                           measure=m, w=complex(w), condition_estimate=cond,
                           _bary_w=bary_w, _matrix=M)


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
    _, weights, _, M, _, _ = _nystrom_system(m, n)
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

@functools.lru_cache(maxsize=4)
def _chebyshev_map(n: int) -> np.ndarray:
    """(81, n) map from u at the n Gauss-Legendre nodes to the Chebyshev
    coefficients of its interpolant at the 81 Chebyshev points of the
    support, the points' values taken by barycentric interpolation.
    Interpolation at Chebyshev points is a discrete cosine transform."""
    x, _ = gauss_legendre(n, -1.0, 1.0)
    k = np.arange(_CHEB_DEG + 1)
    P = barycentric_matrix(x, barycentric_weights(x), np.cos(np.pi * k / _CHEB_DEG))
    dct = np.cos(np.pi * np.outer(k, k) / _CHEB_DEG) * (2.0 / _CHEB_DEG)
    dct[:, [0, -1]] *= 0.5
    dct[[0, -1]] *= 0.5
    out = dct @ P
    out.flags.writeable = False
    return out


def _chebyshev_fit(sol: NystromSolution):
    """Chebyshev coefficients of u on the support, noise-truncated."""
    coef = _chebyshev_map(len(sol.nodes)) @ sol.u_values
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

@functools.lru_cache(maxsize=4)
def _half_panels(n: int):
    """60-point Gauss rules (q, qw) on [-1, 0] and [0, 1], stacked, and the
    (120, n) map from values at the n Gauss-Legendre nodes of [-1, 1] to
    the barycentric interpolant at the panels' points; read-only."""
    x, _ = gauss_legendre(n, -1.0, 1.0)
    q, qw = (np.stack(parts) for parts in zip(gauss_legendre(60, -1.0, 0.0),
                                               gauss_legendre(60, 0.0, 1.0)))
    interp = barycentric_matrix(x, barycentric_weights(x), q.ravel())
    for arr in (q, qw, interp):
        arr.flags.writeable = False
    return q, qw, interp


def _weighted_integrals(sol: NystromSolution) -> dict[str, complex]:
    """integral of u(a) g(a) da over the support for each weight g used by
    the conditions at xi = 0, split at the |a| kink:  abs_exp = |a| e,
    sgn_exp = sgn(a) e,  exp = e,  alpha_exp = a e,  with e = e^{-c3 |a|}."""
    L = sol.measure.delta / 2.0
    q, qw, interp = _half_panels(len(sol.nodes))
    q, qw = L * q, L * qw
    uq = (interp @ sol.u_values).reshape(q.shape)
    e = np.exp(-sol.measure.c3 * np.abs(q))
    weights = {"abs_exp": np.abs(q) * e, "sgn_exp": np.sign(q) * e,
               "exp": e, "alpha_exp": q * e}
    # one sum per panel, then the two panels
    return {kind: complex(np.sum(np.sum(qw * uq * g, axis=1)))
            for kind, g in weights.items()}


def _off_polynomials(sol: NystromSolution, v: np.ndarray, degree: int) -> float:
    """Largest distance at the nodes of v from its Gauss-weighted
    projection onto the polynomials of the given degree."""
    L = sol.measure.delta / 2.0
    P = leg.legvander(sol.nodes / L, degree)
    coef = (P.T * (sol.weights * (np.arange(degree + 1)[:, None] + 0.5) / L)) @ v
    return float(np.max(np.abs(v - P @ coef)))


def _ode_data(m: Measure, sol: NystromSolution) -> np.ndarray:
    """The right side f of ode_residual's equation at the nodes."""
    data = np.exp(-2j * np.pi * sol.w * sol.nodes)
    if m.c3 == 0.0:
        return -4.0 * np.pi ** 2 * sol.w ** 2 * data
    return (4.0 * np.pi ** 2 * sol.w ** 2 + m.c3 ** 2) ** 2 * data


def _interior_residual(m: Measure, sol: NystromSolution, f: np.ndarray) -> float:
    """The interior term of ode_residual for the data f at the nodes."""
    L = m.delta / 2.0
    c1, c2, c3 = m.c1, m.c2, m.c3
    J = _integration_matrix(len(sol.nodes))
    u = sol.u_values
    # [u, f] integrated twice and four times from -Delta/2
    twice = L * L * (J @ (J @ _real_columns(np.stack([u, f], axis=1))))
    u2, f2 = _complex_columns(twice).T
    if c3 == 0.0:
        terms, degree = (c1 * u, 2.0 * c2 * u2, -f2), 1
    else:
        u4, f4 = _complex_columns(L * L * (J @ (J @ twice))).T
        terms, degree = (c1 * u, 2.0 * (c2 - c1 * c3 ** 2) * u2,
                         (2.0 * c2 * c3 ** 2 + c1 * c3 ** 4) * u4, -f4), 3
    largest = max(float(np.max(np.abs(t))) for t in terms)
    return _off_polynomials(sol, sum(terms), degree) / largest


def ode_residual(m: Measure, sol: NystromSolution) -> float:
    """Largest of the interior differential-equation residual and the
    residuals of the integro-differential conditions at xi = 0.

    c3 = 0:  c1 u'' + 2 c2 u = f = -4 pi^2 w^2 e^{-2 pi i w xi}, two
             conditions.
    c3 > 0:  c1 u'''' + 2 (c2 - c1 c3^2) u'' + (2 c2 c3^2 + c1 c3^4) u
             = f = (4 pi^2 w^2 + c3^2)^2 e^{-2 pi i w xi}, four conditions;
             the w = 0 instance uses the even-solution form
             u'(0) = u'''(0) = 0.

    The interior term is derivative-free.  With J the indefinite
    integration from -Delta/2 on the nodes (exact for degree < n), the
    equation holds exactly when

        v = c1 u + 2 (c2 - c1 c3^2) J^2 u + (2 c2 c3^2 + c1 c3^4) J^4 u - J^4 f

    is a cubic (for c3 = 0: when v = c1 u + 2 c2 J^2 u - J^2 f is a line).
    The term is v's distance from those polynomials relative to the largest
    of its terms.  The conditions take u(0) ... u'''(0) from the
    noise-truncated Chebyshev coefficients of u and are normalized by the
    data magnitude.  Returns 0 by convention when c2 = 0.
    """
    if m.c2 == 0.0:
        return 0.0
    w = sol.w
    L = m.delta / 2.0
    c1, c2, c3 = m.c1, m.c2, m.c3
    f = _ode_data(m, sol)
    interior = _interior_residual(m, sol, f)

    coef = _chebyshev_fit(sol)
    at0 = [cheb.chebval(0.0, coef)]
    for _ in range(3):
        coef = cheb.chebder(coef) / L
        at0.append(cheb.chebval(0.0, coef))
    wi = _weighted_integrals(sol)
    bc1 = abs(c1 * at0[0] + c2 * wi["abs_exp"] - 1.0)
    if c3 == 0.0:
        bc2 = abs(c1 * at0[1] - c2 * wi["sgn_exp"]
                  + 2j * np.pi * w)
        return float(max(interior, bc1, bc2))

    scale = max(1.0, float(np.max(np.abs(f))))
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
