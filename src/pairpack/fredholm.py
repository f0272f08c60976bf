"""Independent integral-equation oracle.

Solves

    c1 u(xi) + c2 * integral_{-d/2}^{d/2} u(a) |xi - a| e^{-c3 |xi - a|} da
        = e^{-2 pi i w xi},      xi in [-d/2, d/2],

by a Nystrom scheme on a composite Gauss-Legendre rule.  The support is cut
into P = max(ceil(c3 Delta / PANEL_C3_WIDTH), ceil(n / PANEL_NODES)) equal
panels, so that the kernel's exponential spans at most e^5 across one panel
and no panel carries more than 40 nodes.  Each panel carries its own
Gauss-Legendre nodes: n of them when P = 1, otherwise max(24, ceil(n / P)).
More than MAX_PANELS panels (c3 Delta above 10240, or n above 81920) are
refused before anything is allocated.

Within a panel the kernel is smooth on each side of its kink a = xi, and the
panel's block of the system matrix is built by spectral integration:
J_ij = integral from the panel's left end to x_i of the Lagrange basis
function l_j is exact for degree below the panel's node count (Greengard,
SIAM J. Numer. Anal. 28, 1991).  Row i integrates the left branch of the
kernel with J_i and the right branch with w - J_i.  Across panels the kernel
has no kink, its exponential factor is at most 1, and the column's Gauss
weight integrates it (Lee and Greengard, SIAM J. Sci. Comput. 18, 1997).  J
depends only on the panel's node count and is built once per count.

The panels are equal and the kernel is translation-invariant, so every
diagonal block is one per x per matrix A, and every block off the diagonal
has rank 2: the panels to one side of a row reach it through a 2-vector
that a 2 x 2 semigroup step T carries from panel to panel.  The system is
never formed.  A is inverted once, the interface unknowns form a
block-tridiagonal system with 4 x 4 blocks that is factored once, and a
solve or a product with the matrix costs O(P per^2) (_PanelOperator).  The
uniqueness certificate runs Lanczos through the same solve; only the tests
build the dense matrix, as their reference.

Because u extends to an entire function, the scheme converges spectrally; at
the default 200 nodes (five panels of 40) it reproduces the closed forms to
machine precision.

The system does not depend on w.  It is set up once per (measure, node
count) and kept, read-only, in a small cache together with its nodes,
weights and condition estimate: ||M||_1 exactly times Hager and Higham's
estimate of ||M^-1||_1, which never exceeds it, both from M alone.

Everything downstream of a solve (transform evaluation, reproducing-property
residuals, differential-equation residuals) never touches the closed-form
kernels, so agreement between the two routes is a genuine cross-check.  The
residuals take u's derivatives at the ends of the support from the integral
equation differentiated under the integral sign, never from a fit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import IllConditioned, InvalidRegime
from .kernels import _c3zero_rows
from .measures import Measure, norm_bounds, nu_hat
from .quadrature import (barycentric_matrix, barycentric_weights,
                         gauss_legendre, panel_rule)
from .special import sinc_band

DEFAULT_NODES = 200
# largest c3 times panel width; at 200 to 800 nodes on one panel, spectral
# integration agrees with a product quadrature to 3e-15 up to 5, 2e-13 at 10
# and 3e-9 at 20
PANEL_C3_WIDTH = 5.0
PANEL_NODES = 40         # most nodes on a panel; more nodes mean more panels
MAX_PANELS = 2048        # c3 Delta up to 10240, n up to 81920; O(P) 4 x 4 blocks
CONDITION_LIMIT = 1e8

TestFunction = Sequence[tuple[float, float]]

# named sinc combinations usable as reproducing-property test functions
SINC_PRESETS: dict[str, TestFunction] = {
    "center0": ((0.0, 1.0),),
    "center2p5": ((2.5, 1.0),),
    "offcenter_pair": ((0.0, 1.0), (1.5, 0.7)),
}


@dataclass
class NystromSolution:
    """Discrete solution of the integral equation at Gauss-Legendre nodes,
    on ``panels`` equal panels of ``per`` nodes each.

    ``nodes``, ``weights`` and the factored system are read-only and shared
    by every solve of the same measure and node count."""

    nodes: np.ndarray
    weights: np.ndarray
    u_values: np.ndarray
    measure: Measure
    w: complex
    condition_estimate: float
    panels: int
    per: int
    _system: "_PanelOperator" = field(repr=False)

    def interpolate(self, targets) -> np.ndarray:
        """Barycentric interpolation of u to arbitrary points of the support,
        each point from the nodes of its panel."""
        t = np.atleast_1d(np.asarray(targets, dtype=float))
        panels, per = self.panels, self.per
        which = np.clip(np.floor((t / self.measure.delta + 0.5) * panels), 0, panels - 1)
        out = np.empty(len(t), dtype=complex)
        for p in np.unique(which).astype(int):
            at, own = which == p, slice(p * per, (p + 1) * per)
            out[at] = barycentric_matrix(self.nodes[own], _barycentric_weights(per),
                                         t[at]) @ self.u_values[own]
        return out


def _layout(m: Measure, n: int) -> tuple[int, int]:
    """(P, per): P = max(ceil(c3 Delta / PANEL_C3_WIDTH), ceil(n / PANEL_NODES))
    equal panels of per nodes, n for one panel, else max(24, ceil(n / P)).
    A node count below 16 or more than MAX_PANELS panels raises ValueError."""
    if n < 16:
        raise ValueError("need at least 16 nodes")
    wide = math.ceil(min(m.c3 * m.delta / PANEL_C3_WIDTH, 1e18))   # inf stays an int
    panels = max(1, wide, -(-n // PANEL_NODES))
    if panels > MAX_PANELS:
        raise ValueError(f"{panels} panels exceed the cap of {MAX_PANELS} "
                         f"(n = {n}, c3 Delta = {m.c3 * m.delta:.6g})")
    return panels, n if panels == 1 else max(24, -(-n // panels))


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
    for panels of another width.  The panel totals are summed in long double
    (in doubles, ``ode_residual`` read 2.9e-15 at 2000 panels, not 4.3e-16)."""
    per = len(v) // panels
    J = _integration_matrix(per)
    if panels == 1:                      # nothing before it: J alone, at J's cost
        return J @ v
    # the panels' columns side by side, so that J acts on all in one product
    cols = v.reshape(panels, per, -1).swapaxes(0, 1).reshape(per, -1)
    totals = (gauss_legendre(per, -1.0, 1.0)[1] @ cols).reshape(panels, -1)
    before = np.zeros_like(totals)
    before[1:] = np.cumsum(totals[:-1], axis=0, dtype=np.longdouble)
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


def _panel_block(m: Measure, x: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """A = c1 I + c2 K on one panel of half-width h, nodes x and weights w.

    On (-h, x_i) the kernel is the smooth (x_i - t) e^{-c3 (x_i - t)}, on
    (x_i, h) the smooth (t - x_i) e^{-c3 (t - x_i)}; the panel's J
    integrates the first against u over (-h, x_i), and w - J the second
    over (x_i, h):

        K_ij = d_ij (J_ij e_ij - (w_j - J_ij) / e_ij),
        d_ij = x_i - x_j,  e_ij = e^{-c3 d_ij},

    where the panel width keeps e_ij and 1 / e_ij below e^PANEL_C3_WIDTH.
    """
    d = x[:, None] - x
    e = np.exp(-m.c3 * d)
    left = h * _integration_matrix(len(x))
    A = (m.c2 * d) * (left * e - (w - left) / e)
    A[np.diag_indices(len(x))] += m.c1
    return A


def _doubling(N: np.ndarray, length: int) -> list:
    """The steps of _scan for x_i = c_i + x_(i-1) N_i, 0 < i < length: the
    pairs (s, Pi_s) for s = 1, 2, 4, ... < length, where Pi_s[i] is the
    product N_(i-s+1) ... N_i (entries i < s are never read).  N is one
    matrix for every i, or a stack of length matrices."""
    steps, s = [], 1
    while s < length:
        steps.append((s, N))
        N = N @ N if N.ndim == 2 else np.concatenate([N[:s], N[:-s] @ N[s:]])
        s *= 2
    return steps


def _scan(x: np.ndarray, steps: list) -> None:
    """x_i = c_i + x_(i-1) N_i along the first axis of x, which holds c on
    entry, in place: x_i += x_(i-s) Pi_s[i] for each doubling step, so
    log2 of the length array steps instead of one step per i."""
    for s, Pi in steps:
        x[s:] += x[:-s] @ (Pi if Pi.ndim == 2 else Pi[s:])


class _PanelOperator:
    """A matrix of P x P blocks of size per x per: one block A on the
    diagonal and, off it,

        block (p, q) = E_L T^(p-1-q) R_L  (q < p),   E_R T^(q-1-p) R_R  (q > p),

    with E = [E_L | E_R] (per x 4), R = [R_L; R_R] (4 x per) and T a 2 x 2
    semigroup step.  Rows of panel p see the panels to their left through a
    2-vector F_p and those to their right through G_p: with the moments
    m_q = R_L u_q and n_q = R_R u_q,

        F_0 = 0,  F_(p+1) = T F_p + m_p;   G_(P-1) = 0,  G_(p-1) = T G_p + n_p,

    and (M u)_p = A u_p + E_L F_p + E_R G_p, in O(P per^2) (Greengard and
    Rokhlin, CPAM 44, 1991; Chandrasekaran et al., SIMAX 27, 2005).

    A solve eliminates u_p = A^-1 (b_p - E_L F_p - E_R G_p), which leaves the
    interface unknowns Z_i = (F_(i+1), G_i), i < P - 1, in a block-tridiagonal
    system with 4 x 4 blocks: with Q = R A^-1 E and beta_p = R A^-1 b_p,

        F_(i+1) + Q_LR G_i + (Q_LL - T) F_i = beta_L,i,
        G_i + Q_RL F_(i+1) + (Q_RR - T) G_(i+1) = beta_R,(i+1).

    Its diagonal block S_i differs from D = [[I, Q_LR], [Q_RL, I]] only in
    the top right, and is factored once, block Thomas without pivoting, in
    O(P) 4 x 4 blocks.  Every recurrence, the sweeps of the product and both
    passes of the solve, runs by doubling (_scan), on tables of
    O(P log P) 4 x 4 blocks: 2.9 MB for each pass at MAX_PANELS.

    Vectors are rows: a (k, P per) array holds k of them, so that a panel's
    matrix acts on every panel of every row in one product.
    """

    def __init__(self, A, E, R, T, panels: int):
        self.A, self.E, self.panels = A, E, panels
        A_inv = np.linalg.inv(A)
        # rows times [A^T | R^T] and [A^-T | (R A^-1)^T]: one product each
        self.apply_t = np.hstack([A.T, R.T])
        self.inv_t = np.hstack([A_inv.T, (R @ A_inv).T])
        self.corr_t = (A_inv @ E).T
        self.sweep = _doubling(T.T, panels)
        Q = R @ A_inv @ E
        low, up = Q[:2, :2] - T, Q[2:, 2:] - T
        S = np.eye(4)
        S[:2, 2:], S[2:, :2] = Q[:2, 2:], Q[2:, :2]
        S_inv = np.empty((max(panels - 1, 0), 4, 4))
        for i in range(len(S_inv)):
            if i:
                corner = Q[:2, 2:] - low @ S_inv[i - 1, :2, 2:] @ up
                if np.array_equal(corner, S[:2, 2:]):     # a fixed point: so are the rest
                    S_inv[i:] = S_inv[i - 1]
                    break
                S[:2, 2:] = corner
            S_inv[i] = np.linalg.inv(S)
        # the passes as recurrences on rows, z_i += z_(i-1) N_i: forward
        # z_i -= L S_(i-1)^-1 z_(i-1), L = [[low, 0], [0, 0]], then w = S^-1 z,
        # then backward Z_i = w_i - S_i^-1 U Z_(i+1), U = [[0, 0], [0, up]]
        self.S_inv_t = S_inv.swapaxes(1, 2)
        n_f, n_b = np.zeros((2, max(panels - 1, 0), 4, 4))
        n_f[1:, :, :2] = -(low @ S_inv[:-1, :2]).swapaxes(1, 2)
        n_b[:, 2:] = -(S_inv[:, :, 2:] @ up).swapaxes(1, 2)
        self.forward = _doubling(n_f, panels - 1)
        self.backward = _doubling(n_b[::-1], panels - 1)
        for arr in (A, E, self.apply_t, self.inv_t, self.corr_t, self.S_inv_t):
            arr.flags.writeable = False

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v for (k, P per) rows v."""
        P, per = self.panels, len(self.A)
        out = v.reshape(-1, per) @ self.apply_t
        Mv = out[:, :per]
        if P > 1:
            # (F_p, G_p) from the moments (m_p, n_p), each (P, k, 2)
            moments = out[:, per:].reshape(len(v), P, 4).swapaxes(0, 1)
            X = np.zeros(moments.shape)
            X[1:, :, :2], X[:-1, :, 2:] = moments[:-1, :, :2], moments[1:, :, 2:]
            _scan(X[:, :, :2], self.sweep)
            _scan(X[::-1, :, 2:], self.sweep)
            Mv += X.swapaxes(0, 1).reshape(-1, 4) @ self.E.T
        return Mv.reshape(v.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^-1 b for (k, P per) rows b."""
        P, per = self.panels, len(self.A)
        y = b.reshape(-1, per) @ self.inv_t
        u = y[:, :per]
        if P > 1:
            beta = y[:, per:].reshape(len(b), P, 4).swapaxes(0, 1)
            z = np.concatenate([beta[:-1, :, :2], beta[1:, :, 2:]], axis=2)
            _scan(z, self.forward)
            z = z @ self.S_inv_t
            _scan(z[::-1], self.backward)
            X = np.zeros((P, len(b), 4))
            X[1:, :, :2], X[:-1, :, 2:] = z[:, :, :2], z[:, :, 2:]
            u -= X.swapaxes(0, 1).reshape(-1, 4) @ self.corr_t
        return u.reshape(b.shape)


def _panel_operator(m: Measure, x: np.ndarray, w: np.ndarray, h: float,
                    panels: int) -> _PanelOperator:
    """M in panel form.  Take i in panel p and j in panel q < p, with t the
    distance of a node from its panel's left end and s = 2h - t from its
    right end.  Then

        w_j |x_i - x_j| e^{-c3 |x_i - x_j|}
            = e^{-c3 t_i} (t_i + D + s_j) w_j e^{-c3 s_j} e^{-c3 D},

    D = (p - q - 1) 2h the gap between the panels.  So F_p is the pair
    (sum e^{-c3 D} a_q, sum e^{-c3 D} (D a_q + b_q)) of the moments
    a_q = sum_j w_j e^{-c3 s_j} u_j and b_q = sum_j w_j s_j e^{-c3 s_j} u_j,
    it steps by T = e^{-c3 2h} [[1, 0], [2h, 1]], and row i reads
    c2 e^{-c3 t_i} (t_i f_0 + f_1).  Panels to the right mirror this with t
    and s exchanged.  Every exponential is at most 1.
    """
    A = _panel_block(m, x, w, h)
    t, s = h + x, h - x
    et, es = np.exp(-m.c3 * t), np.exp(-m.c3 * s)
    E = m.c2 * np.stack([t * et, et, s * es, es], axis=1)
    R = np.stack([w * es, w * s * es, w * et, w * t * et])
    T = math.exp(-2.0 * m.c3 * h) * np.array([[1.0, 0.0], [2.0 * h, 1.0]])
    return _PanelOperator(A, E, R, T, panels)


def _inverse_norm1(op: _PanelOperator, weights: np.ndarray, start: int) -> float:
    """A lower estimate of ||M^-1||_1: Hager's iteration with Higham's
    safeguards (ACM TOMS 14, 1988; LAPACK xLACON).  From a unit vector e_j
    it moves to the e_j that M^-T sign(M^-1 e_j) points at, and stops after
    five moves, on a repeated sign vector or j, or when the estimate stops
    growing; the alternating vector x_i = (-1)^i (1 + i / (n - 1)) is solved
    beside the first step.  Every value it returns is ||M^-1 x||_1 / ||x||_1
    of some x, so it never exceeds the norm.

    M^-T y is taken as W M^-1 W^-1 y, W the quadrature weights: the
    kernel is symmetric, so M^T = W M W^-1 off the diagonal blocks and
    nearly on them.  It only picks the next column to try.

    It starts at e_start, not at xLACON's (1, ..., 1) / n.  For c1 I plus a
    small positive kernel, M^-1's largest column sits where M's does, so the
    column of M that attains ||M||_1 is the start.  From there, on 300
    random admissible measures with c3 Delta up to 60, it read 0.99996 to 1
    of the exact norm at 200 nodes and 0.9999998 to 1 at 400, mostly in two
    solves, and 0.87 to 1 on one panel of 32 nodes; from the uniform start
    it needed about ten solves to read 0.88 to 1 at 200 nodes."""
    n = len(weights)
    i = np.arange(n)
    y = op.solve(np.stack([i == start, (-1.0) ** i * (1.0 + i / max(n - 1, 1))]).astype(float))
    alt = 2.0 * float(np.abs(y[1]).sum()) / (3.0 * n)
    y, est = y[:1], float(np.abs(y[0]).sum())
    sign, j = None, start
    for _ in range(5):
        last, sign = sign, np.where(y >= 0.0, 1.0, -1.0)
        if last is not None and np.array_equal(sign, last):
            break
        z = np.abs(weights * op.solve(sign / weights)[0])
        j, j_last = int(np.argmax(z)), j
        if z[j_last] == z[j]:
            break
        y = op.solve((i == j)[None, :].astype(float))
        new = float(np.abs(y).sum())
        if new <= est:
            break
        est = new
    return max(est, alt)


def _column_sums(op: _PanelOperator, weights: np.ndarray) -> np.ndarray:
    """Column sums of |M| from one product: off the diagonal blocks M >= 0
    and M^T = W M W^-1, so they sum to w_j (M W^-1 1)_j less the diagonal
    blocks' share, to which the column sums of |A| are added."""
    w = weights[:len(op.A)]
    columns = weights * op.matvec(1.0 / weights[None, :])[0]
    columns += np.tile(np.abs(op.A).sum(axis=0) - w * (op.A @ (1.0 / w)), op.panels)
    return columns


@functools.lru_cache(maxsize=4)
def _nystrom_system(m: Measure, n: int):
    """(nodes, weights, M in panel form, cond) for the measure and node
    count, laid out by _layout.  M does not depend on w, so every solve and
    residual of one measure shares one panel block, one inverse of it and
    one factored interface system; the arrays are read-only.

    cond = ||M||_1 from _column_sums times _inverse_norm1's estimate."""
    panels, per = _layout(m, n)
    h = m.delta / (2 * panels)
    x, w = gauss_legendre(per, -h, h)
    nodes = ((h * (2 * np.arange(panels) + 1) - m.delta / 2.0)[:, None] + x).ravel()
    weights = np.tile(w, panels)
    op = _panel_operator(m, x, w, h, panels)
    columns = _column_sums(op, weights)
    widest = int(np.argmax(columns))
    cond = float(columns[widest]) * _inverse_norm1(op, weights, widest)
    for arr in (nodes, weights):
        arr.flags.writeable = False
    return nodes, weights, op, cond


def solve_integral_eq(m: Measure, w: complex, n: int = DEFAULT_NODES) -> NystromSolution:
    """Solve the defining integral equation for the data e^{-2 pi i w xi}.

    u = M^-1 b on the rows Re b and Im b, by the panel solve, with no
    refinement step: one against M moved no closed-vs-oracle gap, u error
    or ODE residual on 1,800 oracle_xcheck-style solves.  Requires an admissible measure
    (which keeps the integral operator a contraction, hence the system
    uniquely solvable) and n >= 16, laid out in panels as the module
    docstring says; more than MAX_PANELS panels raise ValueError.
    """
    m.require_single()
    w = complex(w)
    if not cmath.isfinite(w):
        raise ValueError(f"w must be finite, got {w}")
    m.require_admissible(extended=True)
    nodes, weights, op, cond = _nystrom_system(m, n)
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"1-norm condition estimate {cond:.3e} > {CONDITION_LIMIT:.0e}")
    data = np.exp(-2j * np.pi * w * nodes)
    b = np.stack([data.real, data.imag])
    u = op.solve(b)
    return NystromSolution(nodes=nodes, weights=weights, u_values=u[0] + 1j * u[1],
                           measure=m, w=w, condition_estimate=cond,
                           panels=op.panels, per=len(op.A), _system=op)


def system_residual(sol: NystromSolution) -> float:
    """Relative residual of the solved linear system, ||M u - b|| / ||b||,
    with M u by the panel product (the recurrences, not the solve)."""
    data = np.exp(-2j * np.pi * sol.w * sol.nodes)
    b = np.stack([data.real, data.imag])
    r = sol._system.matvec(np.stack([sol.u_values.real, sol.u_values.imag])) - b
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def uniqueness_ratio(m: Measure, n: int = DEFAULT_NODES) -> float:
    """sigma_min(S) / a_sq for S = W^1/2 M W^-1/2, M the Nystrom matrix and W
    the Gauss-Legendre weights, on any layout solve_integral_eq accepts.  S is
    the integral operator T in L2 of the support, with <T u, u> >= a_sq ||u||^2:
    a ratio below 1 means the discretization has lost unique solvability.

    S is symmetric, so sigma_min = 1 / |theta|, theta the Ritz value of
    largest modulus of S^-1 = W^1/2 M^-1 W^-1/2 by Lanczos (Paige, 1972;
    Parlett, 1980): per step a panel solve and two classical Gram-Schmidt
    passes, until the Ritz residual beta_k |e_k^T y| is 1e-13 |theta|, at
    most one step per node.  At small c3 Delta sigma_min's eigenvector is
    odd, and an even start read the ratio 2-4% high at a residual of 4e-14;
    the start 1 + i / (N - 1) on N nodes has both parities.  |theta| never
    exceeds S^-1's spectral radius, so the ratio can only read high, and the
    tests hold it to a dense SVD."""
    m.require_single()
    _, weights, op, _ = _nystrom_system(m, n)
    root_w, size = np.sqrt(weights), len(weights)
    q, Q, alpha, beta = 1.0 + np.arange(size) / (size - 1), np.empty((0, size)), [], []
    while True:
        Q = np.vstack([Q, q / np.linalg.norm(q)])
        q = root_w * op.solve(Q[-1:] / root_w)[0]
        alpha.append(Q[-1] @ q)
        for _ in range(2):
            q -= (Q @ q) @ Q
        beta.append(np.linalg.norm(q))
        theta, y = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))  # lower triangle only
        top = np.argmax(abs(theta))
        if beta[-1] * abs(y[-1, top]) <= 1e-13 * abs(theta[top]) or len(Q) == size:
            return 1.0 / (abs(float(theta[top])) * norm_bounds(m, extended=True).a_sq)


def closed_form_u(m: Measure, w: complex, xi) -> Union[complex, np.ndarray]:
    """Closed-form solution for c3 = 0 and any c2 >= 0, zero outside the
    support: u = a(w) cos(om xi) + b(w) sin(om xi) + c(w) e^{-2 pi i w xi},
    om = sqrt(2 c2 / c1), half the sum of ``kernels._c3zero_rows``' rows;
    within their band around the coefficient poles 2 c1 pi^2 w^2 = c2 the
    16 contour rows as well."""
    m.require_single()
    if m.c3 != 0.0:
        raise InvalidRegime("closed_form_u only covers c3 = 0")
    offsets, weights, close = _c3zero_rows(m.c1, m.c2, m.delta, complex(w))
    xi_arr = np.asarray(xi, dtype=float)
    inside = np.abs(xi_arr) <= m.delta / 2.0 + 1e-15
    # half the rows' sum, the rows +-i om by Euler's formula from cos and sin
    (i_om, _, s), (w_plus, w_minus, w_s) = offsets[:3].tolist(), weights[:3].tolist()
    om_xi = i_om.imag * xi_arr
    out = (0.5 * (w_plus + w_minus) * np.cos(om_xi) + 0.5j * (w_plus - w_minus) * np.sin(om_xi)
           + 0.5 * w_s * np.exp(s * xi_arr))
    if close:
        out += 0.5 * (np.exp(xi_arr[..., None] * offsets[3:]) @ weights[3:])
    out = np.where(inside, out, 0.0)
    return out if out.shape else complex(out)


def k_from_u(sol: NystromSolution, z) -> Union[complex, np.ndarray]:
    """Transform k_w(z) = integral of u(a) e^{2 pi i a z} over the support.

    Valid for finite z with |Re z| up to about n / (pi Delta); beyond that
    the fixed quadrature rule cannot resolve the oscillation.  Summed
    pairwise: a running sum of the 48000 nodes of c3 Delta = 10^4 is off by 3e-15.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.isfinite(z_arr).all():
        raise ValueError(f"z must be finite, got {z_arr[~np.isfinite(z_arr)][0]}")
    vals = (np.exp(2j * np.pi * np.outer(z_arr, sol.nodes))
            * (sol.weights * sol.u_values)).sum(axis=1)
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

    def f(x):
        return sum(c * sinc_band(m.delta, x, center=t) for (t, c) in terms)

    # quadrature core
    pts, wts = panel_rule(-X0, X0, plen)
    total = np.sum(wts * f(pts) * k_from_u(sol, pts)
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
        total += np.sum(wts * f(pts) * k_far(pts) * nu_hat(m, pts))

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

    return float(abs(total - f(w)))


def ode_residual(m: Measure, sol: NystromSolution) -> float:
    """Residual of the differential equation u satisfies on the support,

        c1 u'''' + a u'' + b u = f = (4 pi^2 w^2 + c3^2)^2 e^{-2 pi i w xi},
        a = 2 (c2 - c1 c3^2),  b = 2 c2 c3^2 + c1 c3^4,

    for every c3 >= 0 (at c3 = 0, c1 u'' + 2 c2 u = -4 pi^2 w^2 e^{-2 pi i w
    xi} differentiated twice), without differentiating the nodal u.  With J
    the indefinite integration from -Delta/2 on the nodes, panel by panel
    (exact for piecewise polynomials of degree below the nodes per panel),
    the equation integrated four times from there reads

        v = c1 u + a J^2 u + b J^4 u - J^4 f = P,

    P the cubic in t = xi + Delta/2 with Taylor coefficients c1 u, c1 u',
    c1 u'' + a u and c1 u''' + a u' at -Delta/2.  v comes from the nodal u
    and P from the boundary jet, the integral equation itself, so v = P
    holds to rounding exactly when the nodal u solves the equation.  Returns
    max |v - P| over the nodes relative to the largest term of v; 0 by
    convention when c2 = 0.
    """
    if m.c2 == 0.0:
        return 0.0
    c1, c2, c3, w = m.c1, m.c2, m.c3, sol.w
    L, panels = m.delta / 2.0, sol.panels
    h = m.delta / (2 * panels)

    def twice(v):
        return h * h * _indefinite_integrals(_indefinite_integrals(v, panels), panels)

    u, t = sol.u_values, sol.nodes + L
    u0, u1, u2, u3 = _boundary_jet(sol, -1)
    f = (4.0 * np.pi ** 2 * w ** 2 + c3 ** 2) ** 2 * np.exp(-2j * np.pi * w * sol.nodes)
    # J acts column by column: the real and imaginary parts of u and f go
    # through it as four interleaved real columns
    uf_2 = twice(np.stack([u, f], axis=1).view(float))
    u_2 = np.ascontiguousarray(uf_2).view(complex)[:, 0]
    u_4, f_4 = np.ascontiguousarray(twice(uf_2)).view(complex).T
    a, b = 2.0 * (c2 - c1 * c3 ** 2), 2.0 * c2 * c3 ** 2 + c1 * c3 ** 4
    terms = (c1 * u, a * u_2, b * u_4, -f_4)
    P = c1 * u0 + t * (c1 * u1 + t * ((c1 * u2 + a * u0) / 2.0
                                      + t * (c1 * u3 + a * u1) / 6.0))
    largest = max(float(np.max(np.abs(x))) for x in terms)
    return float(np.max(np.abs(sum(terms) - P))) / largest
