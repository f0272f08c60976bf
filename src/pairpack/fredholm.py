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
block-tridiagonal system with 4 x 4 blocks that is factored once, each
block's inverse in closed form from a 2 x 2 adjugate, and a solve or a
product with the matrix costs O(P per^2) (_PanelOperator).  At the default
five panels that cost is numpy's per-call overhead, so each solve and
product is a fixed handful of calls: one product in, the recurrences by
doubling, one product out.  The uniqueness certificate runs Lanczos
through the same solve; only the tests build the dense matrix, as their
reference.

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
equation differentiated under the integral sign, never from a fit: the
system keeps the rows of those integrals (_jet_rows), and the ODE residual
integrates twice per pass over all panels at once (_integrate_twice).
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


@functools.lru_cache(maxsize=4)
def _twofold_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two products of _integrate_twice for the n Gauss-Legendre nodes x
    and weights w of [-1, 1], read-only: rows v times the (n, 2) array
    [(w J)^T | w^T] give each row's whole integrals of J v and v, and rows
    [v | T | S] times the (n + 2, n) array [(J^2)^T; 1; x + 1] give
    J^2 v + T + S (x + 1)."""
    J = _integration_matrix(n)
    x, w = gauss_legendre(n, -1.0, 1.0)
    whole = np.stack([w @ J, w], axis=1)
    twice = np.concatenate([(J @ J).T, [np.ones(n), x + 1.0]])
    for arr in (whole, twice):
        arr.flags.writeable = False
    return whole, twice


def _integrate_twice(v: np.ndarray, panels: int) -> np.ndarray:
    """J^2 of each row of v, (k, P per), on panels of half-width 1, J the
    indefinite integral from the first panel's left end; scale by the
    squared half-width for panels of another width.  On panel p, with x its
    nodes,

        J^2 v = J^2_p v_p + S_p (x + 1) + T_p,
        S_p = sum_(q < p) w v_q,   T_p = sum_(q < p) ((w J) v_q + 2 S_q),

    S_p the integral of v over the panels before p and T_p that of J v.
    Two products with _twofold_rows serve every panel of every row: one for
    the panels' whole integrals, one for J^2 v with S and T.  S and T are
    summed in long double (in doubles, ``ode_residual`` read 2.9e-15 at
    2000 panels, not 4.3e-16)."""
    per = v.shape[-1] // panels
    whole_t, twice_t = _twofold_rows(per)
    rows = v.reshape(-1, per)
    if panels == 1:                      # nothing before it: J^2 alone
        return (rows @ twice_t[:per]).reshape(v.shape)
    whole = (rows @ whole_t).reshape(-1, panels, 2)
    TS = np.zeros(whole.shape, dtype=np.longdouble)
    np.cumsum(whole[:, :-1], axis=1, out=TS[:, 1:])
    TS[:, 2:, 0] += 2.0 * np.cumsum(TS[:, 1:-1, 1], axis=1)
    rows = np.concatenate([rows, TS.reshape(-1, 2).astype(float)], axis=1)
    return (rows @ twice_t).reshape(v.shape)


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
    product N_(i-s+1) ... N_i.  N is one matrix for every i, and so is each
    Pi_s, or a stack of length matrices, and Pi_s holds the rows i >= s."""
    steps, s = [], 1
    while s < length:
        steps.append((s, N if N.ndim == 2 else N[s:]))
        N = N @ N if N.ndim == 2 else np.concatenate([N[:s], N[:-s] @ N[s:]])
        s *= 2
    return steps


def _scan(x: np.ndarray, steps: list) -> None:
    """x_i = c_i + x_(i-1) N_i along the first axis of x, a (length, k, 4)
    table of k rows that holds c on entry, in place: x_i += x_(i-s) Pi_s[i]
    for each doubling step, so log2 of the length array steps instead of
    one step per i.  With one N for every i, x is C-contiguous and each
    step is one 2-D product on its (length k, 4) rows."""
    if steps and steps[0][1].ndim == 2:
        k, x = x.shape[1], x.reshape(-1, 4)
        for s, Pi in steps:
            x[s * k:] += x[:-s * k] @ Pi
    else:
        for s, Pi in steps:
            x[s:] += x[:-s] @ Pi


def _interface_inverses(Q: np.ndarray, T: np.ndarray, count: int) -> np.ndarray:
    """S_i^-1 for the count diagonal blocks S_i = [[I, C_i], [D, I]] of the
    interface system, D = Q_RL: with X = (I - C_i D)^-1,

        S_i^-1 = [[X, -X C_i], [-D X, I + D X C_i]],

    and the corner follows C_0 = Q_LR, C_i = Q_LR + low X_(i-1) C_(i-1) up,
    low = Q_LL - T and up = Q_RR - T.  Each X is the 2 x 2 adjugate over the
    determinant, all in Python floats: a numpy call on a 2 x 2 block costs
    more than its arithmetic.  Once a corner repeats, so do all the blocks
    after it, which repeat the last one computed."""
    # Q's blocks [[Q_LL, Q_LR], [Q_RL, Q_RR]] as l, q, d and u; T is taken
    # from l and u below
    (l00, l01, q00, q01), (l10, l11, q10, q11), (d00, d01, u00, u01), (d10, d11, u10, u11) = \
        Q.tolist()
    t00, t01, t10, t11 = T.ravel().tolist()
    l00, l01, l10, l11 = l00 - t00, l01 - t01, l10 - t10, l11 - t11
    u00, u01, u10, u11 = u00 - t00, u01 - t01, u10 - t10, u11 - t11
    c00, c01, c10, c11 = q00, q01, q10, q11
    blocks = []
    while len(blocks) < count:
        if blocks:
            # low (X C) up, with X C from the last block
            a00, a01 = l00 * p00 + l01 * p10, l00 * p01 + l01 * p11
            a10, a11 = l10 * p00 + l11 * p10, l10 * p01 + l11 * p11
            corner = (q00 + (a00 * u00 + a01 * u10), q01 + (a00 * u01 + a01 * u11),
                      q10 + (a10 * u00 + a11 * u10), q11 + (a10 * u01 + a11 * u11))
            if corner == (c00, c01, c10, c11):       # a fixed point: so are the rest
                break
            c00, c01, c10, c11 = corner
        m00, m01 = 1.0 - (c00 * d00 + c01 * d10), -(c00 * d01 + c01 * d11)
        m10, m11 = -(c10 * d00 + c11 * d10), 1.0 - (c10 * d01 + c11 * d11)
        det = m00 * m11 - m01 * m10
        x00, x01, x10, x11 = m11 / det, -m01 / det, -m10 / det, m00 / det
        p00, p01 = x00 * c00 + x01 * c10, x00 * c01 + x01 * c11          # X C
        p10, p11 = x10 * c00 + x11 * c10, x10 * c01 + x11 * c11
        r00, r01 = d00 * x00 + d01 * x10, d00 * x01 + d01 * x11          # D X
        r10, r11 = d10 * x00 + d11 * x10, d10 * x01 + d11 * x11
        blocks.append((x00, x01, -p00, -p01, x10, x11, -p10, -p11,
                       -r00, -r01, 1.0 + (r00 * c00 + r01 * c10), r00 * c01 + r01 * c11,
                       -r10, -r11, r10 * c00 + r11 * c10, 1.0 + (r10 * c01 + r11 * c11)))
    S_inv = np.empty((count, 4, 4))
    if blocks:
        S_inv[:len(blocks)] = np.reshape(blocks, (-1, 4, 4))
        S_inv[len(blocks):] = S_inv[len(blocks) - 1]
    return S_inv


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

    Its diagonal block S_i differs from [[I, Q_LR], [Q_RL, I]] only in the
    top right.  It is factored once, block Thomas without pivoting, in O(P)
    4 x 4 blocks, each inverse in closed form (_interface_inverses).  Every
    recurrence runs by doubling (_scan).  The product's two sweeps are one
    (P, k, 4) table whose row p holds (F_p, G_(P-1-p)): both run forward
    with the one step diag(T^T, T^T), one 2-D product per doubling step.
    The solve's two passes run on tables of O(P log P) 4 x 4 blocks, 2.9 MB
    for each pass at MAX_PANELS.  Each ends in one product of the rows and
    their (F_p, G_p) with a stacked matrix: [A^T; E^T] for the product,
    [A^-T; -(A^-1 E)^T] for the solve.

    Vectors are rows: a (k, P per) array holds k of them, so that a panel's
    matrix acts on every panel of every row in one product.
    """

    def __init__(self, A, E, R, T, panels: int):
        self.A, self.E, self.panels = A, E, panels
        A_inv = np.linalg.inv(A)
        RA = R @ A_inv
        self.moments_t, self.beta_t = R.T.copy(), RA.T.copy()
        self.apply_t = np.concatenate([A.T, E.T])
        self.inv_t = np.concatenate([A_inv.T, -(A_inv @ E).T])
        step = np.zeros((4, 4))
        step[:2, :2] = step[2:, 2:] = T.T
        self.sweep = _doubling(step, panels)
        Q = RA @ E
        S_inv = _interface_inverses(Q, T, max(panels - 1, 0))
        # the passes as recurrences on rows, z_i += z_(i-1) N_i: forward
        # z_i -= L S_(i-1)^-1 z_(i-1), L = [[low, 0], [0, 0]], then w = S^-1 z,
        # then backward Z_i = w_i - S_i^-1 U Z_(i+1), U = [[0, 0], [0, up]]
        self.S_inv_t = S_inv.swapaxes(1, 2)
        n_f, n_b = np.zeros((2, max(panels - 1, 0), 4, 4))
        n_f[1:, :, :2] = -((Q[:2, :2] - T) @ S_inv[:-1, :2]).swapaxes(1, 2)
        n_b[:, 2:] = -(S_inv[:, :, 2:] @ (Q[2:, 2:] - T)).swapaxes(1, 2)
        self.forward = _doubling(n_f, panels - 1)
        self.backward = _doubling(n_b[::-1], panels - 1)
        for arr in (A, E, self.moments_t, self.beta_t, self.apply_t, self.inv_t, self.S_inv_t):
            arr.flags.writeable = False

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v for (k, P per) rows v: the moments of every panel in one
        product, the sweeps as one _scan of the table whose row p holds
        (F_p, G_(P-1-p)), and A u_p + E_L F_p + E_R G_p as one product of
        [u_p | F_p | G_p] with [A^T; E^T]."""
        P, per = self.panels, len(self.A)
        rows = v.reshape(-1, per)
        if P == 1:
            return (rows @ self.apply_t[:per]).reshape(v.shape)
        k = len(v)
        moments = (rows @ self.moments_t).reshape(k, P, 4)
        X = np.zeros((P, k, 4))
        X[1:, :, :2] = moments[:, :-1, :2].swapaxes(0, 1)
        X[1:, :, 2:] = moments[:, :0:-1, 2:].swapaxes(0, 1)
        _scan(X, self.sweep)
        FG = np.empty((k, P, 4))
        FG[:, :, :2] = X[:, :, :2].swapaxes(0, 1)
        FG[:, :, 2:] = X[::-1, :, 2:].swapaxes(0, 1)
        return (np.concatenate([rows, FG.reshape(-1, 4)], axis=1) @ self.apply_t).reshape(v.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^-1 b for (k, P per) rows b: beta in one product, the interface
        system's two passes, and A^-1 (b_p - E_L F_p - E_R G_p) as one
        product of [b_p | F_p | G_p] with [A^-T; -(A^-1 E)^T]."""
        P, per = self.panels, len(self.A)
        rows = b.reshape(-1, per)
        if P == 1:
            return (rows @ self.inv_t[:per]).reshape(b.shape)
        k = len(b)
        beta = (rows @ self.beta_t).reshape(k, P, 4).swapaxes(0, 1)
        z = np.concatenate([beta[:-1, :, :2], beta[1:, :, 2:]], axis=2)
        _scan(z, self.forward)
        z = z @ self.S_inv_t
        _scan(z[::-1], self.backward)
        FG = np.zeros((k, P, 4))
        FG[:, 1:, :2] = z[:, :, :2].swapaxes(0, 1)
        FG[:, :-1, 2:] = z[:, :, 2:].swapaxes(0, 1)
        return (np.concatenate([rows, FG.reshape(-1, 4)], axis=1) @ self.inv_t).reshape(b.shape)


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
    and s exchanged.  Every exponential is at most 1.  The panel's nodes
    are symmetric bit for bit (quadrature._gl_rule), so s and its
    exponential are t's reversed: E's columns t e^{-c3 t}, e^{-c3 t} and
    their reverses, R's rows w times the same four in reverse order.
    """
    A = _panel_block(m, x, w, h)
    t = h + x
    base = np.empty((4, len(x)))
    base[1] = np.exp(-m.c3 * t)
    base[0] = t * base[1]
    base[2:] = base[:2, ::-1]
    T = math.exp(-2.0 * m.c3 * h) * np.array([[1.0, 0.0], [2.0 * h, 1.0]])
    return _PanelOperator(A, m.c2 * base.T, w * base[::-1], T, panels)


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
    b = np.zeros((2, n))
    b[0, start] = 1.0
    b[1] = 1.0 + np.arange(n) / max(n - 1, 1)
    b[1, 1::2] *= -1.0
    y = op.solve(b)
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
        b = np.zeros((1, n))
        b[0, j] = 1.0
        y = op.solve(b)
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
    columns.reshape(op.panels, -1)[...] += np.abs(op.A).sum(axis=0) - w * (op.A @ (1.0 / w))
    return columns


@functools.lru_cache(maxsize=4)
def _nystrom_system(m: Measure, n: int):
    """(nodes, weights, M in panel form, cond) for the measure and node
    count, laid out by _layout.  M does not depend on w, so every solve and
    residual of one measure shares one panel block, one inverse of it and
    one factored interface system, and the operator carries the system's
    boundary-jet rows (``op.jet``, _jet_rows); the arrays are read-only.

    cond = ||M||_1 from _column_sums times _inverse_norm1's estimate."""
    panels, per = _layout(m, n)
    h = m.delta / (2 * panels)
    x, w = gauss_legendre(per, -h, h)
    nodes = ((h * (2 * np.arange(panels) + 1) - m.delta / 2.0)[:, None] + x).ravel()
    weights = np.broadcast_to(w, (panels, per)).ravel()
    op = _panel_operator(m, x, w, h, panels)
    columns = _column_sums(op, weights)
    widest = int(np.argmax(columns))
    cond = float(columns[widest]) * _inverse_norm1(op, weights, widest)
    op.jet = _jet_rows(m, nodes, weights)
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
    # the real and imaginary parts of the data as two rows, and of u back
    u = op.solve(np.exp(-2j * np.pi * w * nodes).view(float).reshape(-1, 2).T)
    return NystromSolution(nodes=nodes, weights=weights,
                           u_values=np.ascontiguousarray(u.T).view(complex).ravel(),
                           measure=m, w=w, condition_estimate=cond,
                           panels=op.panels, per=len(op.A), _system=op)


def system_residual(sol: NystromSolution) -> float:
    """Relative residual of the solved linear system, ||M u - b|| / ||b||,
    with M u by the panel product (the recurrences, not the solve)."""
    b = np.exp(-2j * np.pi * sol.w * sol.nodes).view(float).reshape(-1, 2).T
    u = np.ascontiguousarray(sol.u_values, dtype=complex)
    r = sol._system.matvec(u.view(float).reshape(-1, 2).T) - b
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
    if np.ndim(z) == 0:                # one point, without the outer product
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"z must be finite, got {z}")
        return complex((np.exp(2j * np.pi * (z * sol.nodes)) * (sol.weights * sol.u_values)).sum())
    z_arr = np.asarray(z, dtype=complex)
    if not np.isfinite(z_arr).all():
        raise ValueError(f"z must be finite, got {z_arr[~np.isfinite(z_arr)][0]}")
    return (np.exp(2j * np.pi * np.outer(z_arr, sol.nodes))
            * (sol.weights * sol.u_values)).sum(axis=1)


# ---------------------------------------------------------------------------
# residuals, from u's derivatives at the ends of the support
# ---------------------------------------------------------------------------

def _jet_rows(m: Measure, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """side^k w_j h^(k)(s_j), k < 4, for side = -1 and +1: _boundary_jet's
    sums as one read-only (2, 4, nodes) array of rows.  h(s) = s e^{-c3 s}
    and s_j = Delta/2 - side x_j is the nodes' distance from the end, so the
    rows depend on the system alone, not on w."""
    c3 = m.c3
    s = m.delta / 2.0 + np.stack([nodes, -nodes])
    # h^(k)(s) = (alpha_k + beta_k s) e^{-c3 s}
    alpha = np.array([[0.0], [1.0], [-2.0 * c3], [3.0 * c3 * c3]])
    beta = np.array([[1.0], [-c3], [c3 * c3], [-c3 * c3 * c3]])
    rows = (alpha + beta * s[:, None]) * (np.exp(-c3 * s) * weights)[:, None]
    rows[0, 1::2] *= -1.0
    rows.flags.writeable = False
    return rows


def _boundary_jet(sol: NystromSolution, side: int) -> np.ndarray:
    """u, u', u'', u''' at xi = side Delta/2 (side = -1 or +1), from the
    integral equation differentiated under the integral sign.

    With h(s) = s e^{-c3 s} and s_j = Delta/2 - side x_j the nodes' distance
    from the end, the m-th derivative of the integral term there is

        F_m = side^m sum_j w_j u_j h^(m)(s_j) + 2 u^(m-2)   (last term m >= 2),

    and c1 u^(m) = (-2 pi i w)^m e^{-2 pi i w xi} - c2 F_m.  The kernel's
    kink, which gives the 2 u^(m-2), sits at the end, so every integrand is
    smooth and the nodes' Gauss rule integrates it.  The sums are one
    product of the system's jet rows (_jet_rows) with u's real and
    imaginary parts; the rest is four Python scalars.
    """
    m, w = sol.measure, sol.w
    u = np.ascontiguousarray(sol.u_values, dtype=complex)
    sums = sol._system.jet[(side + 1) // 2] @ u.view(float).reshape(-1, 2)
    s = -2j * np.pi * w
    e = cmath.exp(s * side * (m.delta / 2.0))
    jet = [(s ** k * e - m.c2 * complex(re, im)) / m.c1
           for k, (re, im) in enumerate(sums.tolist())]
    kink = 2.0 * m.c2 / m.c1                  # the kink's 2 u^(m-2) in F_m
    return np.array(jet[:2] + [jet[2] - kink * jet[0], jet[3] - kink * jet[1]])


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
    c1 u'' + a u and c1 u''' + a u' at -Delta/2.  J^2 and J^4 are two
    twofold passes (_integrate_twice) over u and f's exponential side by
    side.  v comes from the nodal u and P from the boundary jet, the
    integral equation itself, so v = P holds to rounding exactly when the
    nodal u solves the equation.  Returns max |v - P| over the nodes
    relative to the largest term of v; 0 by convention when c2 = 0.
    """
    if m.c2 == 0.0:
        return 0.0
    c1, c2, c3, w = m.c1, m.c2, m.c3, sol.w
    h2 = (m.delta / (2 * sol.panels)) ** 2
    u0, u1, u2, u3 = _boundary_jet(sol, -1).tolist()
    a, b = 2.0 * (c2 - c1 * c3 ** 2), 2.0 * c2 * c3 ** 2 + c1 * c3 ** 4
    # real rows 1, t, u and f's exponential e; their J^2; J^4 u and J^4 e
    rows = np.empty((16, len(sol.nodes)))
    rows[0], rows[1] = 1.0, sol.nodes + m.delta / 2.0
    rows[2:6] = np.stack([sol.u_values, np.exp(-2j * np.pi * w * sol.nodes)], axis=1).view(
        float).T
    rows[6:12] = _integrate_twice(rows[:6], sol.panels)
    rows[12:] = _integrate_twice(rows[8:12], sol.panels)
    # v - P as the rows' complex coefficients, with J^2 1 = t^2 / 2 and
    # J^2 t = t^3 / 6 over h^2: P's c1 u, c1 u', c1 u'' + a u and
    # c1 u''' + a u' at -Delta/2, then a J^2 u, b J^4 u and -J^4 f
    p0, p1, p2, p3 = c1 * u0, c1 * u1, (c1 * u2 + a * u0) * h2, (c1 * u3 + a * u1) * h2
    q = -(4.0 * np.pi ** 2 * w ** 2 + c3 ** 2) ** 2 * h2 * h2
    ah, bh = a * h2, b * h2 * h2
    coef = np.array([[-p0.real, -p1.real, c1, 0.0, 0.0, 0.0, -p2.real, -p3.real, ah, 0.0,
                      0.0, 0.0, bh, 0.0, q.real, -q.imag],
                     [-p0.imag, -p1.imag, 0.0, c1, 0.0, 0.0, -p2.imag, -p3.imag, 0.0, ah,
                      0.0, 0.0, 0.0, bh, q.imag, q.real]])
    # the largest term of v, from the moduli of u, J^2 u, J^4 u and J^4 e
    pairs = rows.reshape(8, 2, -1)[[1, 4, 6, 7]]
    largest = max(np.hypot(pairs[:, 0], pairs[:, 1]).max(axis=1)
                  * (abs(c1), abs(ah), abs(bh), abs(q)))
    return float(np.hypot(*(coef @ rows)).max() / largest)
