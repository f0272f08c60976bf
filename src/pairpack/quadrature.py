"""Gauss-Legendre quadrature utilities.

Provides cached Gauss-Legendre rules, composite panel rules, barycentric
Lagrange interpolation from arbitrary node sets, and the bracketed
bisection behind ``bounds.refutation_threshold``.
"""

from __future__ import annotations

import functools

import numpy as np


def _legendre_with_derivative(t, n: int):
    """P_n(t) and P_n'(t) by the three-term recurrence, in t's precision."""
    p_prev, p = np.ones_like(t), t.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
    return p, n * (t * p - p_prev) / (t * t - 1)


@functools.lru_cache(maxsize=64)
def _gl_rule(n: int):
    """Ascending nodes and weights of the n-point rule on [-1, 1].

    Newton's method on P_n from Tricomi's asymptotic nodes, with a last
    step in numpy's long double; the weights 2 / ((1 - x^2) P_n'(x)^2) are
    taken at that last iterate.  Where the long double is x86's 80-bit
    format the weights hold to a few ulps at every n (and the nodes are
    correctly rounded); numpy's ``leggauss`` weights lose up to 2e-11
    relative at n = 200 and 6e-8 at n = 2048 near the ends of the interval,
    and its eigenvalue solve needs O(n^2) memory.
    """
    k = np.arange(n, 0, -1)
    t = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_with_derivative(t, n)
        step = p / dp
        t -= step
        if np.max(np.abs(step)) <= 1e-12:
            break
    t = t.astype(np.longdouble)
    p, dp = _legendre_with_derivative(t, n)
    step = p / dp
    # P_n' at the new iterate, from (1 - x^2) P_n'' = 2 x P_n' - n (n + 1) P_n
    dp -= step * (2 * t * dp - n * (n + 1) * p) / (1 - t * t)
    t -= step
    x = t.astype(float)
    w = (2 / ((1 - t * t) * dp * dp)).astype(float)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def gauss_legendre(n: int, a: float, b: float):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = _gl_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def panel_rule(a: float, b: float, panel_length: float, order: int = 24):
    """Composite Gauss-Legendre rule on [a, b] with panels of at most
    ``panel_length``.  Returns flat (points, weights) arrays."""
    n_panels = max(1, int(np.ceil((b - a) / panel_length)))
    edges = np.linspace(a, b, n_panels + 1)
    gx, gw = _gl_rule(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


def bisect(f, lo: float, hi: float, xtol: float = 0.0) -> float:
    """Root of a continuous scalar function that changes sign on [lo, hi],
    by bisection (``bounds.refutation_threshold``'s crossing in ell).
    Returns the midpoint of the first bracket at most ``xtol`` wide or, when
    the bracket shrinks to two adjacent floats, the endpoint where |f| is
    smaller."""
    lo_positive = f(lo) > 0
    if (f(hi) > 0) == lo_positive:
        raise ValueError("f does not change sign on [lo, hi]")
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        if not lo < mid < hi:
            return lo if abs(f(lo)) <= abs(f(hi)) else hi
        if (f(mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights for Lagrange interpolation from ``nodes``.

    Computed through log magnitudes so products over hundreds of nodes do
    not underflow; the common scale cancels in the barycentric formula.  The
    log-sum runs in long double (in doubles it loses 2e-13 relative at 400
    nodes); its O(n^2) logs cost ms, so callers cache the result.
    """
    x = np.asarray(nodes, dtype=float)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    log_w = -np.sum(np.log(np.abs(d.astype(np.longdouble))), axis=1)
    sign = np.where(np.count_nonzero(d < 0, axis=1) % 2, -1.0, 1.0)
    log_w -= np.max(log_w)
    return sign * np.exp(log_w).astype(float)


def barycentric_matrix(nodes: np.ndarray, bary_w: np.ndarray,
                       targets: np.ndarray) -> np.ndarray:
    """Dense matrix P with (P @ f(nodes)) = interpolant of f at ``targets``."""
    x = np.asarray(nodes, dtype=float)
    t = np.asarray(targets, dtype=float)
    scale = max(np.ptp(x), 1e-300)
    diff = t[:, None] - x[None, :]
    exact = np.abs(diff) < 1e-14 * scale
    # avoid 0-division at exact hits; those rows are overwritten below
    diff[exact] = 1.0
    P = bary_w[None, :] / diff
    P /= np.sum(P, axis=1)[:, None]
    hit_rows = np.nonzero(exact.any(axis=1))[0]
    for i in hit_rows:
        P[i, :] = 0.0
        P[i, np.nonzero(exact[i])[0][0]] = 1.0
    return P
