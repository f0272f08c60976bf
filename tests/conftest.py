"""Test-session setup: single-threaded BLAS, and the session's registry runs.

The determinism test in ``test_acceptance.py`` runs ``pairpack verify`` in a
fresh process beside the in-process checks.  With a multi-threaded BLAS in
each, the two processes oversubscribe the cores (3x slower on 2 cores).  The
fresh process inherits this environment, so both use the same BLAS thread
count, on which the last digits of the report depend.  A count the caller
set is kept, and nothing is set once numpy is loaded, when it could no
longer apply to this process.

Each check of ``pairpack.verify`` runs at most once per session
(``check_outcome``); the acceptance tests and the unit tests whose property
a registry check holds (``registry_test``) read the same outcome.

``integrate_with_kink`` is the brute-force quadrature oracle of the unit
tests: adaptive Gauss-Legendre integration, independent of every closed form.
``aux_A``, ``aux_B`` and ``aux_C`` are the paper's moment functions A, B and
the transform C in their scalar defining forms, the test oracles of the
kernels' boundary system: A and B come from ``exp_moments``, the moments of
e^{s a} over [0, L] by a power series and an upward recurrence, which the
kernels no longer evaluate, so that they stay an independent route.
``sinh_quot_scaled``, ``sinh_quot`` (its shift-0 case, which ``aux_C``
uses) and ``sin_quot`` call
the one quotient the kernels run, ``special._sinh_quot``, for
``test_special.py``.  ``assemble`` is the dense
Nystrom matrix, the oracle of the oracle's panel operator: of its solve,
its product, its condition estimate and ``uniqueness_ratio``
(``dense_sigma_min``).
"""

import functools
import os
import sys
import time

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from pairpack.fredholm import _nystrom_system, _panel_block  # noqa: E402
from pairpack.quadrature import gauss_legendre  # noqa: E402
from pairpack.special import _sinh_quot  # noqa: E402
from pairpack.verify import CHECKS  # noqa: E402  (after the BLAS setting)

BY_NAME = {check.name: check for check in CHECKS}


@functools.cache
def check_outcome(name):
    """(passed, report line, seconds) of the named registry check."""
    t0 = time.perf_counter()
    passed, line = BY_NAME[name].run()
    return passed, line, time.perf_counter() - t0


def registry_test(*names):
    """A test method that passes when the named registry checks pass."""
    def test(self):
        for name in names:
            passed, line, _ = check_outcome(name)
            assert passed, line
    test.__doc__ = f"Registry check(s) {', '.join(names)}."
    return test


def adaptive_quad(f, a: float, b: float, tol: float = 1e-12,
                  max_depth: int = 40) -> float:
    """Adaptive Gauss-Legendre integration of a vectorized callable.

    Each subinterval is integrated with 20- and 40-point rules; the
    difference drives bisection.  ``tol`` is an absolute tolerance on the
    whole interval, distributed over subintervals.
    """
    def recurse(lo, hi, tol_loc, depth):
        x1, w1 = gauss_legendre(20, lo, hi)
        x2, w2 = gauss_legendre(40, lo, hi)
        i1 = np.dot(w1, f(x1))
        i2 = np.dot(w2, f(x2))
        if abs(i2 - i1) <= tol_loc or depth >= max_depth:
            return i2
        mid = 0.5 * (lo + hi)
        return (recurse(lo, mid, tol_loc / 2, depth + 1)
                + recurse(mid, hi, tol_loc / 2, depth + 1))

    if b <= a:
        return 0.0
    return recurse(a, b, tol, 0)


def integrate_with_kink(f, a: float, b: float, kink: float = 0.0,
                        tol: float = 1e-12) -> float:
    """Adaptive integration of ``f`` on [a, b], splitting at one interior
    kink so each piece is smooth."""
    if a < kink < b:
        return adaptive_quad(f, a, kink, tol / 2) + adaptive_quad(f, kink, b, tol / 2)
    return adaptive_quad(f, a, b, tol)


def assemble(m, nodes, weights, panels):
    """The dense Nystrom matrix c1 I + c2 K on the composite rule: the
    panel block A on the diagonal, and, where x_j lies in another panel than
    x_i, the Gauss rule K_ij = w_j |d_ij| e^{-c3 |d_ij|}."""
    per, h = len(nodes) // panels, m.delta / (2 * panels)
    M = np.abs(nodes[:, None] - nodes)
    M *= np.exp(-m.c3 * M)
    M *= m.c2 * weights
    A = _panel_block(m, gauss_legendre(per, -h, h)[0], weights[:per], h)
    for lo in range(0, len(nodes), per):
        M[lo:lo + per, lo:lo + per] = A
    return M


def dense_sigma_min(m, n=200):
    """sigma_min(W^1/2 M W^-1/2) by a dense SVD of the weighted matrix, on
    the nodes of ``fredholm.uniqueness_ratio``."""
    nodes, weights, op, _ = _nystrom_system(m, n)
    root_w = np.sqrt(weights)
    weighted = root_w[:, None] * assemble(m, nodes, weights, op.panels) / root_w[None, :]
    return float(np.linalg.svd(weighted, compute_uv=False)[-1])


# on the degenerate line, c2 = 4 c3 c3 c1 bit for bit, where a Python float's
# c3 ** 2 (libm pow) rounds apart from c3 * c3
LINE_MEASURE = (1.0, 2.2339406167140052, 0.7473186430021007, 0.709283836724323)


_SERIES_RADIUS = np.array(1.0)
_SERIES_TERMS = 20          # (1/20!) < 5e-19: the truncation error at |s L| = 1
_MAX_ORDER = 31             # highest order of the divisor table below
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, _SERIES_TERMS)])
# the series' divisors j! (k + j + 1) of every order k, exact in float64, the
# terms' axis reversed, as complex numbers (they divide as numpy's cast would)
_DIVISORS_C = (_FACTORIALS * (np.arange(_MAX_ORDER + 1.0)[:, None]
                              + np.arange(_SERIES_TERMS) + 1.0))[:, ::-1].astype(complex)


def exp_moments(k_max, s, L):
    """phi_k(s) = integral_0^L  a^k e^{s a} da  for the orders k = 0..k_max,
    on a leading axis of length k_max + 1 (k_max <= 31).

    ``s`` and ``L`` broadcast against each other.  For |s L| < 1 the power
    series  L^{k+1} sum_j (sL)^j / (j! (k+j+1))  is used, every order from
    one table of powers of sL; elsewhere the upward recurrence
    phi_j = (L^j e^{sL} - j phi_{j-1}) / s  from  phi_0 = (e^{sL} - 1) / s,
    which passes through every lower order, from one exp per point.  The
    recurrence amplifies rounding by about prod_j (1 + (j+1)/|sL|), at most
    60 for k <= 3, so orders above 3 are meant for the series region.  Each
    point's values are the same whatever the other points of the call, and
    whether L is a scalar or an array.
    """
    if not 0 <= k_max <= _MAX_ORDER:
        raise ValueError(f"order k_max must be in [0, {_MAX_ORDER}], got {k_max}")
    s = np.asarray(s, dtype=complex)
    x = s * L
    small = abs(x) < _SERIES_RADIUS
    n_small = np.count_nonzero(small)
    if n_small == small.size:
        return _series(k_max, x, L)
    if not n_small:
        return _recurrence(k_max, s, x, L)
    # both regions: each region's points of s, x and an array L
    if s.shape != x.shape:
        s = np.broadcast_to(s, x.shape)
    big = ~small
    L_small = L_big = L
    if getattr(L, "ndim", 0):
        L = np.broadcast_to(L, x.shape)
        L_small, L_big = L[small], L[big]
    out = np.empty((k_max + 1,) + x.shape, dtype=complex)
    out[:, small] = _series(k_max, x[small], L_small)
    out[:, big] = _recurrence(k_max, s[big], x[big], L_big)
    return out


def _series(k_max, x, L):
    """The power series of every order at x = s L (|x| < 1), orders on a
    leading axis, C-contiguous, L broadcasting against x."""
    powers = np.empty(x.shape + (_SERIES_TERMS,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = x[..., None]
    # the terms from the smallest, summed in sequence (a pairwise sum loses
    # 2x), orders on the next-to-last axis
    terms = np.multiply.accumulate(powers, axis=-1)[..., None, ::-1] / _DIVISORS_C[:k_max + 1]
    # times L^{k+1} as running products, orders on the last axis: a power's
    # rounding would depend on how numpy's loop meets the exponent's layout
    L_powers = [L]
    for _ in range(k_max):
        L_powers.append(L_powers[-1] * L)
    L_powers = np.array(L_powers, dtype=complex)
    out = np.add.accumulate(terms, axis=-1)[..., -1] * L_powers.transpose(
        (*range(1, L_powers.ndim), 0))
    # C-contiguous, so that sums over the points' last axis keep their order
    return np.ascontiguousarray(out.transpose((out.ndim - 1, *range(out.ndim - 1))))


def _recurrence(k_max, s, x, L):
    """The upward recurrence of every order from one exp per point."""
    e = np.exp(x)
    phi = [(e - 1.0) / s]
    power = L
    for j in range(1, k_max + 1):
        phi.append((power * e - j * phi[-1]) / s)
        power = power * L
    return np.array(phi)


def cosh_moment(k, eta, c3: float, delta: float):
    """I_k(eta) = integral_{-d/2}^{d/2} cosh(eta a) |a|^k e^{-c3 |a|} da."""
    L = delta / 2.0
    eta = np.asarray(eta, dtype=complex)
    return exp_moments(k, eta - c3, L)[k] + exp_moments(k, -eta - c3, L)[k]


def aux_A(m, eta: complex) -> complex:
    """A(eta) = 1 + lam * integral of cosh(eta a) |a| e^{-c3|a|} over the
    half-support interval [-Delta/2, Delta/2].  Even in eta."""
    if m.c2 == 0.0:
        return 1.0 + 0.0j
    return 1.0 + m.lam() * cosh_moment(1, eta, m.c3, m.delta)


def aux_B(m, eta: complex) -> complex:
    """B(eta) = eta^2 + 2 lam - c3^2 - 2 lam c3 * integral of
    cosh(eta a) e^{-c3|a|}.  Even in eta."""
    lam, c3 = m.lam(), m.c3
    out = eta * eta + 2.0 * lam - c3 ** 2
    if m.c2 != 0.0 and c3 != 0.0:
        out -= 2.0 * lam * c3 * cosh_moment(0, eta, c3, m.delta)
    return out


def sinh_quot_scaled(s, L, shift=None):
    """e^{-shift L} sinh(s L) / s (L e^{-shift L} at s = 0) by the kernels'
    own ``special._sinh_quot``, a scalar s as a 1-element array."""
    out = _sinh_quot(np.array(s, dtype=complex, ndmin=1, copy=None), L, shift)
    return out if np.ndim(s) or np.ndim(L) or np.ndim(shift) else complex(out[0])


def sinh_quot(s, L):
    """sinh(s L) / s, with the value L at s = 0."""
    return sinh_quot_scaled(s, L)


def sin_quot(s, L):
    """sin(s L) / s = sinh(i s L) / (i s), with the value L at s = 0."""
    return sinh_quot_scaled(1j * np.asarray(s), L)


def aux_C(m, eta: complex, z: complex) -> complex:
    """C(eta, z) = integral of cosh(eta t) e^{2 pi i z t} over
    [-Delta/2, Delta/2], written as two sinh quotients so the removable
    points z = +/- i eta / (2 pi) need no special casing."""
    L = m.delta / 2.0
    s = 2j * np.pi * z
    return sinh_quot(eta + s, L) + sinh_quot(-eta + s, L)
