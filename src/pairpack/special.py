"""Stable evaluation of the small set of special functions the closed forms
are built from: moment integrals of complex exponentials over [0, L] and
sinc-type quotients with removable zeros.

All functions accept complex scalars or arrays.  Near the cancellation-prone
region |s| L < 1 they switch to truncated power series; the switch radius
keeps both branches well inside 1e-13 relative accuracy.
"""

from __future__ import annotations

import numpy as np

_SERIES_RADIUS = 1.0
_SERIES_TERMS = 20          # (1/20!) < 5e-19: the truncation error at |s L| = 1
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, _SERIES_TERMS)])


def _as_complex(s):
    arr = np.asarray(s, dtype=complex)
    return arr, (arr.shape == ())


def exp_moment(k, s, L: float):
    """phi_k(s) = integral_0^L  a^k e^{s a} da  for any integer order k >= 0.

    ``k`` and ``s`` broadcast against each other.  For |s L| < 1 the power
    series  L^{k+1} sum_j (sL)^j / (j! (k+j+1))  is used; elsewhere the upward
    recurrence  phi_j = (L^j e^{sL} - j phi_{j-1}) / s  from
    phi_0 = (e^{sL} - 1) / s.  The recurrence amplifies rounding by about
    prod_j (1 + (j+1)/|sL|), at most 60 for k <= 3, so orders above 3 are
    meant for the series region.
    """
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError("order k must be >= 0")
    k, s = np.broadcast_arrays(k, np.asarray(s, dtype=complex))
    scalar = s.shape == ()
    k, s = np.atleast_1d(k), np.atleast_1d(s)
    x = s * L
    small = np.abs(x) < _SERIES_RADIUS
    out = np.empty(s.shape, dtype=complex)

    if small.any():
        ks, xs = k[small], x[small]
        # Horner in sL over the coefficients 1 / (j! (k+j+1))
        j = np.arange(_SERIES_TERMS)[:, None]
        coef = 1.0 / (_FACTORIALS[:, None] * (ks + j + 1))
        total = coef[-1].astype(complex)
        for c in coef[-2::-1]:
            total = total * xs + c
        out[small] = total * float(L) ** (ks + 1)

    big = ~small
    if big.any():
        kb, sb = k[big], s[big]
        e = np.exp(x[big])
        phi = (e - 1.0) / sb
        val = phi.copy()
        for j in range(1, int(kb.max()) + 1):
            phi = (L ** j * e - j * phi) / sb
            val = np.where(kb == j, phi, val)
        out[big] = val
    return complex(out[0]) if scalar else out


def cosh_moment(k, eta, c3: float, delta: float):
    """I_k(eta) = integral_{-d/2}^{d/2} cosh(eta a) |a|^k e^{-c3 |a|} da."""
    L = delta / 2.0
    eta = np.asarray(eta, dtype=complex)
    return exp_moment(k, eta - c3, L) + exp_moment(k, -eta - c3, L)


def _series_quot(s, L: float, sign: float):
    """sum_j (sign)^j (sL)^{2j} L / (2j+1)!  (sin for sign=-1, sinh for +1)."""
    total = np.zeros_like(s)
    term = np.full_like(s, L)
    x2 = (s * L) ** 2
    for j in range(_SERIES_TERMS // 2):
        total += term
        term *= sign * x2 / ((2 * j + 2) * (2 * j + 3))
    return total


def sin_quot(s, L: float):
    """sin(s L) / s with the removable zero at s = 0 filled by series."""
    s, scalar = _as_complex(s)
    small = np.abs(s) * L < _SERIES_RADIUS
    out = np.empty_like(s)
    if small.any():
        out[small] = _series_quot(s[small], L, -1.0)
    if (~small).any():
        out[~small] = np.sin(s[~small] * L) / s[~small]
    return complex(out) if scalar else out


def sinh_quot(s, L: float):
    """sinh(s L) / s with the removable zero at s = 0 filled by series."""
    s, scalar = _as_complex(s)
    small = np.abs(s) * L < _SERIES_RADIUS
    out = np.empty_like(s)
    if small.any():
        out[small] = _series_quot(s[small], L, 1.0)
    if (~small).any():
        out[~small] = np.sinh(s[~small] * L) / s[~small]
    return complex(out) if scalar else out


def sinh_quot_scaled(s, L: float, shift: float):
    """e^{-shift L} sinh(s L) / s, stable when |Re s| is close to ``shift``
    (both exponentials then have nonpositive real exponents of moderate
    size, so nothing overflows even for shift L in the hundreds)."""
    s, scalar = _as_complex(s)
    small = np.abs(s) * L < _SERIES_RADIUS
    out = np.empty_like(s)
    damp = np.exp(-shift * L) if shift * L < 700.0 else 0.0
    if small.any():
        out[small] = damp * _series_quot(s[small], L, 1.0)
    big = ~small
    if big.any():
        sb = s[big]
        out[big] = (np.exp((sb - shift) * L) - np.exp(-(sb + shift) * L)) / (2.0 * sb)
    return complex(out) if scalar else out


def cosh_scaled(s, L: float, shift: float):
    """e^{-shift L} cosh(s L), same stabilization as sinh_quot_scaled."""
    s = np.asarray(s, dtype=complex)
    return (np.exp((s - shift) * L) + np.exp(-(s + shift) * L)) / 2.0


def sinc_band(delta: float, x, center=0.0):
    """sin(pi delta (x - center)) / (pi (x - center)) for real array x.

    The reproducing kernel of the classical band-limited space with
    transform support [-delta/2, delta/2]; value delta at the center.
    """
    arg = np.pi * delta * (np.asarray(x, dtype=float) - center)
    return delta * np.sinc(arg / np.pi)


def sinc_band_c(delta: float, z, center=0.0):
    """Complex-argument version of :func:`sinc_band`:
    sin(pi delta (z - center)) / (pi (z - center)) = sin_quot(pi (z - center), delta)."""
    d = np.asarray(z, dtype=complex) - complex(center)
    return sin_quot(np.pi * d, delta)
