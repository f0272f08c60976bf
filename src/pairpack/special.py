"""Stable evaluation of the small set of special functions the closed forms
are built from: moment integrals of complex exponentials over [0, L] and
sinc-type quotients with removable zeros.

All functions accept complex scalars or arrays, and ``L`` (and ``shift``) may
be arrays that broadcast against the arguments: one call then evaluates a
batch of measures.  Near the cancellation-prone region |s| L < 1 they switch
to truncated power series, summed from one table of powers of s L; the
switch radius keeps both branches well inside 1e-13 relative accuracy.
"""

from __future__ import annotations

import numpy as np

_SERIES_RADIUS = 1.0
_SERIES_TERMS = 20          # (1/20!) < 5e-19: the truncation error at |s L| = 1
_J = np.arange(_SERIES_TERMS)
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, _SERIES_TERMS)])
# ratios (2j+2)(2j+3) of consecutive odd factorials: the series of sin(sL)/s
# and sinh(sL)/s to the term (sL)^18 / 19!
_ODD_STEPS = np.array([(2.0 * j + 2) * (2 * j + 3) for j in range(_SERIES_TERMS // 2 - 1)])


def exp_moment(k, s, L):
    """phi_k(s) = integral_0^L  a^k e^{s a} da  for any integer order k >= 0.

    ``k``, ``s`` and ``L`` broadcast against each other.  For |s L| < 1 the
    power series  L^{k+1} sum_j (sL)^j / (j! (k+j+1))  is used, from one
    table of powers of sL times those coefficients; elsewhere the
    upward recurrence  phi_j = (L^j e^{sL} - j phi_{j-1}) / s  from
    phi_0 = (e^{sL} - 1) / s.  The recurrence amplifies rounding by about
    prod_j (1 + (j+1)/|sL|), at most 60 for k <= 3, so orders above 3 are
    meant for the series region.
    """
    k = np.asarray(k)
    if (k < 0).any():
        raise ValueError("order k must be >= 0")
    k, s, L = np.broadcast_arrays(k, np.asarray(s, dtype=complex), np.asarray(L, dtype=float))
    x = s * L
    small = np.abs(x) < _SERIES_RADIUS
    out = np.empty(x.shape, dtype=complex)

    if small.any():
        ks, powers = k[small], np.ones((small.sum(), _SERIES_TERMS), dtype=complex)
        powers[:, 1:] = x[small, None]
        terms = np.cumprod(powers, axis=1) / (_FACTORIALS * (ks[:, None] + _J + 1))
        # summed in sequence from the smallest term (a pairwise sum loses 2x)
        out[small] = np.cumsum(terms[:, ::-1], axis=-1)[:, -1] * L[small] ** (ks + 1)

    big = ~small
    if big.any():
        kb, sb, Lb = k[big], s[big], L[big]
        e = np.exp(x[big])
        phi = (e - 1.0) / sb
        val = phi.copy()
        for j in range(1, int(kb.max()) + 1):
            phi = (Lb ** j * e - j * phi) / sb
            val = np.where(kb == j, phi, val)
        out[big] = val
    return complex(out) if out.ndim == 0 else out


def _series_quot(s, L, sign: float):
    """sum_j (sign)^j (sL)^{2j} L / (2j+1)!  (sin for sign=-1, sinh for +1):
    the terms are one cumulative product of L and the ratios
    sign (sL)^2 / ((2j+2)(2j+3)), summed in sequence."""
    ratios = np.empty(s.shape + (len(_ODD_STEPS) + 1,), dtype=complex)
    ratios[..., 0] = L
    ratios[..., 1:] = (sign * (s * L) ** 2)[..., None] / _ODD_STEPS
    return np.cumsum(np.cumprod(ratios, axis=-1), axis=-1)[..., -1]


def _quotient(s, L, shift, sign: float, direct):
    """e^{-shift L} sin(sL)/s (sign -1) or sinh(sL)/s (sign +1): the series
    where |s| L < 1, ``direct(s, L, shift)`` elsewhere."""
    s, L, shift = (np.asarray(s, dtype=complex), np.asarray(L, dtype=float),
                   np.asarray(shift, dtype=float))
    if L.ndim or shift.ndim:
        s, L, shift = np.broadcast_arrays(s, L, shift)

    def at(a, mask):
        return a[mask] if a.ndim else a
    small = np.abs(s) * L < _SERIES_RADIUS
    out = np.empty(s.shape, dtype=complex)
    if small.any():
        Ls = at(L, small)
        out[small] = np.exp(-at(shift, small) * Ls) * _series_quot(s[small], Ls, sign)
    big = ~small
    if big.any():
        out[big] = direct(s[big], at(L, big), at(shift, big))
    return complex(out) if out.ndim == 0 else out


def sin_quot(s, L):
    """sin(s L) / s with the removable zero at s = 0 filled by series."""
    return _quotient(s, L, 0.0, -1.0, lambda s, L, _: np.sin(s * L) / s)


def sinh_quot(s, L):
    """sinh(s L) / s with the removable zero at s = 0 filled by series."""
    return _quotient(s, L, 0.0, 1.0, lambda s, L, _: np.sinh(s * L) / s)


def sinh_quot_scaled(s, L, shift):
    """e^{-shift L} sinh(s L) / s, stable when |Re s| is close to ``shift``
    (both exponentials then have nonpositive real exponents of moderate
    size, so nothing overflows even for shift L in the hundreds)."""
    return _quotient(s, L, shift, 1.0, lambda s, L, c: (np.exp((s - c) * L)
                                                         - np.exp(-(s + c) * L)) / (2.0 * s))


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
