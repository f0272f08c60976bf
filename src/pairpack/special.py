"""Stable evaluation of the small set of special functions the closed forms
are built from: moment integrals of complex exponentials over [0, L] and
sinc-type quotients with removable zeros.

All functions accept complex scalars or arrays, and ``L`` (and ``shift``) may
be arrays that broadcast against the arguments: one call then evaluates a
batch of measures.  The moment integrals switch to a truncated power series
where |s| L < 1, summed from one table of powers of s L; the switch radius
keeps both branches well inside 1e-13 relative accuracy.  The sinh and sin
quotients need no switch: one expm1 formula holds for every s.
"""

from __future__ import annotations

import numpy as np

_SERIES_RADIUS = 1.0
_SERIES_TERMS = 20          # (1/20!) < 5e-19: the truncation error at |s L| = 1
_J = np.arange(_SERIES_TERMS)
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, _SERIES_TERMS)])


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
    # broadcast by adding zeros, at a fifth of np.broadcast_arrays' cost
    s, L = np.asarray(s, dtype=complex), np.asarray(L, dtype=float)
    zero = np.zeros(np.broadcast(k, s, L).shape)
    k, s, L = k + zero, s + zero, L + zero
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


def sinh_quot_scaled(s, L, shift):
    """e^{-shift L} sinh(s L) / s for every complex s (L e^{-shift L} at s = 0).

    The quotient is even in s: s is reflected into Re s >= 0 and evaluated as
    L e^{(s - shift) L} expm1(y) / y, y = -2 s L, which neither cancels near
    s = 0 nor overflows while (|Re s| - shift) L < 709, so shift L may run
    into the thousands.  Scalars are evaluated as 1-element arrays, so a
    scalar call and a batched one round alike.
    """
    scalar = np.ndim(s) == 0 and np.ndim(L) == 0 and np.ndim(shift) == 0
    s = np.array(s, dtype=complex, ndmin=1, copy=None)
    s = s * np.copysign(1.0, s.real)
    y = -2.0 * L * s
    exprel = np.divide(np.expm1(y), y, out=np.ones_like(y), where=y != 0.0)
    out = L * np.exp((s - shift) * L) * exprel
    return complex(out[0]) if scalar else out


def sinh_quot(s, L):
    """sinh(s L) / s, with the value L at s = 0."""
    return sinh_quot_scaled(s, L, 0.0)


def sin_quot(s, L):
    """sin(s L) / s = sinh(i s L) / (i s), with the value L at s = 0."""
    return sinh_quot_scaled(1j * np.asarray(s, dtype=complex), L, 0.0)


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
