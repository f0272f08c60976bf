"""Stable evaluation of the small set of special functions the closed forms
are built from: moment integrals of complex exponentials over [0, L] and
sinc-type quotients with removable zeros.

All functions accept complex scalars or arrays, and ``L`` (and ``shift``) may
be arrays that broadcast against the arguments: one call then evaluates a
batch of measures.  One moment call gives every order up to k_max: a
truncated power series where |s| L < 1, summed from one table of powers of
s L, and elsewhere one exp per point and the upward recurrence; the switch
radius keeps both branches well inside 1e-13 relative accuracy.  The sinh
and sin quotients need no switch: one expm1 formula holds for every s.
"""

from __future__ import annotations

import numpy as np

_SERIES_RADIUS = 1.0
_SERIES_TERMS = 20          # (1/20!) < 5e-19: the truncation error at |s L| = 1
_MAX_ORDER = 31             # highest order of the divisor table below
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, _SERIES_TERMS)])
# the series' divisors j! (k + j + 1) of every order k, exact in float64
_DIVISORS = _FACTORIALS * (np.arange(_MAX_ORDER + 1.0)[:, None, None]
                           + np.arange(_SERIES_TERMS) + 1.0)


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
    point's values are the same whatever the other points of the call.
    """
    if not 0 <= k_max <= _MAX_ORDER:
        raise ValueError(f"order k_max must be in [0, {_MAX_ORDER}], got {k_max}")
    # broadcast by adding zeros, at a fifth of np.broadcast_arrays' cost
    s = np.asarray(s, dtype=complex)
    zero = np.zeros(np.broadcast(s, L).shape)
    s, L = s + zero, L + zero
    x = s * L
    small = np.abs(x) < _SERIES_RADIUS
    out = np.empty((k_max + 1,) + x.shape, dtype=complex)

    n_small = np.count_nonzero(small)
    if n_small:
        powers = np.ones((n_small, _SERIES_TERMS), dtype=complex)
        powers[:, 1:] = x[small, None]
        terms = np.multiply.accumulate(powers, axis=1) / _DIVISORS[:k_max + 1]
        # summed in sequence from the smallest term (a pairwise sum loses 2x),
        # times L^{k+1} as running products: a power's rounding would depend
        # on how numpy's loop meets the exponent's layout
        out[:, small] = (np.cumsum(terms[..., ::-1], axis=-1)[..., -1]
                         * np.multiply.accumulate(np.array([L[small]] * (k_max + 1))))

    if n_small < small.size:
        big = ~small
        sb, Lb = s[big], L[big]
        e = np.exp(x[big])
        out[0, big] = phi = (e - 1.0) / sb
        for j in range(1, k_max + 1):
            out[j, big] = phi = (Lb ** j * e - j * phi) / sb
    return out


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
