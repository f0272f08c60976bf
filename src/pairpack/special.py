"""Stable evaluation of the small set of special functions the closed forms
are built from: moment integrals of complex exponentials over [0, L] and
sinc-type quotients with removable zeros.

The functions take complex arrays (``exp_moments`` and ``sinc_band`` scalars
too), and ``L`` (and ``shift``) may be arrays that broadcast against the
arguments: one call then evaluates a batch of measures.  One moment call
gives every order up to k_max: a truncated power series where |s| L < 1,
summed from one table of powers of s L, and elsewhere one exp per point and
the upward recurrence; the switch radius keeps both branches well inside
1e-13 relative accuracy.  The sinh quotient, which every closed-form kernel
value sums (``kernels._row_sum``), needs no switch: one expm1 formula holds
for every s.
"""

from __future__ import annotations

import numpy as np

# constants as 0-d arrays, which a ufunc takes without a Python scalar's
# conversion
_SERIES_RADIUS = np.array(1.0)
_TINY = np.array(1e-300)
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


def _sinh_quot(s, L, shift=None):
    """e^{-shift L} sinh(s L) / s on an array s, for every complex s (L
    e^{-shift L} at s = 0); L and shift broadcast against s, and shift None
    is shift 0, whose subtraction would change no bit.

    The quotient is even in s: s is reflected into Re s >= 0 and evaluated as
    L e^{(s - shift) L} expm1(y) / y, y = -2 s L, which neither cancels near
    s = 0 nor overflows while (|Re s| - shift) L < 709, so shift L may run
    into the thousands.  Each point's value is the same whatever the other
    points of the call.
    """
    s = s * np.copysign(1.0, s.real)
    y = -2.0 * L * s
    exprel = np.expm1(y)
    big = abs(y) > _TINY    # else expm1(y) / y = 1, and dividing by a subnormal overflows
    np.divide(exprel, y, out=exprel, where=big)
    exprel[~big] = 1.0
    return L * np.exp((s if shift is None else s - shift) * L) * exprel


def sinc_band(delta: float, x, center=0.0):
    """sin(pi delta (x - center)) / (pi (x - center)) for real or complex x.

    The reproducing kernel of the classical band-limited space with
    transform support [-delta/2, delta/2]; value delta at the center.
    """
    arg = np.pi * delta * (np.asarray(x) - center)
    return delta * np.sinc(arg / np.pi)
