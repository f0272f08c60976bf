"""Stable evaluation of the sinc-type quotients with removable zeros that
every closed-form kernel value sums (``kernels._row_sum``; the diagonal
K(0, 0) is read from the solves instead): complex arrays,
with ``L`` and ``shift`` broadcasting against them, so that one call
evaluates a batch of measures, and one expm1 formula for every s.  (The
c3 > 0 section's boundary system needs no moment integral.)
"""

from __future__ import annotations

import numpy as np

# subtracted from y = -2 s L (Re y <= 0), so that y is never 0 nor subnormal;
# it moves no bit of y where |y| > 1e-274, and expm1(y) / y rounds to 1 below
_TINY = np.array(1e-290)


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
    y = -2.0 * L * s - _TINY    # numpy's complex division by a subnormal y overflows
    exprel = np.expm1(y)
    exprel /= y
    return L * np.exp((s if shift is None else s - shift) * L) * exprel


def sinc_band(delta: float, x, center=0.0):
    """sin(pi delta (x - center)) / (pi (x - center)) for real or complex x.

    The reproducing kernel of the classical band-limited space with
    transform support [-delta/2, delta/2]; value delta at the center.
    """
    arg = np.pi * delta * (np.asarray(x) - center)
    return delta * np.sinc(arg / np.pi)
