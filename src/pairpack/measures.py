"""The measure family  d nu(a) = c1 delta(a) + c2 |a| e^{-c3 |a|} da  on
[-Delta, Delta]: parameter validation, the closed-form Fourier transform
nu_hat, and the certified two-sided bounds on nu_hat that make the weighted
norm equivalent to the plain L2 norm.

Admissibility gate: sigma = (c2/c1) Delta^2 <= 5/3 by default.  The slightly
wider range sigma < 1/sup G (``EXTENDED_SIGMA``, about 1.70483) is available
behind an explicit flag; sup G is the proven float literal ``SUP_G``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegime, NotAdmissible

ADMISSIBLE_SIGMA = 5.0 / 3.0
# sup_t G(0, t) (g_surface), attained at the root t* in (pi, 2 pi) of h(t) =
# t^2 cos t + 2 - 2 cos t - 2 t sin t (G' = -2 h / t^3); the max of G over
# the quadrant sits on sigma = 0.  SUP_G is the smallest double >= sup G
# (rounded up) and SUP_G_ARGMAX the double nearest t* (rounded to nearest).
# EXTENDED_SIGMA, the widest sigma for which the lower bound on nu_hat stays
# positive, is 1 / SUP_G, below the true 1 / sup G = 1.70483135280857647
# (rounded down).  The interval enclosures of
# tests/test_constants.py::test_literal_is_proven prove all three.
SUP_G = 0.5865682833393334
SUP_G_ARGMAX = 4.085573885476822
EXTENDED_SIGMA = 1.0 / SUP_G
_FIELDS = ("c1", "c2", "c3", "delta")
# per field, the least value a finite one may take: c1 and delta > 0 (the
# least positive double), c2 and c3 >= 0
_SIGN_FLOOR = np.array([5e-324, 0.0, 0.0, 5e-324])


@dataclass(frozen=True)
class Measure:
    """Parameters of one member of the measure family.

    c1    : mass of the Dirac atom at 0 (> 0)
    c2    : coefficient of the density |a| e^{-c3|a|} (>= 0)
    c3    : exponential decay rate (>= 0)
    delta : half-length of the support interval (> 0)

    The parameters may also be arrays that broadcast together (they are
    stored broadcast): the Measure is then a batch, one measure per element,
    which the closed forms ``quartic_roots``, ``k0_transform_solution`` (one
    boundary system per measure, in one pass), ``script_L``, ``kernel_k00``,
    ``average_bounds`` and ``figure1_data`` evaluate in one call; a measure's
    values are the same alone and in a batch.  A batch is not hashable; the
    functions that take one measure, the section ``kernel_k0z_grid`` among
    them, refuse it (``require_single``).
    """

    c1: float
    c2: float
    c3: float
    delta: float

    def __post_init__(self):
        values = (self.c1, self.c2, self.c3, self.delta)
        if any(isinstance(v, np.ndarray) for v in values):
            shape = np.broadcast_shapes(*(np.shape(v) for v in values))
            if shape:
                self._validate_batch(shape, values)
                return
            values = [float(v) for v in values]
            for name, value in zip(_FIELDS, values):
                object.__setattr__(self, name, value)
        c1, c2, c3, delta = values
        for name, rule, ok in [(n, "finite", math.isfinite(v))
                               for n, v in zip(_FIELDS, values)] + [
                ("c1", "> 0", c1 > 0), ("c2", ">= 0", c2 >= 0),
                ("c3", ">= 0", c3 >= 0), ("delta", "> 0", delta > 0)]:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    def _validate_batch(self, shape, values) -> None:
        """Store a batch's fields as rows of one (4,) + shape float array, with
        one finiteness test and one sign test over all of it; a failure names
        the first bad field (finiteness first), its first bad value and how
        many there are, in the order the single-measure checks run."""
        stacked = np.empty((4,) + shape)
        for row, value in zip(stacked, values):
            row[...] = value
        for name, row in zip(_FIELDS, stacked):
            object.__setattr__(self, name, row)
        finite = np.isfinite(stacked)
        if not finite.all():
            self._refuse(finite, ["finite"] * 4)
        signs = stacked >= _SIGN_FLOOR.reshape((4,) + (1,) * len(shape))
        if not signs.all():
            self._refuse(signs, ["> 0", ">= 0", ">= 0", "> 0"])

    def _refuse(self, ok, rules) -> None:
        for name, rule, row_ok in zip(_FIELDS, rules, ok):
            if not row_ok.all():            # its first bad value and how many, not the array
                value = getattr(self, name)
                raise ValueError(f"{name} must be {rule}, got {value[~row_ok][0]} "
                                 f"({np.count_nonzero(~row_ok)} of {value.size} values)")

    def sigma(self) -> float:
        """(c2/c1) Delta^2, the quantity every admissibility test is stated in."""
        return (self.c2 / self.c1) * (self.delta * self.delta)

    def lam(self) -> float:
        """c2/c1, the density-to-atom ratio the kernel formulas use."""
        return self.c2 / self.c1

    def is_admissible(self) -> bool:
        return self.sigma() <= ADMISSIBLE_SIGMA

    def is_extended_admissible(self) -> bool:
        return self.sigma() < EXTENDED_SIGMA

    def require_admissible(self, extended: bool = False) -> None:
        ok = self.is_extended_admissible() if extended else self.is_admissible()
        if ok is True or np.all(ok):    # a plain bool for one measure
            return
        sigma = np.max(self.sigma())     # the worst measure of a batch
        if extended:
            raise NotAdmissible(f"sigma = {sigma:.6g} >= {EXTENDED_SIGMA:.6g} "
                                "(extended threshold)")
        raise NotAdmissible(f"sigma = {sigma:.6g} > 5/3; pass extended=True to use the "
                            f"wider gate sigma < {EXTENDED_SIGMA:.6g}")

    def require_single(self) -> None:
        """Raise InvalidRegime if this Measure is a batch."""
        if isinstance(self.c1, np.ndarray):
            raise InvalidRegime(f"expected one measure, got a batch of shape {self.c1.shape}")


@dataclass(frozen=True)
class NormEquivalence:
    """Certified constants with a_sq <= nu_hat(x) <= b_sq on the real line."""

    a_sq: float
    b_sq: float


def nu_hat(m: Measure, x):
    """Fourier transform of the measure at frequency x (real, even in x),
    c1 - c2 Delta^2 G(c3 Delta, 2 pi Delta x).  Accepts scalars or arrays."""
    t = 2.0 * np.pi * m.delta * np.asarray(x, dtype=float)
    return m.c1 - m.c2 * m.delta ** 2 * g_surface(m.c3 * m.delta, t)


def g_surface(sigma_var, t):
    """The surface G(sigma, t) controlling nu_hat from below:

        nu_hat(x) = c2 Delta^2 ( c1/(c2 Delta^2) - G(c3 Delta, 2 pi Delta x) ).

    Continuous at t = 0 and at the origin, where the limit is -1; G(sigma, 0)
    is nonpositive for all sigma >= 0.  Accepts scalars or arrays; near the
    origin, |sigma - i t| < 1/4, the closed form cancels and a power series
    is used.
    """
    s, t = np.asarray(sigma_var, dtype=float), np.asarray(t, dtype=float)
    if np.any(s < 0):
        raise ValueError("sigma_var must be >= 0")
    tt = t * t
    r2 = s * s + tt
    d = s * s - tt
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = d - np.exp(-s) * ((d + s * r2) * np.cos(t)
                                    - t * (2.0 * s + r2) * np.sin(t))
        out = np.asarray(-2.0 * bracket / (r2 * r2))
    small = r2 < 0.0625
    if small.any():
        # G = 2 Re sum_{k>=0} -(k+1)/(k+2)! z^k  with z = -sigma + i t
        z = (-np.broadcast_to(s, small.shape)[small]
             + 1j * np.broadcast_to(t, small.shape)[small])
        total = np.zeros(z.shape, dtype=complex)
        zk = np.ones(z.shape, dtype=complex)
        fact = 2.0       # (k+2)!
        for k in range(16):
            total -= (k + 1) / fact * zk
            zk *= z
            fact *= (k + 3)
        out[small] = 2.0 * total.real
    return out[()]


def norm_bounds(m: Measure, extended: bool = False) -> NormEquivalence:
    """Certified constants bracketing nu_hat on the real line.

    b_sq is the total-mass bound c1 + c2 Delta^2.  a_sq comes from the
    G-surface supremum; it is positive exactly on the admissible range.
    """
    m.require_single()
    m.require_admissible(extended=extended)
    b_sq = m.c1 + m.c2 * m.delta ** 2
    if m.c2 == 0.0:
        return NormEquivalence(a_sq=m.c1, b_sq=b_sq)
    a_sq = m.c2 * m.delta ** 2 * (m.c1 / (m.c2 * m.delta ** 2) - SUP_G)
    return NormEquivalence(a_sq=a_sq, b_sq=b_sq)
