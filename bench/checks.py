"""Per-op output checks.

Each check raises :class:`CheckFailed` when the value it is given is wrong,
so a failed check fails the op.  The tolerances are the ones the package's
own ``verify`` suites and unit tests apply to the same comparisons;
``selftest.py`` plants a wrong value into every check and confirms that it
is rejected.
"""

from __future__ import annotations

import numpy as np

# closed form vs Nystrom oracle, as in pairpack.verify
TOL_K0Z_ORACLE = 1e-7          # k0z_vs_oracle_c3_*
TOL_C3ZERO_ORACLE = 1e-9       # k00_vs_oracle_c3zero
TOL_U_CLOSED_FORM = 1e-8       # nystrom_vs_closed_form
TOL_ODE_RESIDUAL = 1e-6        # ode_residual_c3pos / ode_residual_c3zero;
                               # reported against, not gated (OracleXcheck)
TOL_SYSTEM_RESIDUAL = 1e-12    # linear_system_residual
# closed-form self-consistency, as in pairpack.verify and the unit tests
TOL_EVEN = 1e-12               # k0z_even, relative to max(1, |K|)
TOL_REAL_AXIS = 1e-12          # diagonal_positive: Im K(0, x) on the real axis
TOL_DIVISOR_PURE = 1e-10       # script_L_case_signs
TOL_GRID_DIAG = 1e-12          # test_z_zero_equals_k00, relative to max(1, K)
TOL_FF_NONNEG = 1e-10          # formfactor_nonnegative
TOL_FF_REFERENCE = 1e-9        # windowed_average_identity, relative to max(1, F)


class CheckFailed(Exception):
    """An op produced a value that fails one of its checks."""

    def __init__(self, check: str, detail: str):
        self.check = check
        super().__init__(f"{check}: {detail}")


def _require(ok, check: str, detail: str) -> None:
    if not bool(ok):
        raise CheckFailed(check, detail)


def k00_positive(k00: float) -> None:
    """K(0,0) is a squared norm of the point evaluation: finite and > 0."""
    _require(np.isfinite(k00) and k00 > 0.0, "k00_positive", f"K00={k00!r}")


def grid_matches_diagonal(k_grid_at0: complex, k00: float) -> None:
    """The vectorized section at z = 0 equals the diagonal route K(0,0)."""
    gap = abs(complex(k_grid_at0) - k00)
    _require(gap <= TOL_GRID_DIAG * max(1.0, abs(k00)), "grid_matches_diagonal",
             f"|K_grid(0) - K00|={gap:.3e}")


def section_even(k_grid: np.ndarray) -> None:
    """K(0, z) is even; ``k_grid`` holds values on a grid that is symmetric
    about 0, so entry i and entry -1-i belong to z and -z."""
    k = np.asarray(k_grid)
    _require(np.all(np.isfinite(k)), "section_even", "non-finite K(0,z)")
    gap = float(np.max(np.abs(k - k[::-1])))
    scale = max(1.0, float(np.max(np.abs(k))))
    _require(gap <= TOL_EVEN * scale, "section_even", f"max|K(z)-K(-z)|={gap:.3e}")


def section_real(k_grid: np.ndarray) -> None:
    """K(0, x) is real for real x."""
    k = np.asarray(k_grid)
    worst = float(np.max(np.abs(k.imag) / np.maximum(1.0, np.abs(k.real))))
    _require(worst <= TOL_REAL_AXIS, "section_real", f"max rel Im={worst:.3e}")


def divisor_sign(purely_imaginary_roots: bool, divisor: complex) -> None:
    """The paper's sign pattern of A(eta1)B(eta2) - B(eta1)A(eta2): real and
    negative for purely imaginary roots, purely imaginary with negative
    imaginary part for roots in conjugate quadrants."""
    d = complex(divisor)
    mag = abs(d)
    if purely_imaginary_roots:
        ok = d.real < 0.0 and abs(d.imag) <= TOL_DIVISOR_PURE * mag
    else:
        ok = d.imag < 0.0 and abs(d.real) <= TOL_DIVISOR_PURE * mag
    case = "purely_imaginary" if purely_imaginary_roots else "conjugate_quadrant"
    _require(ok, "divisor_sign", f"{case} roots, divisor={d!r}")


def bounds_ordered(lower: float, upper: float) -> None:
    """A figure-1 row: the universal floor 1/2 <= lower <= upper."""
    _require(np.isfinite(lower) and np.isfinite(upper) and 0.5 <= lower <= upper,
             "bounds_ordered", f"lower={lower!r} upper={upper!r}")


def within(check: str, measured: float, tol: float) -> None:
    """A closed-vs-oracle gap or a residual is finite and within ``tol``."""
    _require(np.isfinite(measured) and measured <= tol, check,
             f"measured={measured:.3e} tol={tol:.1e}")


def formfactor_nonnegative(value: float) -> None:
    """The form factor is nonnegative, hence so is any average of it."""
    _require(np.isfinite(value) and value >= -TOL_FF_NONNEG,
             "formfactor_nonnegative", f"value={value!r}")


def formfactor_matches_reference(value: float, reference: float) -> None:
    """The windowed average equals the benchmark's dense-matrix reference."""
    gap = abs(value - reference)
    _require(gap <= TOL_FF_REFERENCE * max(1.0, abs(reference)),
             "formfactor_reference", f"|avg - ref|={gap:.3e}")
