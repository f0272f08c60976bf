"""The check registry behind ``pairpack verify`` and the acceptance tests.

Every numerical check of the package is written here, once.  A check
re-derives a quantity through an independent route (quadrature oracle,
integral-equation solve, hand expansion, analytic identity) and returns
either ``(measured, tol)``, which passes when measured <= tol, or
``(passed, detail)``.  ``CHECKS`` is the table of named checks in report
order, grouped by suite; ``run_suite`` prints one line per check, and
``tests/test_acceptance.py`` runs the same table as one parametrized test.

Each check draws its inputs from its own seeded generators (checks drawing
from one shared seed regenerate that seed's whole stream), so a check gives
the same line whether it runs alone or in a suite, and two runs produce
byte-identical reports.  A check that raises a ``PairpackError`` fails on
its own line.  Time budgets are pytest assertions, never report lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .bounds import (S0, S0_ARGMIN, average_bounds, dedekind_bounds,
                     gonek_ki_conjectured_average, refutation_threshold,
                     reim_zeta_bounds, selberg_bounds)
from .errors import PairpackError
from .formfactor import (ZeroDataset, fejer_check, fejer_poisson_check,
                         ep1_ratio_check, form_factor, form_factor_positive,
                         phi_functional, symmetric_average, windowed_average)
from .fredholm import (closed_form_u, k_from_u, ode_residual,
                       reproducing_residual, solve_integral_eq, system_residual,
                       uniqueness_ratio)
from .kernels import (k0_transform_solution, kernel_c3zero, kernel_k00, kernel_k0z,
                      kernel_k0z_grid, quartic_roots, quartic_residual, script_L)
from .measures import SUP_G, SUP_G_ARGMAX, Measure, g_surface

_SEED = 20240613        # seeds of the suites' own draws
_ACC_SEED = 424242      # seeds of the acceptance sweeps' draws

_M0 = Measure(1.0, 1.0, 0.0, 0.5)     # anchor measure of Corollary 11


@dataclass(frozen=True)
class Check:
    """One named check of a suite; ``fn()`` returns ``(measured, tol)`` or
    ``(passed, detail)``."""

    suite: str
    name: str
    fn: Callable[[], tuple]

    def run(self) -> tuple[bool, str]:
        """(passed, report line)."""
        try:
            first, second = self.fn()
        except PairpackError as exc:
            return False, f"FAIL {self.name} {type(exc).__name__}: {exc}"
        if isinstance(first, bool):
            passed, tail = first, f" {second}" if second else ""
        else:
            passed, tail = bool(first <= second), f" measured={first:.6e} tol={second:.1e}"
        return passed, f"{'PASS' if passed else 'FAIL'} {self.name}{tail}"


def _random_measure(rng, c3_range=(0.0, 0.0), sigma_max=1.6) -> Measure:
    c1 = float(rng.uniform(0.5, 2.0))
    delta = float(rng.uniform(0.3, 1.2))
    sigma = float(rng.uniform(0.05, sigma_max))
    c3 = float(rng.uniform(*c3_range))
    return Measure(c1=c1, c2=sigma * c1 / delta ** 2, c3=c3, delta=delta)


def _point(rng, re: float, im: float) -> complex:
    return complex(rng.uniform(-re, re), rng.uniform(-im, im))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def _s0_first_order_condition():
    # |tan x - x| = |x cos x - sin x| / |cos x| bounds the product form too
    return abs(np.tan(S0_ARGMIN) - S0_ARGMIN), 1e-10


def _s0_grid_dominance():
    xr = np.concatenate([np.random.default_rng(_SEED).uniform(-60.0, 60.0, 10_000),
                         np.random.default_rng(17).uniform(-80.0, 80.0, 10_000)])
    return bool(np.all(np.sin(xr) / xr >= S0 - 1e-15)), ""


def _sup_g_bracket():
    return bool(0.586 < SUP_G < 0.587), f"value={SUP_G:.9f}"


def _sup_g_argmax_consistency():
    # the literal argmax against a golden-section refinement around it
    a, b = SUP_G_ARGMAX - 0.05, SUP_G_ARGMAX + 0.05
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        if g_surface(0.0, c) > g_surface(0.0, d):
            b = d
        else:
            a = c
    return max(abs(g_surface(0.0, SUP_G_ARGMAX) - SUP_G),
               abs(g_surface(0.0, 0.5 * (a + b)) - SUP_G)), 1e-9


def _sup_g_dominates_pi():
    samples = g_surface(0.0, np.linspace(0.01, 100.0, 20000))
    return bool(SUP_G >= g_surface(0.0, np.pi) and SUP_G >= np.max(samples) - 1e-12), ""


def _identity_defect(bounds_fn, measure_of):
    worst = 0.0
    for degree in range(1, 21):
        lo, up = bounds_fn(degree)
        rep = average_bounds(measure_of(degree))
        worst = max(worst, abs(up - rep.upper), abs(lo - rep.lower_cor8))
    return worst, 1e-12


def _fejer_witness(beta: float):
    return abs(fejer_check(beta) - beta), 0.0


def _fejer_poisson(beta: float, tol: float):
    return fejer_poisson_check(beta)[2], tol


def _gonek_ki_bisection():
    ell = refutation_threshold(0.1, 1.0, floor=0.3)
    return abs(gonek_ki_conjectured_average(1.0, ell, 0.1) - 0.3), 1e-5


def _gonek_ki_bisection_bracket():
    # the crossing is localized to the bisection tolerance 1e-6 in ell
    ell = refutation_threshold(0.1, 1.0, floor=0.3)
    passed = (ell > 0 and gonek_ki_conjectured_average(1.0, ell - 2e-6, 0.1) > 0.3
              > gonek_ki_conjectured_average(1.0, ell + 2e-6, 0.1))
    return bool(passed), f"ell={ell:.6f}"


def _refutation_windows(c: float) -> np.ndarray:
    """Window lengths from just above the b = 1 refutation threshold to 50."""
    threshold = refutation_threshold(c, 1.0)
    ells = np.concatenate([[max(threshold, 1e-9) + 1e-9], np.linspace(0.1, 50.0, 200)])
    return ells[ells >= threshold]


def _gonek_ki_below_half():
    cases = [(c, ell) for c in (0.01, 0.1, 1.0) for ell in (1e-6, 0.1, 1.0, 10.0)]
    cases += [(0.1, float(ell)) for ell in _refutation_windows(0.1)]
    return all(gonek_ki_conjectured_average(1.0, ell, c) < 0.5 for c, ell in cases), ""


def _gonek_ki_below_cor11():
    lower, _ = reim_zeta_bounds(0.1)
    return all(gonek_ki_conjectured_average(1.0, float(ell), 0.1) < lower
               for ell in _refutation_windows(0.1)), f"lower={lower:.6f}"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _kernel_stream():
    """The kernels suite's draws, in stream order: 20 (w, z) pairs, 20 z,
    10 (measure, x) and 10 measures."""
    rng = np.random.default_rng(_SEED + 1)
    pairs = [(_point(rng, 2, 0.5), _point(rng, 2, 0.5)) for _ in range(20)]
    zs = [_point(rng, 2, 1) for _ in range(20)]
    diag = [(_random_measure(rng, (0.0, 3.0)), float(rng.uniform(-2, 2))) for _ in range(10)]
    quartic = [_random_measure(rng, (0.1, 3.0)) for _ in range(10)]
    return pairs, zs, diag, quartic


# 3x the largest closed-vs-oracle gap on these checks' cases and on 468
# measures of _random_measure's range with c3 Delta up to 425, on one dense
# system (3.6e-15, at c1 = 0.5, Delta = 1.2, c3 Delta = 425), rounded up to
# one digit; a 1e-12 relative perturbation of u reads 1.0e-13 or more.  The
# panel solve reads at most 9.0e-16 on 468 such measures with c3 Delta up
# to 10^4
K0Z_TOL = 2e-14


def _k0z_gap(m: Measure, zs) -> float:
    """Closed-form K(0, z) and K(0, 0) against the w = 0 oracle solve."""
    sol = solve_integral_eq(m, 0.0)
    return max([abs(kernel_k00(m) - k_from_u(sol, 0.0))]
               + [abs(kernel_k0z(m, z).value - k_from_u(sol, z)) for z in zs])


def _k0z_vs_oracle_random():
    rng = np.random.default_rng(_ACC_SEED + 1)
    ms = [_random_measure(rng, (0.05, 10.0), sigma_max=5.0 / 3.0) for _ in range(20)]
    return max(_k0z_gap(m, (0.0, 0.3, 1 + 0.5j)) for m in ms), K0Z_TOL


def _gap(a, b) -> float:
    """|a - b| over max(1, |a|, |b|)."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


# K(w, z) = conj K(z, w) at c3 = 0, relative to max(1, |K|): the two sides sum
# different rows, so they differ by rounding.  At most 6.2e-16 on these draws
# and 5.3e-15 on 3,000 wider ones (c3 = 0 measures of _random_measure's range,
# sigma to 5/3, |Re w|, |Re z| <= 2, |Im| <= 1), at 1 and 2 BLAS threads
HERMITIAN_TOL = 2e-14
# K(0, -z) = K(0, z) relative to max(1, |K|), at single points (the rows'
# quotients) and on a grid of the points and their negatives: 0 on these
# draws, and at most 2.8e-16 on 1,600 closed_sweep draws (c3 = 0, generic,
# near-degenerate, large c3 Delta) at real grids, complex grids (|Im z| <=
# 1.5) and single points, and on 3,000 real grids of _random_measure's range
# (c3 Delta to 10), at 1 and 2 BLAS threads
EVEN_TOL = 3e-15


def _c3zero_hermitian():
    rng = np.random.default_rng(5)
    pairs = _kernel_stream()[0] + [(_point(rng, 2, 1), _point(rng, 2, 1)) for _ in range(100)]
    return max(_gap(kernel_c3zero(_M0, w, z).value, np.conj(kernel_c3zero(_M0, z, w).value))
               for w, z in pairs), HERMITIAN_TOL


# kernel_c3zero(m, w, z) against the conjugate of the w-solve's transform at
# z, at real w and z, relative to max(1, |K|).  Just outside the pole band
# (g = |zeta + om^2| L^2 >= 0.01, zeta = -(2 pi w)^2) the closed rows cancel,
# about 3e-16 / g: at most 4.1e-14 (g = 0.0102) over 22,400 draws with g
# log-uniform on [0.01, 0.1] and 2,400 with w in [-2, 2], at 1 and 2 BLAS
# threads; a 1e-12 relative error in K reads 1e-12
C3ZERO_ORACLE_TOL = 4e-13


def _band_edge_w(rng, m: Measure) -> float:
    """A real w with g = |zeta + om^2| L^2 log-uniform on [0.01, 0.1], on
    either side of the pole where that side has one."""
    om_sq, L_sq = 2.0 * m.c2 / m.c1, (m.delta / 2.0) ** 2
    g = 10.0 ** rng.uniform(-2.0, -1.0)
    inner = rng.random() < 0.5 and om_sq > g / L_sq
    return float(np.sqrt(om_sq - g / L_sq if inner else om_sq + g / L_sq)
                 / (2.0 * np.pi) * rng.choice([-1.0, 1.0]))


def _c3zero_vs_oracle():
    # 40 draws at the band edge, then 20 with w in [-2, 2]; 3 z each
    rng = np.random.default_rng(_SEED + 6)
    worst = 0.0
    for k in range(60):
        m = _random_measure(rng, sigma_max=5.0 / 3.0)
        w = _band_edge_w(rng, m) if k < 40 else float(rng.uniform(-2.0, 2.0))
        zs = rng.uniform(-2.0, 2.0, 3)
        closed = np.array([kernel_c3zero(m, w, z).value for z in zs])
        worst = max(worst, _gap(closed, np.conj(k_from_u(solve_integral_eq(m, w), zs))))
    return worst, C3ZERO_ORACLE_TOL


def _k0z_even():
    rng = np.random.default_rng(10)
    zs = np.array(_kernel_stream()[1]), np.array([_point(rng, 2, 1) for _ in range(20)])
    worst = 0.0
    for m, z in zip((Measure(1, 1, 1.0, 0.5), Measure(1, 1, 4.0, 0.5)), zs):
        grid = kernel_k0z_grid(m, np.concatenate([z, -z]))
        single = np.array([[kernel_k0z(m, x).value, kernel_k0z(m, -x).value] for x in z])
        worst = max(worst, _gap(grid[:z.size], grid[z.size:]), _gap(*single.T))
    return worst, EVEN_TOL


def _diagonal_positive():
    # K(0,0) > 0 always; on the real line the c3 = 0 diagonal K(x, x) is
    # real and positive, and the c3 > 0 section is real
    rng = np.random.default_rng(6)
    cases = _kernel_stream()[2] + [(_M0, float(rng.uniform(-3, 3))) for _ in range(20)]
    passed = True
    for m, x in cases:
        passed = passed and kernel_k00(m) > 0
        if m.c3 > 0:
            val = kernel_k0z(m, x).value
            passed = passed and abs(val.imag) <= 1e-12 * max(1.0, abs(val.real))
        else:
            val = kernel_c3zero(m, x, x).value
            passed = passed and val.real > 0 and abs(val.imag) <= 1e-12
    return bool(passed), ""


def _c3_continuity():
    base = kernel_k00(Measure(1, 1, 0.0, 0.5))
    gaps = [abs(kernel_k00(Measure(1, 1, eps, 0.5)) - base) for eps in (1e-2, 1e-3, 1e-4)]
    return (bool(gaps[0] > gaps[1] > gaps[2]),
            f"gaps={gaps[0]:.3e},{gaps[1]:.3e},{gaps[2]:.3e}")


def _large_c3_decay_slope():
    # remark asymptotics: |1/K - c1/Delta| decays at least like 1/c3
    c3s = [10.0, 100.0, 1000.0]
    gaps = [abs(1.0 / kernel_k00(Measure(1, 1, c3, 0.5)) - 2.0) for c3 in c3s]
    return np.polyfit(np.log(c3s), np.log(gaps), 1)[0], -0.9


def _degenerate_bracket():
    c3 = 0.5
    v_deg = kernel_k0z(Measure(1.0, 1.0, c3, 0.5), 0.3).value.real   # lam = 4 c3^2
    v_lo = kernel_k0z(Measure(1.0, 1.0 * (1 - 1e-6), c3, 0.5), 0.3).value.real
    v_hi = kernel_k0z(Measure(1.0, 1.0 * (1 + 1e-6), c3, 0.5), 0.3).value.real
    lo, hi = min(v_lo, v_hi), max(v_lo, v_hi)
    return max(lo - v_deg, v_deg - hi, 0.0), 1e-5


# The relative residual in the characteristic quartic of quartic_roots' two
# roots and of the section solve's own (its offsets eta1, eta2, in the
# measure's units): at most 2.1e-16 on these draws and 4.2e-16 on 6,000
# bench-mix draws (generic, near-degenerate with on-line draws, c3 Delta to
# 500); a 1e-12 relative error in one root reads 1.5e-12
QUARTIC_TOL = 2e-15


def _quartic_residual():
    # the kernels suite's draws, and c3 down to 1e-9, where eta1^2 formed as
    # c3^2 - lam + sqrt(lam) Lam would lose everything to cancellation
    small_c3 = [Measure(c1, c2, 10.0 ** -k, delta)
                for k in range(2, 10) for c1, c2, delta in ((1.0, 1.0, 0.7), (0.6, 1.9, 0.4))]
    worst = 0.0
    for m in _kernel_stream()[3] + small_c3:
        roots, offsets = quartic_roots(m), k0_transform_solution(m).offsets
        worst = max(worst, *(quartic_residual(m, eta)
                             for eta in (roots.eta1, roots.eta2, offsets[0], offsets[1])))
    return worst, QUARTIC_TOL


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

# the oracle's u against closed_form_u at the nodes, relative to max(1, |u|)
# node by node: 1.8e-15 on these cases, and at most 4.1e-14 over 30,000
# wider draws (c3 = 0 of _random_measure's range and pure atoms, |w| <= 2
# with |Im w| <= 2, and w within 10% of the coefficient pole), where the
# closed rows cancel just outside the pole band or u spans e^{+-2 pi Im w
# Delta / 2}, at 1 and 2 BLAS threads; a 1e-12 relative change of u reads 1e-12
NYSTROM_U_TOL = 4e-13


def _nystrom_vs_closed_form():
    # random w, then the coefficient poles 2 c1 pi^2 w^2 = c2 of _M0 and of
    # the first random measure, and the pure atom at its pole w = 0
    cases = [(_M0, 0.7, 200)]
    rng = np.random.default_rng(15)
    for _ in range(12):
        m = _random_measure(rng, sigma_max=5.0 / 3.0)
        cases.append((m, _point(rng, 2, 0.5), 256))
    rng = np.random.default_rng(_ACC_SEED)
    for _ in range(50):
        m = _random_measure(rng, sigma_max=5.0 / 3.0)
        w = _point(rng, 2, 2)
        while abs(w) > 2:
            w /= 2.0
        cases.append((m, w, 256))
    for m in (_M0, cases[1][0]):
        w0 = np.sqrt(m.c2 / (2.0 * m.c1)) / np.pi
        cases += [(m, w0, 256), (m, -w0, 256)]
    cases.append((Measure(2.0, 0.0, 0.0, 0.8), 0.0, 256))
    worst = 0.0
    for m, w, n in cases:
        sol = solve_integral_eq(m, w, n=n)
        worst = max(worst, _gap(sol.u_values, closed_form_u(m, w, sol.nodes)))
    return worst, NYSTROM_U_TOL


# both node counts solve to the rounding floor, so the interpolants differ by
# the two solves' rounding: 3.7e-15 here and 1.1e-14 on 40 wider draws (c3
# Delta to 60, |w| <= 2, these points scaled to the support), with the
# interface blocks inverted by LAPACK or in closed form, at 1 and 2 BLAS threads
SELF_CONVERGENCE_TOL = 3e-14


def _self_convergence_200_400():
    at = np.union1d(np.linspace(-0.24, 0.24, 33), np.linspace(-0.24, 0.24, 49))
    worst = 0.0
    for c3 in (1.0, 1.3, 100.0):            # 100: ten panels
        m = Measure(1, 1, c3, 0.5)
        s200 = solve_integral_eq(m, 0.7, n=200)
        s400 = solve_integral_eq(m, 0.7, n=400)
        worst = max(worst, float(np.max(np.abs(s200.interpolate(at) - s400.interpolate(at)))))
    return worst, SELF_CONVERGENCE_TOL


def _uniqueness_a_sq_over_sigma_min():
    # sigma_min of the weighted Nystrom matrix must stay >= a_sq
    ms = (Measure(1, 1, 1.0, 0.5), Measure(1, 1, 0.0, 0.5), Measure(1, 1, 2.0, 0.9),
          Measure(1, 1, 2e4, 0.5))          # c3 Delta = 10^4: 48000 nodes
    return max(1.0 / uniqueness_ratio(m) for m in ms), 1.0


def _w0_solution():
    return solve_integral_eq(Measure(1, 1, 1.0, 0.5), 0.0).u_values


# M and the data are even up to the nodes' rounding, so u(-x) - u(x) is the
# solve's rounding: 5.6e-16 here, 1.8e-15 on 150 wider draws (c3 = 0 and c3
# Delta to 60), with the interface blocks inverted by LAPACK or in closed
# form, at 1 and 2 BLAS threads
EVEN_SOLUTION_TOL = 4e-15


def _w0_solution_even():
    u = _w0_solution()
    return float(np.max(np.abs(u - u[::-1]))), EVEN_SOLUTION_TOL


def _c2zero_exact():
    solz = solve_integral_eq(Measure(2.0, 0.0, 0.0, 0.8), 0.4)
    exact = np.exp(-2j * np.pi * 0.4 * solz.nodes) / 2.0
    return float(np.max(np.abs(solz.u_values - exact))), 1e-14


_REPRODUCING_CASES = (
    (Measure(1, 1, 0.0, 0.5), 0.0, "center0"),
    (Measure(1, 1, 0.0, 0.5), 1 + 0.2j, "center2p5"),
    (Measure(1, 1, 1.0, 0.5), 0.3, "offcenter_pair"),
    (Measure(1, 1, 4.0, 0.5), 0.0, "center0"),
    (Measure(1.0, 0.5, 0.0, 0.8), 0.7, "offcenter_pair"),
    (Measure(2.0, 1.0, 0.0, 0.6), -0.4, "center0"),
    (Measure(1.0, 0.0, 0.0, 0.5), 0.2, "center2p5"),
    (Measure(1.0, 1.0, 1.0, 0.5), 0.3, "center0"),
    (Measure(1.0, 1.0, 2.0, 0.7), 0.5 - 0.3j, "offcenter_pair"),
    (Measure(1.5, 2.0, 0.5, 0.9), 1.0, "center0"),
    (Measure(1.0, 0.8, 6.0, 0.4), -1.2, "center2p5"),
)


def _ode_draws():
    """The acceptance sweep's (measure, w) draws: c3 = 0, then c3 > 0."""
    rng = np.random.default_rng(_ACC_SEED + 2)
    c3zero = [(_random_measure(rng, sigma_max=5.0 / 3.0), _point(rng, 1.5, 0.3))
              for _ in range(10)]
    c3pos = [(_random_measure(rng, (0.1, 5.0), sigma_max=5.0 / 3.0), 0.0) for _ in range(10)]
    return c3zero, c3pos


# the largest ode_residual measured on these checks' cases and on 450
# oracle_xcheck-style measures, each solved at w = 0 and 3 real w in [-2, 2],
# was 2.0e-15 (both regimes), but one 20 s oracle_xcheck benchmark run (seed
# 35201, 8,208 solves) read 2.72e-15: this tolerance is 2.2x that worst.  A
# 1e-10 relative perturbation of u reads 1.8e-13 or more.  With the panel
# totals summed in long double, draws at 960 to 2000 panels read up to
# 8.0e-16 (4.0e-15 with a running sum in doubles, the residual's own rounding)
ODE_TOL = 6e-15


def _ode_residual_c3zero():
    cases = [(Measure(1, 1, 0.0, 0.5), 0.3), (Measure(1, 0.5, 0.0, 0.8), 1.1)]
    cases += _ode_draws()[0]
    return max(ode_residual(m, solve_integral_eq(m, w)) for m, w in cases), ODE_TOL


def _ode_residual_c3pos():
    cases = [(Measure(1, 1, 1.0, 0.5), 0.0), (Measure(1, 1, 4.0, 0.5), 0.0),
             (Measure(1, 2, 2.0, 0.6), 0.5), (Measure(1, 1, 2.0, 0.6), 0.7),
             (Measure(1, 1, 100.0, 0.5), 0.0), (Measure(1, 1, 300.0, 0.5), 1.3),
             (Measure(1.2, 0.9, 2000.0, 0.7), 0.6)]         # 280 panels
    cases += _ode_draws()[1]
    return max(ode_residual(m, solve_integral_eq(m, w)) for m, w in cases), ODE_TOL


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

def _divisor_grid() -> tuple:
    """(ratios, measures) at delta = 0.7 over the 40 sigmas x 79 ratios of
    the two 40 x 40 grids and a coarse 15 x 6 grid, with c3 = ratio *
    sqrt(lam) / 2, as one batch."""
    delta = 0.7
    ratios = np.union1d(
        np.concatenate([np.linspace(0.08, 0.92, 20), np.linspace(1.08, 3.0, 20)]),
        np.concatenate([np.linspace(0.05, 0.95, 20), np.linspace(1.05, 3.0, 20)]))
    grids = ((np.linspace(2.9 / 40.0, 2.9, 40), ratios),
             (np.linspace(0.1, 2.9, 15), np.array([0.2, 0.6, 0.9, 1.1, 1.7, 2.5])))
    lam = np.concatenate([np.repeat(sg, len(rs)) for sg, rs in grids]) / delta ** 2
    r = np.concatenate([np.tile(rs, len(sg)) for sg, rs in grids])
    return r, Measure(1.0, lam, r * np.sqrt(lam) / 2.0, delta)


@lru_cache(maxsize=1)
def _divisor_margins() -> tuple:
    """(max Re det + 1, max |Im det| / |det|) for det = A' Bbar - Abar B' =
    script_L / (eta1^2 - eta2^2) on the divisor grid and on 40 measures of
    the line lam = 4 c3^2 (c1 = 1, sigma 0.01 to 2.9, close-root contour).
    det <= -1 keeps the divisor off zero.  They read -1.4e-2 and 0 on the grid,
    -2.4e-3 and 1.7e-16 on the line (tolerance 3x that, up to one digit)."""
    c3 = np.sqrt(np.linspace(0.01, 2.9, 40)) / (2.0 * 0.7)
    line = Measure(1.0, 4.0 * c3 * c3, c3, 0.7)
    det = np.concatenate([k0_transform_solution(m).det for m in (_divisor_grid()[1], line)])
    return float(np.max(det.real)) + 1.0, float(np.max(np.abs(det.imag) / np.abs(det)))


def _script_L_case_signs():
    # purely imaginary roots (ratio < 1) give a real negative divisor, the
    # conjugate quadrant a purely imaginary one with Im < 0
    r, m = _divisor_grid()
    val = script_L(m)
    scale = 1e-10 * np.abs(val)
    return bool(np.all(np.where(r < 1.0, (val.real < 0) & (np.abs(val.imag) <= scale),
                                (val.imag < 0) & (np.abs(val.real) <= scale)))), ""


# ---------------------------------------------------------------------------
# formfactor
# ---------------------------------------------------------------------------

def _pair_draw(rng, n_min: int, g_lo: float, g_hi: float, T: float):
    n = int(rng.integers(n_min, 6))
    g = np.sort(rng.uniform(g_lo, g_hi, n))
    ds = ZeroDataset(ordinates=g, lam=float(rng.uniform(0.5, 2.0)))
    return ds, T, float(rng.uniform(-2.0, 2.0))


def _formfactor_stream():
    """The formfactor suite's draws, in stream order: 8 (dataset, T, alpha)
    cases and 48 ordinates for the averages."""
    rng = np.random.default_rng(_SEED + 3)
    cases = [_pair_draw(rng, 2, 5.0, 40.0, 100.0) for _ in range(8)]
    return cases, np.sort(rng.uniform(3.0, 60.0, 48))


def _pair_cases() -> list:
    """(dataset, T, alpha) for the pair-sum checks: the suite's and the
    acceptance sweep's draws, one and two ordinates, a 12-ordinate set at
    two alphas and ten draws of up to 7 ordinates."""
    cases, _ = _formfactor_stream()
    rng = np.random.default_rng(_ACC_SEED + 3)
    cases += [_pair_draw(rng, 1, 4.0, 30.0, 50.0) for _ in range(12)]
    cases += [(ZeroDataset(ordinates=np.array([10.0]), lam=1.0), 100.0, 0.5),
              (ZeroDataset(ordinates=np.array([10.0, 10.5]), lam=1.0), 100.0, 0.8)]
    ds = ZeroDataset(ordinates=np.sort(np.random.default_rng(21).uniform(5, 50, 12)), lam=1.3)
    cases += [(ds, 60.0, 0.3), (ds, 60.0, 1.7)]
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        ds = ZeroDataset(ordinates=np.sort(rng.uniform(1, 30, n)), lam=1.0)
        cases.append((ds, 40.0, float(rng.uniform(-3, 3))))
    return cases


def _worst_pair_gap(other) -> float:
    """Largest |F(alpha) - other(ds, T, alpha)| over the pair cases."""
    return max(abs(form_factor(ds, T, a) - other(ds, T, a)) for ds, T, a in _pair_cases())


def _hand_form_factor(ds: ZeroDataset, T: float, alpha: float) -> float:
    """Term-by-term expansion of the normalized double sum, with the weight
    4 / (4 + u^2) written out."""
    total = 0.0
    for gi in ds.ordinates:
        for gj in ds.ordinates:
            total += np.cos(ds.lam * alpha * np.log(T) * (gi - gj)) * 4.0 / (4.0 + (gi - gj) ** 2)
    return total / ((ds.lam * T / (2 * np.pi)) * np.log(T))


# 3x form_factor's gap to the long-double dense route (2.6e-16 at 1 and 2
# BLAS threads), rounded up to one digit; the float64 dense route
# Re(sum conj(p) (W p)) reads 1.1e-15 from the same sum
FORMFACTOR_DENSE_TOL = 8e-16
# 3x the measured worst of _formfactor_grid_route (6.0e-15 at 1 and 2 BLAS
# threads), rounded up to one digit
FORMFACTOR_GRID_TOL = 2e-14


def _formfactor_dense_tiles():
    """Worst relative gap to the dense route Re(p^H W p) = c.(W c) + s.(W s),
    p = c + i s = e^{i theta g}: the products of the same float64 phases and
    weights, summed in long double (x87's 80-bit format on x86-64) one alpha
    at a time, on a window of 333 ordinates, which form_factor keeps whole
    (one product with W per batch), at 70 alphas (two batches)."""
    g = np.sort(np.random.default_rng(_SEED + 4).uniform(1.0, 400.0, 333))
    ds, T = ZeroDataset(ordinates=g, lam=1.1), 400.0
    alphas = np.linspace(-3.0, 3.0, 70)
    p = np.exp(1j * np.multiply.outer(ds.lam * np.log(T) * alphas, g))
    w = (4.0 / (4.0 + np.subtract.outer(g, g) ** 2)).astype(np.longdouble)
    cs = zip(p.real.astype(np.longdouble), p.imag.astype(np.longdouble))
    dense = np.array([c @ (w @ c) + s @ (w @ s) for c, s in cs])
    dense /= (ds.lam * T / (2 * np.pi)) * np.log(T)
    return float(np.max(np.abs(form_factor(ds, T, alphas) / dense - 1.0))), FORMFACTOR_DENSE_TOL


def _formfactor_grid_route():
    """Worst relative gap of windowed_average and symmetric_average, whose
    phase table is geometric, to np.trapezoid of form_factor, whose table is
    exact, on the same linspace nodes: 129 alphas (three batches) and 17, on
    a window of 333 ordinates, which form_factor keeps whole, and one of 800,
    whose tiles stream; the symmetric grid crosses alpha = 0."""
    worst = 0.0
    for n, T in ((333, 400.0), (800, 900.0)):
        g = np.sort(np.random.default_rng(_SEED + 5).uniform(1.0, T, n))
        ds, h = ZeroDataset(ordinates=g, lam=1.1), 1.0 / 64.0
        for b, ell in ((0.0, 2.0), (1.3, 0.25), (-1.0, 2.0)):
            alphas = np.linspace(b, b + ell, round(ell / h) + 1)
            direct = np.trapezoid(form_factor(ds, T, alphas), alphas) / ell
            grid = (windowed_average(ds, T, b, ell, h) if b >= 0.0
                    else symmetric_average(ds, T, -b, h))
            worst = max(worst, abs(grid / direct - 1.0))
    return worst, FORMFACTOR_GRID_TOL


def _formfactor_nonnegative():
    most_neg = min([0.0] + [form_factor(ds, T, a) for ds, T, a in _pair_cases()])
    return bool(most_neg >= -1e-10), f"min={most_neg:.3e}"


def _average_datasets(seed: int, count: int) -> list:
    """The suite's 48 averaging ordinates and a seeded set of count more."""
    extra = np.sort(np.random.default_rng(seed).uniform(3, 60, count))
    return [ZeroDataset(ordinates=g, lam=1.0) for g in (_formfactor_stream()[1], extra)]


def _windowed_average_identity():
    # symmetric-window decomposition, exact on nested grids by evenness
    T, b, ell, h = 60.0, 1.0, 1.0, 1.0 / 32.0
    beta = b + ell
    worst = 0.0
    for ds in _average_datasets(25, 40):
        lhs = windowed_average(ds, T, b, ell, h)
        sym_beta = symmetric_average(ds, T, beta, h)
        sym_b = symmetric_average(ds, T, b, h)
        worst = max(worst, abs(lhs - (sym_beta + (b / ell) * (sym_beta - sym_b))))
    return worst, 1e-9


def _windowed_average_self_convergence():
    worst = 0.0
    for ds in _average_datasets(24, 64):
        coarse = windowed_average(ds, 60.0, 1.0, 1.0, 1.0 / 32.0)
        half = windowed_average(ds, 60.0, 1.0, 1.0, 1.0 / 64.0)
        worst = max(worst, abs(coarse - half) / abs(half))
    return worst, np.nextafter(1e-3, 0.0)      # strictly below 1e-3


def _phi_constant_transform():
    grid = np.linspace(-0.5, 0.5, 2001)
    return abs(phi_functional(_M0, np.ones_like(grid), grid) - 1.25), 1e-12


def _phi_fejer_transform():
    grid = np.linspace(-1.0, 1.0, 4001)
    fejer_hat = np.maximum(1.0 - np.abs(grid), 0.0)
    return abs(phi_functional(Measure(1, 1, 0.0, 1.0), fejer_hat, grid) - (1 + 1.0 / 3.0)), 1e-6


def _ep1_ratio(m: Measure):
    return abs(ep1_ratio_check(m) - 1.0 / kernel_k00(m)), 1e-5


_TABLE = {
    "constants": (
        ("s0_value", lambda: (abs(S0 - (-0.217233)), 1e-6)),
        ("s0_first_order_condition", _s0_first_order_condition),
        ("s0_grid_dominance", _s0_grid_dominance),
        ("sup_g_value", lambda: (abs(SUP_G - 0.5864), 1e-3)),
        ("sup_g_bracket", _sup_g_bracket),
        ("sup_g_argmax_consistency", _sup_g_argmax_consistency),
        ("sup_g_dominates_pi", _sup_g_dominates_pi),
        ("corollary11_upper", lambda: (abs(reim_zeta_bounds(0.0)[1] - 2.1659), 5e-4)),
        ("corollary11_lower", lambda: (abs(reim_zeta_bounds(0.0)[0] - 0.7467), 5e-4)),
        ("selberg_identity_m_le_20",
         partial(_identity_defect, selberg_bounds, lambda md: Measure(1.0, 1.0, 0.0, 1.0 / md))),
        ("dedekind_identity_n_le_20",
         partial(_identity_defect, dedekind_bounds,
                  lambda nd: Measure(1.0, float(nd), 0.0, 1.0 / nd))),
        ("fejer_witness_beta_0.5", partial(_fejer_witness, 0.5)),
        ("fejer_poisson_beta_0.5", partial(_fejer_poisson, 0.5, 1e-9)),
        ("fejer_witness_beta_1.0", partial(_fejer_witness, 1.0)),
        # exact at beta = 1, where both sides are 1
        ("fejer_poisson_beta_1.0", partial(_fejer_poisson, 1.0, 0.0)),
        ("fejer_witness_beta_2.5", partial(_fejer_witness, 2.5)),
        ("fejer_poisson_beta_2.5", partial(_fejer_poisson, 2.5, 1e-9)),
        ("gonek_ki_value",
         lambda: (abs(gonek_ki_conjectured_average(1.0, 1.0, 1.0) - 0.0022475), 1e-6)),
        ("gonek_ki_c_to_zero",
         lambda: (abs(gonek_ki_conjectured_average(1.0, 1.0, 1e-12) - 0.5), 1e-9)),
        ("gonek_ki_threshold_floor_half",
         lambda: (max(refutation_threshold(c, 1.0) for c in (0.1, 1.0, 0.01)), 0.0)),
        ("gonek_ki_bisection", _gonek_ki_bisection),
        ("gonek_ki_bisection_bracket", _gonek_ki_bisection_bracket),
        ("gonek_ki_below_half", _gonek_ki_below_half),
        ("gonek_ki_below_cor11", _gonek_ki_below_cor11),
    ),
    "kernels": (
        # K(0, 0) in closed form against the oracle's transform at z = 0;
        # both round apart: 0 here, worst 3.3e-16 on 400 c3 = 0 measures
        # (sigma to 5/3, pole band, pure atoms) at 1 and 2 BLAS threads
        ("k00_vs_oracle_c3zero",
         lambda: (abs(k_from_u(solve_integral_eq(_M0, 0.0), 0.0) - kernel_k00(_M0)), 3e-15)),
        ("k00_corollary11_reciprocal", lambda: (abs(1.0 / kernel_k00(_M0) - 2.1659), 5e-4)),
        ("k0z_vs_oracle_c3_1.0",
         lambda: (_k0z_gap(Measure(1, 1, 1.0, 0.5), (0.0, 0.3, 1.1, 1 + 0.5j)), K0Z_TOL)),
        ("k0z_vs_oracle_c3_4.0",
         lambda: (_k0z_gap(Measure(1, 1, 4.0, 0.5), (0.0, 0.3, 1.1)), K0Z_TOL)),
        ("k0z_vs_oracle_c3_0.3",
         lambda: (_k0z_gap(Measure(1, 2, 0.3, 0.7), (0.0, 0.3, 1.1)), K0Z_TOL)),
        ("k0z_vs_oracle_random", _k0z_vs_oracle_random),
        # c3 Delta = 20, 60, 150, 1000 and 5000: 5, 12, 30, 200 and 1000
        # oracle panels
        ("k0z_vs_oracle_large_c3",
         lambda: (max(_k0z_gap(m, (0.0, 0.3, 1.1, 1 + 0.5j)) for m in (
             Measure(1, 1, 40.0, 0.5), Measure(1.3, 2.0, 60.0 / 0.7, 0.7),
             Measure(0.8, 1.0, 150.0 / 0.9, 0.9), Measure(1.0, 1.2, 1000.0 / 0.6, 0.6),
             Measure(0.7, 0.5, 5000.0 / 1.1, 1.1))), K0Z_TOL)),
        ("c3zero_vs_oracle", _c3zero_vs_oracle),
        ("c3zero_hermitian", _c3zero_hermitian),
        ("k0z_even", _k0z_even),
        ("diagonal_positive", _diagonal_positive),
        ("c3_continuity", _c3_continuity),
        ("large_c3_decay_slope", _large_c3_decay_slope),
        ("degenerate_bracket", _degenerate_bracket),
        ("quartic_residual", _quartic_residual),
    ),
    "oracle": (
        ("nystrom_vs_closed_form", _nystrom_vs_closed_form),
        ("self_convergence_200_400", _self_convergence_200_400),
        # ||M u - b|| / ||b|| of a backward-stable solve, a few ulps: 2.7e-16
        # here, 4.7e-16 on 600 wider solves (c3 = 0 and c3 Delta to 60, w = 0
        # and 3 real w), with the interface blocks inverted by LAPACK or in
        # closed form, at 1 and 2 BLAS threads
        ("linear_system_residual",
         lambda: (max(system_residual(solve_integral_eq(Measure(1, 1, 1.0, 0.5), w, n=200))
                      for w in (0.7, 0.0)), 2e-15)),
        ("uniqueness_a_sq_over_sigma_min", _uniqueness_a_sq_over_sigma_min),
        ("w0_solution_real", lambda: (float(np.max(np.abs(_w0_solution().imag))), 1e-10)),
        ("w0_solution_even", _w0_solution_even),
        ("c2zero_exact", _c2zero_exact),
        ("reproducing_residual",
         lambda: (max(reproducing_residual(m, w, fn) for m, w, fn in _REPRODUCING_CASES), 1e-6)),
        # c2 = 0: the classical reproducing identity, near machine accuracy
        ("reproducing_residual_band_limited",
         lambda: (reproducing_residual(Measure(1.0, 0.0, 0.0, 0.5), 0.2, ((0.5, 1.0),)), 1e-10)),
        ("ode_residual_c3zero", _ode_residual_c3zero),
        ("ode_residual_c3pos", _ode_residual_c3pos),
    ),
    "appendix": (
        ("script_L_nonvanishing", lambda: (_divisor_margins()[0], 0.0)),
        ("script_L_det_real", lambda: (_divisor_margins()[1], 6e-16)),
        ("script_L_case_signs", _script_L_case_signs),
    ),
    "formfactor": (
        # a single ordinate: only the diagonal term survives
        ("single_ordinate_anchor",
         lambda: (abs(form_factor(ZeroDataset(ordinates=np.array([10.0]), lam=1.0), 100.0, 0.7)
                      - 0.013644), 1e-6)),
        ("formfactor_hand_expansion", lambda: (_worst_pair_gap(_hand_form_factor), 1e-14)),
        ("formfactor_positive_route", lambda: (_worst_pair_gap(form_factor_positive), 1e-8)),
        ("formfactor_even",
         lambda: (_worst_pair_gap(lambda ds, T, a: form_factor(ds, T, -a)), 1e-12)),
        ("formfactor_nonnegative", _formfactor_nonnegative),
        ("formfactor_dense_tiles", _formfactor_dense_tiles),
        ("formfactor_grid_route", _formfactor_grid_route),
        ("windowed_average_identity", _windowed_average_identity),
        ("windowed_average_self_convergence", _windowed_average_self_convergence),
        ("phi_constant_transform", _phi_constant_transform),
        ("phi_fejer_transform", _phi_fejer_transform),
        ("ep1_ratio_c3_0.0", partial(_ep1_ratio, Measure(1, 1, 0.0, 0.5))),
        ("ep1_ratio_c3_1.0", partial(_ep1_ratio, Measure(1, 1, 1.0, 0.5))),
    ),
}

CHECKS = tuple(Check(suite, name, fn) for suite, rows in _TABLE.items() for name, fn in rows)
SUITES = tuple(_TABLE)


@dataclass
class Report:
    lines: list = field(default_factory=list)
    failures: int = 0

    @property
    def all_passed(self) -> bool:
        return self.failures == 0


def run_suite(name: str, outcome: Callable[[Check], tuple[bool, str]] = Check.run) -> Report:
    """The report of one suite, or of every suite for ``"all"``.

    ``outcome(check)`` gives the check's (passed, line); the default runs it.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    rep = Report()
    for suite in SUITES if name == "all" else (name,):
        rep.lines.append(f"== {suite} ==")
        for check in CHECKS:
            if check.suite == suite:
                passed, line = outcome(check)
                rep.failures += not passed
                rep.lines.append(line)
    rep.lines.append(f"{'OK' if rep.all_passed else 'FAILED'} ({rep.failures} failures)")
    return rep
