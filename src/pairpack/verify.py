"""Self-checking suites behind ``pairpack verify``.

Every check re-derives a quantity through an independent route (quadrature
oracle, integral-equation solve, hand expansion, analytic identity) and
compares at a fixed tolerance.  All randomness is seeded and all output is
formatted deterministically, so two runs produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import (average_bounds, dedekind_bounds,
                     gonek_ki_conjectured_average, refutation_threshold,
                     reim_zeta_bounds, s0, s0_point, selberg_bounds)
from .formfactor import (ZeroDataset, fejer_check, fejer_poisson_check,
                         ep1_ratio_check, form_factor, form_factor_positive,
                         pair_weight, phi_functional, symmetric_average,
                         windowed_average)
from .fredholm import (closed_form_u, k_from_u, ode_residual,
                       reproducing_residual, solve_integral_eq, system_residual,
                       uniqueness_ratio)
from .kernels import (kernel_c3zero, kernel_k00, kernel_k0z,
                      quartic_roots, quartic_residual, script_L)
from .measures import Measure, g_surface, sup_g, sup_g_point
_SEED = 20240613


@dataclass
class Report:
    lines: list = field(default_factory=list)
    failures: int = 0

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def check(self, name: str, measured: float, tol: float) -> None:
        ok = measured <= tol
        if not ok:
            self.failures += 1
        self.lines.append(
            f"{'PASS' if ok else 'FAIL'} {name} measured={measured:.6e} tol={tol:.1e}")

    def check_true(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures += 1
        suffix = f" {detail}" if detail else ""
        self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")


def _random_admissible(rng, c3_range=(0.0, 0.0)):
    c1 = float(rng.uniform(0.5, 2.0))
    delta = float(rng.uniform(0.3, 1.2))
    sigma = float(rng.uniform(0.05, 1.6))
    c2 = sigma * c1 / delta ** 2
    c3 = float(rng.uniform(*c3_range))
    return Measure(c1=c1, c2=c2, c3=c3, delta=delta)


def suite_constants(rep: Report) -> None:
    rep.check("s0_value", abs(s0() - (-0.217233)), 1e-6)
    xs, _ = s0_point()
    rep.check("s0_first_order_condition", abs(xs * np.cos(xs) - np.sin(xs)), 1e-10)
    rng = np.random.default_rng(_SEED)
    xr = rng.uniform(-60.0, 60.0, 10_000)
    rep.check_true("s0_grid_dominance", bool(np.all(np.sin(xr) / xr >= s0() - 1e-15)))

    sg = sup_g()
    rep.check("sup_g_value", abs(sg - 0.5864), 1e-3)
    rep.check_true("sup_g_bracket", 0.586 < sg < 0.587, f"value={sg:.9f}")
    tstar, sval = sup_g_point()
    rep.check("sup_g_argmax_consistency", abs(g_surface(0.0, tstar) - sval), 1e-9)
    rep.check_true("sup_g_dominates_pi", sg >= g_surface(0.0, np.pi))

    lo, up = reim_zeta_bounds(0.0)
    rep.check("corollary11_upper", abs(up - 2.1659), 5e-4)
    rep.check("corollary11_lower", abs(lo - 0.7467), 5e-4)

    worst = 0.0
    for md in range(1, 21):
        lo_f, up_f = selberg_bounds(md)
        repb = average_bounds(Measure(1.0, 1.0, 0.0, 1.0 / md))
        worst = max(worst, abs(up_f - repb.upper), abs(lo_f - repb.lower_cor8))
    rep.check("selberg_identity_m_le_20", worst, 1e-12)
    worst = 0.0
    for nd in range(1, 21):
        lo_f, up_f = dedekind_bounds(nd)
        repb = average_bounds(Measure(1.0, float(nd), 0.0, 1.0 / nd))
        worst = max(worst, abs(up_f - repb.upper), abs(lo_f - repb.lower_cor8))
    rep.check("dedekind_identity_n_le_20", worst, 1e-12)

    for beta in (0.5, 1.0, 2.5):
        rep.check(f"fejer_witness_beta_{beta}", abs(fejer_check(beta) - beta), 0.0)
        _, _, diff = fejer_poisson_check(beta)
        rep.check(f"fejer_poisson_beta_{beta}", diff, 1e-9)

    rep.check("gonek_ki_value",
              abs(gonek_ki_conjectured_average(1.0, 1.0, 1.0) - 0.0022475), 1e-6)
    rep.check("gonek_ki_c_to_zero",
              abs(gonek_ki_conjectured_average(1.0, 1.0, 1e-12) - 0.5), 1e-9)
    rep.check("gonek_ki_threshold_floor_half",
              refutation_threshold(0.1, 1.0), 0.0)
    ell_star = refutation_threshold(0.1, 1.0, floor=0.3)
    rep.check("gonek_ki_bisection",
              abs(gonek_ki_conjectured_average(1.0, ell_star, 0.1) - 0.3), 1e-5)


def suite_kernels(rep: Report) -> None:
    rng = np.random.default_rng(_SEED + 1)

    m0 = Measure(1.0, 1.0, 0.0, 0.5)
    k00 = kernel_k00(m0)
    sol = solve_integral_eq(m0, 0.0)
    rep.check("k00_vs_oracle_c3zero", abs(k_from_u(sol, 0.0) - k00), 1e-9)
    rep.check("k00_corollary11_reciprocal", abs(1.0 / k00 - 2.1659), 5e-4)

    for m in (Measure(1, 1, 1.0, 0.5), Measure(1, 1, 4.0, 0.5),
              Measure(1, 2, 0.3, 0.7)):
        sol = solve_integral_eq(m, 0.0)
        worst = 0.0
        for z in (0.0, 0.3, 1.1):
            kc = kernel_k0z(m, z).value
            worst = max(worst, abs(kc - k_from_u(sol, z)))
        rep.check(f"k0z_vs_oracle_c3_{m.c3}", worst, 1e-7)

    worst = 0.0
    for _ in range(20):
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        k1 = kernel_c3zero(m0, w, z).value
        k2 = kernel_c3zero(m0, z, w).value
        worst = max(worst, abs(k1 - np.conj(k2)))
    rep.check("c3zero_hermitian", worst, 1e-10)

    worst = 0.0
    m1 = Measure(1, 1, 1.0, 0.5)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        worst = max(worst, abs(kernel_k0z(m1, z).value - kernel_k0z(m1, -z).value))
    rep.check("k0z_even", worst, 1e-12)

    # diagonal positivity: K(x, x) > 0 on the full c3 = 0 kernel, K(0,0) > 0
    # always; the c3 > 0 section is real on the real line
    ok = True
    for _ in range(10):
        m = _random_admissible(rng, c3_range=(0.0, 3.0))
        ok = ok and kernel_k00(m) > 0
        x = float(rng.uniform(-2, 2))
        if m.c3 > 0:
            val = kernel_k0z(m, x).value
            ok = ok and abs(val.imag) <= 1e-12 * max(1.0, abs(val.real))
        else:
            diag = kernel_c3zero(m, x, x).value
            ok = ok and diag.real > 0 and abs(diag.imag) <= 1e-10
    rep.check_true("diagonal_positive", ok)

    base = kernel_k00(Measure(1, 1, 0.0, 0.5))
    gaps = [abs(kernel_k00(Measure(1, 1, eps, 0.5)) - base)
            for eps in (1e-2, 1e-3, 1e-4)]
    rep.check_true("c3_continuity", gaps[0] > gaps[1] > gaps[2],
                   f"gaps={gaps[0]:.3e},{gaps[1]:.3e},{gaps[2]:.3e}")

    # remark asymptotics: |1/K - c1/Delta| decays at least like 1/c3
    gaps = []
    for c3 in (10.0, 100.0, 1000.0):
        gaps.append(abs(1.0 / kernel_k00(Measure(1, 1, c3, 0.5)) - 2.0))
    slope = np.polyfit(np.log([10.0, 100.0, 1000.0]), np.log(gaps), 1)[0]
    rep.check("large_c3_decay_slope", slope, -0.9)

    # degenerate branch bracketing
    c3 = 0.5
    m_deg = Measure(1.0, 1.0, c3, 0.5)       # lam = 4 c3^2 exactly
    v_deg = kernel_k0z(m_deg, 0.3).value.real
    v_lo = kernel_k0z(Measure(1.0, 1.0 * (1 - 1e-6), c3, 0.5), 0.3).value.real
    v_hi = kernel_k0z(Measure(1.0, 1.0 * (1 + 1e-6), c3, 0.5), 0.3).value.real
    lo, hi = min(v_lo, v_hi), max(v_lo, v_hi)
    rep.check("degenerate_bracket", max(lo - v_deg, v_deg - hi, 0.0), 1e-5)

    worst = 0.0
    for _ in range(10):
        m = _random_admissible(rng, c3_range=(0.1, 3.0))
        roots = quartic_roots(m)
        worst = max(worst, quartic_residual(m, roots.eta1),
                    quartic_residual(m, roots.eta2))
    rep.check("quartic_residual", worst, 1e-10)


def suite_oracle(rep: Report) -> None:
    rng = np.random.default_rng(_SEED + 2)

    worst = 0.0
    for _ in range(10):
        m = _random_admissible(rng)
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        if abs(2 * m.c1 * np.pi ** 2 * w * w - m.c2) < 1e-3 * m.c2:
            w += 0.1
        sol = solve_integral_eq(m, w, n=256)
        uc = closed_form_u(m, w, sol.nodes)
        worst = max(worst, float(np.max(np.abs(sol.u_values - uc))))
    rep.check("nystrom_vs_closed_form", worst, 1e-8)

    m = Measure(1, 1, 1.0, 0.5)
    s200 = solve_integral_eq(m, 0.7, n=200)
    s400 = solve_integral_eq(m, 0.7, n=400)
    at = np.linspace(-0.24, 0.24, 33)
    rep.check("self_convergence_200_400",
              float(np.max(np.abs(s200.interpolate(at) - s400.interpolate(at)))),
              1e-10)
    rep.check("linear_system_residual", system_residual(s200), 1e-12)
    # sigma_min of the weighted Nystrom matrix must stay >= a_sq
    rep.check("uniqueness_a_sq_over_sigma_min", 1.0 / uniqueness_ratio(m), 1.0)

    sol0 = solve_integral_eq(m, 0.0)
    rep.check("w0_solution_real", float(np.max(np.abs(sol0.u_values.imag))), 1e-10)
    rep.check("w0_solution_even",
              float(np.max(np.abs(sol0.u_values - sol0.u_values[::-1]))), 1e-10)

    mc2 = Measure(2.0, 0.0, 0.0, 0.8)
    solz = solve_integral_eq(mc2, 0.4)
    exact = np.exp(-2j * np.pi * 0.4 * solz.nodes) / 2.0
    rep.check("c2zero_exact", float(np.max(np.abs(solz.u_values - exact))), 1e-13)

    cases = [
        (Measure(1, 1, 0.0, 0.5), 0.0, "center0"),
        (Measure(1, 1, 0.0, 0.5), 1 + 0.2j, "center2p5"),
        (Measure(1, 1, 1.0, 0.5), 0.3, "offcenter_pair"),
        (Measure(1, 1, 4.0, 0.5), 0.0, "center0"),
    ]
    worst = 0.0
    for m, w, fn in cases:
        worst = max(worst, reproducing_residual(m, w, fn))
    rep.check("reproducing_residual", worst, 1e-6)

    worst = 0.0
    for m, w in ((Measure(1, 1, 0.0, 0.5), 0.3),
                 (Measure(1, 0.5, 0.0, 0.8), 1.1)):
        worst = max(worst, ode_residual(m, solve_integral_eq(m, w)))
    rep.check("ode_residual_c3zero", worst, 1e-6)
    worst = 0.0
    for m, w in ((Measure(1, 1, 1.0, 0.5), 0.0),
                 (Measure(1, 1, 4.0, 0.5), 0.0),
                 (Measure(1, 2, 2.0, 0.6), 0.5)):
        worst = max(worst, ode_residual(m, solve_integral_eq(m, w)))
    rep.check("ode_residual_c3pos", worst, 1e-6)


def suite_appendix(rep: Report) -> None:
    sigmas = np.linspace(2.9 / 40.0, 2.9, 40)
    ratios = np.concatenate([np.linspace(0.08, 0.92, 20),
                             np.linspace(1.08, 3.0, 20)])
    delta = 0.7
    min_abs = np.inf
    sign_ok = True
    for sg in sigmas:
        lam = sg / delta ** 2
        for r in ratios:
            c3 = r * np.sqrt(lam) / 2.0
            m = Measure(1.0, lam, float(c3), delta)
            val = script_L(m)
            min_abs = min(min_abs, abs(val))
            if r < 1.0:     # purely imaginary roots: real negative divisor
                sign_ok = sign_ok and val.real < 0 and abs(val.imag) <= 1e-10 * abs(val)
            else:           # conjugate quadrant: purely imaginary, Im < 0
                sign_ok = sign_ok and val.imag < 0 and abs(val.real) <= 1e-10 * abs(val)
    rep.check_true("script_L_nonvanishing", min_abs > 0.0, f"min_abs={min_abs:.6e}")
    rep.check_true("script_L_case_signs", sign_ok)


def suite_formfactor(rep: Report) -> None:
    rng = np.random.default_rng(_SEED + 3)

    # single ordinate: only the diagonal term survives
    ds1 = ZeroDataset(ordinates=np.array([10.0]), lam=1.0)
    rep.check("single_ordinate_anchor",
              abs(form_factor(ds1, 100.0, 0.7) - 0.013644), 1e-6)

    worst_hand = worst_pos = worst_even = most_neg = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 6))
        g = np.sort(rng.uniform(5.0, 40.0, n))
        ds = ZeroDataset(ordinates=g, lam=float(rng.uniform(0.5, 2.0)))
        T = 100.0
        alpha = float(rng.uniform(-2.0, 2.0))
        hand = 0.0
        for gi in g:
            for gj in g:
                hand += np.cos(ds.lam * alpha * np.log(T) * (gi - gj)) \
                    * float(pair_weight(gi - gj))
        hand /= (ds.lam * T / (2 * np.pi)) * np.log(T)
        val = form_factor(ds, T, alpha)
        worst_hand = max(worst_hand, abs(val - hand))
        worst_pos = max(worst_pos, abs(val - form_factor_positive(ds, T, alpha)))
        worst_even = max(worst_even, abs(val - form_factor(ds, T, -alpha)))
        most_neg = min(most_neg, val)
    rep.check("formfactor_hand_expansion", worst_hand, 1e-12)
    rep.check("formfactor_positive_route", worst_pos, 1e-6)
    rep.check("formfactor_even", worst_even, 1e-12)
    rep.check_true("formfactor_nonnegative", most_neg >= -1e-10,
                   f"min={most_neg:.3e}")

    # averaged form factor: symmetric-window decomposition, exact on nested grids
    g = np.sort(rng.uniform(3.0, 60.0, 48))
    ds = ZeroDataset(ordinates=g, lam=1.0)
    T, b, ell = 60.0, 1.0, 1.0
    beta = b + ell
    h = 1.0 / 32.0
    lhs = windowed_average(ds, T, b, ell, h)
    sym_beta = symmetric_average(ds, T, beta, h)
    sym_b = symmetric_average(ds, T, b, h)
    rhs = sym_beta + (b / ell) * (sym_beta - sym_b)
    rep.check("windowed_average_identity", abs(lhs - rhs), 1e-9)

    half = windowed_average(ds, T, b, ell, h / 2.0)
    rep.check("windowed_average_self_convergence", abs(lhs - half) / abs(half), 1e-3)

    m = Measure(1, 1, 0.0, 0.5)
    grid = np.linspace(-0.5, 0.5, 2001)
    rep.check("phi_constant_transform",
              abs(phi_functional(m, np.ones_like(grid), grid) - 1.25), 1e-12)
    m2 = Measure(1, 1, 0.0, 1.0)
    grid2 = np.linspace(-1.0, 1.0, 4001)
    fejer_hat = np.maximum(1.0 - np.abs(grid2), 0.0)
    rep.check("phi_fejer_transform",
              abs(phi_functional(m2, fejer_hat, grid2) - (1 + 1.0 / 3.0)), 1e-6)

    for m in (Measure(1, 1, 0.0, 0.5), Measure(1, 1, 1.0, 0.5)):
        ratio = ep1_ratio_check(m)
        rep.check(f"ep1_ratio_c3_{m.c3}",
                  abs(ratio - 1.0 / kernel_k00(m)), 1e-5)


_SUITES = {
    "constants": (suite_constants,),
    "kernels": (suite_kernels,),
    "oracle": (suite_oracle,),
    "appendix": (suite_appendix,),
    "formfactor": (suite_formfactor,),
    "all": (suite_constants, suite_kernels, suite_oracle,
            suite_appendix, suite_formfactor),
}


def run_suite(name: str) -> Report:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    rep = Report()
    for fn in _SUITES[name]:
        rep.lines.append(f"== {fn.__name__.removeprefix('suite_')} ==")
        fn(rep)
    rep.lines.append(f"{'OK' if rep.all_passed else 'FAILED'} "
                     f"({rep.failures} failures)")
    return rep
