"""Closed-form kernels: roots, moment functions, sections, the divisor."""

import numpy as np
import pytest
from conftest import aux_A, aux_B, aux_C, integrate_with_kink, registry_test

from pairpack import (CaseTag, DegenerateRoots, InvalidRegime, LimitPath,
                      Measure, NotAdmissible, k_from_u, kernel_c3zero,
                      kernel_k00, kernel_k0z, kernel_k0z_grid, mu,
                      quartic_roots, script_L, solve_integral_eq, sup_g)
from pairpack.kernels import k0_endpoint_value, k0_transform_solution, quartic_residual


class TestQuarticRoots:
    def test_degenerate_case(self):
        # lam = 4 c3^2 at c3 = 1/2: eta = i sqrt(3) c3
        roots = quartic_roots(Measure(1.0, 1.0, 0.5, 0.5))
        assert roots.degenerate
        assert roots.case_tag is CaseTag.DEGENERATE
        assert roots.eta1 == pytest.approx(1j * np.sqrt(3.0) * 0.5, abs=1e-12)
        assert roots.eta2 == pytest.approx(roots.eta1, abs=1e-12)

    def test_purely_imaginary_case(self):
        roots = quartic_roots(Measure(1.0, 1.0, 0.1, 0.5))
        assert roots.case_tag is CaseTag.PURELY_IMAGINARY
        assert roots.eta1.real == 0.0 and roots.eta2.real == 0.0
        assert quartic_residual(Measure(1, 1, 0.1, 0.5), roots.eta1) <= 1e-10
        assert quartic_residual(Measure(1, 1, 0.1, 0.5), roots.eta2) <= 1e-10

    def test_conjugate_quadrant_case(self):
        roots = quartic_roots(Measure(1.0, 1.0, 1.0, 0.5))
        assert roots.case_tag is CaseTag.CONJUGATE_QUADRANT
        assert roots.eta1.real > 0 and roots.eta1.imag > 0
        assert abs(roots.eta2 - np.conj(roots.eta1)) <= 1e-12

    def test_branch_convention(self):
        # Re >= 0 and eta1 + eta2 != 0 everywhere sampled
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = Measure(1.0, float(rng.uniform(0.1, 3.0)),
                        float(rng.uniform(0.05, 3.0)), 0.5)
            r = quartic_roots(m)
            assert r.eta1.real >= 0 and r.eta2.real >= 0
            assert abs(r.eta1 + r.eta2) > 1e-12

    def test_invalid_regimes(self):
        with pytest.raises(InvalidRegime):
            quartic_roots(Measure(1, 1, 0.0, 0.5))
        with pytest.raises(InvalidRegime):
            quartic_roots(Measure(1, 0.0, 1.0, 0.5))


class TestAuxFunctions:
    def test_A_pure_atom(self):
        m = Measure(1.0, 0.0, 0.0, 0.5)
        for eta in (0.0, 1.0, 1 + 2j):
            assert aux_A(m, eta) == 1.0

    def test_A_at_zero_elementary(self):
        # 1 + int |a| over [-1/4, 1/4] = 1 + 1/16
        assert aux_A(Measure(1, 1, 0, 0.5), 0.0) == pytest.approx(1.0625, abs=1e-14)

    def test_A_against_quadrature(self):
        m = Measure(1.0, 1.0, 4.0, 0.5)
        eta = 1.0 + 2.0j
        re = integrate_with_kink(
            lambda a: np.real(np.cosh(eta * a)) * np.abs(a) * np.exp(-4 * np.abs(a)),
            -0.25, 0.25)
        im = integrate_with_kink(
            lambda a: np.imag(np.cosh(eta * a)) * np.abs(a) * np.exp(-4 * np.abs(a)),
            -0.25, 0.25)
        assert aux_A(m, eta) == pytest.approx(1.0 + re + 1j * im, abs=1e-10)

    def test_A_even_in_eta(self):
        m = Measure(1.0, 1.0, 2.0, 0.7)
        for eta in (0.3, 1 + 1j, 2.2j):
            assert aux_A(m, eta) == pytest.approx(aux_A(m, -eta), abs=1e-13)

    def test_B_pure_quadratic(self):
        m = Measure(1.0, 0.0, 0.0, 0.5)
        for eta in (0.7, 1 - 0.5j):
            assert aux_B(m, eta) == pytest.approx(eta * eta, abs=0)

    def test_B_at_zero_elementary(self):
        # corrected sign: B(0) = 2 - 16 - 8 int e^{-4|a|} = -14 - 4 (1 - 1/e);
        # the opposite sign fails the integral-equation oracle by 8e-3
        m = Measure(1.0, 1.0, 4.0, 0.5)
        expected = -14.0 - 4.0 * (1.0 - np.exp(-1.0))
        assert aux_B(m, 0.0) == pytest.approx(expected, abs=1e-13)
        q = integrate_with_kink(lambda a: np.exp(-4.0 * np.abs(a)), -0.25, 0.25)
        assert aux_B(m, 0.0) == pytest.approx(2.0 - 16.0 - 8.0 * q, abs=1e-12)

    def test_B_even_in_eta(self):
        m = Measure(1.0, 1.0, 1.0, 0.5)
        for eta in (0.4, 0.9 + 0.2j):
            assert aux_B(m, eta) == pytest.approx(aux_B(m, -eta), abs=1e-13)

    def test_AB_feed_the_divisor(self):
        # A, B at both roots must combine to a finite, nonzero divisor
        m = Measure(1.0, 1.0, 1.0, 0.5)
        r = quartic_roots(m)
        val = aux_A(m, r.eta1) * aux_B(m, r.eta2) - aux_B(m, r.eta1) * aux_A(m, r.eta2)
        assert np.isfinite(val)
        assert val == pytest.approx(script_L(m), abs=1e-13)


class TestAuxC:
    def test_limit_at_origin(self):
        # eta -> 0, z = 0: C -> Delta
        m = Measure(1.0, 1.0, 1.0, 0.5)
        assert aux_C(m, 1e-9, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_removable_point_two_sided(self):
        m = Measure(1.0, 1.0, 1.0, 0.5)
        eta = 0.7 + 0.3j
        z0 = 1j * eta / (2.0 * np.pi)
        at = aux_C(m, eta, z0)
        for eps in (1e-5, -1e-5, 1e-5j):
            assert abs(aux_C(m, eta, z0 * (1.0 + eps)) - at) <= 1e-4
        near = aux_C(m, eta, z0 * (1.0 + 1e-9))
        assert abs(near - at) <= 1e-8

    def test_against_multiprecision(self):
        # re-evaluate the single-fraction definition at 50 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        m = Measure(1.0, 1.0, 1.0, 0.5)
        eta, z = 1 + 1j, 0.3
        d = mpmath.mpf(m.delta)
        e = mpmath.mpc(eta)
        zz = mpmath.mpc(z)
        num = (4 * mpmath.pi * zz * mpmath.sin(mpmath.pi * d * zz) * mpmath.cosh(d * e / 2)
               + 2 * e * mpmath.cos(mpmath.pi * d * zz) * mpmath.sinh(d * e / 2))
        ref = num / (4 * mpmath.pi ** 2 * zz ** 2 + e ** 2)
        assert aux_C(m, eta, z) == pytest.approx(complex(ref), abs=1e-13)


class TestMu:
    def test_zero_iff_c3_zero(self):
        assert mu(Measure(1, 1, 0.0, 0.5)) == 0.0
        assert mu(Measure(1, 1, 1.0, 0.5)) > 0

    def test_arithmetic(self):
        assert mu(Measure(1, 1, 4.0, 0.5)) == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_c2_to_zero_limit(self):
        assert mu(Measure(2.0, 1e-14, 3.0, 0.5)) == pytest.approx(0.5, abs=1e-12)


class TestKernelK00:
    test_anchor_value = registry_test("k00_corollary11_reciprocal", "k00_vs_oracle_c3zero")
    test_positive_c3_vs_oracle = registry_test("k0z_vs_oracle_c3_1.0")

    def test_pure_atom_limit(self):
        assert kernel_k00(Measure(1.0, 0.0, 0.0, 0.5)) == pytest.approx(0.5, abs=0)
        assert kernel_k00(Measure(1.0, 1e-12, 0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            kernel_k00(Measure(1.0, 2.0, 0.0, 1.0))


class TestKernelC3Zero:
    test_hermitian_symmetry = registry_test("c3zero_hermitian")
    test_diagonal_positive = registry_test("diagonal_positive")

    m = Measure(1.0, 1.0, 0.0, 0.5)

    def test_origin_matches_k00(self):
        ev = kernel_c3zero(self.m, 0.0, 0.0)
        assert ev.value == pytest.approx(kernel_k00(self.m), abs=1e-14)
        assert ev.value.real == pytest.approx(0.4617, abs=1e-4)

    def test_removable_w_limit(self):
        w0 = np.sqrt(self.m.c2 / (2 * self.m.c1)) / np.pi
        at = kernel_c3zero(self.m, w0, 0.3)
        assert at.limit_path is LimitPath.REMOVABLE_W
        near = kernel_c3zero(self.m, w0 + 1e-6, 0.3)
        assert abs(at.value - near.value) <= 1e-6
        # against the oracle route
        sol = solve_integral_eq(self.m, w0)
        assert at.value == pytest.approx(np.conj(k_from_u(sol, np.conj(0.3))),
                                         abs=1e-8)

    def test_removable_z_marker(self):
        z0 = np.sqrt(self.m.c2 / (2 * self.m.c1)) / np.pi
        ev = kernel_c3zero(self.m, 0.2, z0)
        assert ev.limit_path is LimitPath.REMOVABLE_Z
        near = kernel_c3zero(self.m, 0.2, z0 + 1e-7)
        assert abs(ev.value - near.value) <= 1e-6

    def test_oracle_agreement_complex_args(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
            sol = solve_integral_eq(self.m, w)
            oracle = np.conj(k_from_u(sol, np.conj(z)))
            assert kernel_c3zero(self.m, w, z).value == pytest.approx(oracle, abs=1e-10)

    def test_pure_atom_is_sinc(self):
        m = Measure(2.0, 0.0, 0.0, 0.8)
        val = kernel_c3zero(m, 0.3, 0.9).value
        d = 0.9 - 0.3
        assert val == pytest.approx(np.sin(np.pi * 0.8 * d) / (np.pi * d) / 2.0,
                                    abs=1e-14)

    def test_wrong_regime(self):
        with pytest.raises(InvalidRegime):
            kernel_c3zero(Measure(1, 1, 1.0, 0.5), 0.0, 0.0)

    def test_endpoint_value_c3zero_and_atom(self):
        # u0(Delta/2) = a(0) cos(om Delta/2) against the oracle's endpoint
        # value (measured within 9e-16); 1/c1 for a pure atom at any c3
        for m in (Measure(1.0, 1.0, 0.0, 0.5), Measure(1.3, 2.0, 0.0, 0.9),
                  Measure(0.8, 0.0, 0.0, 0.5)):
            u_end = solve_integral_eq(m, 0.0).interpolate(np.array([m.delta / 2.0]))[0]
            assert k0_endpoint_value(m) == pytest.approx(u_end.real, abs=1e-14)
        assert k0_endpoint_value(Measure(0.8, 0.0, 2.0, 0.5)) == 1.0 / 0.8


class TestKernelK0z:
    test_oracle_agreement = registry_test("k0z_vs_oracle_c3_1.0")
    test_even = registry_test("k0z_even")
    test_degenerate_bracketed_by_generic = registry_test("degenerate_bracket")

    def test_z_zero_equals_k00(self):
        m = Measure(1.0, 1.0, 1.0, 0.5)
        assert kernel_k0z(m, 0.0).value == pytest.approx(kernel_k00(m), abs=1e-12)

    def test_degenerate_branch(self):
        m = Measure(1.0, 1.0, 0.5, 0.5)      # lam = 4 c3^2 exactly
        ev = kernel_k0z(m, 0.3)
        assert ev.limit_path is LimitPath.DEGENERATE_ETA
        sol = solve_integral_eq(m, 0.0)
        assert ev.value == pytest.approx(k_from_u(sol, 0.3), abs=1e-7)

    def test_near_degenerate_matches_oracle(self):
        # both sides of the line lam = 4 c3^2, from on it to 1e-2 away; the
        # two-root formula cancels there unless the divided differences are
        # taken from the close-root series
        zs = np.array([0.0, 0.3, 1.1, 3.7])
        worst = 0.0
        for delta, sigma in ((0.5, 0.25), (0.7, 1.0), (1.0, 1.66), (0.3, 0.05)):
            c3 = np.sqrt(sigma) / delta / 2.0
            for eps in (0.0, 1e-15, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
                for sign in ((1.0,) if eps == 0.0 else (1.0, -1.0)):
                    m = Measure(1.0, 4.0 * c3 ** 2 * (1.0 + sign * eps), c3, delta)
                    oracle = k_from_u(solve_integral_eq(m, 0.0, n=200), zs)
                    closed = [kernel_k0z(m, z, extended=True).value for z in zs]
                    worst = max(worst, float(np.max(np.abs(closed - oracle))))
        assert worst <= 1e-13

    def test_root_swap_invariance(self):
        # reassemble with eta1 <-> eta2 by flipping the discriminant branch
        m = Measure(1.0, 1.0, 1.0, 0.5)
        val = kernel_k0z(m, 0.3).value
        r = quartic_roots(m)
        e1, e2 = r.eta2, r.eta1                     # swapped on purpose
        mu_v = mu(m)
        r1 = 1.0 / m.c1 - aux_A(m, 0.0) * mu_v
        r2 = m.c3 ** 2 / m.c1 + aux_B(m, 0.0) * mu_v
        div = aux_A(m, e1) * aux_B(m, e2) - aux_B(m, e1) * aux_A(m, e2)
        t1 = (r1 * aux_B(m, e2) + r2 * aux_A(m, e2)) / div
        t2 = -(r1 * aux_B(m, e1) + r2 * aux_A(m, e1)) / div
        z = 0.3
        swapped = (t1 * aux_C(m, e1, z) + t2 * aux_C(m, e2, z)
                   + mu_v * np.sin(np.pi * m.delta * z) / (np.pi * z))
        assert swapped == pytest.approx(val, abs=1e-12)

    def test_grid_matches_scalar(self):
        m = Measure(1.0, 1.0, 2.0, 0.5)
        zs = np.linspace(-2, 2, 41).astype(complex)
        grid = kernel_k0z_grid(m, zs)
        for i in (0, 7, 20, 33):
            assert grid[i] == pytest.approx(kernel_k0z(m, zs[i]).value, abs=1e-13)

    def test_grid_of_a_batch_matches_single_measures(self):
        # every regime in one 2 x 3 batch (pure atom, c3 = 0, close roots on
        # and off the degenerate line, generic, c3 Delta = 200) on a 2 x 2 grid
        rows = np.array([[1, 0, 3, 0.5], [1, 1, 0, 0.5], [1, 1, 0.5, 0.5],
                         [1, 1 + 1e-6, 0.5, 0.5], [1.3, 1.1, 2.0, 0.7], [1, 1, 400, 0.5]])
        batch = Measure(*rows.T.reshape(4, 2, 3))
        zs = np.array([[0.0, 0.3 + 0.1j], [1.1, 2.0]])
        grid = kernel_k0z_grid(batch, zs)
        assert grid.shape == (2, 3, 2, 2)
        single = np.array([kernel_k0z_grid(Measure(*r), zs) for r in rows])
        np.testing.assert_allclose(grid.reshape(6, 2, 2), single, rtol=1e-15, atol=0)

    def test_wrong_regime(self):
        with pytest.raises(InvalidRegime):
            kernel_k0z(Measure(1, 1, 0.0, 0.5), 0.3)


class TestContinuityAndAsymptotics:
    test_continuity_in_c3 = registry_test("c3_continuity")
    test_large_c3_rate = registry_test("large_c3_decay_slope")
    test_corollary_identity_c3zero = registry_test("selberg_identity_m_le_20")


class TestScriptL:
    test_nonvanishing_grid = registry_test("script_L_nonvanishing")

    def test_case_one_real_negative(self):
        val = script_L(Measure(1.0, 1.0, 0.1, 0.5))
        assert val.real < 0
        assert abs(val.imag) <= 1e-10

    def test_case_two_purely_imaginary(self):
        val = script_L(Measure(1.0, 1.0, 1.0, 0.5))
        assert abs(val.real) <= 1e-10
        assert val.imag < 0

    def test_degenerate_refused(self):
        with pytest.raises(DegenerateRoots):
            script_L(Measure(1.0, 1.0, 0.5, 0.5))

    def test_sigma_range_refused(self):
        m = Measure(1.0, 3.0, 1.0, 1.0)      # sigma = 3 > 2.9
        with pytest.raises(NotAdmissible):
            script_L(m)


class TestLargeC3Stability:
    def test_no_overflow_far_into_asymptotics(self):
        for c3 in (1e3, 1e4, 1e6):
            val = 1.0 / kernel_k00(Measure(1, 1, float(c3), 0.5))
            assert np.isfinite(val)
            assert val == pytest.approx(2.0, abs=1e-3)

    def test_scaled_solution_consistent(self):
        m = Measure(1.0, 1.0, 4.0, 0.5)
        sol = k0_transform_solution(m)
        # endpoint value agrees with the oracle's interpolated endpoint
        nys = solve_integral_eq(m, 0.0)
        u_end = nys.interpolate(np.array([m.delta / 2.0]))[0]
        assert sol.endpoint_value(m) == pytest.approx(u_end, abs=1e-9)


class TestTransformSolutionCache:
    def test_repeated_calls_share_one_read_only_solution(self):
        # near the degenerate line the divided differences use power sums
        m = Measure(1.0, 1.0 + 1e-6, 0.5, 0.5)
        sol = k0_transform_solution(m)
        assert k0_transform_solution(Measure(1.0, 1.0 + 1e-6, 0.5, 0.5)) is sol
        assert sol.power_sums is not None
        with pytest.raises(ValueError):
            sol.power_sums[0] = 0.0
        with pytest.raises(AttributeError):
            sol.mu = 0.0
        assert k0_transform_solution(Measure(1.0, 1.0, 1.5, 0.5)) is not sol
