"""Closed-form kernels: roots, moment functions, sections, the divisor."""

import functools
import itertools
import math
import operator
import types

import numpy as np
import pytest
from conftest import (BY_NAME, LINE_MEASURE, aux_A, aux_B, aux_C, exp_moments,
                      integrate_with_kink, registry_test)

from pairpack import (CaseTag, DegenerateRoots, InvalidRegime, LimitPath,
                      Measure, NotAdmissible, k_from_u, kernel_c3zero,
                      kernel_k00, kernel_k0z, kernel_k0z_grid, mu,
                      quartic_roots, script_L, solve_integral_eq)
from pairpack.kernels import (_CLOSE_GAP, C3_MAX, DELTA_MIN, _contour, k0_endpoint_value,
                              k0_transform_solution, quartic_residual)
import pairpack.kernels as kernels
import pairpack.verify as verify


class TestQuarticRoots:
    def test_degenerate_case(self):
        # lam = 4 c3^2 at c3 = 1/2: eta = i sqrt(3) c3
        roots = quartic_roots(Measure(1.0, 1.0, 0.5, 0.5))
        assert roots.degenerate
        assert roots.case_tag is CaseTag.DEGENERATE
        assert roots.eta1 == pytest.approx(1j * np.sqrt(3.0) * 0.5, abs=1e-12)
        assert roots.eta2 == pytest.approx(roots.eta1, abs=1e-12)

    @pytest.mark.parametrize("root", [0, 1])
    def test_planted_root_fails_the_residual_check(self, monkeypatch, root):
        # a 1e-12 relative error in one of the solve's roots
        def planted(m):
            offsets = k0_transform_solution(m).offsets.copy()
            offsets[root] *= 1.0 + 1e-12
            return types.SimpleNamespace(offsets=offsets)
        monkeypatch.setattr(verify, "k0_transform_solution", planted)
        measured, tol = verify._quartic_residual()
        assert measured > 10.0 * tol

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

    def test_huge_c3_roots_stay_apart(self):
        # eta1^2 - eta2^2 grows like c3 and the roots like c3^2, so a test on
        # their gap tagged these roots degenerate above c3 ~ 2e9; the
        # discriminant lam - 4 c3^2 and lam + 4 c3^2 grow alike
        for c3 in (10 ** 9.5, 1e12, C3_MAX):
            m = Measure(1.0, 1.0, c3, 0.5)
            assert quartic_roots(m).case_tag is CaseTag.CONJUGATE_QUADRANT
            assert script_L(m) == pytest.approx(-4j * c3, rel=1e-14)
            assert kernel_k00(m) == pytest.approx(0.5, rel=1e-9)

    def test_near_degenerate_tags_as_drawn(self):
        # the benchmark's near-degenerate mix: |lam / 4 c3^2 - 1| log-uniform
        # in [1e-12, 1e-2] takes the tag of its side of the line, and a draw
        # with c2 = 4 c3 c3 c1 (c1 a power of two) is on it
        rng = np.random.default_rng(1919)
        rows, tags = [], []
        for _ in range(2000):
            c1, delta = float(rng.choice([0.5, 1.0, 2.0])), float(rng.uniform(0.3, 1.2))
            lam = float(rng.uniform(0.05, 1.66)) / delta ** 2
            side = int(rng.integers(-1, 2))
            if side:
                c3 = math.sqrt(lam / (4.0 * (1.0 + side * 10.0 ** rng.uniform(-12.0, -2.0))))
                rows.append((c1, lam * c1, c3, delta))
            else:
                c3 = math.sqrt(lam) / 2.0
                rows.append((c1, 4.0 * c3 * c3 * c1, c3, delta))
            tags.append({-1: CaseTag.CONJUGATE_QUADRANT, 0: CaseTag.DEGENERATE,
                         1: CaseTag.PURELY_IMAGINARY}[side])
        assert list(quartic_roots(Measure(*np.array(rows).T)).case_tag) == tags

    def test_small_c3_roots_against_mpmath(self):
        # eta1^2 = c3^2 - lam + sqrt(lam) Lam cancels as c3 -> 0 (relative
        # error 8e-4 at c3 = 1e-7 when formed as that sum); the Vieta form
        # keeps both roots and the quartic residual at rounding level, and
        # eta1 on the '+' branch (+i |eta1| for purely imaginary roots)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for c1, c2, delta in ((1.0, 1.0, 0.7), (0.6, 1.9, 0.4), (2.0, 0.3, 1.1)):
            for c3 in 10.0 ** -np.arange(1.0, 9.5, 0.5):
                m = Measure(c1, c2, float(c3), delta)
                r = quartic_roots(m)
                lam, c = mpmath.mpf(c2) / c1, mpmath.mpf(float(c3))
                lam_root = mpmath.sqrt(lam) * mpmath.sqrt(lam - 4 * c * c)
                for eta, sign in ((r.eta1, 1), (r.eta2, -1)):
                    ref = complex(mpmath.sqrt(mpmath.mpc(c * c - lam + sign * lam_root)))
                    assert abs(eta - ref) <= 4e-16 * abs(ref)
                    assert eta.real == 0.0 and eta.imag > 0.0
                    assert quartic_residual(m, eta) <= 1e-15

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

    def test_tiny_c3_against_mpmath(self):
        # in long double and rounded once: in double c3^2 underflows below
        # c3 = 1.5e-154, and mu read 0 at (c3, c2) = (1e-200, 1e-300) for
        # 5e-101, and 4.99994e-321 at (1e-160, 1) for 5e-321.  Every value
        # is within half an ulp of mpmath's, alone and in a batch
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 300
        rs = [(1.0, c2, c3, 1.0) for c3 in (1e-160, 1e-200, 1e-300) for c2 in (1.0, 1e-300)]
        batch = mu(Measure(*np.array(rs).T))
        for (c1, c2, c3, _), in_batch in zip(rs, batch):
            one = mu(Measure(c1, c2, c3, 1.0))
            c3_sq = mpmath.mpf(c3) ** 2
            ref = c3_sq / (2 * mpmath.mpf(c2) + c3_sq * c1)
            half_ulp = mpmath.mpf(math.ulp(float(ref))) / 2
            assert abs(mpmath.mpf(float(one)) - ref) <= half_ulp, (c2, c3)
            assert one == in_batch


class TestKernelK00:
    test_anchor_value = registry_test("k00_corollary11_reciprocal", "k00_vs_oracle_c3zero")
    test_positive_c3_vs_oracle = registry_test("k0z_vs_oracle_c3_1.0")

    def test_pure_atom_limit(self):
        assert kernel_k00(Measure(1.0, 0.0, 0.0, 0.5)) == pytest.approx(0.5, abs=0)
        assert kernel_k00(Measure(1.0, 1e-12, 0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            kernel_k00(Measure(1.0, 2.0, 0.0, 1.0))

    def test_planted_k00_fails_the_oracle_check(self, monkeypatch):
        # a 1e-12 relative change of K(0, 0) fails k00_vs_oracle_c3zero
        monkeypatch.setattr(verify, "kernel_k00", lambda m: kernel_k00(m) * (1.0 + 1e-12))
        assert not BY_NAME["k00_vs_oracle_c3zero"].run()[0]

    def test_delta_floor(self):
        # below DELTA_MIN a measure, or any entry of a batch, is refused in
        # both regimes (the c3 = 0 contour overflowed below about 1e-77, and
        # (c3 L)^2 underflowed into a division by zero); at the floor, and
        # where (c3 L)^2 underflows through c3 and c2, the values are finite
        for c3 in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"delta must be >= 1e-70"):
                kernel_k00(Measure(1.0, 1.0, c3, 1e-300))
            with pytest.raises(ValueError, match=r"delta must be >= 1e-70"):
                kernel_k0z_grid(Measure(1.0, 1.0, c3, np.array([0.5, 1e-80])), [0.0, 1.0])
            m = Measure(2.0, 1.0, c3, DELTA_MIN)
            assert kernel_k00(m) == DELTA_MIN / 2.0
            assert kernel_k0z_grid(m, [0.0])[0] == pytest.approx(DELTA_MIN / 2.0, rel=1e-15)
        with pytest.raises(ValueError, match=r"delta must be >= 1e-70"):
            kernel_c3zero(Measure(1.0, 1.0, 0.0, 1e-80), 0.0, 0.0)
        tiny = Measure(1.0, 1e-300, 1e-200, 1.0)     # c3 L = 5e-201
        assert kernel_k00(tiny) == 1.0
        assert kernel_k0z_grid(tiny, [0.0, 0.3]) == pytest.approx(
            [1.0, np.sin(0.3 * np.pi) / (0.3 * np.pi)], rel=1e-15)


class TestKernelC3Zero:
    test_hermitian_symmetry = registry_test("c3zero_hermitian")
    test_diagonal_positive = registry_test("diagonal_positive")

    m = Measure(1.0, 1.0, 0.0, 0.5)

    def test_planted_asymmetry_fails_hermitian(self, monkeypatch):
        # a 1e-12 relative error in K(w, z) where Re w > Re z
        def planted(m, w, z, extended=False):
            ev = kernel_c3zero(m, w, z, extended)
            scale = 1.0 + 1e-12 if complex(w).real > complex(z).real else 1.0
            return types.SimpleNamespace(value=ev.value * scale)
        monkeypatch.setattr(verify, "kernel_c3zero", planted)
        measured, tol = verify._c3zero_hermitian()
        assert measured > 10.0 * tol

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
        # z at the pole's band takes no limit: the quotient rows are entire
        # in z, so the marker reads NONE and the value is continuous there
        z0 = np.sqrt(self.m.c2 / (2 * self.m.c1)) / np.pi
        ev = kernel_c3zero(self.m, 0.2, z0)
        assert ev.limit_path is LimitPath.NONE
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

    @pytest.mark.parametrize("args", [(0.5, 0.451, 0, 1.2), (1, 1, 0, 0.5), (1.0, 1e-4, 0, 0.5)])
    def test_removable_w_sweep_against_oracle(self, args):
        # w = +/- w0 (1 + eps) around the coefficient pole, eps real and
        # complex in 1e-11 ... 1e-1, where the raw coefficients cancel (the
        # contour sum reads at most 2.0e-14 here).  w0 of the last measure
        # is so small that the contour holds both poles and w = 0
        m = Measure(*args)
        w0 = np.sqrt(m.c2 / (2 * m.c1)) / np.pi
        eps = np.logspace(-11, -1, 11)
        worst = 0.0
        for w in np.multiply.outer([w0, -w0], 1.0 + np.concatenate(
                [eps, -eps, 1j * eps, (1 - 1j) * eps / np.sqrt(2)])).ravel():
            sol = solve_integral_eq(m, w)
            for z in (0.3, -1.1 + 0.2j):
                oracle = np.conj(k_from_u(sol, np.conj(z)))
                worst = max(worst, abs(kernel_c3zero(m, w, z).value - oracle))
        assert worst <= 1e-12

    def test_pure_atom_at_its_pole(self):
        # c2 = 0: the pole is w = 0, where K(0, z) is the sinc kernel / c1
        m = Measure(2.0, 0.0, 0.0, 0.8)
        for z in (0.0, 0.9, 0.3 - 0.2j):
            ev = kernel_c3zero(m, 0.0, z)
            assert ev.limit_path is LimitPath.REMOVABLE_W
            ref = 0.8 if z == 0 else np.sin(np.pi * 0.8 * z) / (np.pi * z)
            assert ev.value == pytest.approx(ref / 2.0, abs=1e-15)

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
        # sigma = 10 is past the extended threshold at c3 > 0 as at c3 = 0
        for c3 in (0.0, 1.0):
            with pytest.raises(NotAdmissible, match="extended threshold"):
                k0_endpoint_value(Measure(1.0, 10.0, c3, 1.0))


class TestKernelK0z:
    test_oracle_agreement = registry_test("k0z_vs_oracle_c3_1.0")
    test_even = registry_test("k0z_even")
    test_degenerate_bracketed_by_generic = registry_test("degenerate_bracket")

    @pytest.mark.parametrize("route", ["kernel_k0z", "kernel_k0z_grid"])
    def test_planted_odd_error_fails_even(self, monkeypatch, route):
        # a 1e-12 relative error in K(0, z) where Re z > 0, in the single
        # points or in the grid
        def planted(m, z, extended=False):
            value = getattr(kernels, route)(m, z, extended)
            if route == "kernel_k0z":
                scale = 1.0 + 1e-12 if complex(z).real > 0 else 1.0
                return types.SimpleNamespace(value=value.value * scale)
            return value * np.where(np.real(z) > 0, 1.0 + 1e-12, 1.0)
        monkeypatch.setattr(verify, route, planted)
        measured, tol = verify._k0z_even()
        assert measured > 10.0 * tol

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
        # taken from the contour rows
        zs = np.array([0.0, 0.3, 1.1, 3.7, 2.0 + 1.5j, 6.0 - 0.5j])
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
        # every regime in one 2 x 4 batch (pure atom, c3 = 0, close roots on
        # and off the degenerate line, generic, c3 Delta = 200 and 500, and a
        # measure on the line built as c2 = 4 c3 c3 c1) on a 2 x 2 grid, bit
        # for bit
        rows = np.array([[1, 0, 3, 0.5], [1, 1, 0, 0.5], [1, 1, 0.5, 0.5],
                         [1, 1 + 1e-6, 0.5, 0.5], [1.3, 1.1, 2.0, 0.7], [1, 1, 400, 0.5],
                         [1.3, 1.1, 500 / 0.7, 0.7], LINE_MEASURE])
        batch = Measure(*rows.T.reshape(4, 2, 4))
        zs = np.array([[0.0, 0.3 + 0.1j], [1.1, 2.0]])
        grid = kernel_k0z_grid(batch, zs)
        assert grid.shape == (2, 4, 2, 2)
        single = np.array([kernel_k0z_grid(Measure(*r), zs) for r in rows])
        np.testing.assert_array_equal(grid.reshape(8, 2, 2), single)

    def test_all_section_batch_inside_a_mixed_batch(self):
        # the section measures of a batch give the same bits whether the batch
        # holds only section measures (one regime, no per-regime measure) or
        # c3 = 0 and pure atoms as well
        section = np.array([[1, 1, 0.5, 0.5], [1, 1 + 1e-6, 0.5, 0.5], [1.3, 1.1, 2.0, 0.7],
                            [1, 1, 400, 0.5], LINE_MEASURE, [0.7, 1.2, 0.3, 0.9]])
        other = np.array([[1, 0, 3, 0.5], [1, 1, 0, 0.5], [2, 0.5, 0, 1.1]])
        zs = np.array([0.0, 0.3 + 0.1j, 1.1, 2.0])
        alone = kernel_k0z_grid(Measure(*section.T.reshape(4, 2, 3)), zs)
        both = Measure(*np.concatenate([other[:2], section, other[2:]]).T)
        mixed = kernel_k0z_grid(both, zs)
        assert alone.shape == (2, 3, 4)
        np.testing.assert_array_equal(alone.reshape(6, 4), mixed[2:8])
        # K(0, 0) comes from the solves: the same bits in both batches, and
        # within 5e-15 of the rows' sum at z = 0
        k00 = kernel_k00(Measure(*section.T))
        np.testing.assert_array_equal(kernel_k00(both)[2:8], k00)
        np.testing.assert_allclose(mixed[2:8, 0].real, k00, rtol=0, atol=5e-15)
        # and one measure of each regime
        pair = np.array([other[1], section[2]])
        np.testing.assert_array_equal(kernel_k0z_grid(Measure(*pair.T), zs),
                                      [kernel_k0z_grid(Measure(*r), zs) for r in pair])

    def test_c3zero_batch_within_an_ulp_of_single_measures(self):
        # u_0's rows take cmath and libm for one measure and numpy's loops
        # for a batch (kernels._far_rows), whose cos and cosh differ by an
        # ulp at some arguments: on 1,000 closed_sweep-style c3 = 0 draws
        # (sigma to 1.66) 149 measures' weights differ, by at most 2.2e-16
        # relative, and the 65-point real grids by 3.2e-16 of max(1, |K|)
        rng = np.random.default_rng(3500)
        rows = []
        for _ in range(400):
            c1, delta = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)
            rows.append((c1, rng.uniform(0.05, 1.66) * c1 / delta ** 2, 0.0, delta))
        zp = np.sort(rng.uniform(0.0, 4.0, 32))
        zs = np.concatenate([-zp[::-1], zp, [0.0]])
        batch = Measure(*np.array(rows).T)
        weights, grid = kernels._c3zero_section(batch.c1, batch.c2, batch.delta)[1], \
            kernel_k0z_grid(batch, zs)
        differ = 0
        for r, w_batch, g in zip(rows, weights, grid):
            w_one = kernels._c3zero_section(*np.array(r)[[0, 1, 3]].tolist())[1]
            one = kernel_k0z_grid(Measure(*r), zs)
            differ += not np.array_equal(w_batch, w_one)
            assert np.max(np.abs(w_batch - w_one) / np.abs(w_one)) <= 4.5e-16
            assert np.max(np.abs(g - one) / np.maximum(1.0, np.abs(one))) <= 6.7e-16
        assert differ > 0              # the two routes do round apart

    def test_degenerate_line_alone_and_in_a_batch(self):
        # measures with c2 = 4 c3 c3 c1 bit for bit, built as the benchmark
        # builds them: tags, roots and K(0, z) are the same alone and in a
        # batch (on a Python float, c3 ** 2 is libm pow, which rounds apart
        # from c3 * c3 and would tag LINE_MEASURE's roots purely imaginary)
        rng = np.random.default_rng(1717)
        rows = [LINE_MEASURE]
        for _ in range(300):
            c1, delta = float(rng.choice([0.5, 1.0, 2.0])), float(rng.uniform(0.3, 1.2))
            c3 = math.sqrt(float(rng.uniform(0.05, 1.66)) / delta ** 2) / 2.0
            rows.append((c1, 4.0 * c3 * c3 * c1, c3, delta))
        batch = Measure(*np.array(rows).T)
        zs = np.array([0.0, 1.3, 2.5 - 0.4j])
        roots, grid = quartic_roots(batch), kernel_k0z_grid(batch, zs)
        for i, r in enumerate(rows):
            one = quartic_roots(Measure(*r))
            assert one.case_tag is roots.case_tag[i] is CaseTag.DEGENERATE
            assert (one.eta1, one.eta2) == (roots.eta1[i], roots.eta2[i])
            np.testing.assert_array_equal(kernel_k0z_grid(Measure(*r), zs), grid[i])

    def test_batch_padding_keeps_values_exact(self):
        # a batch with a close-root measure gives the others 16 zero-weight
        # rows; their values stay bit-identical to their own evaluation
        zs = np.linspace(-5.0, 5.0, 33) + 0.5j
        rows = np.array([[1.3, 1.1, 2.0, 0.7], [1, 1 + 1e-6, 0.5, 0.5], [1, 1, 400, 0.5]])
        grid = kernel_k0z_grid(Measure(*rows.T), zs)
        for r, g in zip(rows, grid):
            np.testing.assert_array_equal(g, kernel_k0z_grid(Measure(*r), zs))

    def test_wrong_regime(self):
        with pytest.raises(InvalidRegime):
            kernel_k0z(Measure(1, 1, 0.0, 0.5), 0.3)

    def test_pure_atom_reports_the_rows_it_summed(self):
        # a pure atom at c3 > 0 sums u_0's rows at their pole w = 0: the
        # contour rows, which the marker names
        m = Measure(2.0, 0.0, 1.5, 0.8)
        ev = kernel_k0z(m, 0.9)
        assert ev.limit_path is LimitPath.REMOVABLE_W
        assert ev.value == pytest.approx(np.sin(np.pi * 0.8 * 0.9) / (np.pi * 0.9) / 2.0,
                                         abs=1e-15)


class TestContour:
    @staticmethod
    def functions(mpmath, zeta, L, c3):
        # cosh(eta L) and I_k(eta) = phi_k(eta - c3) + phi_k(-eta - c3), k = 0, 1,
        # phi_k(s) the k-th moment of e^{s a} over [0, L]
        eta = mpmath.sqrt(zeta)
        phi = [lambda s: mpmath.expm1(s * L) / s,
               lambda s: L * mpmath.exp(s * L) / s - mpmath.expm1(s * L) / s ** 2]
        return [mpmath.cosh(eta * L)] + [f(eta - c3) + f(-eta - c3) for f in phi]

    def test_divided_differences_against_mpmath(self):
        # the rule against 50-digit divided differences (a derivative where the
        # roots coincide), with |zeta1 - zeta2| L^2 from 0 up to _CLOSE_GAP on
        # both sides of the degenerate line; the weights' own rounding enters
        # times sum_k |c_k X(eta_k)|, up to 13 |X'| for I_0, so the error is
        # measured relative to that sum (worst 2.8e-16 of it)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        worst = 0.0
        for delta, sigma in ((0.5, 0.25), (0.7, 1.0), (1.0, 1.66), (0.3, 0.05)):
            c3, L = np.sqrt(sigma) / delta / 2.0, delta / 2.0
            for gap in (0.0, 1e-8, 1e-5, 1e-3, 4e-3, 0.99 * _CLOSE_GAP):
                for sign in ((1.0,) if gap == 0.0 else (1.0, -1.0)):
                    # |zeta1 - zeta2| L^2 = sigma/2 sqrt((1 + eps) |eps|) = gap
                    t = (2.0 * gap / sigma) ** 2
                    eps = sign * 2.0 * t / (1.0 + np.sqrt(1.0 + 4.0 * sign * t))
                    r = quartic_roots(Measure(1.0, 4.0 * c3 ** 2 * (1.0 + eps), c3, delta))
                    z1, z2 = r.eta1 ** 2, r.eta2 ** 2
                    assert abs(z1 - z2) * L * L < _CLOSE_GAP
                    nodes, c = _contour(z1, z2, L)
                    values = [np.cosh(nodes * L)] + [
                        exp_moments(k, nodes - c3, L)[k] + exp_moments(k, -nodes - c3, L)[k]
                        for k in (0, 1)]
                    Z1, Z2 = mpmath.mpc(z1), mpmath.mpc(z2)
                    exact = functools.partial(self.functions, mpmath, L=mpmath.mpf(L),
                                              c3=mpmath.mpf(c3))
                    if z1 == z2:
                        ref = [mpmath.diff(lambda z, j=j: exact(z)[j], Z1) for j in range(3)]
                    else:
                        ref = [(a - b) / (Z1 - Z2) for a, b in zip(exact(Z1), exact(Z2))]
                    for x, dd in zip(values, ref):
                        err = abs(np.sum(c * x) - complex(dd)) / np.sum(np.abs(c * x))
                        worst = max(worst, err)
        assert worst <= 1e-15

    def test_endpoint_value_at_close_roots(self):
        # u0(Delta/2) as half the rows' exponential sum, contour rows included,
        # against the oracle's interpolated endpoint (measured within 8.9e-16)
        for eps in (0.0, 1e-12, 1e-8, 1e-4):
            m = Measure(1.0, 1.0 + eps, 0.5, 0.5)
            assert k0_transform_solution(m).close
            u_end = solve_integral_eq(m, 0.0, n=400).interpolate(np.array([m.delta / 2.0]))[0]
            assert abs(k0_endpoint_value(m) - u_end) <= 1e-14


class TestContinuityAndAsymptotics:
    test_continuity_in_c3 = registry_test("c3_continuity")
    test_large_c3_rate = registry_test("large_c3_decay_slope")
    test_corollary_identity_c3zero = registry_test("selberg_identity_m_le_20")


class TestScriptL:
    test_nonvanishing_grid = registry_test("script_L_nonvanishing", "script_L_det_real")

    @pytest.mark.parametrize("plant, fails", [
        (lambda det: det * (1.0 + 1e-10j), "script_L_det_real"),
        (lambda det: det + 2e-2, "script_L_nonvanishing")])
    def test_planted_divisor_fails(self, monkeypatch, request, plant, fails):
        # det leaves the real axis by 1e-10, or rises above -1 on the line
        monkeypatch.setattr(verify, "k0_transform_solution", lambda m: types.SimpleNamespace(
            det=plant(k0_transform_solution(m).det)))
        request.addfinalizer(verify._divisor_margins.cache_clear)
        verify._divisor_margins.cache_clear()
        outcomes = {name: BY_NAME[name].run()[0]
                    for name in ("script_L_nonvanishing", "script_L_det_real")}
        assert outcomes == {name: name != fails for name in outcomes}

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


def mp_section(c1, c2, c3, delta, zs):
    """The paper's two-root formula at 40 + c3 Delta digits, its moments of
    e^{s a} over [0, L] in closed form: (A(eta1) B(eta2) - B(eta1) A(eta2),
    K(0, z) at the points zs).  No float routine of the package or of
    conftest enters."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + int(c3 * delta)):
        c1, c2, c3, L = (mpmath.mpf(v) for v in (c1, c2, c3, delta / 2))
        lam = c2 / c1
        lam_root = mpmath.sqrt(lam) * mpmath.sqrt(mpmath.mpc(lam - 4 * c3 * c3))
        eta = [mpmath.sqrt(c3 * c3 - lam + sign * lam_root) for sign in (1, -1)]

        def ab(e):
            phi0 = [mpmath.expm1(s * L) / s for s in (e - c3, -e - c3)]
            phi1 = [L * mpmath.exp(s * L) / s - mpmath.expm1(s * L) / s ** 2
                    for s in (e - c3, -e - c3)]
            return 1 + lam * sum(phi1), e * e + 2 * lam - c3 * c3 - 2 * lam * c3 * sum(phi0)

        (a1, b1), (a2, b2), (a0, b0) = ab(eta[0]), ab(eta[1]), ab(mpmath.mpf(0))
        div, mu_v = a1 * b2 - b1 * a2, c3 * c3 / (2 * c2 + c3 * c3 * c1)
        r1, r2 = 1 / c1 - a0 * mu_v, c3 * c3 / c1 + b0 * mu_v
        t1, t2 = (r1 * b2 + r2 * a2) / div, -(r1 * b1 + r2 * a1) / div
        sh = lambda x: mpmath.sinh(x * L) / x if x != 0 else L      # noqa: E731
        k = []
        for z in zs:
            s = 2j * mpmath.pi * mpmath.mpc(z)
            k.append(complex(t1 * (sh(eta[0] + s) + sh(-eta[0] + s))
                             + t2 * (sh(eta[1] + s) + sh(-eta[1] + s)) + 2 * mu_v * sh(s)))
        return complex(div), np.array(k)


def boundary_zones(n=60):
    """Measures of three zones of the boundary system, n each: c3 Delta in
    [20, 500] (conjugate quadrant), c3 Delta < 1 with lam > 4 c3^2, and
    |lam / 4 c3^2 - 1| in [1e-4, 1e-2] of either sign, just outside the
    contour band; c1 in [0.5, 2], Delta in [0.3, 1.2], sigma up to 1.66."""
    rng = np.random.default_rng(20261020)
    zones = {}
    for zone in ("large_c3", "small_c3", "near_line"):
        rows = []
        for _ in range(n):
            c1, delta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 1.2))
            if zone == "large_c3":
                sigma = float(rng.uniform(0.05, 1.66))
                c3 = math.exp(rng.uniform(math.log(20.0), math.log(500.0))) / delta
            elif zone == "small_c3":
                c3_delta = math.exp(rng.uniform(math.log(1e-3), math.log(0.55)))
                sigma = float(rng.uniform(max(4.8 * c3_delta * c3_delta, 0.05), 1.66))
                c3 = c3_delta / delta
            else:
                sigma = float(rng.uniform(0.05, 1.66))
                eps = 10.0 ** rng.uniform(-4.0, -2.0) * rng.choice([-1.0, 1.0])
                c3 = math.sqrt(sigma / (4.0 * (1.0 + eps))) / delta
            rows.append((c1, sigma * c1 / delta ** 2, c3, delta))
        zones[zone] = rows
    return zones


def near_degenerate_draws(n=60):
    """The benchmark mix's near-degenerate measures off the line: |lam / 4
    c3^2 - 1| log-uniform in [1e-12, 1e-2] of either sign, c1 in [0.5, 2],
    Delta in [0.3, 1.2], sigma in [0.05, 1.66]."""
    rng = np.random.default_rng(3232)
    rows = []
    for _ in range(n):
        c1, delta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 1.2))
        lam = float(rng.uniform(0.05, 1.66)) / delta ** 2
        eps = 10.0 ** rng.uniform(-12.0, -2.0) * rng.choice([-1.0, 1.0])
        rows.append((c1, lam * c1, math.sqrt(lam / (4.0 * (1.0 + eps))), delta))
    return rows


ZS = np.array([0.0, 0.7, 2.3 - 0.4j])


@functools.lru_cache(maxsize=1)
def mp_zones():
    """Per zone of ``boundary_zones`` and the near-degenerate draws, each
    measure's row with ``mp_section``'s divisor and K(0, z) at ZS."""
    zones = dict(boundary_zones(), bench_near_degenerate=near_degenerate_draws())
    return {zone: [(r,) + mp_section(*r, ZS) for r in rows] for zone, rows in zones.items()}


def boundary_errors():
    """Per zone of ``mp_zones``, the worst relative error of script_L and the
    worst error of K(0, z) (relative to max(1, |K|)) at ZS against
    ``mp_section``."""
    worst = {}
    for zone, rows in mp_zones().items():
        e_div = e_k = 0.0
        for r, div, k in rows:
            m = Measure(*r)
            e_div = max(e_div, abs(script_L(m) - div) / abs(div))
            e_k = max(e_k, float(np.max(np.abs(kernel_k0z_grid(m, ZS) - k)))
                      / max(1.0, float(np.max(np.abs(k)))))
        worst[zone] = (e_div, e_k)
    return worst


class TestBoundarySystem:
    # measured worst (script_L, K): large c3 3.3e-16, 3.9e-16; small c3
    # 2.7e-16, 2.4e-16; near the line 3.4e-16, 2.6e-15 (there the five rows'
    # weights grow like 1 / (zeta1 - zeta2) and round apart); the benchmark's
    # near-degenerate draws 3.5e-16, 8.3e-16
    DIVISOR_TOL, SECTION_TOL = 2e-15, 8e-15

    def test_divisor_and_section_against_mpmath(self):
        for zone, (e_div, e_k) in boundary_errors().items():
            assert e_div <= self.DIVISOR_TOL, zone
            assert e_k <= self.SECTION_TOL, zone

    # K(0, 0) from the solve, relative to max(1, K): measured worst 2.0e-16,
    # 2.1e-16, 2.2e-16 and 3.2e-16 in the four zones; the rows' sum at z = 0
    # reads up to 1.9e-15 from both near the line (within K00_GRID_TOL)
    K00_TOL, K00_GRID_TOL = 8e-16, 5e-15

    def test_k00_against_mpmath(self):
        for zone, rows in mp_zones().items():
            for r, _, k in rows:
                m, ref = Measure(*r), k[0].real
                k00, scale = kernel_k00(m), max(1.0, abs(ref))
                assert abs(k00 - ref) <= self.K00_TOL * scale, (zone, r)
                assert abs(kernel_k0z_grid(m, [0.0])[0] - k00) <= self.K00_GRID_TOL * scale

    def test_planted_entry_fails(self, monkeypatch, request):
        # a 1e-12 relative change of one entry of the scaled boundary matrix
        # (F2 at the first root) fails the divisor test and script_L_det_real.
        # Each solve takes the roots' entries in two calls, eta1's first, then
        # the contour nodes' (eta with a trailing node axis that mL lacks)
        entries, root_calls = kernels._boundary_entries, itertools.count()

        def planted(eta, P, Q, mL):
            phi1, f2, *rest = entries(eta, P, Q, mL)
            if np.shape(eta) == np.shape(mL) and next(root_calls) % 2 == 0:
                f2 = f2 * (1.0 + 1e-12)
            return (phi1, f2, *rest)

        def clear():
            kernels._cached_solution.cache_clear(), verify._divisor_margins.cache_clear()
        monkeypatch.setattr(kernels, "_boundary_entries", planted)
        request.addfinalizer(clear)
        clear()
        assert max(e_div for e_div, _ in boundary_errors().values()) > self.DIVISOR_TOL
        assert not BY_NAME["script_L_det_real"].run()[0]

    def test_tiny_c3_reads_the_floor(self):
        # below c3 = 1e-60 sqrt(lam) the system is solved at that floor: the
        # section stays within 1e-15 of c3 = 0's, down to the least double
        at_zero = kernel_c3zero(Measure(1.0, 1e-6, 0.0, 1.0), 0.0, 0.0).value.real
        for c3 in (1e-59, 1e-61, 1e-200, 5e-324):
            assert kernel_k00(Measure(1.0, 1e-6, c3, 1.0)) == pytest.approx(at_zero, rel=1e-15)


def mp_c3zero_section(c1, c2, delta, zs):
    """K(0, z) at c3 = 0 at 40 digits: u_0 = (cos(om xi) / (c1 (cos th + th sin
    th))) on the support, om = sqrt(2 c2 / c1), th = om Delta / 2, so K(0, z)
    = a (sinh((s + i om) L) / (s + i om) + sinh((s - i om) L) / (s - i om))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c1, c2, L = (mpmath.mpf(v) for v in (c1, c2, delta / 2))
        om = mpmath.sqrt(2 * c2 / c1)
        a = 1 / (c1 * (mpmath.cos(om * L) + om * L * mpmath.sin(om * L)))
        sh = lambda x: mpmath.sinh(x * L) / x if x != 0 else L      # noqa: E731
        s = [2j * mpmath.pi * mpmath.mpc(z) for z in zs]
        return np.array([complex(a * (sh(x + 1j * om) + sh(x - 1j * om))) for x in s])


# c3 = 0, purely imaginary roots, the conjugate quadrant, the zone just
# outside the contour band near the line, close roots, and c3 Delta = 500
REMOVABLE_CASES = {"c3zero": (1.2, 1.5, 0.0, 0.8), "purely_imaginary": (1.3, 2.0, 0.4, 0.7),
                   "conjugate": (1.1, 1.0, 1.5, 0.9), "near_line": (1.0, 2.5536, 0.8, 0.6),
                   "close": (1.0, 1.0 + 1e-6, 0.5, 0.5), "large_c3": (0.9, 1.2, 500 / 0.8, 0.8)}


@functools.lru_cache(maxsize=1)
def removable_points():
    """Per case, points around every removable point s = 2 pi i z = +-o of
    the section's rows (the roots, the contour nodes, +-i om at c3 = 0), at
    relative steps 1e-6 to 0.3 of 1 / (2 pi L) on both sides of the pair
    gap: real z beside its real part (the pair formula's points), and
    complex z around it in four directions; and the mpmath section there."""
    out = {}
    for name, r in REMOVABLE_CASES.items():
        m = Measure(*r)
        if r[2] == 0.0:
            offsets = [1j * math.sqrt(2.0 * r[1] / r[0])]
        else:
            sol = k0_transform_solution(m)
            offsets = list(sol.offsets[:2]) + list(sol.offsets[5:13])
        step = 1.0 / (np.pi * r[3])
        rel = [1e-6, 1e-3, 0.03, 0.09, 0.11, 0.16, 0.3]
        z0 = [-1j * o / (2.0 * np.pi) for o in offsets]
        real = np.array([z.real + d * e * step for z in z0 for e in rel for d in (1.0, -1.0)])
        cplx = np.array([z + d * e * step for z in z0 for e in rel for d in (1.0, -1.0, 1j, -1j)])
        zs = np.concatenate([real, cplx])
        ref = mp_c3zero_section(r[0], r[1], r[3], zs) if r[2] == 0.0 else mp_section(*r, zs)[1]
        out[name] = (m, (real, ref[:real.size]), (cplx, ref[real.size:]))
    return out


def removable_errors():
    """Per case, the worst error of kernel_k0z_grid at ``removable_points``,
    the real points in one call and the complex ones in another, over max(1,
    |K|) max(1, |s| L): the factor is the value's own conditioning, s = 2 pi
    i z rounded to double moving K by about |s| L ulps (4e-14 at c3 Delta =
    500, where |s| L = 250)."""
    worst = {}
    for name, (m, *parts) in removable_points().items():
        for zs, ref in parts:
            s_l = 2.0 * np.pi * np.abs(zs) * m.delta / 2.0
            scale = np.maximum(1.0, np.abs(ref)) * np.maximum(1.0, s_l)
            err = float(np.max(np.abs(kernel_k0z_grid(m, zs) - ref) / scale))
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


class TestRemovablePoints:
    # measured worst, in REMOVABLE_CASES' order: 2.2e-16, 1.7e-16, 2.5e-16,
    # 1.1e-15, 2.2e-16 and 1.7e-16; with the pair gap 0, 2.2e-14 (near the
    # line) and 3.1e-12 (close roots)
    SECTION_TOL = TestBoundarySystem.SECTION_TOL

    def test_against_mpmath(self):
        for name, err in removable_errors().items():
            assert err <= self.SECTION_TOL, (name, err)

    def test_without_the_pair_gap_the_pairs_cancel(self, monkeypatch):
        # the pair formula alone at the real points near a removable point
        monkeypatch.setattr(kernels, "_PAIR_GAP", 0.0)
        assert max(removable_errors().values()) > 10.0 * self.SECTION_TOL

    def test_a_batch_gives_the_same_bits(self):
        cases = list(removable_points().values())
        batch = Measure(*np.array([[m.c1, m.c2, m.c3, m.delta] for m, *_ in cases]).T)
        for part in (1, 2):
            zs = np.concatenate([case[part][0] for case in cases])
            np.testing.assert_array_equal(kernel_k0z_grid(batch, zs),
                                          [kernel_k0z_grid(m, zs) for m, *_ in cases])


class TestLargeC3Stability:
    def test_no_overflow_far_into_asymptotics(self):
        for c3 in (1e3, 1e4, 1e6):
            val = 1.0 / kernel_k00(Measure(1, 1, float(c3), 0.5))
            assert np.isfinite(val)
            assert val == pytest.approx(2.0, abs=1e-3)

    def test_c3_above_bound_refused(self):
        # C3_MAX itself still reads Delta / c1; above it a scalar or any batch
        # entry is refused before any arithmetic (1.4e154 overflowed c3 ** 2)
        assert kernel_k00(Measure(1.0, 1.0, C3_MAX, 0.5)) == 0.5
        for m in (Measure(1.0, 1.0, 1.4e154, 0.5), Measure(1.0, 1.0, np.array([1.0, 1e141]), 0.5)):
            for f in (quartic_roots, mu, kernel_k00):
                with pytest.raises(ValueError, match=r"c3 must be <= 1e\+140"):
                    f(m)

    def test_scaled_solution_consistent(self):
        m = Measure(1.0, 1.0, 4.0, 0.5)
        # endpoint value agrees with the oracle's interpolated endpoint
        nys = solve_integral_eq(m, 0.0)
        u_end = nys.interpolate(np.array([m.delta / 2.0]))[0]
        assert k0_endpoint_value(m) == pytest.approx(u_end, abs=1e-9)


class TestTransformSolutionCache:
    def test_repeated_calls_share_one_read_only_solution(self):
        # near the degenerate line the divided differences use contour rows
        m = Measure(1.0, 1.0 + 1e-6, 0.5, 0.5)
        sol = k0_transform_solution(m)
        assert k0_transform_solution(Measure(1.0, 1.0 + 1e-6, 0.5, 0.5)) is sol
        assert sol.close and sol.weights.shape == (21,)
        with pytest.raises(ValueError):
            sol.weights[0] = 0.0
        with pytest.raises(AttributeError):
            sol.mu = 0.0
        assert k0_transform_solution(Measure(1.0, 1.0, 1.5, 0.5)) is not sol

    def test_one_measure_has_numpy_scalars_and_read_only_rows(self):
        # one measure is the 0-d case: numpy scalars, not 1-element arrays
        for m, rows in ((Measure(1.3, 1.1, 2.0, 0.7), 5), (Measure(1.0, 1.0, 0.5, 0.5), 21)):
            sol = k0_transform_solution(m)
            for name in ("p_scaled", "q_scaled", "det"):
                assert type(getattr(sol, name)) is np.complex128, name
            assert type(sol.mu) is np.float64 and type(sol.scale) is np.float64
            assert type(sol.close) is np.bool_ and sol.close == (rows == 21)
            assert type(sol.roots.eta1) is np.complex128
            for name, dtype in (("offsets", complex), ("shifts", float), ("weights", complex)):
                v = getattr(sol, name)
                assert v.shape == (rows,) and v.dtype == dtype, name
                assert not v.flags.writeable and v.flags.c_contiguous, name
        batch = k0_transform_solution(Measure(1.0, 1.0, np.array([[0.5, 2.0]]), 0.5))
        assert batch.weights.shape == (1, 2, 21) and batch.weights.flags.c_contiguous
        for name in ("p_scaled", "mu", "close", "offsets", "shifts", "weights"):
            assert not getattr(batch, name).flags.writeable, name


def _components(x):
    """The real parts of x, then its imaginary parts if it is complex."""
    x = np.asarray(x)
    return np.stack([x.real, x.imag]) if np.iscomplexobj(x) else x


def _differences(x, y) -> int:
    """How many components of x and y differ (a NaN equals a NaN; the sign
    of a zero counts)."""
    x, y = _components(x), _components(y)
    same = (x == y) & (np.signbit(x) == np.signbit(y))
    return int(np.count_nonzero(~(same | (np.isnan(x) & np.isnan(y)))))


def _rounding_differences(f, *args) -> int:
    """How many components of f over arrays args differ from f applied to
    their entries one numpy scalar at a time."""
    with np.errstate(all="ignore"):
        one = np.array([f(*xs) for xs in zip(*args)])    # first: f may reuse a buffer
        return _differences(f(*args), one)


class TestLongDoubleScalars:
    """The c3 > 0 solve runs one measure's values as numpy clongdouble
    scalars and a batch's as arrays, with the same statements (the layout
    notes above ``kernels._contour``).  That is bit for bit only if each
    operation it applies rounds a scalar as its array loop rounds the same
    entry; long double has no fused multiply-add for the loop to apply.  A
    numpy whose scalar and array paths part fails here."""

    N = 10_000

    @pytest.fixture(scope="class")
    def draws(self):
        # magnitudes 1e-300 to 1e300; every fourth entry of b within 1e-18
        # of a's (near roots: sums and differences that cancel), real and
        # purely imaginary entries, signed zeros, and unit-size values
        rng, n = np.random.default_rng(33), self.N

        def complex_draws():
            z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.clongdouble)
            z *= (10.0 ** rng.uniform(-300, 300, n)).astype(np.longdouble)
            z[::7] = z[::7].real
            z[1::7] = 1j * z[1::7].imag
            z[2::7] = rng.standard_normal(z[2::7].size) + 1j * rng.standard_normal(z[2::7].size)
            zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
            z[3::97] = np.array(zeros * n)[:z[3::97].size]
            return z

        with np.errstate(all="ignore"):
            a, b = complex_draws(), complex_draws()
            tiny = (1e-18 * rng.standard_normal(a[::4].size)).astype(np.longdouble)
            b[::4] = a[::4] * (1 + tiny) + tiny
            # exponents of both signs and sizes up to 60, and near 0 for expm1
            arg = a / abs(a) * rng.uniform(-60, 60, n).astype(np.longdouble)
            arg[::3] *= np.longdouble(1e-12)
            return a, b, np.nan_to_num(arg)

    @pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
    def test_binary(self, draws, name):
        f = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "div": operator.truediv}[name]
        a, b, _ = draws
        assert _rounding_differences(f, a, b) == 0
        # with a Python float, as the solve's constants 0.5 and 8 meet it
        for v in (0.5, 8.0, -1.7):
            assert _rounding_differences(lambda x: f(x, v), a) == 0
            assert _rounding_differences(lambda x: f(v, x), a) == 0

    @pytest.mark.parametrize("name", ["exp", "expm1", "sqrt", "abs", "conj", "neg", "real"])
    def test_unary(self, draws, name):
        f = {"exp": np.exp, "expm1": np.expm1, "sqrt": np.sqrt, "abs": abs, "conj": np.conj,
             "neg": operator.neg, "real": lambda x: x.real}[name]
        a, _, arg = draws
        assert _rounding_differences(f, arg if name in ("exp", "expm1") else a) == 0

    def test_real_parts_and_casts(self, draws):
        a, b, _ = draws
        re, im = a.real, b.real
        for f in (operator.mul, operator.truediv):
            assert _rounding_differences(f, re, im) == 0
            assert _rounding_differences(lambda x: f(x, 1e-2), re) == 0
        assert _rounding_differences(operator.neg, re) == 0
        # the rows and K(0, 0) are rounded to double once, by a cast or on
        # assignment into a complex128 table
        assert _rounding_differences(lambda x: x.astype(complex), a) == 0
        assert _rounding_differences(lambda x: x.astype(float), re) == 0
        table = np.empty(a.shape, dtype=complex)
        for i, x in enumerate(a):
            table[i] = x
        assert _differences(a.astype(complex), table) == 0

    def test_node_sums(self, draws):
        # the contour's sums over 8 nodes: one measure's row and a batch's rows
        a = draws[0][:8 * (self.N // 8)].reshape(-1, 8)
        with np.errstate(all="ignore"):
            assert _differences(a.sum(-1), np.array([row.sum(-1) for row in a])) == 0
