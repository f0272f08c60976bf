"""Measure family: transform closed form, surface bounds, admissibility."""

import numpy as np
import pytest
from conftest import integrate_with_kink, registry_test

from pairpack import (EXTENDED_SIGMA, SUP_G, InvalidRegime, Measure, NotAdmissible,
                      closed_form_u, ep1_ratio_check, g_surface, k_from_u, kernel_c3zero,
                      kernel_k0z, kernel_k0z_grid, norm_bounds, nu_hat,
                      reproducing_residual, solve_integral_eq)
from pairpack.fredholm import uniqueness_ratio
from pairpack.kernels import k0_endpoint_value


def nu_hat_quadrature(m, x):
    """Oracle: adaptive Gauss-Legendre quadrature of the defining integral,
    split at the |a| kink."""
    dens = integrate_with_kink(
        lambda a: np.cos(2 * np.pi * x * a) * np.abs(a) * np.exp(-m.c3 * np.abs(a)),
        -m.delta, m.delta, tol=1e-13)
    return m.c1 + m.c2 * dens


class TestMeasure:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            Measure(0.0, 1, 0, 0.5)
        with pytest.raises(ValueError):
            Measure(1, -0.1, 0, 0.5)
        with pytest.raises(ValueError):
            Measure(1, 1, -1.0, 0.5)
        with pytest.raises(ValueError):
            Measure(1, 1, 0, 0.0)

    @pytest.mark.parametrize("field", ["c1", "c2", "c3", "delta"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        params = dict(c1=1.0, c2=1.0, c3=0.5, delta=0.5)
        params[field] = value
        with pytest.raises(ValueError, match=field):
            Measure(**params)

    def test_sigma_and_gates(self):
        m = Measure(1.0, 1.0, 0.0, 0.5)
        assert m.sigma() == pytest.approx(0.25)
        assert m.is_admissible()
        # the 5/3 threshold is inclusive
        m_edge = Measure(3.0, 5.0, 0.0, 1.0)
        assert m_edge.sigma() == pytest.approx(5.0 / 3.0)
        assert m_edge.is_admissible()
        m_over = Measure(1.0, 1.7, 0.0, 1.0)
        assert not m_over.is_admissible()
        assert m_over.is_extended_admissible()
        # the extended threshold is strict
        assert not Measure(1.0, EXTENDED_SIGMA, 0.0, 1.0).is_extended_admissible()
        assert Measure(1.0, np.nextafter(EXTENDED_SIGMA, 0.0), 0.0, 1.0).is_extended_admissible()

    def test_batch_is_validated_elementwise(self):
        m = Measure(1.0, np.array([0.5, 1.0, 2.0]), 0.5, 0.5)
        assert m.c1.shape == m.delta.shape == (3,)
        np.testing.assert_array_equal(m.sigma(), [0.125, 0.25, 0.5])
        # a batch names its first bad value and their count, not the array
        with pytest.raises(ValueError, match=r"^c2 must be >= 0, got -1.0 \(1 of 2 values\)$"):
            Measure(1.0, np.array([1.0, -1.0]), 0.5, 0.5)
        with pytest.raises(ValueError, match=r"^delta must be finite, got nan \(2 of 3 values\)$"):
            Measure(1.0, 1.0, 0.5, np.array([0.5, np.nan, np.inf]))
        # a 0-d array is one measure, stored as a float (hashable, cacheable)
        assert hash(Measure(np.array(1.0), 1.0, 0.5, 0.5)) == hash(Measure(1.0, 1.0, 0.5, 0.5))

    def test_batch_gate_names_worst_sigma(self):
        Measure(1.0, np.array([1.0, 6.0]), 0.0, 0.5).require_admissible()
        with pytest.raises(NotAdmissible, match="sigma = 2 "):
            Measure(1.0, np.array([1.0, 8.0]), 0.0, 0.5).require_admissible()

    @pytest.mark.parametrize("c3, call", [
        (1.0, lambda m: kernel_k0z(m, 0.3)),
        (0.0, lambda m: kernel_c3zero(m, 0.3, 0.1)),
        (0.0, lambda m: closed_form_u(m, 0.3, 0.1)),
        (1.0, norm_bounds),
        (1.0, k0_endpoint_value),
        (1.0, ep1_ratio_check),
        (1.0, lambda m: solve_integral_eq(m, 0.3)),
        (1.0, uniqueness_ratio),
        (1.0, lambda m: reproducing_residual(m, 0.3)),
    ], ids=["kernel_k0z", "kernel_c3zero", "closed_form_u", "norm_bounds",
            "k0_endpoint_value", "ep1_ratio_check", "solve_integral_eq",
            "uniqueness_ratio", "reproducing_residual"])
    def test_batch_refused_by_one_measure_functions(self, c3, call):
        with pytest.raises(InvalidRegime, match="batch of shape \\(2,\\)"):
            call(Measure(1.0, np.array([0.5, 1.0]), c3, 0.5))

    @pytest.mark.parametrize("c3, call", [
        (0.0, lambda m: kernel_c3zero(m, np.nan, 0.1)),
        (0.0, lambda m: kernel_c3zero(m, 0.3, complex(0.1, np.inf))),
        (1.0, lambda m: kernel_k0z(m, np.nan)),
        (1.0, lambda m: kernel_k0z_grid(m, [0.3, np.inf])),
        (0.0, lambda m: kernel_k0z_grid(Measure(1.0, np.array([0.0, 1.0]), 0.0, 0.5),
                                        np.array([[0.1], [np.nan]]))),
        (1.0, lambda m: solve_integral_eq(m, np.inf)),
        (0.0, lambda m: closed_form_u(m, np.nan, 0.1)),
        (1.0, lambda m: k_from_u(solve_integral_eq(m, 0.3), [0.2, -np.inf])),
    ], ids=["kernel_c3zero_w", "kernel_c3zero_z", "kernel_k0z", "kernel_k0z_grid",
            "kernel_k0z_grid_batch", "solve_integral_eq", "closed_form_u", "k_from_u"])
    def test_non_finite_point_refused(self, c3, call):
        # refused before any arithmetic: a RuntimeWarning would fail the
        # test session before the ValueError
        with pytest.raises(ValueError, match="must be finite, got (nan|inf|-inf|.*j)"):
            call(Measure(1.0, 1.0, c3, 0.5))


class TestNuHat:
    def test_pure_atom(self):
        m = Measure(2.0, 0.0, 0.0, 1.0)
        assert nu_hat(m, 0.37) == 2.0

    def test_value_at_zero_is_total_mass(self):
        m = Measure(1.0, 1.0, 0.0, 0.5)
        assert nu_hat(m, 0.0) == pytest.approx(1.25, abs=1e-14)

    def test_against_quadrature_oracle(self):
        m = Measure(1.0, 1.0, 4.0, 0.5)
        assert nu_hat(m, 0.8) == pytest.approx(nu_hat_quadrature(m, 0.8), abs=1e-10)

    def test_quadrature_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            c1 = rng.uniform(0.5, 2.0)
            delta = rng.uniform(0.3, 1.2)
            c2 = rng.uniform(0.0, 1.6) * c1 / delta ** 2
            c3 = rng.uniform(0.0, 5.0)
            m = Measure(c1, c2, c3, delta)
            x = rng.uniform(-3.0, 3.0)
            assert nu_hat(m, x) == pytest.approx(nu_hat_quadrature(m, x), abs=1e-10)

    def test_even(self):
        rng = np.random.default_rng(8)
        m = Measure(1.0, 1.0, 2.0, 0.7)
        for x in rng.uniform(0, 50, 50):
            assert abs(nu_hat(m, x) - nu_hat(m, -x)) <= 1e-12

    def test_series_branch_matches_formula(self):
        # c3 = 0 near x = 0: series switch at |pi delta x| < 1e-4
        m = Measure(1.0, 1.0, 0.0, 0.7)
        for x in (1e-5, 4.5e-5, -3e-5):
            assert nu_hat(m, x) == pytest.approx(nu_hat_quadrature(m, x), abs=1e-12)

    def test_small_c3_against_multiprecision(self):
        # the closed form cancels as c3 -> 0; the G-surface series does not
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for c3 in (1e-2, 1e-4, 1e-6, 1e-8):
            m = Measure(1.0, 1.0, c3, 0.5)
            for x in (0.0, 1e-3, 0.3):
                dens = mpmath.quad(
                    lambda a: mpmath.cos(2 * mpmath.pi * x * a) * a
                    * mpmath.exp(-c3 * a), [0, m.delta])
                ref = float(m.c1 + 2 * m.c2 * dens)
                assert abs(nu_hat(m, x) - ref) <= 1e-13 * ref

    def test_array_matches_scalar(self):
        m = Measure(1.0, 0.8, 1.3, 0.6)
        xs = np.linspace(-5, 5, 101)
        grid = nu_hat(m, xs)
        assert grid.shape == xs.shape
        for i in (0, 3, 50, 77, 100):
            assert grid[i] == nu_hat(m, xs[i])


class TestGSurface:
    def test_value_on_sigma_axis(self):
        # G(1, 0) = 2 (2/e - 1)
        assert g_surface(1.0, 0.0) == pytest.approx(2.0 * (2.0 * np.exp(-1.0) - 1.0),
                                                    abs=1e-12)

    def test_origin_limit(self):
        # series oracle: G(0, t) = -1 + t^2/4 + O(t^4)
        for t in (1e-3, 1e-4, 1e-5):
            assert g_surface(0.0, t) == pytest.approx(-1.0 + t * t / 4.0, abs=1e-8)
        assert g_surface(0.0, 0.0) == pytest.approx(-1.0, abs=1e-13)

    def test_series_formula_agreement_at_switch(self):
        # both branches active near |z| = 0.25
        for (s, t) in ((0.2, 0.12), (0.05, 0.26), (0.3, 0.05)):
            z2 = s * s + t * t
            direct = -np.exp(-s) / z2 ** 2 * (
                2 * np.exp(s) * (s * s - t * t)
                - 2 * (s * s - t * t + s ** 3 + t * t * s) * np.cos(t)
                + 2 * t * (2 * s + s * s + t * t) * np.sin(t))
            assert g_surface(s, t) == pytest.approx(direct, abs=1e-11)

    def test_nonpositive_on_t_zero_line(self):
        for s in np.linspace(0.0, 30.0, 301):
            assert g_surface(float(s), 0.0) <= 1e-15

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            g_surface(-0.1, 1.0)


class TestSupG:
    test_value = registry_test("sup_g_value", "sup_g_bracket")
    test_dominates_samples = registry_test("sup_g_dominates_pi")
    test_argmax_reproduces_sup = registry_test("sup_g_argmax_consistency")


class TestNormBounds:
    def test_pure_atom(self):
        nb = norm_bounds(Measure(1.0, 0.0, 0.0, 1.0))
        assert (nb.a_sq, nb.b_sq) == (1.0, 1.0)

    def test_formula_example(self):
        nb = norm_bounds(Measure(1.0, 1.0, 0.0, 0.5))
        assert nb.b_sq == pytest.approx(1.25, abs=0)
        assert nb.a_sq == pytest.approx(0.25 * (4.0 - SUP_G), abs=1e-14)
        assert nb.a_sq == pytest.approx(0.8534, abs=1e-3)

    def test_bounds_bracket_transform_on_grid(self):
        for m in (Measure(1, 1, 0, 0.5), Measure(1, 1, 2.0, 0.5),
                  Measure(1.0, 1.5, 0.7, 1.0)):
            nb = norm_bounds(m)
            xs = np.linspace(-1000.0, 1000.0, 200001)
            vals = nu_hat(m, xs)
            assert vals.min() >= nb.a_sq - 1e-9
            assert vals.max() <= nb.b_sq + 1e-9

    def test_random_consistency(self):
        rng = np.random.default_rng(11)
        m = Measure(1.0, 1.0, 1.0, 0.5)
        nb = norm_bounds(m)
        xs = rng.uniform(-1e4, 1e4, 10000)
        vals = nu_hat(m, xs)
        assert np.all(vals >= nb.a_sq - 1e-9)
        assert np.all(vals <= nb.b_sq + 1e-9)

    def test_not_admissible(self):
        m = Measure(1.0, 2.0, 0.0, 1.0)     # sigma = 2
        with pytest.raises(NotAdmissible):
            norm_bounds(m)
        with pytest.raises(NotAdmissible):
            norm_bounds(m, extended=True)
        m2 = Measure(1.0, 1.69, 0.0, 1.0)   # between 5/3 and 1/sup G
        with pytest.raises(NotAdmissible):
            norm_bounds(m2)
        nb = norm_bounds(m2, extended=True)
        assert nb.a_sq > 0
