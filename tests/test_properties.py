"""Property tests over random small inputs, with fixed example counts and a
derandomized search so every run draws the same examples."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pairpack import (Measure, ZeroDataset, form_factor, form_factor_positive,  # noqa: E402
                      k_from_u, kernel_k0z_grid, solve_integral_eq)

T = 100.0
ordinates = st.lists(st.floats(1.0, 90.0), min_size=1, max_size=8)
lams = st.floats(0.5, 2.0)
alpha_lists = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=10)
fixed = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def dataset(g, lam):
    return ZeroDataset(ordinates=np.sort(np.array(g)), lam=lam)


class TestFormFactorProperties:
    @fixed
    @given(ordinates, lams, alpha_lists)
    def test_array_matches_scalar_calls(self, g, lam, alphas):
        ds = dataset(g, lam)
        batched = form_factor(ds, T, np.array(alphas))
        scalar = [form_factor(ds, T, a) for a in alphas]
        np.testing.assert_allclose(batched, scalar, rtol=1e-14, atol=0)

    @fixed
    @given(ordinates, lams, alpha_lists)
    def test_even_and_nonnegative(self, g, lam, alphas):
        ds = dataset(g, lam)
        alphas = np.array(alphas)
        f = form_factor(ds, T, alphas)
        assert np.max(np.abs(f - form_factor(ds, T, -alphas))) <= 1e-12
        assert np.min(f) >= -1e-10

    @settings(fixed, max_examples=15)
    @given(ordinates, lams, st.floats(-4.0, 4.0))
    def test_matches_positive_route(self, g, lam, alpha):
        ds = dataset(g, lam)
        assert abs(form_factor(ds, T, alpha) - form_factor_positive(ds, T, alpha)) <= 1e-8


# admissible measures (sigma up to 1.6 < 5/3) with c3 Delta <= 5, where the
# oracle assembles by spectral integration; c3 = 0 drawn on its own
TOL_K0Z_ORACLE = 1e-7     # the k0z_vs_oracle_* tolerance of pairpack.verify
measures = st.builds(
    lambda c1, delta, sigma, c3_delta: Measure(c1, sigma * c1 / delta ** 2,
                                               c3_delta / delta, delta),
    st.floats(0.5, 2.0), st.floats(0.3, 1.2), st.floats(0.05, 1.6),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
points = st.complex_numbers(max_magnitude=2.0).filter(lambda z: abs(z.imag) <= 0.5)
oracle = settings(fixed, max_examples=30)


class TestOracleProperties:
    @oracle
    @given(measures, st.floats(-2.0, 2.0), points)
    def test_w0_oracle_matches_section(self, m, x, z):
        # K(0, z) = k_0(z) for the real, even w = 0 solution
        zs = np.array([x, z])
        gap = np.abs(kernel_k0z_grid(m, zs) - k_from_u(solve_integral_eq(m, 0.0), zs))
        assert np.max(gap) <= TOL_K0Z_ORACLE

    @oracle
    @given(measures, points)
    def test_hermitian_at_zero(self, m, w):
        # the oracle's K(w, 0) = conj k_w(0) against conj K(0, w)
        k_w0 = np.conj(k_from_u(solve_integral_eq(m, w), 0.0))
        assert abs(k_w0 - np.conj(complex(kernel_k0z_grid(m, w)))) <= TOL_K0Z_ORACLE
