"""Property tests over random small inputs, with fixed example counts and a
derandomized search so every run draws the same examples."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import pairpack.fredholm as fredholm  # noqa: E402
from pairpack import (Measure, ZeroDataset, average_bounds, form_factor,  # noqa: E402
                      form_factor_positive, k_from_u, kernel_k00, kernel_k0z_grid,
                      solve_integral_eq)
from pairpack.kernels import k0_transform_solution  # noqa: E402
from pairpack.quadrature import gauss_legendre  # noqa: E402
from pairpack.verify import K0Z_TOL  # noqa: E402

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


# admissible measures (sigma up to 1.6 < 5/3) with c3 Delta <= 50, one to ten
# oracle panels; c3 = 0 drawn on its own
measures = st.builds(
    lambda c1, delta, sigma, c3_delta: Measure(c1, sigma * c1 / delta ** 2,
                                               c3_delta / delta, delta),
    st.floats(0.5, 2.0), st.floats(0.3, 1.2), st.floats(0.05, 1.6),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(5.0, 50.0)))
points = st.complex_numbers(max_magnitude=2.0).filter(lambda z: abs(z.imag) <= 0.5)
oracle = settings(fixed, max_examples=30)


class TestOracleProperties:
    @oracle
    @given(measures, st.floats(-2.0, 2.0), points)
    def test_w0_oracle_matches_section(self, m, x, z):
        # K(0, z) = k_0(z) for the real, even w = 0 solution
        zs = np.array([x, z])
        gap = np.abs(kernel_k0z_grid(m, zs) - k_from_u(solve_integral_eq(m, 0.0), zs))
        assert np.max(gap) <= K0Z_TOL

    @oracle
    @given(measures, points)
    def test_hermitian_at_zero(self, m, w):
        # the oracle's K(w, 0) = conj k_w(0) against conj K(0, w)
        k_w0 = np.conj(k_from_u(solve_integral_eq(m, w), 0.0))
        assert abs(k_w0 - np.conj(complex(kernel_k0z_grid(m, w)))) <= K0Z_TOL


def panel_matvec_error(m, panels, per, seed=0):
    """||M u - A u||_inf / (||A||_inf ||u||_inf) for the panel product M u
    and the dense matrix A of the same layout (fredholm._assemble), the
    dense product summed in long double so that its own rounding (about
    1e-15 of |A| |u| at 2000 nodes in doubles) does not hide the panel
    product's."""
    h = m.delta / (2 * panels)
    x, w = gauss_legendre(per, -h, h)
    nodes, weights = fredholm._composite_rule(m, x, w, panels)
    op = fredholm._panel_operator(m, x, w, h, panels)
    u = np.random.default_rng(seed).standard_normal((2, panels * per))
    A = fredholm._assemble(m, nodes, weights, panels)
    exact = u.astype(np.longdouble) @ A.T.astype(np.longdouble)
    scale = np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(u))
    return float(np.max(np.abs(op.matvec(u) - exact)) / scale)


# any layout: 1 to 40 panels of 24 to 48 nodes, c3 Delta in [0, 200]
layouts = st.tuples(measures.map(lambda m: (m.c1, m.c2, m.delta)), st.integers(1, 40),
                    st.integers(24, 48), st.one_of(st.just(0.0), st.floats(0.0, 200.0)))


class TestPanelOperatorProperties:
    @settings(fixed, max_examples=25)
    @given(layouts)
    def test_matvec_matches_dense(self, layout):
        (c1, c2, delta), panels, per, c3_delta = layout
        m = Measure(c1, c2, c3_delta / delta, delta)
        assert panel_matvec_error(m, panels, per) <= 1e-15

    def test_planted_coupling_error_fails(self, monkeypatch):
        # T(H)'s off-diagonal entry H e^{-c3 H} off by 1e-12 relative
        m = Measure(1.2, 1.5, 3.0, 0.8)
        assert panel_matvec_error(m, 5, 40) <= 1e-15
        init = fredholm._PanelOperator.__init__

        def planted(self, A, A_inv, E, R, T, panels):
            T = T.copy()
            T[1, 0] *= 1.0 + 1e-12
            init(self, A, A_inv, E, R, T, panels)

        monkeypatch.setattr(fredholm._PanelOperator, "__init__", planted)
        assert panel_matvec_error(m, 5, 40) > 1e-15


# one measure of each kind the closed forms branch on: c2 = 0, c3 = 0, the
# degenerate line lam = 4 c3^2 exactly (c1 a power of two, so c2 / c1
# reproduces 4 c3^2 bit for bit), near it with |lam / 4 c3^2 - 1| in
# [1e-12, 1e-2], and generic with c3 Delta up to 500; sigma <= 1.6
deltas, sigmas = st.floats(0.3, 1.2), st.floats(0.05, 1.6)
rows = st.one_of(
    st.builds(lambda c1, d, c3d: (c1, 0.0, c3d / d, d), st.floats(0.5, 2.0), deltas,
              st.floats(0.0, 500.0)),
    st.builds(lambda c1, d, sg: (c1, sg * c1 / d ** 2, 0.0, d), st.floats(0.5, 2.0), deltas,
              sigmas),
    st.builds(lambda c1, d, sg: (c1, 4.0 * (np.sqrt(sg) / d / 2.0) ** 2 * c1,
                                 np.sqrt(sg) / d / 2.0, d),
              st.sampled_from([0.5, 1.0, 2.0]), deltas, sigmas),
    st.builds(lambda c1, d, sg, log_eps, sign: (
        c1, sg * c1 / d ** 2, np.sqrt(sg / d ** 2 / (4.0 * (1.0 + sign * 10.0 ** log_eps))), d),
        st.floats(0.5, 2.0), deltas, sigmas, st.floats(-12.0, -2.0), st.sampled_from([-1, 1])),
    st.builds(lambda c1, d, sg, c3d: (c1, sg * c1 / d ** 2, c3d / d, d), st.floats(0.5, 2.0),
              deltas, sigmas, st.floats(1e-3, 500.0)))
batches = st.lists(rows, min_size=1, max_size=8)


class TestMeasureBatches:
    @fixed
    @given(batches)
    def test_batched_k00_matches_single_measures(self, rs):
        batch = Measure(*np.array(rs).T)
        single = [kernel_k00(Measure(*r)) for r in rs]
        np.testing.assert_allclose(kernel_k00(batch), single, rtol=1e-15, atol=0)

    @fixed
    @given(batches)
    def test_batched_transform_solution_matches_single_measures(self, rs):
        rs = [r for r in rs if r[1] > 0.0 and r[2] > 0.0]
        assume(rs)
        batch = k0_transform_solution(Measure(*np.array(rs).T))
        for i, r in enumerate(rs):
            one = k0_transform_solution(Measure(*r))
            assert batch.close[i] == one.close
            np.testing.assert_array_equal(batch.power_sums[i], one.power_sums)
            for name in ("p_scaled", "q_scaled", "det", "mu", "scale"):
                np.testing.assert_allclose(getattr(batch, name)[i], getattr(one, name),
                                           rtol=1e-15, atol=0, err_msg=name)


class TestBoundsProperties:
    # K(0,0) > 1 (here 2.4, upper = 0.417) puts lower_thm1 above 1 and upper
    @fixed
    @given(batches)
    @example([(0.5, 0.0, 0.0, 1.2)])
    def test_bounds_relations(self, rs):
        # lower_cor8 = max(lower_thm1, 1/2) to rounding; the clamp binds
        # exactly when lower_thm1 < 1/2; lower_thm1 <= 1 exactly when
        # upper >= 1.  The two equivalences are checked away from the
        # rounding-level neighbourhood of their thresholds.
        for m in [Measure(*np.array(rs).T)] + [Measure(*r) for r in rs]:
            rep = average_bounds(m)
            thm1, cor8, upper = (np.atleast_1d(v) for v in (rep.lower_thm1, rep.lower_cor8,
                                                            rep.upper))
            np.testing.assert_allclose(cor8, np.maximum(thm1, 0.5), rtol=4.5e-16, atol=0)
            clamp, decided = np.atleast_1d(rep.clamp_active), np.abs(thm1 - 0.5) > 1e-15
            np.testing.assert_array_equal(clamp[decided], (thm1 < 0.5)[decided])
            decided = np.abs(upper - 1.0) > 1e-15
            np.testing.assert_array_equal((thm1 <= 1.0)[decided], (upper >= 1.0)[decided])
