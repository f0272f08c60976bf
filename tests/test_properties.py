"""Property tests over random small inputs, with fixed example counts and a
derandomized search so every run draws the same examples."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import pairpack.fredholm as fredholm  # noqa: E402
from pairpack import (EmptyWindow, Measure, Window, ZeroDataset,  # noqa: E402
                      average_bounds, form_factor,
                      form_factor_positive, k_from_u, kernel_c3zero, kernel_k00,
                      kernel_k0z, kernel_k0z_grid, solve_integral_eq)
from pairpack.kernels import k0_transform_solution  # noqa: E402
from pairpack.quadrature import gauss_legendre  # noqa: E402
from pairpack.verify import K0Z_TOL  # noqa: E402
from conftest import LINE_MEASURE, assemble  # noqa: E402

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


def mask_window(ds, T):
    """The window at T as a boolean mask over the ordinates: in_window's
    reference route."""
    g = ds.ordinates
    if ds.window is Window.ZERO_TO_T:
        mask = (g > 0) & (g <= T)
    elif ds.window is Window.T_TO_TWO_T:
        mask = (g > T) & (g <= 2 * T)
    else:
        mask = (g >= -T / 2) & (g <= T / 2)
    return g[mask]


# a window's T: finite of either sign, zero of either sign, infinite or nan;
# and factors f that put ordinates on the window edges f T = 0, +-T/2, T, 2T
window_ts = st.one_of(st.floats(-60.0, 60.0),
                      st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
edge_factors = st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0]), max_size=6)


class TestWindowProperties:
    @settings(fixed, max_examples=300)
    @given(st.lists(st.floats(-130.0, 130.0), min_size=1, max_size=10), edge_factors,
           window_ts, st.sampled_from(Window), st.integers(1, 3))
    @example([1.0, 2.0], [], math.nan, Window.ZERO_TO_T, 1)
    @example([-1.0, 2.0], [], math.nan, Window.SYMMETRIC_T, 1)
    @example([1.0, 2.0], [], math.nan, Window.T_TO_TWO_T, 1)
    @example([50.0], [0.0, 0.5, -0.5, 1.0, 2.0], 20.0, Window.ZERO_TO_T, 2)
    def test_slice_matches_mask(self, g, edges, T, window, copies):
        # duplicates enter with multiplicity, edge ordinates on the side the
        # window's comparisons put them; the slice is read-only, a nan T
        # gives an empty window, and an empty window is still refused
        on_edges = [f * T for f in edges if math.isfinite(f * T)]
        ds = ZeroDataset(ordinates=np.repeat(np.sort(g + on_edges), copies), lam=1.0,
                         window=window)
        got = ds.in_window(T)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.tobytes() == mask_window(ds, T).tobytes()
        if math.isnan(T):
            assert len(got) == 0
        if len(got) == 0 and 1.0 < T < math.inf:
            with pytest.raises(EmptyWindow):
                form_factor(ds, T, 0.3)


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


# c3 = 0: pure atoms, the coefficient pole's band around w = 0 (om^2 L^2 =
# sigma / 2 below _CLOSE_GAP) and the rest of the gate.  c3 > 0: pure atoms,
# the degenerate line lam = 4 c3^2 and c3 Delta up to 50
c3zero_measures = st.builds(
    lambda c1, delta, sigma: Measure(c1, sigma * c1 / delta ** 2, 0.0, delta),
    st.floats(0.5, 2.0), st.floats(0.3, 1.2),
    st.one_of(st.just(0.0), st.floats(0.0, 0.03), st.floats(0.0, 1.66)))
c3pos_measures = st.builds(
    lambda c1, delta, sigma, c3_delta: Measure(
        c1, sigma * c1 / delta ** 2,
        math.sqrt(sigma) / (2.0 * delta) if c3_delta is None else c3_delta / delta, delta),
    st.floats(0.5, 2.0), st.floats(0.3, 1.2), st.one_of(st.just(0.0), st.floats(0.0, 1.66)),
    st.one_of(st.none(), st.floats(0.01, 50.0))).filter(lambda m: m.c3 > 0.0)


class TestOneEvaluator:
    @settings(fixed, max_examples=300)
    @given(c3zero_measures, points)
    @example(Measure(2.0, 0.0, 0.0, 0.8), 0.3 - 0.2j)
    def test_c3zero_at_w0_is_the_section(self, m, z):
        assert kernel_c3zero(m, 0.0, z).value == complex(kernel_k0z_grid(m, z))

    @settings(fixed, max_examples=200)
    @given(c3pos_measures, points)
    @example(Measure(2.0, 0.0, 1.5, 0.8), 0.9)
    @example(Measure(*LINE_MEASURE), 1.1 + 0.3j)
    def test_k0z_is_the_grid(self, m, z):
        assert kernel_k0z(m, z).value == complex(kernel_k0z_grid(m, z))


def panel_matvec_error(m, panels, per, seed=0):
    """||M u - A u||_inf / (||A||_inf ||u||_inf) for the panel product M u
    and the dense matrix A of the same layout (conftest.assemble), the
    dense product summed in long double so that its own rounding (about
    1e-15 of |A| |u| at 2000 nodes in doubles) does not hide the panel
    product's."""
    h = m.delta / (2 * panels)
    x, w = gauss_legendre(per, -h, h)
    nodes = ((h * (2 * np.arange(panels) + 1) - m.delta / 2.0)[:, None] + x).ravel()
    weights = np.tile(w, panels)
    op = fredholm._panel_operator(m, x, w, h, panels)
    u = np.random.default_rng(seed).standard_normal((2, panels * per))
    A = assemble(m, nodes, weights, panels)
    exact = u.astype(np.longdouble) @ A.T.astype(np.longdouble)
    scale = np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(u))
    return float(np.max(np.abs(op.matvec(u) - exact)) / scale)


def interface_inverse_error(m, panels, per):
    """(error, distinct) of the panel operator's closed-form interface
    inverses S_i^-1 against LAPACK's inverse of each S_i = [[I, C_i],
    [Q_RL, I]], with C_0 = Q_LR and C_i = Q_LR - low S_(i-1)^-1[:2, 2:] up
    from the reference inverses: the largest difference over the largest
    entry, and the number of distinct blocks."""
    h = m.delta / (2 * panels)
    x, w = gauss_legendre(per, -h, h)
    op = fredholm._panel_operator(m, x, w, h, panels)
    Q = op.beta_t.T @ op.E
    T = math.exp(-2.0 * m.c3 * h) * np.array([[1.0, 0.0], [2.0 * h, 1.0]])
    S, ref = np.eye(4), []
    S[:2, 2:], S[2:, :2] = Q[:2, 2:], Q[2:, :2]
    for i in range(panels - 1):
        if i:
            S[:2, 2:] = Q[:2, 2:] - (Q[:2, :2] - T) @ ref[-1][:2, 2:] @ (Q[2:, 2:] - T)
        ref.append(np.linalg.inv(S))
    got = op.S_inv_t.swapaxes(1, 2)
    if not ref:
        return 0.0, len(got)
    return (float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))),
            len(np.unique(got, axis=0)))


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

        def planted(self, A, E, R, T, panels):
            T = T.copy()
            T[1, 0] *= 1.0 + 1e-12
            init(self, A, E, R, T, panels)

        monkeypatch.setattr(fredholm._PanelOperator, "__init__", planted)
        assert panel_matvec_error(m, 5, 40) > 1e-15

    @settings(fixed, max_examples=25)
    @given(layouts)
    def test_interface_inverses_match_lapack(self, layout):
        # both round apart from the exact inverse: on 60 random layouts the
        # two differ by at most 1.2e-15, where the closed form read 7.7e-16
        # from a long-double reference and LAPACK 1.1e-15
        (c1, c2, delta), panels, per, c3_delta = layout
        assert interface_inverse_error(Measure(c1, c2, c3_delta / delta, delta), panels, per)[0] \
            <= 3e-15

    @pytest.mark.parametrize("m, panels, per", [
        (Measure(1.0, 1.0, 0.0, 0.5), 2, 24), (Measure(1.3, 2.1, 1.7, 0.7), 2, 40),
        (Measure(1.0, 1.0, 2e4, 0.5), 2000, 24), (Measure(1.2, 1.5, 9600.0 / 0.8, 0.8), 1920, 24)])
    def test_interface_inverses_at_the_ends(self, m, panels, per):
        # one interface block at P = 2; at 1920 and 2000 panels the corner
        # reaches its fixed point after a few blocks, and the rest repeat it
        error, distinct = interface_inverse_error(m, panels, per)
        assert error <= 3e-15
        assert distinct == 1 if panels == 2 else distinct < 10


def on_the_line(c1, c3, delta):
    """A measure with c2 / c1 = 4 c3^2 bit for bit, built as the benchmark
    builds it."""
    return (c1, 4.0 * c3 * c3 * c1, c3, delta)


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
    st.builds(lambda c1, d, sg: on_the_line(c1, math.sqrt(sg / d ** 2) / 2.0, d),
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
    @example([LINE_MEASURE, (1.0, 1.0 + 1e-6, 0.5, 0.5), (1.0, 0.0, 3.0, 0.5),
              (1.0, 1.0, 0.0, 0.5), (1.3, 1.1, 500.0 / 0.7, 0.7)])
    @example([(1.0, 1.0, 4.0 * c, 0.5) for c in np.linspace(0.0, 1.0, 17).tolist()])
    def test_batched_k00_matches_single_measures(self, rs):
        # bit for bit: each regime's K(0, 0) comes from its own solve, for one
        # measure as for a batch of one regime or of both (the second example
        # is figure1_data(0, 1, 16)'s batch)
        batch = Measure(*np.array(rs).T)
        single = [kernel_k00(Measure(*r)) for r in rs]
        np.testing.assert_array_equal(kernel_k00(batch), single)

    @fixed
    @given(batches)
    @example([LINE_MEASURE, LINE_MEASURE, (1.3, 1.1, 500.0 / 0.7, 0.7),
              on_the_line(2.0, 0.61, 0.9), (1.0, 1.0 + 1e-6, 0.5, 0.5)])
    def test_batched_transform_solution_matches_single_measures(self, rs):
        # every field bit-identical; the batch pads a measure's rows with
        # zero weights up to 21, and its pairs with zeros up to 10
        rs = [r for r in rs if r[1] > 0.0 and r[2] > 0.0]
        assume(rs)
        batch = k0_transform_solution(Measure(*np.array(rs).T))
        for i, r in enumerate(rs):
            one = k0_transform_solution(Measure(*r))
            rows = len(one.weights)
            assert not np.any(batch.weights[i, rows:])
            for name in ("offsets", "shifts", "weights"):
                np.testing.assert_array_equal(getattr(batch, name)[i, :rows],
                                              getattr(one, name), err_msg=name)
            np.testing.assert_array_equal(batch.pairs[:, i, :rows // 2], one.pairs)
            assert not np.any(batch.pairs[:, i, rows // 2:])
            for name in ("k00", "det", "close", "clear"):
                assert getattr(batch, name)[i] == getattr(one, name), name


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
