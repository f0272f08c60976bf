"""Integral-equation oracle: solver, closed form, transform, residuals."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import assemble, dense_sigma_min, integrate_with_kink, registry_test

import pairpack.fredholm as fredholm
import pairpack.kernels as kernels
from pairpack import (InvalidRegime, Measure, closed_form_u,
                      k_from_u, kernel_k00, ode_residual, nu_hat, solve_integral_eq)
from pairpack.fredholm import (CONDITION_LIMIT, MAX_PANELS, PANEL_C3_WIDTH,
                               PANEL_NODES, system_residual, uniqueness_ratio)
from pairpack.errors import IllConditioned
from pairpack.quadrature import barycentric_matrix, barycentric_weights, gauss_legendre
import pairpack.verify as verify
from pairpack.verify import ODE_TOL


def equation_residual_by_quadrature(m, w, u_fn, xi):
    """Oracle: plug a candidate solution into the left side of the integral
    equation by adaptive quadrature and compare with the data."""
    lhs = m.c1 * u_fn(np.array([xi]))[0]
    re = integrate_with_kink(
        lambda a: np.real(u_fn(a)) * np.abs(xi - a) * np.exp(-m.c3 * np.abs(xi - a)),
        -m.delta / 2, m.delta / 2, kink=xi, tol=1e-13)
    im = integrate_with_kink(
        lambda a: np.imag(u_fn(a)) * np.abs(xi - a) * np.exp(-m.c3 * np.abs(xi - a)),
        -m.delta / 2, m.delta / 2, kink=xi, tol=1e-13)
    lhs += m.c2 * (re + 1j * im)
    return abs(lhs - np.exp(-2j * np.pi * w * xi))


class TestSolver:
    test_c2_zero_collapses = registry_test("c2zero_exact")
    test_matches_closed_form = registry_test("nystrom_vs_closed_form")
    test_self_convergence = registry_test("self_convergence_200_400")

    def test_error_at_floor_for_all_node_counts(self):
        # the solution is entire and the panel quadrature resolves the kink,
        # so the error sits at the roundoff floor already at small n
        m = Measure(1.0, 1.0, 0.0, 0.5)
        for n in (16, 32, 64):
            sol = solve_integral_eq(m, 0.7, n=n)
            uc = closed_form_u(m, 0.7, sol.nodes)
            assert np.max(np.abs(sol.u_values - uc)) <= 1e-12

    def test_solution_invariants(self):
        m = Measure(1.0, 1.0, 1.0, 0.5)
        sol = solve_integral_eq(m, 0.0)
        assert np.all(np.diff(sol.nodes) > 0)
        assert np.all(np.abs(sol.nodes) <= m.delta / 2)
        assert np.all(sol.weights > 0)
        assert len(sol.nodes) == len(sol.weights) == len(sol.u_values)
        assert sol.condition_estimate < 100.0

    def test_residual_against_quadrature_oracle(self):
        m = Measure(1.0, 1.0, 2.0, 0.5)
        sol = solve_integral_eq(m, 0.3)
        for xi in (-0.2, 0.0, 0.13):
            assert equation_residual_by_quadrature(
                m, 0.3, sol.interpolate, xi) <= 1e-10

    def test_homogeneous_only_trivial(self, monkeypatch):
        # sigma_min of the weighted matrix certifies unique solvability (a
        # verify check); planted through the operator, with a_sq off the
        # diagonal, it fails: M - a_sq I is the panel operator of the measure
        # with c1 - a_sq, as c1 enters the panel block's diagonal alone, and
        # its ratio is the measure's less 1; the last measure has two panels
        # (c3 Delta = 6)
        ms = (Measure(1, 1, 0, 0.5), Measure(1, 1, 2.0, 0.9), Measure(1, 1, 12.0, 0.5))
        ratios = [uniqueness_ratio(m) for m in ms]
        system = fredholm._nystrom_system

        def shifted(m, n):
            a_sq = fredholm.norm_bounds(m, extended=True).a_sq
            return system(dataclasses.replace(m, c1=m.c1 - a_sq), n)

        monkeypatch.setattr(fredholm, "_nystrom_system", shifted)
        planted = [uniqueness_ratio(m) for m in ms]
        assert max(planted) < 1.0
        np.testing.assert_allclose(planted, np.subtract(ratios, 1.0), rtol=1e-12)

    def test_uniqueness_ratio_matches_dense_svd(self):
        # Lanczos's largest Ritz value of S^-1 through the panel solve against
        # the dense SVD of S, on 32 seeded admissible measures with c3 Delta
        # from 0 to 400 and both root cases; at c3 Delta <= 1 the eigenvector
        # of sigma_min is odd, which an even start vector never reaches
        rng = np.random.default_rng(19)
        c3_deltas = np.concatenate([[0.0, 0.0, 400.0], rng.uniform(0.0, 1.0, 10),
                                    10.0 ** rng.uniform(0.0, 2.0, 14),
                                    rng.uniform(100.0, 300.0, 2)])
        tags = set()
        for c3_delta in c3_deltas:
            c1, delta, sigma = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2), rng.uniform(0.05, 1.66)
            m = Measure(c1, sigma * c1 / delta ** 2, c3_delta / delta, delta)
            if c3_delta:
                tags.add(kernels.quartic_roots(m).case_tag)
            dense = dense_sigma_min(m) / fredholm.norm_bounds(m, extended=True).a_sq
            assert abs(uniqueness_ratio(m) - dense) <= 1e-12 * dense
        assert tags == {kernels.CaseTag.PURELY_IMAGINARY, kernels.CaseTag.CONJUGATE_QUADRANT}

    def test_uniqueness_ratio_of_an_indefinite_system(self, monkeypatch):
        # planted through the operator, M - 1.8894 a_sq I lies between two
        # eigenvalues of M, and the one nearer to zero is negative: sigma_min
        # is its modulus, which the largest Ritz value of S^-1 read 3x high
        m = Measure(1, 1, 2.0, 0.9)
        a_sq = fredholm.norm_bounds(m, extended=True).a_sq
        shifted = dataclasses.replace(m, c1=m.c1 - 1.8894 * a_sq)
        sigma_min = dense_sigma_min(shifted)
        system = fredholm._nystrom_system
        monkeypatch.setattr(fredholm, "_nystrom_system", lambda _, n: system(shifted, n))
        assert abs(uniqueness_ratio(m) * a_sq - sigma_min) <= 1e-12 * sigma_min

    @pytest.mark.parametrize("name, plant", [
        ("linear_system_residual", lambda sol: 1.0 + 1e-12 * np.cos(7.0 * sol.nodes)),
        ("w0_solution_even", lambda sol: 1.0 + 1e-12 * np.sin(7.0 * sol.nodes)),
        # on the 400-node solves only, which the 200-node ones check
        ("self_convergence_200_400",
         lambda sol: 1.0 + 1e-12 * np.cos(7.0 * sol.nodes) * (len(sol.nodes) == 400))])
    def test_tolerance_catches_planted_perturbation(self, monkeypatch, name, plant):
        # a 1e-12 relative change of u fails the check that reads it
        check = next(c for c in verify.CHECKS if c.name == name)
        assert check.run()[0]
        solve = verify.solve_integral_eq

        def planted(m, w, n=fredholm.DEFAULT_NODES):
            sol = solve(m, w, n)
            return dataclasses.replace(sol, u_values=sol.u_values * plant(sol))

        monkeypatch.setattr(verify, "solve_integral_eq", planted)
        assert not check.run()[0]

    def test_node_count_guard(self):
        with pytest.raises(ValueError):
            solve_integral_eq(Measure(1, 1, 0, 0.5), 0.0, n=8)

    def test_node_cap(self, monkeypatch):
        # refused before the Gauss rule or any matrix is allocated
        def unreachable(*args):
            raise AssertionError("allocated past the cap")

        monkeypatch.setattr(fredholm, "gauss_legendre", unreachable)
        with pytest.raises(ValueError, match="^25000000 panels exceed the cap"):
            solve_integral_eq(Measure(1, 1, 0, 0.5), 0.0, n=10 ** 9)
        # c3 Delta = 15000: 3000 panels
        with pytest.raises(ValueError, match="^3000 panels exceed the cap"):
            solve_integral_eq(Measure(1, 1, 30000, 0.5), 0.0)
        with pytest.raises(ValueError, match="panels exceed the cap"):
            uniqueness_ratio(Measure(1, 1, 0, 0.5), n=100_000_000)
        assert (MAX_PANELS, PANEL_NODES) == (2048, 40)

    def test_ill_conditioned_guard(self, monkeypatch):
        # admissible systems are far from singular; force the guard to fire
        monkeypatch.setattr("pairpack.fredholm.CONDITION_LIMIT", 1.0)
        with pytest.raises(IllConditioned):
            solve_integral_eq(Measure(1, 1, 0, 0.5), 0.0)
        assert CONDITION_LIMIT == 1e8


def per_row_matrix(m, nodes, bary_w):
    """Reference Nystrom matrix, one barycentric matrix per row and panel."""
    n = len(nodes)
    L = m.delta / 2.0
    gx, gw = gauss_legendre(40, -1.0, 1.0)
    M = np.zeros((n, n))
    for i, xi in enumerate(nodes):
        for (a, b) in ((-L, xi), (xi, L)):
            if b - a <= 1e-15 * m.delta:
                continue
            q = 0.5 * (b - a) * gx + 0.5 * (a + b)
            qw = 0.5 * (b - a) * gw
            ker = np.abs(xi - q) * np.exp(-m.c3 * np.abs(xi - q))
            M[i] += (qw * ker) @ barycentric_matrix(nodes, bary_w, q)
    return m.c2 * M + m.c1 * np.eye(n)


class TestSharedSystem:
    @pytest.mark.parametrize("c3_delta", [0.5, 5.0, 12.0, 50.0, 150.0])
    def test_composite_matches_product_reference(self, c3_delta):
        # one panel up to c3 Delta = 5, then 3, 10 and 30 panels: the
        # interpolated solutions against a product-quadrature solve at 200
        # nodes, where the reference still resolves the kernel
        m = Measure(1.0, 1.5, c3_delta / 0.6, 0.6)
        nodes, _ = gauss_legendre(200, -0.3, 0.3)
        bary_w = barycentric_weights(nodes)
        at = np.linspace(-0.29, 0.29, 41)
        for w in (0.0, 1.3):
            ref = np.linalg.solve(per_row_matrix(m, nodes, bary_w).astype(complex),
                                  np.exp(-2j * np.pi * w * nodes))
            got = solve_integral_eq(m, w).interpolate(at)
            assert np.max(np.abs(got - barycentric_matrix(nodes, bary_w, at) @ ref)) <= 1e-14

    @pytest.mark.parametrize("m, n", [
        (Measure(1, 1, 0, 0.5), 200), (Measure(1.3, 2.1, 1.7, 0.7), 64),
        (Measure(1, 4, 100, 0.5), 200), (Measure(0.5, 0.55, 30, 1.2), 400)])
    def test_panel_solve_matches_dense(self, m, n):
        # M^-1 b through the factored interface system against LAPACK on the
        # dense matrix, and the condition estimate's column sums of |M|, taken
        # from one product with M by the kernel's symmetry, against numpy's
        nodes, weights, op, _ = fredholm._nystrom_system(m, n)
        M = assemble(m, nodes, weights, op.panels)
        b = np.random.default_rng(3).standard_normal((3, len(nodes)))
        for got, ref in ((op.solve(b), np.linalg.solve(M, b.T).T),
                         (fredholm._column_sums(op, weights), np.abs(M).sum(axis=0))):
            assert np.max(np.abs(got - ref)) <= 4e-15 * np.max(np.abs(ref))

    def test_far_beyond_the_dense_node_cap(self):
        # c3 Delta = 10^4: 2000 panels of 24 nodes (a dense layout refused
        # every c3 Delta above about 425)
        m = Measure(1.0, 1.0, 2e4, 0.5)
        sol = solve_integral_eq(m, 0.0)
        assert (sol.panels, sol.per) == (2000, 24)
        # summed pairwise: a running sum of the 48000 terms is off by 3.9e-15
        assert abs(k_from_u(sol, 0.0) - kernel_k00(m)) <= 1e-15
        assert system_residual(sol) <= 1e-12

    def test_uniqueness_far_beyond_the_dense_node_cap(self):
        # c3 Delta = 10^4, 48000 nodes, which a dense SVD of 2048 nodes refused
        assert uniqueness_ratio(Measure(1.0, 1.0, 2e4, 0.5)) == pytest.approx(1.171841, abs=1e-6)

    def test_one_assembly_per_measure(self, monkeypatch):
        # one panel block, factored once, serves every solve and residual
        calls = []
        block = fredholm._panel_block

        def counted(m, x, w, h):
            calls.append(m)
            return block(m, x, w, h)

        monkeypatch.setattr(fredholm, "_panel_block", counted)
        fredholm._nystrom_system.cache_clear()
        m = Measure(1.1, 0.9, 0.8, 0.6)
        sols = [solve_integral_eq(m, w) for w in (0.0, 0.4, -1.3, 1.9)]
        assert system_residual(sols[-1]) <= 1e-12
        assert len(calls) == 1
        assert all(s._system is sols[0]._system for s in sols)

    def test_one_operator_per_system(self, monkeypatch):
        # the condition estimate takes M^T's column sums and solves from M
        # itself: a cold system builds one panel operator, not M and M^T.
        # Its boundary-jet rows are built once with it, however many solves,
        # jets and ODE residuals read them, and the twofold integration rows
        # once per node count
        built, jets = [], []
        init, jet_rows = fredholm._PanelOperator.__init__, fredholm._jet_rows

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        def counted_jet(*args):
            jets.append(jet_rows(*args))
            return jets[-1]

        monkeypatch.setattr(fredholm._PanelOperator, "__init__", counted)
        monkeypatch.setattr(fredholm, "_jet_rows", counted_jet)
        fredholm._twofold_rows.cache_clear()
        for m, n in ((Measure(1.1, 0.9, 0.8, 0.6), 200), (Measure(1, 4, 100, 0.5), 200),
                     (Measure(1, 1, 0, 0.5), 32)):
            fredholm._nystrom_system.cache_clear()
            built.clear()
            jets.clear()
            assert fredholm._nystrom_system(m, n)[2] is built[0]
            for w in (0.0, 0.4, -1.3):
                sol = solve_integral_eq(m, w, n)
                assert ode_residual(m, sol) <= ODE_TOL
                fredholm._boundary_jet(sol, 1)
            assert len(built) == len(jets) == 1 and sol._system.jet is jets[0]
        # 40, 24 and 32 nodes per panel
        assert fredholm._twofold_rows.cache_info().misses == 3

    def test_shared_arrays_are_read_only(self):
        sol = solve_integral_eq(Measure(1.0, 1.0, 1.0, 0.5), 0.3)
        op = sol._system
        for shared in (sol.nodes, sol.weights, op.A, op.E, op.moments_t, op.beta_t, op.apply_t,
                       op.inv_t, op.S_inv_t, op.jet, *fredholm._twofold_rows(sol.per)):
            with pytest.raises(ValueError):
                shared[(0,) * shared.ndim] = 0.0
        sol.u_values[0] += 0.0          # the solution itself is the caller's


class TestSpectralIntegration:
    @pytest.mark.parametrize("n", [16, 120])
    def test_gauss_rule_against_mpmath(self, n):
        # J's exactness rests on the rule; numpy's leggauss weights are off
        # by 1e-11 relative at n = 120
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        x, w = gauss_legendre(n, -1.0, 1.0)
        for j in range(n // 2, n):                   # the rule is symmetric
            t = mpmath.mpf(float(x[j]))
            for _ in range(3):
                p_prev, p = mpmath.mpf(1), t
                for k in range(1, n):
                    p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
                dp = n * (t * p - p_prev) / (t * t - 1)
                t -= p / dp
            assert abs(float(t) - x[j]) <= 2.3e-16
            assert abs(w[j] - 2 / ((1 - t * t) * dp * dp)) <= 2e-15 * w[j]
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    def test_barycentric_weights_against_mpmath(self):
        # 40-digit weights of the same float nodes, scaled to the largest 1;
        # a log-sum in doubles is off by 1.7e-13 relative at 400 nodes
        mpmath = pytest.importorskip("mpmath")
        n = 400
        x, _ = gauss_legendre(n, -1.0, 1.0)
        with mpmath.workdps(40):
            xm = [mpmath.mpf(float(v)) for v in x]
            ref = [1 / mpmath.fprod(xj - xk for xk in xm if xk != xj) for xj in xm]
            top = max(abs(r) for r in ref)
            ref = np.array([float(r / top) for r in ref])
        assert np.max(np.abs(barycentric_weights(x) / ref - 1.0)) <= 2e-14

    @pytest.mark.parametrize("n", [16, 200, 400, 800])
    def test_integrates_monomials_below_degree_n(self, n):
        x, _ = gauss_legendre(n, -1.0, 1.0)
        k = np.arange(n)
        exact = (x[:, None] ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        got = fredholm._integration_matrix(n) @ x[:, None] ** k
        assert np.max(np.abs(got - exact)) <= 1e-14

    @pytest.mark.parametrize("panels, per", [(1, 16), (3, 24), (10, 24), (7, 40), (2000, 24)])
    def test_piecewise_integrates_piecewise_monomials(self, panels, per):
        # the twofold pass on panels of half-width 1 from -1: on panel p the
        # columns are (1 + p / panels) x^k in the panel's own coordinate x,
        # k < per - 1 (J's exact degrees, less the one the first integral
        # adds), whose integral from -1 is g1 and twofold integral g2; before
        # panel p, S_p sums the panels' g1(1) and T_p their 2 S_q + g2(1).
        # Measured worst: 3.4e-16 of the largest value, at 1 panel of 16
        x, _ = gauss_legendre(per, -1.0, 1.0)
        k = np.arange(per - 1)
        scale = 1.0 + np.arange(panels)[:, None, None] / panels
        v = (scale * x[:, None] ** k).reshape(-1, per - 1).T          # one row per k

        def g1(t):
            return (t ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)

        def g2(t):
            return ((t ** (k + 2) - (-1.0) ** (k + 2)) / ((k + 1) * (k + 2))
                    - (-1.0) ** (k + 1) * (t + 1.0) / (k + 1))

        S = np.zeros((panels, per - 1), dtype=np.longdouble)
        T = np.zeros_like(S)
        S[1:] = np.cumsum(scale[:-1, 0] * g1(1.0), axis=0, dtype=np.longdouble)
        T[1:] = np.cumsum(2.0 * S[:-1] + scale[:-1, 0] * g2(1.0), axis=0)
        exact = (T[:, None] + S[:, None] * (x[:, None] + 1.0) + scale * g2(x[:, None]))
        got = fredholm._integrate_twice(v, panels)
        err = np.max(np.abs(got.T - exact.reshape(-1, per - 1).astype(float)))
        assert err <= 1e-15 * float(np.max(np.abs(exact)))

    def test_panel_layout(self):
        # up to 40 nodes and c3 Delta = 5 the plain n-point Gauss rule; above
        # either, P = max(ceil(c3 Delta / 5), ceil(n / 40)) panels of
        # max(24, ceil(n / P)) nodes each
        for n in (16, 40):
            sol = solve_integral_eq(Measure(1, 1, 10.0, 0.5), 0.0, n=n)
            plain = gauss_legendre(n, -0.25, 0.25)
            assert np.array_equal(sol.nodes, plain[0]) and np.array_equal(sol.weights, plain[1])
            assert (sol.panels, sol.per) == (1, n)
        assert 10.0 * 0.5 == PANEL_C3_WIDTH
        for c3, n, panels, per in ((10.0, 41, 2, 24), (10.0, 200, 5, 40), (0.0, 400, 10, 40),
                                   (np.nextafter(10.0, 11.0), 40, 2, 24), (10.5, 16, 2, 24),
                                   (300.0, 200, 30, 24), (100.0, 400, 10, 40),
                                   (2e4, 200, 2000, 24)):
            sol = solve_integral_eq(Measure(1, 1, c3, 0.5), 0.0, n=n)
            assert (sol.panels, sol.per, len(sol.nodes)) == (panels, per, panels * per)
            assert np.all(np.diff(sol.nodes) > 0)
            assert -0.25 < sol.nodes[0] and sol.nodes[-1] < 0.25
            assert abs(np.sum(sol.weights) - 0.5) <= 1e-15 * panels

    @pytest.mark.parametrize("m", [Measure(1.0, 1.0, 0.0, 0.5), Measure(1.3, 2.1, 1.7, 0.7),
                                   Measure(1.0, 4.0, 100.0, 0.5), Measure(0.5, 0.55, 0.3, 1.2)])
    def test_condition_is_numpys(self, m):
        # ||M||_1 exactly, ||M^-1||_1 by Hager-Higham from the widest column
        # of M: a lower estimate of numpy's cond(M, 1) of the dense matrix.
        # On 300 random measures it read 0.89 to 1 of it on one panel of 32
        # nodes and 0.99996 to 1 on five panels of 40 (the uniform start:
        # 0.88 to 1 at 200 nodes).  At c3 Delta = 50 the panel block has
        # negative entries: signed column sums would read 2.3e-4 low
        for n, floor in ((32, 0.85), (200, 0.9999)):
            sol = solve_integral_eq(m, 0.3, n=n)
            cond = np.linalg.cond(assemble(m, sol.nodes, sol.weights, sol.panels), 1)
            assert floor * cond <= sol.condition_estimate <= cond * (1.0 + 1e-12)

    def test_condition_estimate_settles_in_two_solves(self, monkeypatch):
        # started at the widest column of M, Hager's iteration confirms its
        # first step: one solve with M (two rows) and one with M^T; from e_0
        # it takes 6 to 8
        calls = []
        solve = fredholm._PanelOperator.solve

        def counted(self, b):
            calls.append(len(b))
            return solve(self, b)

        monkeypatch.setattr(fredholm._PanelOperator, "solve", counted)
        for m in (Measure(1.1, 0.9, 0.8, 0.6), Measure(1, 1, 0, 0.5), Measure(1.3, 2.1, 1.7, 0.7)):
            fredholm._nystrom_system.cache_clear()
            calls.clear()
            fredholm._nystrom_system(m, 200)
            assert calls == [2, 1]


class TestClosedFormU:
    m = Measure(1.0, 1.0, 0.0, 0.5)

    def test_zero_outside_support(self):
        vals = closed_form_u(self.m, 0.7, np.array([-0.3, 0.26, 5.0]))
        assert np.all(vals == 0)

    def test_solves_equation_by_quadrature(self):
        u_fn = lambda a: closed_form_u(self.m, 0.7, a)
        for xi in (-0.21, 0.0, 0.1, 0.24):
            assert equation_residual_by_quadrature(self.m, 0.7, u_fn, xi) <= 1e-9

    def test_w_zero_real_even(self):
        xi = np.linspace(-0.25, 0.25, 41)
        vals = closed_form_u(self.m, 0.0, xi)
        assert np.max(np.abs(vals.imag)) == 0
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-14

    def test_at_the_pole_matches_oracle(self):
        # at the coefficient pole w0 and at the pure atom's pole w = 0 the
        # coefficients are one divided difference (measured within 6e-16)
        w0 = np.sqrt(self.m.c2 / (2 * self.m.c1)) / np.pi
        for m, w in ((self.m, w0), (self.m, -w0), (Measure(2.0, 0.0, 0.0, 0.8), 0.0)):
            sol = solve_integral_eq(m, w)
            assert np.max(np.abs(closed_form_u(m, w, sol.nodes) - sol.u_values)) <= 1e-14

    def test_wrong_regime(self):
        with pytest.raises(InvalidRegime):
            closed_form_u(Measure(1, 1, 1.0, 0.5), 0.3, 0.0)


class TestKFromU:
    test_matches_kernel_section = registry_test("k0z_vs_oracle_c3_1.0")

    def test_k0z_tolerance_catches_planted_perturbation(self, monkeypatch):
        # every closed-vs-oracle K(0, z) check fails on u (1 + 1e-12 cos 7 xi)
        solve = verify.solve_integral_eq

        def planted(m, w, n=fredholm.DEFAULT_NODES):
            sol = solve(m, w, n)
            return dataclasses.replace(
                sol, u_values=sol.u_values * (1.0 + 1e-12 * np.cos(7.0 * sol.nodes)))

        monkeypatch.setattr(verify, "solve_integral_eq", planted)
        checks = [c for c in verify.CHECKS if c.name.startswith("k0z_vs_oracle")]
        assert len(checks) == 5
        assert not any(c.run()[0] for c in checks)

    def test_diagonal_anchor(self):
        m = Measure(1.0, 1.0, 0.0, 0.5)
        sol = solve_integral_eq(m, 0.0)
        val = k_from_u(sol, 0.0)
        assert val.real == pytest.approx(0.4617, abs=1e-4)
        assert 1.0 / val.real == pytest.approx(2.1659, abs=5e-4)

    def test_c2_zero_reduces_to_sinc(self):
        m = Measure(1.0, 0.0, 0.0, 0.5)
        w = 0.3
        sol = solve_integral_eq(m, w)
        for z in (0.0, 0.7, 2.1):
            d = z - w
            expected = np.sin(np.pi * m.delta * d) / (np.pi * d) if d else m.delta
            assert k_from_u(sol, z) == pytest.approx(expected, abs=1e-12)

    def test_hermitian_through_oracle(self):
        m = Measure(1.0, 1.0, 0.0, 0.5)
        rng = np.random.default_rng(14)
        for _ in range(6):
            w = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            kwz = np.conj(k_from_u(solve_integral_eq(m, w), np.conj(z)))
            kzw = np.conj(k_from_u(solve_integral_eq(m, z), np.conj(w)))
            assert abs(kwz - np.conj(kzw)) <= 1e-7


class TestReproducingResidual:
    test_center_sinc = registry_test("reproducing_residual")
    test_shifted_sinc_complex_w = registry_test("reproducing_residual")
    test_pure_band_limited_identity = registry_test("reproducing_residual_band_limited")
    test_exponential_weight = registry_test("reproducing_residual")


class TestOdeResidual:
    test_c3_zero = registry_test("ode_residual_c3zero")
    test_c3_positive_even = registry_test("ode_residual_c3pos")
    test_c3_positive_general_w = registry_test("ode_residual_c3pos")

    def test_c2_zero_convention(self):
        m = Measure(1.0, 0.0, 0.0, 0.5)
        assert ode_residual(m, solve_integral_eq(m, 0.3)) == 0.0

    @pytest.mark.parametrize("m, w", [
        (Measure(1, 1, 0, 0.5), 0.3), (Measure(1, 1, 0, 0.5), 0.0), (Measure(1, 1, 1, 0.5), 0.0),
        (Measure(1.3, 2.1, 1.7, 0.7), 0.7), (Measure(1, 1, 2, 0.3), -1.5),
        (Measure(1, 4, 100, 0.5), 0.4)])
    def test_interior_term_is_derivative_free(self, m, w):
        # the equation integrated over the support reads at the rounding
        # level on the solution and sees a planted 1e-10 relative
        # perturbation of u
        sol = solve_integral_eq(m, w)
        planted = dataclasses.replace(
            sol, u_values=sol.u_values * (1 + 1e-10 * np.cos(7 * sol.nodes)))
        assert ode_residual(m, sol) <= 1e-14
        assert ode_residual(m, planted) >= 1e-13

    @pytest.mark.parametrize("m, w", [
        (Measure(1, 1, 0, 0.5), 0.7), (Measure(1, 1, 0, 0.5), 0.0),
        (Measure(1.0, 0.5, 0.0, 0.8), 1.1 - 0.3j), (Measure(2.0, 1.0, 0.0, 0.6), -0.4)])
    def test_boundary_jet_against_closed_form(self, m, w):
        # u = 1/2 sum_r weights_r e^{offsets_r xi} for c3 = 0, differentiated row by row
        offsets, weights, _ = kernels._c3zero_rows(m.c1, m.c2, m.delta, w)
        sol = solve_integral_eq(m, w)
        for side in (-1, 1):
            x = side * m.delta / 2.0
            exact = 0.5 * (weights * offsets ** np.arange(4)[:, None]
                           * np.exp(offsets * x)).sum(-1)
            err = np.abs(fredholm._boundary_jet(sol, side) - exact)
            assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(exact)))

    def test_tolerance_catches_planted_perturbation(self):
        # oracle_xcheck-style c3 > 0 measures (generic and near the
        # degenerate line), each at w = 0 and 3 real w: every solve passes
        # the tolerance, every u (1 + 1e-10 cos 7 xi) fails it
        rng = np.random.default_rng(7)
        for _ in range(150):
            c1, delta = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)
            lam = rng.uniform(0.05, 1.6) / delta ** 2
            if rng.random() < 0.8:
                ratio = rng.uniform(0.08, 0.92) if rng.random() < 0.5 else rng.uniform(1.08, 3.0)
            else:
                ratio = math.sqrt(1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-12, -2))
            m = Measure(c1, lam * c1, ratio * math.sqrt(lam) / 2.0, delta)
            for w in (0.0, *rng.uniform(-2.0, 2.0, 3)):
                sol = solve_integral_eq(m, w)
                planted = dataclasses.replace(
                    sol, u_values=sol.u_values * (1.0 + 1e-10 * np.cos(7.0 * sol.nodes)))
                assert ode_residual(m, sol) <= ODE_TOL
                assert ode_residual(m, planted) > ODE_TOL

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs a long double wider than a double")
    def test_many_panels_keep_the_documented_margin(self):
        # 960 to 2000 panels; a running sum of the panel totals in doubles
        # read up to 4.0e-15 here (2.9e-15 on the first case), more than
        # ODE_TOL / 3
        rng = np.random.default_rng(2000)
        cases = [(Measure(1, 1, 20000, 0.5), 1.3)]
        for _ in range(4):
            c1, delta = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)
            cases.append((Measure(c1, rng.uniform(0.05, 1.66) * c1 / delta ** 2,
                                  rng.uniform(4800, 10000) / delta, delta), rng.uniform(-2, 2)))
        for m, w in cases:
            sol = solve_integral_eq(m, w)
            assert sol.panels >= 960
            assert ode_residual(m, sol) <= ODE_TOL / 3


class TestOracleAgreementSweep:
    test_random_c3zero_measures = registry_test("nystrom_vs_closed_form")
