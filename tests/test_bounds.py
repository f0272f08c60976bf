"""Bound constants: s0, the per-measure report, applications, refutation."""

import numpy as np
import pytest
from conftest import registry_test

from pairpack import (Measure, NotAdmissible, average_bounds, dedekind_bounds,
                      figure1_data, gonek_ki_conjectured_average, kernel_k00,
                      refutation_threshold, reim_zeta_bounds, s0,
                      selberg_bounds)


class TestS0:
    test_value = registry_test("s0_value")
    test_first_order_condition = registry_test("s0_first_order_condition")
    test_grid_dominance = registry_test("s0_grid_dominance")


class TestAverageBounds:
    def test_anchor_measure(self):
        rep = average_bounds(Measure(1.0, 1.0, 0.0, 0.5))
        # clamp is slack here, so the two lower bounds coincide
        assert not rep.clamp_active
        assert rep.lower_cor8 == pytest.approx(rep.lower_thm1, abs=1e-14)
        # independent recomputation from the kernel diagonal
        inv_k = 1.0 / kernel_k00(Measure(1.0, 1.0, 0.0, 0.5))
        assert rep.lower_cor8 == pytest.approx(
            max(0.5 + s0() * (inv_k - 1.0), 0.0) + 0.5, abs=1e-14)

    def test_atom_limit_pinches(self):
        rep = average_bounds(Measure(1.0, 1e-13, 0.0, 1.0))
        assert rep.upper == pytest.approx(1.0, abs=1e-10)
        assert rep.lower_thm1 == pytest.approx(1.0, abs=1e-10)

    def test_report_invariants(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            c1 = float(rng.uniform(0.5, 2.0))
            delta = float(rng.uniform(0.3, 1.2))
            sigma = float(rng.uniform(0.01, 5.0 / 3.0))
            c3 = float(rng.uniform(0.0, 4.0))
            rep = average_bounds(Measure(c1, sigma * c1 / delta ** 2, c3, delta))
            assert rep.lower_thm1 <= 1.0 + 1e-14
            assert rep.lower_cor8 >= 0.5
            assert rep.lower_thm2 == 0.5
            assert rep.upper > 0

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            average_bounds(Measure(1.0, 2.0, 0.0, 1.0))


class TestSelberg:
    test_identity_with_average_bounds = registry_test("selberg_identity_m_le_20")

    def test_degree_one_values(self):
        lo, up = selberg_bounds(1)
        assert up == pytest.approx(1.327504, abs=1e-5)
        assert lo == pytest.approx(0.928855, abs=1e-4)

    def test_large_degree_expansion(self):
        # cot(x) = 1/x - x/3 + O(x^3) gives upper = m + 1/(3m) + O(1/m^3);
        # the support interval [-1/m, 1/m] shrinks, so the bound weakens
        # linearly in the degree
        lo, up = selberg_bounds(1000)
        assert up == pytest.approx(1000.0 + 1.0 / 3000.0, abs=1e-9)
        assert lo == 0.5          # clamp binds for large degree

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            selberg_bounds(0)


class TestDedekind:
    test_identity_with_average_bounds = registry_test("dedekind_identity_n_le_20")

    def test_degree_one_matches_selberg(self):
        assert dedekind_bounds(1) == pytest.approx(selberg_bounds(1), abs=1e-14)

    def test_degree_two_value(self):
        lo, up = dedekind_bounds(2)
        assert up == pytest.approx(1.0 / np.tan(0.5) + 0.5, abs=1e-13)
        assert up == pytest.approx(2.3304, abs=1e-3)


class TestReimZeta:
    test_anchor_at_zero = registry_test("corollary11_lower", "corollary11_upper")

    def test_large_c_limit(self):
        _, up = reim_zeta_bounds(1000.0)
        assert 2.0 < up < 2.01

    def test_curve_matches_kernel(self):
        for c in (0.0, 0.25, 1.0, 3.0):
            _, up = reim_zeta_bounds(c)
            k = kernel_k00(Measure(1.0, 1.0, 4.0 * c, 0.5))
            assert up == pytest.approx(1.0 / k, abs=1e-10)


class TestFigure1:
    def test_first_row_anchor(self):
        rows = figure1_data(0.0, 2.0, 200)
        assert len(rows) == 201
        c0, lo0, up0 = rows[0]
        assert c0 == 0.0
        assert lo0 == pytest.approx(0.746708, abs=5e-4)
        assert up0 == pytest.approx(2.16599, abs=5e-4)

    def test_rows_ordered_finite(self):
        rows = figure1_data(0.0, 2.0, 50)
        cs = np.array([r[0] for r in rows])
        assert np.all(np.diff(cs) > 0)
        assert np.all(np.isfinite([v for r in rows for v in r]))

    def test_spot_row_consistency(self):
        rows = figure1_data(0.0, 2.0, 2)
        c_mid, lo_mid, up_mid = rows[1]
        assert c_mid == 1.0
        lo_ref, up_ref = reim_zeta_bounds(1.0)
        assert up_mid == up_ref
        assert lo_mid >= lo_ref - 1e-15

    def test_one_diagonal_evaluation_per_row(self, monkeypatch):
        import pairpack.bounds as bounds_mod
        calls = []
        k00 = bounds_mod.kernel_k00

        def counted(m, **kwargs):
            calls.append(m)
            return k00(m, **kwargs)

        monkeypatch.setattr(bounds_mod, "kernel_k00", counted)
        assert len(figure1_data(0.0, 1.0, 10)) == 11
        # one batched call whose batch holds each row's measure once
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0].c3, 4.0 * np.linspace(0.0, 1.0, 11))

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            figure1_data(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            figure1_data(0.0, 1.0, 0)
        for c_min, c_max, name in ((0.0, np.inf, "c_max"), (np.nan, 1.0, "c_min")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                figure1_data(c_min, c_max, 10)


class TestGonekKi:
    test_point_value = registry_test("gonek_ki_value")
    test_always_below_half = registry_test("gonek_ki_below_half")

    def test_continuous_at_zero(self):
        assert gonek_ki_conjectured_average(1.0, 1.0, 0.0) == 0.5

    def test_vanishes_for_long_windows(self):
        assert gonek_ki_conjectured_average(1.0, 1e6, 1.0) < 1e-6

    def test_monotone_in_each_argument(self):
        base = gonek_ki_conjectured_average(1.0, 1.0, 0.5)
        assert gonek_ki_conjectured_average(2.0, 1.0, 0.5) < base
        assert gonek_ki_conjectured_average(1.0, 2.0, 0.5) < base
        assert gonek_ki_conjectured_average(1.0, 1.0, 0.9) < base


class TestRefutationThreshold:
    test_already_below_at_default_floor = registry_test("gonek_ki_threshold_floor_half")
    test_bisection_at_attainable_floor = registry_test(
        "gonek_ki_bisection", "gonek_ki_bisection_bracket")

    def test_smaller_c_gives_larger_threshold(self):
        ts = [refutation_threshold(c, 1.0, floor=0.3) for c in (0.05, 0.08, 0.1)]
        assert ts[0] > ts[1] > ts[2] > 0

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            refutation_threshold(0.0, 1.0)
        with pytest.raises(ValueError):
            refutation_threshold(0.1, 0.4)
