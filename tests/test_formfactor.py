"""Empirical form factor, functionals, and the triangle-transform witness."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import BY_NAME, registry_test

from pairpack import (EmptyDataset, EmptyWindow, Measure, NotCancelled,
                      ParseError, Window,
                      ZeroDataset, ep1_ratio_check, fejer_poisson_check,
                      form_factor, form_factor_positive,
                      kernel_k00, kernel_k0z_grid, load_zeros, phi_functional,
                      symmetric_average, windowed_average)
from pairpack import formfactor, verify
from pairpack.formfactor import MAX_ALPHAS, MAX_ORDINATES, fejer_witness, pair_weight
from pairpack.kernels import k0_transform_solution
from pairpack.quadrature import gauss_legendre


class TestLoadZeros:
    def test_basic(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.1347\n21.0220\n25.0109\n")
        ds = load_zeros(p, lam=1.0)
        assert len(ds.ordinates) == 3
        assert ds.ordinates[0] == pytest.approx(14.1347)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# a comment\n\n10.0\n# another\n12.5\n\n")
        ds = load_zeros(p, lam=1.0)
        assert list(ds.ordinates) == [10.0, 12.5]

    def test_lambda_header(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# lambda=2.5\n10.0\n11.0\n")
        assert load_zeros(p).lam == 2.5
        # explicit argument wins over the header
        assert load_zeros(p, lam=1.0).lam == 1.0

    def test_unsorted_sorted_with_warning(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("12.0\n10.0\n11.0\n")
        with pytest.warns(UserWarning, match="not sorted"):
            ds = load_zeros(p, lam=1.0)
        assert list(ds.ordinates) == [10.0, 11.0, 12.0]

    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("10.0\nnot-a-number\n")
        with pytest.raises(ParseError) as exc:
            load_zeros(p, lam=1.0)
        assert exc.value.lineno == 2
        assert "not-a-number" in exc.value.content

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# only comments\n")
        with pytest.raises(EmptyDataset):
            load_zeros(p, lam=1.0)

    def test_cap_stops_reading(self, tmp_path):
        # refused at the first ordinate over the cap, before the bad line
        p = tmp_path / "z.txt"
        p.write_text("1.0\n" * (MAX_ORDINATES + 1) + "not-a-number\n")
        with pytest.raises(ValueError, match="cap"):
            load_zeros(p, lam=1.0)

    def test_missing_lambda(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("10.0\n")
        with pytest.raises(ValueError):
            load_zeros(p)


class TestZeroDataset:
    def test_list_ordinates(self):
        ds = ZeroDataset(ordinates=[10.0, 10.5, 12.0], lam=1.0)
        assert ds.ordinates.dtype == np.float64
        arr = ZeroDataset(ordinates=np.array([10.0, 10.5, 12.0]), lam=1.0)
        assert form_factor(ds, 100.0, 0.4) == form_factor(arr, 100.0, 0.4)

    def test_caller_array_is_copied(self):
        a = np.array([10.0, 10.5, 12.0])
        ds = ZeroDataset(ordinates=a, lam=1.0)
        a[0] = 11.0
        assert list(ds.ordinates) == [10.0, 10.5, 12.0]
        with pytest.raises(ValueError, match="read-only"):
            ds.ordinates[0] = 11.0

    def test_lambda_must_be_finite_and_positive(self, tmp_path):
        for lam in (float("inf"), float("-inf"), float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match="lambda must be finite and > 0"):
                ZeroDataset(ordinates=[10.0], lam=lam)
        p = tmp_path / "z.txt"
        p.write_text("# lambda=inf\n10.0\n")
        with pytest.raises(ValueError, match="lambda must be finite"):
            load_zeros(p)
        assert type(ZeroDataset(ordinates=[10.0], lam=np.float64(2.0)).lam) is float

    def test_overflowing_lambda_refused(self, monkeypatch):
        # lam * T overflows the normalizer: ValueError naming lambda before
        # the window is read, and no RuntimeWarning on the way
        ds = ZeroDataset(ordinates=[10.0, 10.5], lam=1e308)
        monkeypatch.setattr(ZeroDataset, "in_window",
                            lambda self, T: pytest.fail("window read"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: form_factor(ds, 100.0, 0.3),
                         lambda: form_factor_positive(ds, 100.0, 0.3),
                         lambda: windowed_average(ds, 100.0, 0.0, 0.25, 1.0 / 64.0),
                         lambda: symmetric_average(ds, 100.0, 1.0, 1.0 / 64.0)):
                with pytest.raises(ValueError, match="lambda = 1e"):
                    call()

    def test_equality_is_identity(self):
        # an ndarray field has no truth value: == and hash are the object's own
        a = ZeroDataset(ordinates=[10.0, 10.5], lam=1.0)
        b = ZeroDataset(ordinates=[10.0, 10.5], lam=1.0)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestFormFactor:
    test_even_in_alpha = registry_test("formfactor_even")
    test_nonnegative = registry_test("formfactor_nonnegative")

    def test_single_ordinate_diagonal(self):
        ds = ZeroDataset(ordinates=np.array([10.0]), lam=1.0)
        expected = 1.0 / ((100.0 / (2 * np.pi)) * np.log(100.0))
        for alpha in (0.0, 0.37, -2.0):
            assert form_factor(ds, 100.0, alpha) == pytest.approx(expected,
                                                                  abs=1e-15)

    def test_two_ordinates_hand_expansion(self):
        ds = ZeroDataset(ordinates=np.array([10.0, 10.5]), lam=1.0)
        norm = (100.0 / (2 * np.pi)) * np.log(100.0)
        expected_at_zero = (2.0 + 2.0 * (4.0 / 4.25)) / norm
        assert form_factor(ds, 100.0, 0.0) == pytest.approx(expected_at_zero,
                                                            abs=1e-14)

    def test_window_conventions(self):
        g = np.array([5.0, 15.0, 25.0, 45.0])
        ds_0T = ZeroDataset(ordinates=g, lam=1.0, window=Window.ZERO_TO_T)
        ds_T2T = ZeroDataset(ordinates=g, lam=1.0, window=Window.T_TO_TWO_T)
        assert len(ds_0T.in_window(20.0)) == 2       # 5, 15
        assert len(ds_T2T.in_window(20.0)) == 1      # 25
        sym = ZeroDataset(ordinates=np.array([-3.0, 1.0, 9.0]), lam=1.0,
                          window=Window.SYMMETRIC_T)
        assert len(sym.in_window(10.0)) == 2         # [-5, 5]

    def test_empty_window(self):
        ds = ZeroDataset(ordinates=np.array([50.0]), lam=1.0)
        with pytest.raises(EmptyWindow):
            form_factor(ds, 20.0, 0.3)

    def test_uncancelled_imaginary_part(self, monkeypatch):
        # an asymmetric weight leaves an imaginary part behind: everywhere on
        # three ordinates, and on 300 unit-spaced ordinates only for
        # g - g' > 200, which no diagonal tile holds; a nan weight fails too.
        # form_factor hands the pair sum a transposed view, the averages a
        # C-contiguous operand: the check sees both
        import pairpack.formfactor as formfactor
        three = ZeroDataset(ordinates=np.array([10.0, 10.5, 12.0]), lam=1.0)
        unit = ZeroDataset(ordinates=10.0 + np.arange(300.0), lam=1.0)
        assert len(unit.ordinates) > 2 * formfactor._TILE
        for weight, ds in ((lambda u: 4.0 / (4.0 + u * u) * (1.0 + u), three),
                           (lambda u: 4.0 / (4.0 + u * u) * (1.0 + (u > 200.0)), unit),
                           (lambda u: u * float("nan"), three)):
            monkeypatch.setattr(formfactor, "pair_weight", weight)
            for call in (lambda: form_factor(ds, 400.0, 0.8),
                         lambda: windowed_average(ds, 400.0, 0.8, 0.25, 1.0 / 64.0),
                         lambda: symmetric_average(ds, 400.0, 1.0, 1.0 / 64.0)):
                with pytest.raises(NotCancelled):
                    call()

    def test_non_finite_inputs_refused(self, monkeypatch):
        # refused with ValueError before the window is read, so no nan
        # reaches the pair sum or its cancellation check
        nan, inf = float("nan"), float("inf")
        ds = ZeroDataset(ordinates=np.array([10.0, 10.5]), lam=1.0)
        monkeypatch.setattr(ZeroDataset, "in_window",
                            lambda self, T: pytest.fail("window read"))
        for T, alpha in ((100.0, nan), (100.0, inf), (100.0, -inf), (inf, 0.3),
                         (nan, 0.3), (-inf, 0.3)):
            with pytest.raises(ValueError, match="finite"):
                form_factor(ds, T, alpha)
            with pytest.raises(ValueError, match="finite"):
                form_factor_positive(ds, T, alpha)
        with pytest.raises(ValueError, match="finite"):
            form_factor(ds, 100.0, np.array([0.3, nan, 0.5]))
        # a finite theta whose phase theta g overflows, and a finite window
        # start whose theta = lam log T b does
        with pytest.raises(ValueError, match="finite"):
            form_factor(ds, 100.0, 1e307)
        for b in (1e307, 1e308):
            with pytest.raises(ValueError, match="finite"):
                windowed_average(ds, 100.0, b, 1.0, 1.0 / 16.0)


class TestBatchedFormFactor:
    def test_block_and_batch_boundaries(self):
        # ragged windows of more than two tiles per side in each convention
        # (kept whole, one product per batch), more alphas than one batch
        g = np.sort(np.random.default_rng(31).uniform(-300.0, 600.0, 1200))
        T = 280.0
        masks = {Window.ZERO_TO_T: (g > 0) & (g <= T),
                 Window.T_TO_TWO_T: (g > T) & (g <= 2 * T),
                 Window.SYMMETRIC_T: (g >= -T / 2) & (g <= T / 2)}
        tile, batch = formfactor._TILE, formfactor._ALPHA_BATCH
        alphas = np.linspace(-3.0, 3.0, batch + 6)
        picks = [0, batch // 2, batch - 1, batch, batch + 5]     # both batches
        for window, mask in masks.items():
            ds = ZeroDataset(ordinates=g, lam=0.9, window=window)
            gw = g[mask]
            assert len(gw) > 2 * tile and len(gw) % tile
            diff = gw[:, None] - gw[None, :]
            w = 4.0 / (4.0 + diff ** 2)
            norm = (ds.lam * T / (2 * np.pi)) * np.log(T)
            theta = ds.lam * alphas[picks] * np.log(T)
            dense = np.array([np.sum(np.cos(t * diff) * w) for t in theta]) / norm
            np.testing.assert_allclose(form_factor(ds, T, alphas)[picks], dense,
                                       rtol=1e-13, atol=0)

    test_dense_tiles = registry_test("formfactor_dense_tiles")

    def test_dense_tiles_sees_planted_error(self, monkeypatch):
        # a 1e-14 relative error of form_factor fails the long-double route
        monkeypatch.setattr(verify, "form_factor",
                            lambda ds, T, a: form_factor(ds, T, a) * (1.0 + 1e-14))
        passed, line = BY_NAME["formfactor_dense_tiles"].run()
        assert not passed, line

    @staticmethod
    def two_batches(n, seed):
        g = np.sort(np.random.default_rng(seed).uniform(1.0, 900.0, n))
        alphas = np.linspace(-3.0, 3.0, formfactor._ALPHA_BATCH + 6)
        return ZeroDataset(ordinates=g, lam=0.9), 900.0, alphas

    def test_streamed_window_against_dense(self):
        # above the memo's cap the tiles stream: a ragged last tile per side
        # and two alpha batches, against the dense cos-sum
        ds, T, alphas = self.two_batches(800, 34)
        g = ds.in_window(T)
        assert len(g) ** 2 * 8 > formfactor._MEMO_BYTES and len(g) % formfactor._TILE
        diff = g[:, None] - g[None, :]
        w = 4.0 / (4.0 + diff ** 2)
        picks = [0, 40, 63, 64, 69]
        theta = ds.lam * alphas[picks] * np.log(T)
        dense = np.array([np.sum(np.cos(t * diff) * w) for t in theta])
        dense /= (ds.lam * T / (2 * np.pi)) * np.log(T)
        np.testing.assert_allclose(form_factor(ds, T, alphas)[picks], dense,
                                   rtol=1e-13, atol=0)

    def test_kept_product_matches_streamed_tiles(self, monkeypatch):
        # one product with the whole kept W, and the tiles streamed when
        # nothing may be kept, on the same window
        monkeypatch.setattr(formfactor, "_memo", None)
        ds, T, alphas = self.two_batches(600, 35)
        kept = form_factor(ds, T, alphas)
        assert formfactor._memo is not None
        monkeypatch.setattr(formfactor, "_memo", None)
        monkeypatch.setattr(formfactor, "_MEMO_BYTES", 0)
        streamed = form_factor(ds, T, alphas)
        assert formfactor._memo is None
        np.testing.assert_allclose(kept, streamed, rtol=1e-13, atol=0)

    def test_two_blas_threads(self):
        # the test session pins one BLAS thread; a fresh process with two, as the
        # benchmark runs, gives the same kept-window values
        code = ("import json, sys, numpy as np; from pairpack import ZeroDataset, form_factor; "
                "g = np.sort(np.random.default_rng(36).uniform(1.0, 900.0, 500)); "
                "ds = ZeroDataset(ordinates=g, lam=1.0); "
                "json.dump(form_factor(ds, 900.0, np.linspace(0.0, 3.0, 70)).tolist(), sys.stdout)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS="2"), timeout=120)
        assert proc.returncode == 0, proc.stderr
        g = np.sort(np.random.default_rng(36).uniform(1.0, 900.0, 500))
        here = form_factor(ZeroDataset(ordinates=g, lam=1.0), 900.0, np.linspace(0.0, 3.0, 70))
        np.testing.assert_allclose(json.loads(proc.stdout), here, rtol=1e-13, atol=0)

    def test_peak_memory_below_two_megabytes(self):
        # tiles, not rows: 3000 ordinates and 17 alphas need a 0.8 MB
        # [cos | sin] table and a few 128 KB tiles; an n-wide row block of
        # weights and its copy would take 5 MB
        import tracemalloc
        ds = ZeroDataset(ordinates=np.sort(np.random.default_rng(32).uniform(1.0, 3000.0, 3000)),
                         lam=1.0)
        alphas = np.linspace(0.25, 0.5, 17)
        tracemalloc.start()
        try:
            form_factor(ds, 3000.0, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"

    def test_shapes(self):
        ds = ZeroDataset(ordinates=np.array([10.0, 10.5, 12.0]), lam=1.0)
        for alpha in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(form_factor(ds, 100.0, alpha)) is float
        empty = form_factor(ds, 100.0, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


class TestWeightMemo:
    """The tiles of the last window of at most 724 ordinates are kept."""

    @staticmethod
    def counted(weight, calls):
        def w(u):
            calls.append(u.shape)
            return weight(u)
        return w

    @staticmethod
    def window(n, seed=33):
        g = np.sort(np.random.default_rng(seed).uniform(1.0, 900.0, n))
        return ZeroDataset(ordinates=g, lam=1.0)

    def test_second_call_builds_no_tile(self, monkeypatch):
        monkeypatch.setattr(formfactor, "_memo", None)
        ds, alphas = self.window(300), np.linspace(0.1, 2.0, 17)
        fresh = form_factor(self.window(300), 900.0, alphas)
        monkeypatch.setattr(formfactor, "_memo", None)
        calls = []
        monkeypatch.setattr(formfactor, "pair_weight",
                            self.counted(formfactor.pair_weight, calls))
        first = form_factor(ds, 900.0, alphas)
        assert len(calls) == 9                       # 3 x 3 tiles
        calls.clear()
        second = form_factor(ds, 900.0, alphas)
        assert calls == []
        assert first.tobytes() == fresh.tobytes() == second.tobytes()

    def test_key_holds_the_weight(self, monkeypatch):
        monkeypatch.setattr(formfactor, "_memo", None)
        ds = self.window(300)
        form_factor(ds, 900.0, 0.8)
        monkeypatch.setattr(formfactor, "pair_weight",
                            lambda u: 4.0 / (4.0 + u * u) * (1.0 + u))
        with pytest.raises(NotCancelled):
            form_factor(ds, 900.0, 0.8)

    def test_refused_call_keeps_nothing(self, monkeypatch):
        monkeypatch.setattr(formfactor, "_memo", None)
        three = ZeroDataset(ordinates=np.array([10.0, 10.5, 12.0]), lam=1.0)
        asymmetric = lambda u: 4.0 / (4.0 + u * u) * (1.0 + u)
        monkeypatch.setattr(formfactor, "pair_weight", asymmetric)
        with pytest.raises(NotCancelled):
            form_factor(three, 100.0, 0.8)
        assert formfactor._memo is None
        # a refused call leaves the last good window's entry as it was
        monkeypatch.setattr(formfactor, "pair_weight", pair_weight)
        form_factor(self.window(300), 900.0, 0.8)
        kept = formfactor._memo
        monkeypatch.setattr(formfactor, "pair_weight", asymmetric)
        with pytest.raises(NotCancelled):
            form_factor(three, 100.0, 0.8)
        assert formfactor._memo is kept

    def test_nothing_kept_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(formfactor, "_memo", None)
        assert 724 ** 2 * 8 <= formfactor._MEMO_BYTES < 725 ** 2 * 8
        calls = []
        monkeypatch.setattr(formfactor, "pair_weight",
                            self.counted(pair_weight, calls))
        big = self.window(725)
        for _ in range(2):
            form_factor(big, 900.0, 0.3)
        assert len(calls) == 2 * 36 and formfactor._memo is None
        calls.clear()
        form_factor(self.window(724), 900.0, 0.3)
        assert len(calls) == 36 and formfactor._memo is not None

    def test_batches_share_tiles(self, monkeypatch):
        monkeypatch.setattr(formfactor, "_memo", None)
        batch = formfactor._ALPHA_BATCH
        alphas = np.linspace(-2.0, 2.0, 2 * batch + 1)
        for n, tiles, builds in ((300, 9, 1), (725, 36, 3)):
            calls = []
            monkeypatch.setattr(formfactor, "pair_weight",
                                self.counted(pair_weight, calls))
            form_factor(self.window(n), 900.0, alphas)
            assert len(calls) == tiles * builds


class TestGridRoute:
    """windowed_average and symmetric_average take F on their uniform grid
    from the geometric phase table, form_factor from the exact one."""

    @staticmethod
    def window(n, seed):
        g = np.sort(np.random.default_rng(seed).uniform(1.0, 900.0, n))
        return ZeroDataset(ordinates=g, lam=0.9), 900.0

    def test_two_batches_kept_and_streamed(self, monkeypatch):
        # 2 * 64 + 1 alphas: two full batches and one of a single column, on a
        # window kept whole and one whose tiles stream; one exponential
        # column for the step and one per batch
        columns = []
        phases = formfactor._phases
        monkeypatch.setattr(formfactor, "_phases",
                            lambda g, theta: columns.append(theta) or phases(g, theta))
        count = 2 * formfactor._ALPHA_BATCH + 1
        for n in (600, 800):
            ds, T = self.window(n, 37)
            kept = len(ds.in_window(T)) ** 2 * 8 <= formfactor._MEMO_BYTES
            assert kept == (n == 600)
            columns.clear()
            grid = formfactor._grid_form_factor(ds, T, 0.3, 1.0 / 64.0, count)
            assert len(columns) == 4
            direct = form_factor(ds, T, 0.3 + np.arange(count) / 64.0)
            np.testing.assert_allclose(grid, direct, rtol=2e-13, atol=0)

    def test_symmetric_grid_across_zero(self):
        ds, T = self.window(300, 38)
        beta, h = 1.0, 1.0 / 64.0
        alphas = np.linspace(-beta, beta, 129)
        grid = formfactor._grid_form_factor(ds, T, -beta, 2.0 * beta / 128, 129)
        np.testing.assert_allclose(grid, grid[::-1], rtol=1e-15, atol=0)   # F is even
        assert grid[64] == pytest.approx(form_factor(ds, T, 0.0), rel=1e-15, abs=0)
        direct = np.trapezoid(form_factor(ds, T, alphas), alphas) / (2.0 * beta)
        assert symmetric_average(ds, T, beta, h) == pytest.approx(direct, rel=1e-13, abs=0)

    def test_second_average_builds_no_weight(self, monkeypatch):
        monkeypatch.setattr(formfactor, "_memo", None)
        calls = []
        monkeypatch.setattr(formfactor, "pair_weight",
                            TestWeightMemo.counted(pair_weight, calls))
        ds, T = self.window(300, 33)
        first = windowed_average(ds, T, 0.5, 2.0, 1.0 / 64.0)      # 129 alphas
        assert len(calls) == 9                                     # 3 x 3 tiles, once
        calls.clear()
        assert windowed_average(ds, T, 0.5, 2.0, 1.0 / 64.0) == first
        symmetric_average(ds, T, 1.0, 1.0 / 64.0)
        assert calls == []

    def test_exact_grid_against_long_double(self):
        # F at the exact nodes b + j h, with the float64 rate lam log T, summed
        # from cos and sin of theta g in long double (x87's 80-bit format on
        # x86-64): the geometric table's worst error is at most twice the
        # direct table's on the same draws
        ds, T = self.window(200, 41)
        norm, rate = formfactor._normalizer(ds, T)
        g = ds.in_window(T).astype(np.longdouble)
        w = 4.0 / (4.0 + np.subtract.outer(g, g) ** 2)
        h, count = 1.0 / 64.0, 2 * formfactor._ALPHA_BATCH + 1
        worst = {"direct": 0.0, "geometric": 0.0}
        for b in (0.0, 1.25, 2.75):
            nodes = np.longdouble(b) + np.arange(count).astype(np.longdouble) * np.longdouble(h)
            theta_g = np.multiply.outer(g, np.longdouble(rate) * nodes)
            c, s = np.cos(theta_g), np.sin(theta_g)
            exact = (np.sum(c * (w @ c), axis=0) + np.sum(s * (w @ s), axis=0)) / norm
            for route, f in (("direct", form_factor(ds, T, b + h * np.arange(count))),
                             ("geometric", formfactor._grid_form_factor(ds, T, b, h, count))):
                worst[route] = max(worst[route], float(np.max(np.abs(f / exact - 1.0))))
        assert 0.0 < worst["geometric"] <= 2.0 * worst["direct"], worst

    test_grid_route = registry_test("formfactor_grid_route")

    def test_operand_order_does_not_change_a_value(self):
        # one batch handed to the pair sum C-contiguous and as the transposed
        # float view of its complex table gives the same bytes, on a window
        # kept whole and on one whose tiles stream
        for n in (300, 800):
            ds, T = self.window(n, 42)
            _, rate = formfactor._normalizer(ds, T)
            table = formfactor._phases(ds.in_window(T), rate * np.linspace(0.2, 1.2, 17))
            view = table.view(float).T
            rows = np.ascontiguousarray(view)
            assert view.flags.f_contiguous and not view.flags.c_contiguous
            sums = [formfactor._pair_sums(ds, T, 17, lambda g, cs=cs: iter((cs,)))
                    for cs in (view, rows)]
            assert sums[0].tobytes() == sums[1].tobytes()

    def test_grid_route_sees_planted_step_error(self, monkeypatch):
        # a 1e-12 relative error on the step row e^{i step g} compounds to a
        # factor (1 + 1e-12)^j on alpha j of each batch: rows 2j (cos) and
        # 2j + 1 (sin) of its C-contiguous operand
        geometric = formfactor._geometric_phases

        def planted(theta0, step, count, ordinates):
            batches = geometric(theta0, step, count, ordinates)

            def perturbed(g):
                for cs in batches(g):
                    assert cs.flags.c_contiguous and cs.shape[1] == len(g)
                    yield cs * np.repeat((1.0 + 1e-12) ** np.arange(len(cs) // 2), 2)[:, None]
            return perturbed

        monkeypatch.setattr(formfactor, "_geometric_phases", planted)
        passed, line = BY_NAME["formfactor_grid_route"].run()
        assert not passed, line


class TestFormFactorPositive:
    test_single_ordinate_matches_direct = registry_test("formfactor_positive_route")
    test_small_random_sets = registry_test("formfactor_positive_route")

    def test_always_nonnegative(self):
        ds = ZeroDataset(ordinates=np.array([3.0, 3.0, 17.0]), lam=0.7)
        for alpha in (-2.3, 0.0, 5.1):
            assert form_factor_positive(ds, 20.0, alpha) >= 0.0


class TestMultiplicity:
    def test_duplicates_enter_with_multiplicity(self):
        # doubling an ordinate quadruples its diagonal block
        ds1 = ZeroDataset(ordinates=np.array([10.0]), lam=1.0)
        ds2 = ZeroDataset(ordinates=np.array([10.0, 10.0]), lam=1.0)
        assert form_factor(ds2, 100.0, 0.4) == pytest.approx(
            4.0 * form_factor(ds1, 100.0, 0.4), abs=1e-14)


class TestWindowedAverage:
    test_halving_step_converges = registry_test("windowed_average_self_convergence")
    test_symmetric_decomposition_identity = registry_test("windowed_average_identity")

    def test_single_ordinate_constant(self):
        ds = ZeroDataset(ordinates=np.array([10.0]), lam=1.0)
        avg = windowed_average(ds, 100.0, 1.0, 1.0, 1.0 / 32.0)
        assert avg == pytest.approx(form_factor(ds, 100.0, 0.0), abs=1e-12)

    def test_grid_step_guard(self):
        ds = ZeroDataset(ordinates=np.array([10.0]), lam=1.0)
        with pytest.raises(ValueError):
            windowed_average(ds, 100.0, 1.0, 1.0, 0.5)
        for step in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError):
                windowed_average(ds, 100.0, 1.0, 1.0, step)
            with pytest.raises(ValueError):
                symmetric_average(ds, 100.0, 1.0, step)

    def test_alpha_grid_cap(self):
        # refused before the alpha grid is allocated
        ds = ZeroDataset(ordinates=np.array([10.0]), lam=1.0)
        with pytest.raises(ValueError, match="cap"):
            windowed_average(ds, 100.0, 0.0, 1e12, 1.0)
        with pytest.raises(ValueError, match="cap"):
            windowed_average(ds, 100.0, 0.0, float("inf"), 1.0)
        with pytest.raises(ValueError, match="cap"):
            symmetric_average(ds, 100.0, 1e12, 1.0)
        assert MAX_ALPHAS == 10 ** 6

    def test_alpha_grid_cap_counts_the_even_rounding(self, monkeypatch):
        # symmetric_average rounds its step count up to even, and the cap
        # holds the final grid: 2 beta / step = 8.5 and 9 round to 10 steps,
        # 11 points, one past a cap of 10, refused before the window is read
        monkeypatch.setattr(formfactor, "MAX_ALPHAS", 10)
        ds = ZeroDataset(ordinates=np.array([10.0]), lam=1.0)
        assert symmetric_average(ds, 100.0, 4.0, 1.0) > 0.0        # 9 points
        monkeypatch.setattr(ZeroDataset, "in_window",
                            lambda self, T: pytest.fail("window read"))
        for beta in (4.25, 4.5):
            with pytest.raises(ValueError, match="asks for 11 points; the cap is 10"):
                symmetric_average(ds, 100.0, beta, 1.0)


class TestPhiFunctional:
    test_constant_transform = registry_test("phi_constant_transform")
    test_triangle_transform = registry_test("phi_fejer_transform")

    def test_kernel_square_gives_diagonal(self):
        # transform of |K(0,.)|^2 is the autocorrelation of the transform-side
        # solution; feeding it back through the functional returns K(0,0)
        m = Measure(1.0, 1.0, 1.0, 0.5)
        sol = k0_transform_solution(m)
        L = m.delta / 2.0
        damp = np.exp(-sol.scale)
        e1, e2 = sol.roots.eta1, sol.roots.eta2

        def u0(t):
            # mean and eta^2-divided difference of cosh(eta1 t), cosh(eta2 t)
            t = np.asarray(t, dtype=complex)
            mean = 0.5 * (np.cosh(e1 * t) + np.cosh(e2 * t))
            dd = (np.cosh(e1 * t) - np.cosh(e2 * t)) / (e1 ** 2 - e2 ** 2)
            return (damp * (sol.p_scaled * mean + sol.q_scaled * dd) + sol.mu).real

        def g_hat(a):
            # autocorrelation int u0(t) u0(t - a) dt over the overlap
            a = abs(a)
            if a >= 2 * L:
                return 0.0
            x, wq = gauss_legendre(80, -L + a, L)
            return float(np.sum(wq * u0(x) * u0(x - a)))

        grid = np.linspace(-1.0, 1.0, 801)
        samples = np.array([g_hat(a) for a in grid])
        val = phi_functional(m, samples, grid)
        assert val == pytest.approx(kernel_k00(m), abs=1e-6)


class TestEp1Ratio:
    test_matches_reciprocal_diagonal_c3zero = registry_test("ep1_ratio_c3_0.0")
    test_matches_reciprocal_diagonal_c3pos = registry_test("ep1_ratio_c3_1.0")

    def test_near_atom_limit(self):
        m = Measure(1.0, 1e-10, 0.0, 1.0)
        assert ep1_ratio_check(m) == pytest.approx(1.0, abs=1e-5)

    def test_converges_with_truncation(self):
        m = Measure(1.0, 1.0, 1.0, 0.5)
        target = 1.0 / kernel_k00(m)
        errs = [abs(ep1_ratio_check(m, truncation=float(X)) - target)
                for X in (50.0, 1000.0, 4000.0)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] <= 1e-5


class TestFejer:
    test_witness_value_is_beta = registry_test(
        "fejer_witness_beta_0.5", "fejer_witness_beta_1.0", "fejer_witness_beta_2.5")
    test_poisson_identity = registry_test(
        "fejer_poisson_beta_0.5", "fejer_poisson_beta_1.0", "fejer_poisson_beta_2.5")

    def test_poisson_against_multiprecision(self):
        # sum sin^2(pi b n)/n^2 = (zeta(2) - Re Li_2(e^{2 pi i b}))/2, with the
        # dilogarithm evaluated by mpmath as an independent route
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for beta in (0.5, 2.5, 1.3):
            theta = mpmath.mpf(2) * mpmath.pi * mpmath.mpf(str(beta))
            series = (mpmath.zeta(2)
                      - mpmath.re(mpmath.polylog(2, mpmath.exp(1j * theta)))) / 2
            lhs_mp = beta + 2 * series / (mpmath.pi ** 2 * mpmath.mpf(str(beta)))
            lhs, _, _ = fejer_poisson_check(beta)
            assert lhs == pytest.approx(float(lhs_mp), abs=1e-12)

    def test_competitors_do_not_beat_witness(self):
        # shrunken and shift-averaged triangle transforms stay feasible and
        # never exceed the witness value at the origin
        rng = np.random.default_rng(26)
        for beta in (0.7, 1.0, 2.0):
            for _ in range(20):
                scale = float(rng.uniform(0.1, 1.0))
                shift = float(rng.uniform(0.0, 3.0))
                g0 = 0.5 * (fejer_witness(beta, shift) + fejer_witness(beta, -shift))
                assert scale * g0 <= beta + 1e-6
