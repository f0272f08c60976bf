"""Property tests over random small inputs, with fixed example counts and a
derandomized search so every run draws the same examples."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pairpack import ZeroDataset, form_factor, form_factor_positive  # noqa: E402

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
