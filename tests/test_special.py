"""Special functions against multiprecision references."""

import numpy as np
import pytest
from conftest import exp_moments, sin_quot, sinh_quot, sinh_quot_scaled

mpmath = pytest.importorskip("mpmath")

# |sL| < 1 (the series region) at every angle, plus the real and imaginary
# axes near |sL| = 1 where the alternating terms cancel most, and s = 0
_rng = np.random.default_rng(20261018)
_X = np.concatenate([np.sqrt(_rng.uniform(0, 1, 40)) * 0.999
                     * np.exp(2j * np.pi * _rng.uniform(0, 1, 40)),
                     [0.999, -0.999, 0.999j, -0.999j, 0.5, -0.5, 1e-9, 0.0]])
_L = _rng.uniform(0.1, 1.2, _X.size)
_S = _X / _L


# both through the kernels' quotient, pairpack.special._sinh_quot
_QUOTIENTS = {"sin_quot": sin_quot, "sinh_quot": sinh_quot}


def _rel_err(got, ref):
    return float(np.max(np.abs(np.asarray(got) - ref) / np.abs(ref)))


def test_exp_moment_orders_0_to_25_against_mpmath():
    # phi_k(s) = L^{k+1} 1F1(k+1; k+2; sL) / (k+1), an independent route
    mpmath.mp.dps = 40
    worst = 0.0
    for k in range(26):
        ref = np.array([complex(mpmath.mpf(L) ** (k + 1) / (k + 1)
                                * mpmath.hyp1f1(k + 1, k + 2, mpmath.mpc(x)))
                        for x, L in zip(_X, _L)])
        worst = max(worst, _rel_err(exp_moments(k, _S, _L)[k], ref))
    assert worst <= 2e-15


@pytest.mark.parametrize("name, mp_fn", [("sin_quot", "sin"), ("sinh_quot", "sinh")])
def test_sinc_quotients_against_mpmath(name, mp_fn):
    mpmath.mp.dps = 40
    ref = np.array([complex(getattr(mpmath, mp_fn)(mpmath.mpc(x)) / mpmath.mpc(s))
                    if x != 0 else complex(L) for x, s, L in zip(_X, _S, _L)])
    assert _rel_err(_QUOTIENTS[name](_S, _L), ref) <= 2e-15


# the whole range, as x = s L for sinh and x = i s L for sin: |x| log-uniform
# up to 700 at every angle (Re s of both signs), points within 1e-9 relative
# of the zeros x = i pi k, and s = 0; L a power of two for half the points,
# so that s L is exact there
_EPS = np.finfo(float).eps
_rng_wide = np.random.default_rng(20261019)
_K = _rng_wide.integers(1, 220, 40) * np.where(_rng_wide.random(40) < 0.5, -1.0, 1.0)
_X_WIDE = np.concatenate([
    np.exp(_rng_wide.uniform(np.log(1e-12), np.log(700.0), 300))
    * np.exp(2j * np.pi * _rng_wide.uniform(0, 1, 300)),
    1j * np.pi * _K * (1.0 + 1e-9 * _rng_wide.uniform(-1, 1, 40)), [0.0]])
_L_WIDE = np.where(_rng_wide.random(_X_WIDE.size) < 0.5,
                   _rng_wide.choice([0.25, 0.5, 1.0], _X_WIDE.size),
                   _rng_wide.uniform(0.1, 1.2, _X_WIDE.size))
_POW2 = np.isin(_L_WIDE, [0.25, 0.5, 1.0])


def _quotient_errors(got, s, L, shift=0.0, trig=False):
    """Error of e^{-shift L} sinh(x) / s, x = s L (sin(x) / s if ``trig``),
    against mpmath, in units of eps.  Returns the error relative to the value
    where |value| is at least half its envelope e^{-shift L} cosh(Re x)
    min(L, 1/|s|) (away from the zeros), relative to that envelope elsewhere,
    and the mask of points away from the zeros."""
    mpmath.mp.dps = 60
    fn = mpmath.sin if trig else mpmath.sinh
    ref = np.array([complex(mpmath.exp(-mpmath.mpf(c) * mpmath.mpf(l)) * fn(mpmath.mpc(sv) * l)
                            / mpmath.mpc(sv)) if sv != 0 else complex(l * mpmath.exp(-c * l))
                    for sv, l, c in np.broadcast(s, L, shift)])
    x = (1j * s if trig else s) * L
    shift_l = np.broadcast_to(shift * L, x.shape)
    with np.errstate(divide="ignore"):
        envelope = (L * np.exp(np.abs(x.real) - shift_l) * (1.0 + np.exp(-2.0 * np.abs(x.real)))
                    / 2.0 * np.minimum(1.0, 1.0 / np.abs(x)))
    away = np.abs(ref) >= 0.5 * envelope
    err = np.abs(np.asarray(got) - ref) / np.where(away, np.abs(ref), envelope) / _EPS
    return err, away


@pytest.mark.parametrize("name", ["sin_quot", "sinh_quot"])
def test_sinc_quotients_whole_range_against_mpmath(name):
    # 4 eps for the arithmetic, plus 2 eps |sL| for rounding the product s L
    # where it is not exact
    trig = name == "sin_quot"
    s = (-1j if trig else 1.0) * _X_WIDE / _L_WIDE
    err, away = _quotient_errors(_QUOTIENTS[name](s, _L_WIDE), s, _L_WIDE, trig=trig)
    assert 30 <= (~away).sum() and away.sum() >= 200
    assert np.all(err <= 4.0 + 2.0 * np.abs(_X_WIDE))
    assert np.all(err[_POW2] <= 4.0)


def test_sinh_quot_scaled_large_shift_against_mpmath():
    # shift L log-uniform in [1, 5000]; |Re s| within -300 / L .. 600 / L of
    # the shift, so the value stays representable; |Im s L| up to 700.  The
    # bound allows 2 eps per unit of the exponent (s -+ shift) L, for its
    # rounding
    rng = np.random.default_rng(20261020)
    n = 200
    L = rng.uniform(0.1, 1.2, n)
    shift_l = np.exp(rng.uniform(0.0, np.log(5000.0), n))
    gap = np.minimum(rng.uniform(-300.0, 600.0, n), shift_l)
    s = (rng.choice([-1.0, 1.0], n) * (shift_l - gap) + 1j * rng.uniform(-700, 700, n)) / L
    err, away = _quotient_errors(sinh_quot_scaled(s, L, shift_l / L), s, L, shift_l / L)
    assert away.sum() >= 150
    exponent = np.abs(s * L - np.sign(s.real) * shift_l)
    assert np.all(err <= 4.0 + 2.0 * exponent)


def test_batched_L_matches_scalar_calls():
    np.testing.assert_array_equal(exp_moments(3, _S, _L)[3],
                                  [exp_moments(3, s, L)[3] for s, L in zip(_S, _L)])
    np.testing.assert_array_equal(sin_quot(_S, _L), [sin_quot(s, L) for s, L in zip(_S, _L)])
    shift = 2.0 * _L
    np.testing.assert_array_equal(sinh_quot_scaled(_S, _L, shift),
                                  [sinh_quot_scaled(s, L, c) for s, L, c in zip(_S, _L, shift)])


@pytest.mark.parametrize("region", ["series", "recurrence", "mixed"])
def test_exp_moments_point_alone_and_in_a_call(region):
    # one evaluation per region or both: each point's orders are the same
    # bits alone, inside the call, with L a scalar or an array, and as a
    # 2-d call
    rng = np.random.default_rng(20261021)
    radius = {"series": (0.05, 0.95), "recurrence": (1.05, 40.0), "mixed": (0.05, 40.0)}[region]
    x = rng.uniform(*radius, 24) * np.exp(2j * np.pi * rng.uniform(0, 1, 24))
    L = 0.35
    s = x / L
    small = np.abs(s * L) < 1.0
    assert {"series": small.all(), "recurrence": not small.any(),
            "mixed": 0 < small.sum() < small.size}[region]
    call = exp_moments(3, s, L)
    assert call.shape == (4, 24)
    np.testing.assert_array_equal(call, exp_moments(3, s, np.full(24, L)))
    np.testing.assert_array_equal(call, exp_moments(3, s.reshape(4, 6), L).reshape(4, 24))
    for k in range(24):
        np.testing.assert_array_equal(call[:, k], exp_moments(3, s[k], L))
        np.testing.assert_array_equal(call[:, k], exp_moments(3, s[k:k + 1], np.array([L]))[:, 0])
    # and an array L broadcast against a trailing axis of points
    Ls = rng.uniform(0.1, 1.2, 6)
    grid = exp_moments(1, x.reshape(4, 6) / Ls, Ls)
    for k in range(24):
        np.testing.assert_array_equal(grid[:, k // 6, k % 6],
                                      exp_moments(1, x[k] / Ls[k % 6], Ls[k % 6]))


def test_sinh_quot_scaled_exact_zeros_in_an_array():
    # s = 0 inside an array takes the removable value L e^{-shift L} and
    # raises no RuntimeWarning (the test session turns warnings into errors)
    import warnings
    s = np.array([0.0, 0.3 + 1j, -0.0, 2j, -1.5, 0j, -0.0 - 0.0j])
    L = np.array([0.25, 0.5, 1.0, 0.7, 0.2, 1.2, 0.4])
    shift = np.array([0.0, 1.0, 3.0, 0.5, 0.0, 40.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sinh_quot_scaled(s, L, shift)
        trig = sin_quot(s, L)
    zero = s == 0
    np.testing.assert_allclose(got[zero], L[zero] * np.exp(-shift[zero] * L[zero]), rtol=1e-15)
    np.testing.assert_array_equal(trig[zero], L[zero])
    np.testing.assert_array_equal(got[~zero], [sinh_quot_scaled(v, l, c) for v, l, c
                                               in zip(s[~zero], L[~zero], shift[~zero])])
    assert sinh_quot_scaled(0.0, 0.5, 2.0) == pytest.approx(0.5 * np.exp(-1.0), rel=1e-15)


def test_subnormal_arguments_take_the_removable_value():
    # expm1(y) / y is 1 to rounding where |y| = 2 |s| L <= 1e-300; numpy's
    # complex division by a subnormal y overflowed to inf with a
    # RuntimeWarning (an error in this test session)
    import warnings
    s = np.array([5e-324, 2.2e-311j, -3e-309 + 1e-310j, 1e-305 - 1e-305j, 4e-301, 1e-290j])
    L = np.array([0.5, 0.5, 1.2, 0.25, 0.7, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sinh_quot_scaled(s, L)
        trig = sin_quot(s, L)
    np.testing.assert_allclose(got, L, rtol=2.3e-16, atol=0)
    np.testing.assert_allclose(trig, L, rtol=2.3e-16, atol=0)
