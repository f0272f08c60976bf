"""Special functions against multiprecision references."""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

# |sL| < 1 (the series region) at every angle, plus the real and imaginary
# axes near |sL| = 1 where the alternating terms cancel most, and s = 0
_rng = np.random.default_rng(20261018)
_X = np.concatenate([np.sqrt(_rng.uniform(0, 1, 40)) * 0.999
                     * np.exp(2j * np.pi * _rng.uniform(0, 1, 40)),
                     [0.999, -0.999, 0.999j, -0.999j, 0.5, -0.5, 1e-9, 0.0]])
_L = _rng.uniform(0.1, 1.2, _X.size)
_S = _X / _L


def _rel_err(got, ref):
    return float(np.max(np.abs(np.asarray(got) - ref) / np.abs(ref)))


def test_exp_moment_orders_0_to_25_against_mpmath():
    # phi_k(s) = L^{k+1} 1F1(k+1; k+2; sL) / (k+1), an independent route
    from pairpack.special import exp_moment
    mpmath.mp.dps = 40
    worst = 0.0
    for k in range(26):
        ref = np.array([complex(mpmath.mpf(L) ** (k + 1) / (k + 1)
                                * mpmath.hyp1f1(k + 1, k + 2, mpmath.mpc(x)))
                        for x, L in zip(_X, _L)])
        worst = max(worst, _rel_err(exp_moment(k, _S, _L), ref))
    assert worst <= 2e-15


@pytest.mark.parametrize("name, mp_fn", [("sin_quot", "sin"), ("sinh_quot", "sinh")])
def test_sinc_quotients_against_mpmath(name, mp_fn):
    import pairpack.special as special
    mpmath.mp.dps = 40
    ref = np.array([complex(getattr(mpmath, mp_fn)(mpmath.mpc(x)) / mpmath.mpc(s))
                    if x != 0 else complex(L) for x, s, L in zip(_X, _S, _L)])
    assert _rel_err(getattr(special, name)(_S, _L), ref) <= 2e-15


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
    import pairpack.special as special
    trig = name == "sin_quot"
    s = (-1j if trig else 1.0) * _X_WIDE / _L_WIDE
    err, away = _quotient_errors(getattr(special, name)(s, _L_WIDE), s, _L_WIDE, trig=trig)
    assert 30 <= (~away).sum() and away.sum() >= 200
    assert np.all(err <= 4.0 + 2.0 * np.abs(_X_WIDE))
    assert np.all(err[_POW2] <= 4.0)


def test_sinh_quot_scaled_large_shift_against_mpmath():
    # shift L log-uniform in [1, 5000]; |Re s| within -300 / L .. 600 / L of
    # the shift, so the value stays representable; |Im s L| up to 700.  The
    # bound allows 2 eps per unit of the exponent (s -+ shift) L, for its
    # rounding
    from pairpack.special import sinh_quot_scaled
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
    from pairpack.special import exp_moment, sin_quot, sinh_quot_scaled
    np.testing.assert_array_equal(exp_moment(3, _S, _L),
                                  [exp_moment(3, s, L) for s, L in zip(_S, _L)])
    np.testing.assert_array_equal(sin_quot(_S, _L), [sin_quot(s, L) for s, L in zip(_S, _L)])
    shift = 2.0 * _L
    np.testing.assert_array_equal(sinh_quot_scaled(_S, _L, shift),
                                  [sinh_quot_scaled(s, L, c) for s, L, c in zip(_S, _L, shift)])
