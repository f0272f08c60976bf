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


def test_batched_L_matches_scalar_calls():
    from pairpack.special import exp_moment, sin_quot, sinh_quot_scaled
    np.testing.assert_array_equal(exp_moment(3, _S, _L),
                                  [exp_moment(3, s, L) for s, L in zip(_S, _L)])
    np.testing.assert_array_equal(sin_quot(_S, _L), [sin_quot(s, L) for s, L in zip(_S, _L)])
    shift = 2.0 * _L
    np.testing.assert_array_equal(sinh_quot_scaled(_S, _L, shift),
                                  [sinh_quot_scaled(s, L, c) for s, L, c in zip(_S, _L, shift)])
