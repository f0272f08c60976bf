"""Empirical pair-correlation engine.

Ingests files of real ordinates, evaluates the normalized form factor

    F(alpha, T) = ((lam T / 2 pi) log T)^{-1}
                  * sum over window pairs of T^{i lam alpha (g - g')} w(g - g'),

with w(u) = 4 / (4 + u^2), averages it over alpha windows, and evaluates the
two extremal-problem functionals (the measure functional ratio that the
kernel diagonal optimizes, and the triangle-transform witness of the
universal 1/2 floor).

The double sum is a real matrix product per batch of alphas, so an alpha
grid, an average or a CLI --alpha range costs one call.  Two builders feed
one pair-sum loop (_pair_sums) a batch at a time, as a (2k, n) real operand
whose rows are cos(theta g) and then sin(theta g) of each of its k alphas,
in whichever memory order the builder writes cheapest.  form_factor takes
any alpha array and builds the exact table e^{i fl(theta_j g)}, one complex
exponential per entry, ordinate-major, and hands over its float view
transposed, without a copy.  windowed_average and symmetric_average own a
uniform grid theta_j = theta_0 + j dtheta, on which the phases are
geometric in j: a batch starts from one row e^{i theta_a0 g}, and each next
alpha's row is the last times the call's one step row e^{i dtheta g}, written
straight into a C-contiguous operand, so two exponentials per ordinate per
batch.  A window of at most 724 ordinates (n^2 weights in
_MEMO_BYTES = 4 MiB) keeps its whole weight matrix W, which does not depend
on alpha: each batch is one BLAS product of the table with W, and a
single-entry memo of the last window lets the next call on it build no
weight.  A larger window streams W in square _TILE x _TILE tiles (128 KB,
which stays in L2 while it is multiplied), built again for each batch, and
keeps no array of n^2 weights or an n-wide row of them.
Two independent routes check it: the term-by-term hand expansion of the
verify registry (pairpack.verify._hand_form_factor) and the positive-definite
integral representation (form_factor_positive); the registry check
formfactor_grid_route holds the averages to np.trapezoid of form_factor on
the same nodes.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (EmptyDataset, EmptyWindow, InfeasibleWitness, NotCancelled,
                     ParseError)
from .kernels import k0_endpoint_value, kernel_k00, kernel_k0z_grid
from .measures import Measure, nu_hat
from .quadrature import panel_rule

_TILE = 128                  # ordinates per side of a tile of W (128 KB, stays in L2 when streamed)
_ALPHA_BATCH = 64            # alphas per pass over W
_MEMO_BYTES = 4 * 2 ** 20    # W kept whole, and for the next call, up to n^2 * 8 bytes (n <= 724)
MAX_ORDINATES = 100_000      # one alpha at 1e5 ordinates: 35 s, peak RSS 37 MB (2-vCPU Xeon)
MAX_ALPHAS = 10 ** 6         # largest alpha grid of an average
_U_CUTOFF = 10.0             # form_factor_positive's |u| range: e^{-40 pi} < 1e-54
_FEJER_GRID = 2001           # fejer_check's grid points on each membership condition
_LATTICE_TERMS = 2000        # fejer_poisson_check's summed terms; the tail is in closed form

_memo = None                 # (pair_weight, window bytes) and its W, for the last window


class Window(enum.Enum):
    ZERO_TO_T = "zero_to_t"        # (0, T]
    T_TO_TWO_T = "t_to_two_t"      # (T, 2T]
    SYMMETRIC_T = "symmetric_t"    # [-T/2, T/2]


def pair_weight(u):
    """Montgomery's weight w(u) = 4 / (4 + u^2)."""
    u = np.asarray(u, dtype=float)
    w = np.square(u, out=np.empty_like(u))
    w += 4.0
    return np.divide(4.0, w, out=w)


@dataclass(frozen=True, eq=False)
class ZeroDataset:
    """Sorted ordinates with multiplicity, plus the density parameter lam
    and the window convention used for all sums.  The ordinates are kept as
    a read-only float64 copy, so the caller's array can change afterwards.
    Equality and hashing are the object's identity: an array field has no
    single truth value."""

    ordinates: np.ndarray
    lam: float
    window: Window = Window.ZERO_TO_T
    source: str = ""

    def __post_init__(self):
        arr = np.array(self.ordinates, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "ordinates", arr)
        if arr.ndim != 1 or len(arr) == 0:
            raise EmptyDataset("no ordinates")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ordinates must be finite")
        if np.any(np.diff(arr) < 0):
            raise ValueError("ordinates must be sorted")
        lam = float(self.lam)
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lambda must be finite and > 0, got {lam!r}")
        object.__setattr__(self, "lam", lam)

    def in_window(self, T: float) -> np.ndarray:
        """The ordinates in the window at T, as a read-only slice of the
        sorted ordinates (empty for a nan T, which no ordinate compares
        with)."""
        g = self.ordinates
        if T != T:
            return g[:0]
        if self.window is Window.ZERO_TO_T:
            lo, hi = g.searchsorted(0.0, "right"), g.searchsorted(T, "right")
        elif self.window is Window.T_TO_TWO_T:
            lo, hi = g.searchsorted(T, "right"), g.searchsorted(2 * T, "right")
        else:
            lo, hi = g.searchsorted(-T / 2, "left"), g.searchsorted(T / 2, "right")
        return g[lo:hi]

    def summary(self) -> str:
        g = self.ordinates
        return (f"{len(g)} ordinates in [{g[0]:.6g}, {g[-1]:.6g}], "
                f"lam={self.lam:.6g}, window={self.window.value}")


def load_zeros(path, lam: float = None,
               window: Window = Window.ZERO_TO_T) -> ZeroDataset:
    """Read one ordinate per line from a UTF-8 text file.

    Blank lines and '#' comments are skipped; a header '# lambda=<value>'
    supplies the density parameter when the caller does not.  Unsorted
    input is sorted with a warning.
    """
    path = Path(path)
    ordinates = []
    header_lam = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text[1:].strip().replace(" ", "")
                if body.lower().startswith("lambda="):
                    try:
                        header_lam = float(body.split("=", 1)[1])
                    except ValueError:
                        raise ParseError(lineno, line.rstrip("\n"),
                                         "bad lambda header") from None
                continue
            try:
                ordinates.append(float(text))
            except ValueError:
                raise ParseError(lineno, line.rstrip("\n"),
                                 "not a decimal literal") from None
            if len(ordinates) > MAX_ORDINATES:
                raise ValueError(f"dataset exceeds the {MAX_ORDINATES}-ordinate cap")
    if not ordinates:
        raise EmptyDataset(str(path))
    arr = np.array(ordinates, dtype=float)
    if np.any(np.diff(arr) < 0):
        warnings.warn(f"{path}: ordinates were not sorted; sorting on load")
        arr = np.sort(arr)
    if lam is None:
        lam = header_lam
    if lam is None:
        raise ValueError("no lambda given and no '# lambda=' header found")
    return ZeroDataset(ordinates=arr, lam=float(lam), window=window,
                       source=str(path))


def _normalizer(ds: ZeroDataset, T: float) -> tuple[float, float]:
    """The normalizer (lam T / 2 pi) log T and the phase rate lam log T of
    theta = rate * alpha, as Python floats, so an overflow gives no numpy
    warning.  A T that is not a finite T > 1, or a lam whose normalizer
    overflows, raises ValueError; a finite normalizer bounds the rate."""
    if not 1.0 < T < math.inf:
        raise ValueError("need a finite T > 1 so log T > 0")
    log_t = float(np.log(T))
    norm = (ds.lam * float(T) / (2.0 * math.pi)) * log_t
    if not norm < math.inf:
        raise ValueError(f"lambda = {ds.lam:.6g} overflows (lambda T / 2 pi) log T "
                         f"at T = {T:.6g}")
    return norm, ds.lam * log_t


def _weight_tiles(g):
    """The tiles W[r, c] = pair_weight(g[r] - g[c]) in column-major tile order."""
    for c0 in range(0, len(g), _TILE):
        cols = g[c0:c0 + _TILE]
        for r0 in range(0, len(g), _TILE):
            yield pair_weight(g[r0:r0 + _TILE, None] - cols)


def _weight_matrix(g):
    """The whole n x n matrix W, filled from _weight_tiles, so the build
    holds one tile beside it."""
    n = len(g)
    w = np.empty((n, n))
    tiles = _weight_tiles(g)
    for c0 in range(0, n, _TILE):
        for r0 in range(0, n, _TILE):
            w[r0:r0 + _TILE, c0:c0 + _TILE] = next(tiles)
    return w


def _require_finite_phases(thetas, ordinates) -> None:
    """A phase builder's check, made in Python floats before the window is
    read: theta g is finite for every theta of thetas (which bound the
    call's |theta|) and every (sorted) ordinate g, so no nan reaches the
    pair sum or its cancellation check."""
    reach = max(-float(ordinates[0]), float(ordinates[-1]))
    if not all(abs(theta) * reach < math.inf for theta in thetas):
        raise ValueError("alpha * lambda * log T * g must be finite for every ordinate g")


def _phases(g, theta):
    """e^{i fl(theta g)}, a row per ordinate and a column per theta (none for
    a 0-d theta): one complex exponential per entry."""
    theta = np.asarray(theta)
    p = np.empty(g.shape + theta.shape, dtype=complex)
    np.multiply.outer(g, theta, out=p.imag)
    p.real = 0.0
    return np.exp(p, out=p)


def _exact_phases(theta, ordinates):
    """The batches of the exact table e^{i fl(theta_j g)} for an array of
    thetas.  Each is built ordinate-major, an (n, k) complex table, where
    the exponential runs fastest, and handed over as its float view
    transposed: the (2k, n) operand with rows cos and sin of each alpha,
    Fortran-ordered, without a copy."""
    _require_finite_phases((float(np.max(np.abs(theta), initial=0.0)),), ordinates)

    def batches(g):
        for a0 in range(0, theta.size, _ALPHA_BATCH):
            yield _phases(g, theta[a0:a0 + _ALPHA_BATCH]).view(float).T
    return batches


def _geometric_phases(theta0: float, step: float, count: int, ordinates):
    """The batches of the table e^{i (theta0 + j step) g}, j < count, each a
    C-contiguous (2k, n) operand with rows cos and sin of each alpha.  A
    batch's first row is one exponential per ordinate; each next row is the
    last times the step row e^{i step g}, built once per call, so an alpha
    costs one complex multiply per ordinate and the copy of its real and
    imaginary parts into the operand.  Only the step row and one running
    row are held beside the operand, no complex table."""
    _require_finite_phases((theta0, step, theta0 + (count - 1) * step), ordinates)

    def batches(g):
        n = len(g)
        ratio = _phases(g, step)
        for a0 in range(0, count, _ALPHA_BATCH):
            k = min(_ALPHA_BATCH, count - a0)
            cs = np.empty((k, 2, n))
            row = _phases(g, theta0 + a0 * step)
            parts = row.view(float).reshape(n, 2).T      # cos, sin rows of row
            cs[0] = parts
            for j in range(1, k):
                np.multiply(row, ratio, out=row)
                cs[j] = parts
            yield cs.reshape(2 * k, n)
    return batches


def _pair_sums(ds: ZeroDataset, T: float, count: int, phases):
    """The unnormalized form factor at count alphas, from the batches that
    phases(g) yields for the window g: each a (2k, n) real operand whose
    rows are cos(theta g) and then sin(theta g) of each of its k alphas, in
    either memory order (a value does not depend on it).

    With c = cos(theta g), s = sin(theta g) and W_ij = pair_weight(g_i - g_j),
    the sum is  Re = c.(W c) + s.(W s)  and  Im = c.(W s) - s.(W c).  Each
    batch of alphas forms P = [c | s]^T W one column tile of W at a time and
    sums P times [c | s]^T along the tile pairwise for Re (a second matrix
    product would sum it as a dot, which rounds further from the exact sum);
    Im, from the cross terms of the same P, cancels for an even weight and is
    checked.

    A window whose n^2 weights fit in _MEMO_BYTES (n <= 724) is one tile: W
    is built once per call, from _TILE x _TILE pieces into one array, so each
    batch is a single BLAS product.  W is kept in a module-level memo of one
    entry keyed by (pair_weight, the window's bytes), written only after
    every batch has passed the cancellation check, so a call that raises
    NotCancelled leaves none, and a call on the same window with the same
    weight builds no weight.  Above the cap nothing is kept: each batch
    streams W in _TILE x _TILE tiles that stay in L2, and no temporary grows
    with the square of the ordinate count or with the ordinate count times
    the alpha count.  W and the batches have a fixed layout and order, so a
    value does not depend on whether W came from the memo.
    """
    global _memo
    g = ds.in_window(T)
    n = len(g)
    if n == 0:
        raise EmptyWindow(f"no ordinates in the {ds.window.value} window for T={T}")
    keep = n * n * 8 <= _MEMO_BYTES
    w = None
    if keep:
        key = (pair_weight, g.tobytes())
        if _memo is not None and _memo[0] == key:
            w = _memo[1]
    out = np.empty(count)
    for a0, cs in zip(range(0, count, _ALPHA_BATCH), phases(g)):
        k = len(cs) // 2
        if keep and w is None:
            w = _weight_matrix(g)
        tile, tiles = (n, iter((w,))) if keep else (_TILE, _weight_tiles(g))
        re, im = np.zeros(k), np.zeros(k)
        for c0 in range(0, n, tile):
            pw = cs[:, :tile] @ next(tiles)         # pw[a] = (cs[a] W)[c0:c0 + tile]
            for r0 in range(tile, n, tile):
                pw += cs[:, r0:r0 + tile] @ next(tiles)
            cols = cs[:, c0:c0 + tile]
            p3, c3 = pw.reshape(k, 2, -1), cols.reshape(k, 2, -1)
            im += np.vecdot(p3[:, 0], c3[:, 1]) - np.vecdot(p3[:, 1], c3[:, 0])
            re += np.multiply(pw, cols, out=pw).reshape(k, -1).sum(axis=1)
        worst = np.max(np.abs(im))
        if not worst <= 1e-10 * n * n:      # a nan fails too
            raise NotCancelled(f"imaginary part {worst:.3e} did not cancel")
        out[a0:a0 + k] = re
    if w is not None:
        _memo = (key, w)
    return out


def form_factor(ds: ZeroDataset, T: float, alpha):
    """Direct double sum of the form factor at every alpha of an array (real
    and even in alpha; a 0-d alpha gives a float), from the exact phase table
    e^{i fl(theta_j g)}, theta_j = lam log T alpha_j, through _pair_sums.  A
    non-finite alpha or T, or a phase theta_j g that overflows, raises
    ValueError before the window is read."""
    norm, rate = _normalizer(ds, T)
    alpha = np.asarray(alpha, dtype=float)
    out = _pair_sums(ds, T, alpha.size, _exact_phases(rate * alpha.ravel(), ds.ordinates))
    out /= norm
    return float(out[0]) if alpha.ndim == 0 else out.reshape(alpha.shape)


def _grid_form_factor(ds: ZeroDataset, T: float, start: float, step: float,
                      count: int) -> np.ndarray:
    """F(start + j step, T) for j < count, through _pair_sums from the
    geometric phase table (two exponentials per ordinate per batch)."""
    norm, rate = _normalizer(ds, T)
    phases = _geometric_phases(rate * start, rate * step, count, ds.ordinates)
    out = _pair_sums(ds, T, count, phases)
    out /= norm
    return out


def form_factor_positive(ds: ZeroDataset, T: float, alpha: float) -> float:
    """The same quantity through the positive-definite representation

        2 pi * integral e^{-4 pi |u|} | sum_g T^{i lam alpha g} e^{2 pi i g u} |^2 du,

    truncated at |u| <= _U_CUTOFF (the integrand dies like e^{-4 pi u}).
    Nonnegative by construction.  A non-finite alpha or T raises ValueError.
    """
    norm, _ = _normalizer(ds, T)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    g = ds.in_window(T)
    if len(g) == 0:
        raise EmptyWindow(f"no ordinates in the {ds.window.value} window for T={T}")
    theta = ds.lam * alpha * np.log(T)

    def integrand(u):
        u = np.asarray(u, dtype=float)
        s = np.exp(1j * (theta * g[None, :] + 2.0 * np.pi * u[:, None] * g[None, :]))
        mag = np.abs(np.sum(s, axis=1)) ** 2
        return np.exp(-4.0 * np.pi * np.abs(u)) * mag

    spread = max(float(g[-1] - g[0]), 1.0)
    val = 0.0
    for (a, b) in ((-_U_CUTOFF, 0.0), (0.0, _U_CUTOFF)):   # kink of e^{-4 pi |u|}
        pts, wts = panel_rule(a, b, panel_length=0.25 / spread, order=16)
        val += float(np.dot(wts, integrand(pts)))
    return 2.0 * np.pi * val / norm


def _alpha_steps(span: float, grid_step: float, even: bool = False) -> int:
    """n = ceil(span / grid_step) for a positive grid_step, rounded up to
    even when asked, refused before anything is allocated when the grid's
    n + 1 points would pass MAX_ALPHAS."""
    steps = span / grid_step
    n = math.ceil(steps) if steps < MAX_ALPHAS else MAX_ALPHAS
    if even:
        n += n % 2
    if not n + 1 <= MAX_ALPHAS:
        raise ValueError(f"the alpha grid asks for {max(steps, n) + 1:.6g} points; "
                         f"the cap is {MAX_ALPHAS}")
    return n


def windowed_average(ds: ZeroDataset, T: float, b: float, ell: float,
                     grid_step: float) -> float:
    """Trapezoid average (1/ell) integral_b^{b+ell} F(alpha, T) d alpha on
    the uniform grid b + j ell / n, n = ceil(ell / grid_step), whose phase
    table is geometric (_grid_form_factor), not form_factor's exact one."""
    if not (math.isfinite(b) and b >= 0 and ell > 0):
        raise ValueError("need finite b >= 0 and ell > 0")
    if not 0 < grid_step <= ell / 16.0:
        raise ValueError("grid_step must be in (0, ell / 16]")
    n = _alpha_steps(ell, grid_step)
    f = _grid_form_factor(ds, T, b, ell / n, n + 1)
    return float((f.sum() - (f[0] + f[-1]) / 2.0) / n)      # trapezoid rule / ell


def symmetric_average(ds: ZeroDataset, T: float, beta: float,
                      grid_step: float) -> float:
    """(1 / 2 beta) integral_{-beta}^{beta} F(alpha, T) d alpha by the
    trapezoid rule on the uniform grid -beta + j 2 beta / n, n even so that
    0 is a node, from the geometric phase table as in windowed_average."""
    if not beta > 0:
        raise ValueError("beta must be > 0")
    if not grid_step > 0:
        raise ValueError("grid_step must be > 0")
    n = _alpha_steps(2.0 * beta, grid_step, even=True)      # keep 0 on the grid
    f = _grid_form_factor(ds, T, -beta, 2.0 * beta / n, n + 1)
    return float((f.sum() - (f[0] + f[-1]) / 2.0) / n)      # trapezoid rule / 2 beta


# ---------------------------------------------------------------------------
# extremal-problem functionals
# ---------------------------------------------------------------------------

def phi_functional(m: Measure, g_hat_samples, grid) -> float:
    """c1 * g_hat(0) + c2 * integral of g_hat(a) |a| e^{-c3 |a|} over
    [-Delta, Delta], from samples of g_hat on a covering grid."""
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(g_hat_samples, dtype=float)
    if grid.shape != vals.shape or grid.ndim != 1:
        raise ValueError("grid and samples must be matching 1-d arrays")
    if grid[0] > -m.delta or grid[-1] < m.delta:
        raise ValueError("grid must cover [-Delta, Delta]")
    at0 = float(np.interp(0.0, grid, vals))
    lo = np.searchsorted(grid, -m.delta, side="left")
    hi = np.searchsorted(grid, m.delta, side="right")
    xs = np.concatenate(([-m.delta], grid[lo:hi], [m.delta]))
    ys = np.concatenate(([np.interp(-m.delta, grid, vals)], vals[lo:hi],
                         [np.interp(m.delta, grid, vals)]))
    if 0.0 not in xs:
        pos = np.searchsorted(xs, 0.0)
        xs = np.insert(xs, pos, 0.0)
        ys = np.insert(ys, pos, at0)
    weight = np.abs(xs) * np.exp(-m.c3 * np.abs(xs))
    integral = float(np.trapezoid(ys * weight, xs))
    return m.c1 * at0 + m.c2 * integral


def ep1_ratio_check(m: Measure, truncation: float = None,
                    extended: bool = False) -> float:
    """Ratio Phi(g) / g(0) for the extremal candidate g = |K(0, .)|^2,
    computed through the Plancherel form integral |K(0,x)|^2 nu_hat(x) dx
    divided by K(0,0)^2.  Should reproduce 1 / K(0,0).

    The real-line integral is truncated with a closed-form correction for
    the non-oscillatory 1/x^2 far field of |K(0, x)|^2.
    """
    m.require_single()
    m.require_admissible(extended=extended)
    k00 = kernel_k00(m, extended=extended)
    if truncation is None:
        truncation = 2000.0 / m.delta
    pts, wts = panel_rule(-truncation, truncation, 1.0 / (2.0 * m.delta))
    kv = np.real(kernel_k0z_grid(m, pts.astype(complex), extended=extended))
    integral = float(np.dot(wts, kv * kv * nu_hat(m, pts)))
    # far field K(0,x) ~ uL sin(pi Delta x)/(pi x): non-oscillatory tail part
    u_end = k0_endpoint_value(m)
    integral += m.c1 * u_end ** 2 / (np.pi ** 2 * truncation)
    return integral / (k00 * k00)


# ---------------------------------------------------------------------------
# triangle-transform witness of the universal floor
# ---------------------------------------------------------------------------

def fejer_witness(beta: float, x):
    """g(x) = beta (sin(pi beta x) / (pi beta x))^2, whose transform is the
    triangle (1 - |a|/beta)_+ <= indicator of [-beta, beta]."""
    arg = np.asarray(x, dtype=float) * beta
    return beta * np.sinc(arg) ** 2


def fejer_check(beta: float) -> float:
    """Verify the witness membership conditions on grids of _FEJER_GRID
    points and return its value at the origin, which is exactly beta (the
    optimum of the second extremal problem).  Raises InfeasibleWitness when
    a membership condition fails."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    a = np.linspace(-2.0 * beta, 2.0 * beta, _FEJER_GRID)
    triangle = np.maximum(1.0 - np.abs(a) / beta, 0.0)
    indicator = (np.abs(a) <= beta).astype(float)
    if np.any(triangle > indicator + 1e-15):
        raise InfeasibleWitness("transform exceeds the indicator")
    x = np.linspace(-50.0, 50.0, _FEJER_GRID)
    if np.any(fejer_witness(beta, x) < -1e-15):
        raise InfeasibleWitness("witness is negative somewhere")
    return float(fejer_witness(beta, 0.0))


def _trigamma(x: float) -> float:
    """psi'(x) = sum_{k>=0} 1/(x+k)^2 for x > 0: the recurrence
    psi'(x) = psi'(x+1) + 1/x^2 up to x >= 20, then the asymptotic series
    1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) through B_14, whose first omitted
    term is below 1e-20 relative there."""
    head = 0.0
    while x < 20.0:
        head += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    bern = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
            -691.0 / 2730.0, 7.0 / 6.0)
    tail = 0.0
    for b2k in reversed(bern):
        tail = b2k + inv2 * tail
    return head + (inv + 0.5 * inv2 + inv * inv2 * tail)


def fejer_poisson_check(beta: float) -> tuple[float, float, float]:
    """Both sides of the lattice identity  sum_n g(n) = sum_k g_hat(k)  for
    the rescaled triangle witness, with the left tail beyond
    N = _LATTICE_TERMS evaluated in closed form.  Returns (lhs, rhs,
    |lhs - rhs|).

    Tail machinery: g(n) = sin^2(pi beta n) / (pi^2 beta n^2) for n != 0,
    and sum_{n>N} n^{-2} = psi'(N+1)  while
    sum_{n>N} cos(2 pi beta n)/n^2 = pi^2 (b^2 - b + 1/6) - partial sum,
    with b the fractional part of beta.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    n = np.arange(1, _LATTICE_TERMS + 1, dtype=float)
    s2 = np.sin(np.pi * beta * n) ** 2
    lhs = beta + (2.0 / (np.pi ** 2 * beta)) * float(np.sum(s2 / n ** 2))
    # analytic tail: sum_{n>N} (1 - cos(2 pi beta n)) / (2 n^2), both sides
    frac = beta - np.floor(beta)
    tail_one = _trigamma(_LATTICE_TERMS + 1.0)
    cos_full = np.pi ** 2 * (frac * frac - frac + 1.0 / 6.0)
    cos_partial = float(np.sum(np.cos(2.0 * np.pi * beta * n) / n ** 2))
    tail_cos = cos_full - cos_partial
    lhs += (tail_one - tail_cos) / (np.pi ** 2 * beta)
    kmax = int(np.floor(beta))
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    rhs = float(np.sum(np.maximum(1.0 - np.abs(ks) / beta, 0.0)))
    return lhs, rhs, abs(lhs - rhs)
