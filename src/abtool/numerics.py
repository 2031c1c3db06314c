"""Low-level numerics: special functions, root finding, quadrature and
finite differences; the reproducible random streams live in `variates`.

Everything here is plain numpy and deterministic: same inputs, same bits.
Scalar arguments return scalars, array arguments return arrays.

Finite differences have one first- and one second-derivative stencil,
`central_diff` and `central_diff_2nd` (central differences with one
Richardson step).  `gradient_fd` and `laplacian_fd` apply them along each
axis of a point or a point batch, and `curl_z_fd` reads the plane curl off
the `gradient_fd` Jacobian; the package's numerical derivatives all go
through these.
"""
from __future__ import annotations

import heapq
import math
from functools import lru_cache

import numpy as np

from .variates import RandomStream  # noqa: F401 (callers and benchmark/spans.py use it here)


class NonConvergenceError(RuntimeError):
    """An iterative routine ran out of budget.

    Carries the best estimate and an error bound so callers can decide
    whether the partial result is still usable; `abtool` prints both on its
    exit-3 line.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


# ---------------------------------------------------------------------------
# Bessel J of real order 0 <= order <= MAX_ORDER + 1 (the pair's upper row at
# MAX_ORDER) and its zeros for order <= MAX_ORDER.
#
# One router, `_bessel`, gives the pair J_order, J_{order+1} (J alone is its
# first row) with one split, x <= 9.25 for every order:
# - at or below it, the ascending series (coefficients cached per order, one
#   complex Horner pass for both rows on every cached term, so a value's
#   bits depend on its order and x alone);
# - past it, Miller's backward recurrence (Gautschi, SIAM Review 9 (1967) 24),
#   normalized by the Neumann sum (A&S 9.1.87), which gives both rows from one
#   pass; each element starts at its own order, so its bits do not depend on
#   the rest of the batch.  It is only called past the split and on a zero's
#   Newton steps, at x >= 2.4048250 (j_{0,1}'s start); there, for order <= 51
#   and x <= 400, the largest iterate or Neumann sum measured 7.9e97, so it
#   needs no rescaling.
# Largest error of either row against mpmath, 0 <= order <= 51:
#   0 < x <= 5       series  2.3e-15
#   5 < x <= 9.25    series  7.4e-14   (rounding: the terms cancel by ~e^x)
#   9.25 < x <= 400  Miller  7.3e-16
# The split sits where the series' rounding stays below 1e-13 (it reaches
# 1.6e-13 at x = 10); on (9.25, 10] Miller's recurrence holds 3.3e-16.
# Cost of a call on the series, 2-core Xeon, numpy 2.4: 50, 27 and 35 us at
# 1, 30 and 405 points, mostly the floor of two ufunc calls per Horner step;
# 6.4 ms at 1e5, where the complex pass is bound by arithmetic.  Miller per
# 1e5 points: 25 ms on (10, 40], 96 ms on (10, 400] (its passes grow with x).
# Every hot path reads x <= 9.1 and stays on the series.
# ---------------------------------------------------------------------------

MAX_ORDER = 50.0           # largest order of a zero, hence of a state
MAX_ZERO_INDEX = 100       # largest n of a zero j_{order,n}

_SERIES_MAX_X = 9.25
# below it 0.5 * x is subnormal, so rounded, and (x/2)^order with it
_HALF_SUBNORMAL_X = 2.0 ** -1021
# Horner reads c[0] to c[27]: at x <= 9.25 the first omitted term is below
# 1e-20 and below 1e-20 Gamma(13) times the first for every row order <= 52
_SERIES_TERMS = 28


@lru_cache(maxsize=None)
def _series_coeffs(order):
    """c_order[k] + i c_{order+1}[k] as 0-d complex arrays (a ufunc converts
    a scalar on every call), c_o[k] = (-1)^k / (k! Gamma(o + k + 1)) by the
    float recurrence."""
    c = np.empty((_SERIES_TERMS, 2))
    for j, o in enumerate((order, order + 1.0)):
        c[0, j] = 1.0 / math.gamma(o + 1.0)
        for k in range(1, _SERIES_TERMS):
            c[k, j] = -c[k - 1, j] / (k * (o + k))
    return [p[...] for p in c.view(complex)[:, 0]]


def _horner_series(order, y):
    """J_o(x) / (x/2)^o for o = order, order + 1 as the real and imaginary
    parts of sum_k c[k] y^k by Horner at y = (x/2)^2 + 0i on every cached
    term.  Times y + 0i rounds each part once, as a real product does, so
    each part has the bits of a real pass over its own row."""
    c = _series_coeffs(order)
    s = np.full_like(y, c[-1])
    for ck in c[-2::-1]:
        np.multiply(s, y, s)        # two positional in-place calls a term
        np.add(s, ck, s)
    return s


def _miller(order, x):
    """[J_order(x), J_{order+1}(x)] for a 1-d array x > 0: the recurrence
    f_{k-1} = 2 (order + k) / x f_k - f_{k+1} run down from f = 1 at the
    element's own even offset N = x + 12 x^(1/3) + 30 (rounded up), then
    scaled by the Neumann sum
        (x/2)^order / Gamma(order + 1) = sum_j a_j J_{order+2j}(x),
        a_0 = 1, a_j = (order + 2j) Gamma(order + j) / (j! Gamma(order + 1)).
    Before its start an element holds f = 0, which the recurrence and the sum
    keep exactly.  The coefficient is divided afresh at every step: with 2/x
    rounded once, the whole pass follows a shifted x (2e-15 off at x = 400).
    Callers pass x >= 2.4048250, the least a zero's Newton step hands it (at
    j_{0,1}'s start, just below the zero); on [2.40, 400] at orders 0 to 51
    no iterate or sum grows past 7.9e97, far from overflow, so nothing is
    rescaled."""
    start = 2.0 * np.ceil(0.5 * (x + 12.0 * np.cbrt(x) + 30.0))
    starts = set(start.tolist())
    top = int(start.max())
    j = np.arange(1.0, top // 2 + 1)
    g = np.cumprod(np.concatenate(([1.0], (order + j[:-1]) / (j[:-1] + 1.0))))
    a = np.concatenate(([1.0], (order + 2.0 * j) * g))
    f_up, f, s = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(top, 0, -1):
        if k % 2 == 0:
            if k in starts:
                f[start == k] = 1.0
            s += a[k // 2] * f
        f, f_up = (2.0 * (order + k)) / x * f - f_up, f
    s += f
    norm = _series_coeffs(order)[0].real * (0.5 * x) ** order / s
    return [f * norm, f_up * norm]


def _bessel(order, x):
    """[J_order(x), J_{order+1}(x)] for a 1-d array x >= 0: one complex
    Horner pass where x <= 9.25, its parts scaled by (x/2)^order (x^order
    2^-order where x/2 is subnormal; 1.0 at order 0) into new rows, Miller's
    past it.  A point has the same bits in any batch.  A nan or infinite x
    is a domain error."""
    top = x.max(initial=0.0)
    if top <= _SERIES_MAX_X:
        inner = None
    elif top < np.inf:      # nan fails this test too
        inner = x <= _SERIES_MAX_X
    else:
        raise ValueError("x must be >= 0 and finite")
    xs = x if inner is None else x[inner]
    half = 0.5 * xs
    y = (half * half).astype(complex)
    pref = half ** order
    if xs.min(initial=_SERIES_MAX_X) < _HALF_SUBNORMAL_X:
        tiny = xs < _HALF_SUBNORMAL_X
        pref[tiny] = xs[tiny] ** order * 0.5 ** order
    s = _horner_series(order, y)
    out = [np.multiply(s.real, pref), np.multiply(s.imag, pref)]
    out[1] *= half
    if inner is None:
        return out
    past = ~inner
    full = [np.empty_like(x) for _ in out]
    for j, series, miller in zip(full, out, _miller(order, x[past])):
        j[inner] = series
        j[past] = miller
    return full


def _check_order(name, order, top):
    if not order >= 0.0:        # nan fails it too
        raise ValueError(f"{name}: order must be >= 0, got {order}")
    if order > top:
        raise ValueError(f"{name}: order {order:g} is past nu = {top:g}, "
                         f"outside the supported window")


def _bessel_call(name, order, x):
    """`_bessel` for any x: scalars give floats, arrays keep their shape."""
    _check_order(name, order, MAX_ORDER + 1.0)
    xa = np.asarray(x, dtype=float)
    out = _bessel(float(order), xa.ravel())
    return [float(j[0]) if xa.ndim == 0 else j.reshape(xa.shape) for j in out]


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x), 0 <= order <= 51
    (MAX_ORDER + 1), finite x >= 0: the first row of the pair."""
    # nan fails the first test, inf the second
    if not (np.min(x, initial=0.0) >= 0.0 and np.max(x, initial=0.0) < np.inf):
        raise ValueError("bessel_j: x must be >= 0 and finite")
    return _bessel_call("bessel_j", order, x)[0]


def bessel_j_pair(order, x):
    """(J_order(x), J_{order+1}(x)) from one pass over both rows, for the
    value/derivative pair J' = (v/x) J - J_{v+1} of the hot loops, whose
    x >= 0 is not checked again (a nan or infinite x is a ValueError);
    J_order is `bessel_j`'s, bit for bit."""
    return tuple(_bessel_call("bessel_j_pair", order, x))


# Zeros: one scalar Newton solve per (order, n), cached, every step on
# Miller's recurrence, which is right to rounding at every x it meets: Newton
# until a step is below 1e-8 z, then one more step.  It starts from McMahon's
# expansion (DLMF 10.21.19) where n >= order, and from the Airy-type form
# order z(zeta) + f_1(zeta) / order (DLMF 10.21.43) below it, with Ai's zero
# a_n from the first four terms of -T(3 pi (4n - 1) / 8) (DLMF 9.9.6, 9.9.18).
# Over order = k/4 <= 50 at n in 1, 2, 5, 49, 50, 100 the starts are at most
# 1.69e-3 (Airy-type, at (50, 1)) and 1.64e-3 (McMahon's, at (0, 1)) from the
# zero, and the least x a step hands the recurrence is 2.4048250, at (0, 1).
# Left of j_n, J has the sign (-1)^(n-1), right of it the opposite one, so
# every iterate narrows a bracket of half-width 1 around the start; zeros of
# J_order are at least 3.1 apart, so the bracket holds j_n and no neighbour,
# and an iterate that leaves it is replaced by the bracket's midpoint.
# The steps run on Python floats (`_miller_float`) with the bits of `_miller`
# on [x]: (x/2)^order and x^(1/3) come from numpy on 0-d arrays, since
# Python's ** and math.cbrt round about 5% and half of these values
# differently (a cube root one ulp off can move Miller's start by 2, and with
# it the last bits).  A zero takes about 0.065 ms at n <= 2 and 0.19 ms at
# n = 100 (averaged over order; 2-core Xeon, numpy 2.4).
_ZERO_REACH = 1.0
_ZERO_STEP_TOL = 1e-8      # one more Newton step is then exact to rounding
_ZERO_MAX_ITER = 40


def _airy_type_z(zeta):
    """z > 1 with sqrt(z^2 - 1) - arcsec z = (2/3) (-zeta)^(3/2), zeta < 0
    (DLMF 10.20.3): Newton from z = rhs + pi/2, right of the root, where the
    left side is convex and increasing."""
    rhs = (2.0 / 3.0) * (-zeta) ** 1.5
    z = rhs + 0.5 * math.pi
    for _ in range(_ZERO_MAX_ITER):
        w = math.sqrt(z * z - 1.0)
        step = (w - math.acos(1.0 / z) - rhs) * z / w
        z -= step
        if step <= 1e-15 * z:
            return z
    raise NonConvergenceError(f"bessel_j_zero: no z(zeta) for zeta={zeta}")


def _zero_start(order, n):
    """McMahon's j_{order,n} for n >= order, else the Airy-type one."""
    if n >= order:
        b = (n + 0.5 * order - 0.25) * math.pi
        mu = 4.0 * order * order
        e = 1.0 / (8.0 * b)
        return b - (mu - 1.0) * e * (1.0 + 4.0 * (7.0 * mu - 31.0) * e * e / 3.0
                                     + 32.0 * (83.0 * mu * mu - 982.0 * mu + 3779.0)
                                     * e ** 4 / 15.0)
    # Ai's n-th zero from the first four terms of -T(3 pi (4n - 1) / 8)
    # (DLMF 9.9.6, 9.9.18)
    u = 1.0 / (3.0 * math.pi * (4 * n - 1) / 8.0) ** 2
    a_n = -u ** (-1.0 / 3.0) * (1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0
                                                         + u * 77125.0 / 82944.0)))
    zeta = order ** (-2.0 / 3.0) * a_n
    z = _airy_type_z(zeta)
    w = z * z - 1.0
    h2 = math.sqrt(4.0 * zeta / (1.0 - z * z))
    b0 = -5.0 / (48.0 * zeta * zeta) + (5.0 / (24.0 * w ** 1.5)
                                        + 1.0 / (8.0 * math.sqrt(w))) / math.sqrt(-zeta)
    return order * z + 0.5 * z * h2 * b0 / order


def _miller_float(order, x):
    """`_miller(order, np.array([x]))` on Python floats, bit for bit: one
    element starts at the top, so the recurrence runs from f = 1 there."""
    top = 2 * math.ceil(0.5 * (x + 12.0 * float(np.cbrt(x)) + 30.0))
    a, g = [1.0], 1.0
    for j in range(1, top // 2 + 1):
        a.append((order + 2.0 * j) * g)
        g *= (order + j) / (j + 1.0)
    f, f_up, s = 1.0, 0.0, 0.0
    for k in range(top, 0, -1):
        if k % 2 == 0:
            s += a[k // 2] * f
        f, f_up = (2.0 * (order + k)) / x * f - f_up, f
    s += f
    norm = 1.0 / math.gamma(order + 1.0) * float(np.power(0.5 * x, order)) / s
    return f * norm, f_up * norm


@lru_cache(maxsize=4096)
def _zero(order, n):
    """j_{order,n}: Newton on Miller's pair, J' = (order/x) J - J_{order+1},
    until a step is below 1e-8 z, then one more step."""
    z = _zero_start(order, n)
    lo, hi = z - _ZERO_REACH, z + _ZERO_REACH
    left = 1.0 if n % 2 else -1.0
    for _ in range(_ZERO_MAX_ITER):
        jv, jv1 = _miller_float(order, z)
        step = jv / (order / z * jv - jv1)
        if abs(step) <= _ZERO_STEP_TOL * z:
            z -= step
            jv, jv1 = _miller_float(order, z)
            return z - jv / (order / z * jv - jv1)
        if jv * left > 0.0:
            lo = z
        else:
            hi = z
        z = z - step if lo < z - step < hi else 0.5 * (lo + hi)
    raise NonConvergenceError(
        f"bessel_j_zero: Newton did not settle for order={order}, n={n}",
        best_estimate=z, error_bound=hi - lo)


def bessel_j_zero(order, n):
    """n-th positive zero of J_order, 0 <= order <= MAX_ORDER and
    1 <= n <= MAX_ZERO_INDEX, cached per (order, n)."""
    _check_order("bessel_j_zero", order, MAX_ORDER)
    if not 1 <= n <= MAX_ZERO_INDEX:
        raise ValueError(f"bessel_j_zero: n = {n} outside the supported "
                         f"window 1 <= n <= {MAX_ZERO_INDEX}")
    if n != int(n):
        raise ValueError(f"bessel_j_zero: n = {n} must be an integer")
    return _zero(float(order), int(n))


# ---------------------------------------------------------------------------
# J_nu'/J_nu from one table lookup (the sampler's radial drift).
#
# From J_nu(x) = (x/2)^nu / Gamma(nu+1) prod_k (1 - x^2/j_k^2) (DLMF 10.21.15):
#   J'/J    = nu/x + sum_{k<=n} 2x/(x^2 - j_k^2) + S(x)
# The poles (x = 0 and the first n zeros) come back in closed form at every
# lookup, nu/x at every order (at nu = 0 it adds +0.0 wherever x > 0); S
# carries only the zeros beyond j_n and is smooth on [0, j_n], so it is
# tabulated once as cubic Hermite pieces.
# Near a zero the table values come from the Taylor series of J about the
# zero (the Bessel equation gives every coefficient), not from the direct
# quotient, which loses digits there.
# ---------------------------------------------------------------------------

_TABLE_CELLS_PER_UNIT = 256      # h <= 1/256: cubic error ~ h^4/384 |S''''|
_TABLE_MIN_CELLS = 1024
_ZERO_TAYLOR_TERMS = 30
_ZERO_TAYLOR_REACH = 0.5         # nodes this close to a zero use its series


def _zero_taylor(order, z):
    """Coefficients of A(t) with J_order(z + t) = J'(z) t A(t), A(0) = 1.

    From x^2 J'' + x J' + (x^2 - nu^2) J = 0 about x = z with J(z) = 0:
    z^2 (m+2)(m+1) a_{m+2} = -z (m+1)(2m+1) a_{m+1} - (m^2 + z^2 - nu^2) a_m
                             - 2z a_{m-1} - a_{m-2},
    run from a_{-2} = a_{-1} = a_0 = 0, a_1 = 1; a[m + 2] holds a_m.
    """
    a = np.zeros(_ZERO_TAYLOR_TERMS + 4)
    a[3] = 1.0
    for m in range(_ZERO_TAYLOR_TERMS):
        a[m + 4] = (-z * (m + 1) * (2 * m + 1) * a[m + 3]
                    - (m * m + z * z - order * order) * a[m + 2]
                    - 2.0 * z * a[m + 1] - a[m]) / (z * z * (m + 2) * (m + 1))
    return a[3:_ZERO_TAYLOR_TERMS + 3]


def _pole_sums(x, zsq):
    """sum over the zeros j (zsq = j^2) of 2x/(x^2 - j^2) and of its
    derivative -2(x^2 + j^2)/(x^2 - j^2)^2; one zero at a time, so memory
    stays at the size of x for any number of zeros."""
    x2 = x * x
    pole, dpole = np.zeros_like(x), np.zeros_like(x)
    for q in zsq:
        d = x2 - q
        pole += 2.0 * x / d
        dpole -= 2.0 * (x2 + q) / (d * d)
    return pole, dpole


class BesselLogTable:
    """J_order'(x)/J_order(x) on 0 <= x <= j_n.

    Built once from `bessel_j_pair` (the series up to x = 9.25, Miller's
    recurrence past it); a lookup is a fixed handful of numpy calls whatever
    the order.  Against that exact route the log-derivative agrees to about
    1e-11 (1 + |J'/J|) away from the zeros; next to a zero both routes carry
    the exact route's own rounding, which the table inherits through the
    zero's position.  Arguments outside [0, j_n] give meaningless values (no
    error is raised).
    """

    def __init__(self, order, n):
        order = float(order)
        zeros = np.array([bessel_j_zero(order, k) for k in range(1, n + 1)])
        x_max = zeros[-1]
        cells = max(_TABLE_MIN_CELLS, math.ceil(_TABLE_CELLS_PER_UNIT * x_max))
        h = x_max / cells
        # one padding cell past j_n absorbs k (r - a) rounding up at r = b
        x = np.arange(cells + 2) * h
        zsq = zeros * zeros
        jv, jv1 = bessel_j_pair(order, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -jv1 / jv                                  # J'/J - nu/x
            pole, dpole = _pole_sums(x, zsq)
            s = w - pole
            ds = -(2.0 * order + 1.0) * w / x - 1.0 - w * w - dpole
        # x = 0: J'/J - nu/x -> -x/(2 nu + 2)
        s[0] = 0.0
        ds[0] = -1.0 / (2.0 * order + 2.0) + (2.0 / zsq).sum()
        for k, z in enumerate(zeros):
            near = np.abs(x - z) < _ZERO_TAYLOR_REACH
            xn = x[near]
            t = xn - z
            c = _zero_taylor(order, z)
            c1 = c[1:] * np.arange(1, c.size)
            c2 = c1[1:] * np.arange(1, c1.size)
            a0 = np.polyval(c[::-1], t)
            reg = np.polyval(c1[::-1], t) / a0             # J'/J - 1/t
            dreg = np.polyval(c2[::-1], t) / a0 - reg * reg
            pole, dpole = _pole_sums(xn, np.delete(zsq, k))
            s[near] = reg - order / xn - 1.0 / (xn + z) - pole
            ds[near] = dreg + order / xn ** 2 + 1.0 / (xn + z) ** 2 - dpole
        self.zeros = zeros
        # a lookup's scalar operands are 0-d arrays: a ufunc converts a
        # Python float or numpy scalar on every call
        self._order, self._two = np.array(order), np.array(2.0)
        # one pole term or a row of them: a 1-d subtraction avoids a
        # broadcast and a reduction per lookup in the common n = 1 case
        self._zsq = np.array(zsq[0]) if n == 1 else zsq
        self._inv_h = np.array(1.0 / h)
        # cubic Hermite cells, one row per power of t = (x - x_i) / h
        s0, s1, d0, d1 = s[:-1], s[1:], ds[:-1] * h, ds[1:] * h
        self._coef = np.stack([s0, d0, 3.0 * (s1 - s0) - 2.0 * d0 - d1,
                               2.0 * (s0 - s1) + d0 + d1])

    def scratch(self, n):
        """A lookup's scratch for n points, (t, i, c, rows): the Hermite
        parameter, the cell index, the cells' 4 x n coefficients and c's rows
        as views, made once so a lookup indexes nothing."""
        c = np.empty((4, n))
        return np.empty(n), np.empty(n, dtype=np.intp), c, tuple(c)

    def lookup(self, x, out, scratch):
        """J'(x)/J(x) written into `out` for a 1-d array x in [0, j_n].

        It is not finite at the poles, x = 0 (nu/x is inf, or NaN at
        nu = 0) and the zeros, none of which the sampler takes as valid.
        `scratch` is `self.scratch(x.size)`: a caller that keeps it allocates
        nothing on a one-zero table.  Its contents on return are unspecified.
        Every operation takes its operands in a fixed order, so a point's
        bits do not depend on the other points of the call.
        """
        t, i, c, (c0, c1, c2, c3) = scratch
        np.multiply(x, self._inv_h, t)
        np.copyto(i, t, casting="unsafe")
        np.subtract(t, i, t)
        self._coef.take(i, 1, c, "clip")
        np.multiply(c3, t, out)              # Horner on the cell's cubic
        np.add(out, c2, out)
        np.multiply(out, t, out)
        np.add(out, c1, out)
        np.multiply(out, t, out)
        np.add(out, c0, out)
        if self._zsq.ndim:
            inv_d = np.subtract.outer(np.multiply(x, x, t), self._zsq)
            np.reciprocal(inv_d, inv_d).sum(axis=1, out=t)
        else:
            np.multiply(x, x, t)
            np.subtract(t, self._zsq, t)
            np.reciprocal(t, t)
        np.multiply(self._two, x, c0)
        np.multiply(c0, t, c0)
        np.add(out, c0, out)
        np.divide(self._order, x, t)
        np.add(out, t, out)
        return out


@lru_cache(maxsize=64)
def bessel_log_table(order, n):
    """The BesselLogTable of J_order up to its n-th zero, built once."""
    return BesselLogTable(order, n)


# ---------------------------------------------------------------------------
# Airy Ai: Maclaurin series on [-7.5, 5.5], asymptotic expansions beyond.
#
# The series loses digits to cancellation as x grows, so the right
# expansion takes over at 5.5, where zeta = 8.6 (13.7 at the left seam);
# both expansions sum all 26 terms.  Largest error against mpmath (30
# digits, steps of 1e-3, and the float past each seam):
#   -40 <= x < -7.5   left expansion   2.4e-14 absolute
#   -7.5 <= x <= 0    series           5.1e-12 absolute
#   0 < x <= 5        series           1.6e-9 relative
#   5 < x <= 5.5      series           1.7e-8 relative (2.1e-4 at x = 7.5)
#   5.5 < x <= 7.5    right expansion  7.5e-9 relative (5.4e-14 at x = 7.5)
#   7.5 < x <= 40     right expansion  5.4e-14 relative
# ---------------------------------------------------------------------------

AIRY_AI_0 = 0.3550280538878172392600632  # 3^(-2/3) / Gamma(2/3)
AIRY_AI_PRIME_0 = -0.2588194037928067984051836  # -3^(-1/3) / Gamma(1/3)

_AIRY_LEFT, _AIRY_RIGHT = -7.5, 5.5    # the series' seams


def _airy_u_coeffs():
    u = np.ones(26)
    for k in range(1, u.size):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
    return u


_AIRY_U = _airy_u_coeffs()
# each expansion's signed coefficients: (-1)^k u_k right, (-1)^floor(k/2) u_k left
_AIRY_U_RIGHT = (-1.0) ** np.arange(_AIRY_U.size) * _AIRY_U
_AIRY_U_LEFT = (-1.0) ** (np.arange(_AIRY_U.size) // 2) * _AIRY_U


def _airy_series(x):
    """Ai(x) from its Maclaurin series (DLMF 9.4.1) on an array."""
    x3 = np.power(x, 3)
    f, g, cf, cg = 1.0, x, 1.0, x
    for k in range(140):
        cf = cf * x3 / ((3 * k + 2.0) * (3 * k + 3.0))
        cg = cg * x3 / ((3 * k + 3.0) * (3 * k + 4.0))
        f = f + cf
        g = g + cg
        if np.all(abs(cf) + abs(cg) < 1e-18 * (abs(f) + abs(g) + 1.0)):
            break
    return AIRY_AI_0 * f + AIRY_AI_PRIME_0 * g


def _airy_asym_right(x):
    """Ai(x), x > 0, from s = 1 + sum_{k>=1} (-1)^k u_k / zeta^k (DLMF 9.7.5)."""
    zeta = (2.0 / 3.0) * x ** 1.5
    s = np.ones_like(x)
    for k in range(1, _AIRY_U.size):
        s += _AIRY_U_RIGHT[k] / zeta ** k
    return np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x ** 0.25) * s


def _airy_asym_left(x):
    """Ai(x), x < 0, from p and q (DLMF 9.7.9), the sums of the even and of
    the odd terms (-1)^floor(k/2) u_k / zeta^k, summed from p = 1, q = 0."""
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    pq = [np.ones_like(t), np.zeros_like(t)]
    for k in range(1, _AIRY_U.size):
        pq[k % 2] += _AIRY_U_LEFT[k] / zeta ** k
    p, q = pq
    arg = zeta + 0.25 * np.pi
    return (np.sin(arg) * p - np.cos(arg) * q) / (np.sqrt(np.pi) * t ** 0.25)


def airy_ai(x):
    """Airy function Ai(x) on roughly [-40, 40]; a scalar runs as a
    one-element array."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xv = np.atleast_1d(xa).astype(float)
    out = np.full_like(xv, np.nan)      # nan and -inf take no branch
    # a branch costs tens of numpy calls even on no points, so only the
    # branches that have points run
    for branch, sel in ((_airy_series, (xv >= _AIRY_LEFT) & (xv <= _AIRY_RIGHT)),
                        (_airy_asym_right, xv > _AIRY_RIGHT),
                        (_airy_asym_left, (xv < _AIRY_LEFT) & (xv > -np.inf))):
        if sel.any():
            out[sel] = branch(xv[sel])
    return float(out[0]) if scalar else out.reshape(xa.shape)


def _bisect_floats(inside, fail, hold):
    """(fail, hold) as adjacent floats for arrays of positive floats with
    inside(fail) false and inside(hold) true, element by element: bisection
    on the floats' bit patterns, which order positive floats.  inside maps
    the array of midpoints to numpy bools.  The tests compare floats, so no
    integer comparison loop of numpy is paged in (peak RSS)."""
    fail, hold = np.asarray(fail, dtype=float), np.asarray(hold, dtype=float)
    while True:
        f, h = fail.view(np.int64), hold.view(np.int64)
        mid = (f + (h - f) // 2).view(np.float64)
        open_ = (mid != fail) & (mid != hold)   # a closed pair's mid is an end
        if not open_.any():
            return fail, hold
        ok = inside(mid)
        hold = np.where(open_ & ok, mid, hold)
        fail = np.where(open_ & ~ok, mid, fail)


# A zero takes 47 to 52 evaluations of Ai, each on a one-element array of
# midpoints: about 0.19 ms in the series branch (z_1 to z_3 take about 29 ms)
# and 0.1 ms on the left expansion, n >= 5 (2-core Xeon, numpy 2.4).  For
# n <= 49 the zeros are a median 0.35 ulp from mpmath; the worst, 78 ulp at
# n = 4, is the series' own rounding near x = -6.8.
@lru_cache(maxsize=None)
def airy_ai_zero(n):
    """n-th negative zero z_n of Ai (z_1 ~ -2.338), n >= 1: the last float
    from 0 with Ai's sign at the bracket's end nearer 0, on t = -x."""
    if n < 1:
        raise ValueError("airy_ai_zero: n must be >= 1")
    if not float(n).is_integer():       # nan and inf are not
        raise ValueError(f"airy_ai_zero: n = {n} must be an integer")
    guess = -((3.0 * np.pi * (4 * n - 1) / 8.0) ** (2.0 / 3.0))
    width = 0.35 if n < 3 else 0.2      # holds z_n for every n <= 200 measured
    near, far = guess + width, guess - width
    sign = airy_ai(near)
    if not airy_ai(far) * sign < 0.0:
        raise NonConvergenceError(f"airy_ai_zero: no sign change on [{far}, {near}]")
    # np.greater gives a numpy bool: ~ on a Python bool is an int
    _, hold = _bisect_floats(lambda t: np.greater(airy_ai(-t) * sign, 0.0),
                             [-far], [-near])
    return -hold.item()


# ---------------------------------------------------------------------------
# Associated Laguerre and Legendre polynomials (three-term recurrences).
# ---------------------------------------------------------------------------

def assoc_laguerre(p, q, x):
    """Generalized Laguerre L_p^{(q)}(x), integer p >= -1, real q, from
    (k + 1) L_{k+1} = (2k + 1 + q - x) L_k - (k + q) L_{k-1} (DLMF 18.9.13)
    run up from L_{-1} = 0, L_0 = 1."""
    if p < -1 or p != int(p):
        raise ValueError("assoc_laguerre: p must be an integer >= -1")
    x = np.asarray(x, dtype=float)
    lag = [np.zeros_like(x), np.ones_like(x)]              # L_{-1}, L_0
    for k in range(int(p)):
        lag.append(((2 * k + 1 + q - x) * lag[-1] - (k + q) * lag[-2]) / (k + 1.0))
    return float(lag[int(p) + 1]) if np.ndim(x) == 0 else lag[int(p) + 1]


def assoc_legendre(l, m, x):
    """Associated Legendre P_l^m(x) with Condon-Shortley phase, 0 <= m <= l + 1:
    from P_{m-1}^m = 0 and P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}, up in l by
    (l - m) P_l^m = (2l - 1) x P_{l-1}^m - (l + m - 1) P_{l-2}^m (DLMF 14.10.3)."""
    if not (0 <= m <= l + 1):
        raise ValueError("assoc_legendre requires 0 <= m <= l + 1")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("assoc_legendre: |x| must be <= 1")
    somx2 = np.sqrt((1.0 - x) * (1.0 + x))
    plm = [np.zeros_like(x), np.ones_like(x)]          # P_{m-1}^m, P_m^m
    for fact in range(1, 2 * m, 2):
        plm[1] = -plm[1] * fact * somx2
    for ll in range(m + 1, l + 1):
        plm.append(((2.0 * ll - 1.0) * x * plm[-1] - (ll + m - 1.0) * plm[-2])
                   / (ll - m))
    return float(plm[l - m + 1]) if np.ndim(x) == 0 else plm[l - m + 1]


# ---------------------------------------------------------------------------
# Quadrature: the package's one rule, Gauss(7)/Kronrod(15) pairs refined
# worst-first until a global tolerance is met (QUADPACK-style heap strategy).
# Vector integrands converge when every component does.
# ---------------------------------------------------------------------------

_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_DEPTH = 48
_MAX_INTERVALS = 20000

_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG7 = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119,
                 0.417959183673469])

_GK_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])           # 15 ascending
# the weights mirrored about the middle node, Gauss's on the odd nodes
_GK_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = np.concatenate([_WG7, _WG7[-2::-1]])


def _gk15(f, edges):
    """(values, errors), (panels,) or (panels, k), of GK15 on the panels
    between successive edges from one f call, each panel's bits as alone."""
    edges = np.asarray(edges, dtype=float)
    h = 0.5 * (edges[1:] - edges[:-1])
    nodes = np.multiply.outer(h, _GK_NODES)        # c + h * node, c and h floats
    nodes += 0.5 * (edges[:-1, None] + edges[1:, None])
    fv = np.asarray(f(nodes.ravel()), dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[0] != nodes.size:
        raise ValueError("quadrature integrand must map n nodes to (n,) or (n, k)")
    fp = fv.reshape(h.size, 15, -1)                 # a scalar f as k = 1
    kron = h[:, None] * np.matmul(_GK_WK, fp)
    err = np.abs(kron - h[:, None] * np.matmul(_GK_WG, fp))
    return (kron, err) if fv.ndim == 2 else (kron[:, 0], err[:, 0])


def integrate_1d(f, lo, hi, points=()):
    """Integral of f over [lo, hi] from initial panels split at `points`,
    increasing inside (lo, hi), as QUADPACK's QAGP does.

    f gets the 15 nodes of every initial panel in one call, then 30 per
    bisection (at most _MAX_DEPTH past an initial panel), and returns (n,)
    values (a float result) or (n, k) (a length-k array); ends and break
    points are not nodes of a bisected panel: one too narrow for that raises
    NonConvergenceError.
    """
    if hi == lo:
        return 0.0
    edges = [lo, *points, hi]
    if len(points) and not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("integrate_1d: points must increase inside (lo, hi)")
    vals, errs = _gk15(f, edges)
    total, toterr, count = vals.sum(axis=0), errs.sum(axis=0), len(vals)
    heap = None                         # made when the first panels fall short
    while True:
        if (toterr <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))).all():
            return float(total) if np.ndim(total) == 0 else total
        if heap is None:
            worst = errs.reshape(count, -1).max(axis=1).tolist()
            heap = [(-w, a, b, v, e, 0)                 # worst component first
                    for w, a, b, v, e in zip(worst, edges, edges[1:], vals, errs)]
            heapq.heapify(heap)
        neg, a, b, v, e, depth = heapq.heappop(heap)
        m = 0.5 * (a + b)
        # the halves' outer nodes as _gk15 rounds them: a panel some 100 ulp
        # wide puts them on its ends, where f may have no value
        inside = (a < 0.5 * (a + m) - 0.5 * (m - a) * _XGK[0]
                  and 0.5 * (m + b) + 0.5 * (b - m) * _XGK[0] < b)
        if depth >= _MAX_DEPTH or count >= _MAX_INTERVALS or not inside:
            raise NonConvergenceError("integrate_1d: tolerance not met",
                                      best_estimate=total, error_bound=toterr)
        (v1, v2), (e1, e2) = _gk15(f, [a, m, b])
        total = total + (v1 + v2 - v)
        toterr = toterr + (e1 + e2 - e)
        heapq.heappush(heap, (-e1.max(), a, m, v1, e1, depth + 1))
        heapq.heappush(heap, (-e2.max(), m, b, v2, e2, depth + 1))
        count += 1


# ---------------------------------------------------------------------------
# Central differences with one Richardson extrapolation step (O(h^4)).
# ---------------------------------------------------------------------------

def central_diff(f, x, h):
    """First derivative of scalar f at x; samples x+-h and x+-2h."""
    if h <= 0.0:
        raise ValueError("h must be > 0")
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_2h = (f(x + 2.0 * h) - f(x - 2.0 * h)) / (4.0 * h)
    return (4.0 * d_h - d_2h) / 3.0


def central_diff_2nd(f, x, h):
    """Second derivative of scalar f at x; samples x, x+-h and x+-2h."""
    if h <= 0.0:
        raise ValueError("h must be > 0")
    f0 = f(x)
    s_h = (f(x + h) - 2.0 * f0 + f(x - h)) / (h * h)
    s_2h = (f(x + 2.0 * h) - 2.0 * f0 + f(x - 2.0 * h)) / (4.0 * h * h)
    return (4.0 * s_h - s_2h) / 3.0


def _along_axes(stencil, f, p, h):
    """[stencil of f along axis 0, along axis 1, ...] at the point(s) p."""
    p = np.asarray(p, dtype=float)

    def along(ax):
        def f_ax(t):
            q = p.copy()
            q[..., ax] = t
            return f(q)
        return stencil(f_ax, p[..., ax], h)

    return [along(ax) for ax in range(p.shape[-1])]


def gradient_fd(f, p, h):
    """Gradient of f at p by `central_diff` along each axis.

    p is one point (dim,) or a batch (N, dim) and f maps points of that
    shape to values; the result has p's shape and f's dtype.  For a vector
    field f (values of shape (..., k)) it is the Jacobian, shape (..., k, dim).
    """
    return np.stack(_along_axes(central_diff, f, p, h), axis=-1)


def laplacian_fd(f, p, h):
    """Laplacian of f at p (shapes as in `gradient_fd`): `central_diff_2nd`
    summed over the axes."""
    return sum(_along_axes(central_diff_2nd, f, p, h))


def curl_z_fd(field, p, h):
    """z component dF_y/dx - dF_x/dy of the curl of a plane vector field,
    from its `gradient_fd` Jacobian."""
    jac = gradient_fd(field, p, h)
    return jac[..., 1, 0] - jac[..., 0, 1]


# ---------------------------------------------------------------------------
# Chi-square tail probabilities.
# ---------------------------------------------------------------------------

def chi2_sf(x, dof):
    """Survival function Q(dof/2, x/2) of the chi-square distribution, for an
    integer dof >= 1 and x >= 0.

    At integer and half-integer order Q has a finite closed form (DLMF 8.4):
    with h = x/2 it is erfc(sqrt(h)) for odd dof (0 for even dof) plus the
    positive terms e^{-h} h^k / Gamma(k + 1), k = 0 or 1/2, ..., dof/2 - 1.
    Relative error below 1e-12 while e^{-h} is a normal float (x < 1416);
    past that each term comes from its logarithm, which holds 1e-12
    wherever Q is a normal float.
    """
    if dof < 1 or dof != int(dof) or x < 0.0:
        raise ValueError(f"chi2_sf: need an integer dof >= 1 and x >= 0, got {dof}, {x}")
    h = 0.5 * x
    if dof % 2:         # the first k, h^k and q
        k, root = 0.5, math.sqrt(h)
        q = math.erfc(root)
    else:
        k, root, q = 0.0, 1.0, 0.0
    if h > 708.0:       # e^{-h} is no normal float
        return q + math.fsum(math.exp(j * math.log(h) - h - math.lgamma(j + 1.0))
                             for j in np.arange(k, 0.5 * dof))
    term = math.exp(-h) * root / math.gamma(k + 1.0)
    while k < 0.5 * dof:
        q += term
        k += 1.0
        term *= h / k
    return q
