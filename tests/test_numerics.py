"""Special functions, quadrature, differencing and random streams.

Oracles are intentionally independent of the code under test: a direct-sum
Bessel/Airy series built on math.gamma, stdlib closed forms, bisection on
those series, and dense trapezoid sums.
"""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from abtool.numerics import (NonConvergenceError, RandomStream,
                             airy_ai, airy_ai_zero, assoc_laguerre,
                             assoc_legendre, bessel_j, bessel_j_zero,
                             bessel_j_pair, bessel_log_table, central_diff,
                             central_diff_2nd, chi2_sf, curl_z_fd, gradient_fd,
                             integrate_1d)
from abtool import numerics
from abtool.madelung import AnnulusDomain, circulation
from abtool.numerics import _bessel
from abtool.variates import NormalBlock
from oracles import (_SERIES_REL_TOL, _series_coeffs_reference, _series_terms_reference,
                     bessel_pair_reference)
import pins

NUMERICS = pins.PinSet("numerics")
SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately naive).
# ---------------------------------------------------------------------------

def oracle_bessel(nu, x, terms=80):
    """Direct-sum ascending series on math.gamma."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k / (math.factorial(k) * math.gamma(nu + k + 1.0)) \
            * (x / 2.0) ** (2 * k + nu)
    return total


def oracle_airy(x, terms=60):
    """Maclaurin series for Ai built on math.gamma (good for |x| < ~6)."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f = g = 0.0
    cf, cg = 1.0, x
    for k in range(terms):
        f += cf
        g += cg
        cf = cf * x ** 3 / ((3 * k + 2.0) * (3 * k + 3.0))
        cg = cg * x ** 3 / ((3 * k + 3.0) * (3 * k + 4.0))
    return c1 * f - c2 * g


def oracle_bisect(f, a, b, iters=120):
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


class TestBesselJ:
    def test_j0_at_zero_is_one(self):
        assert bessel_j(0, 0.0) == 1.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_half_integer_closed_form(self, x):
        assert bessel_j(0.5, x) == pytest.approx(
            math.sqrt(2.0 / (math.pi * x)) * math.sin(x), abs=1e-12)

    def test_half_integer_identity_on_range(self):
        xs = np.linspace(0.05, 30.0, 600)
        lhs = bessel_j(0.5, xs) * np.sqrt(np.pi * xs / 2.0)
        assert np.abs(lhs - np.sin(xs)).max() <= 1e-10

    def test_first_j0_zero_against_bisection_oracle(self):
        root = oracle_bisect(lambda x: oracle_bessel(0.0, x), 2.0, 3.0)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j(0, root)) <= 1e-8

    @pytest.mark.parametrize("nu", [0.0, 0.25, 1.0, 1.75, 3.0])
    def test_series_matches_oracle(self, nu):
        xs = np.linspace(0.1, 9.0, 24)
        mine = bessel_j(nu, xs)
        ref = np.array([oracle_bessel(nu, x) for x in xs])
        assert np.abs(mine - ref).max() <= 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 2.5, 4.0])
    def test_series_and_miller_agree_at_the_split(self, nu):
        # the router's series at the split x = 9.25 against Miller's
        # recurrence one rounding unit past it, for both rows of the pair
        for a, b in _bessel(nu, np.array([9.25, np.nextafter(9.25, np.inf)])):
            assert abs(a - b) <= 1e-10

    def test_miller_value_depends_on_its_argument_alone(self):
        x = np.array([14.93, 40.0])
        assert bessel_j(0, x)[0] == bessel_j(0, 14.93)
        for row, alone in zip(bessel_j_pair(0, x), bessel_j_pair(0, 14.93)):
            assert row[0] == alone

    @pytest.mark.parametrize("nu", [0, 1, 3, 5, 6])
    def test_miller_batched_against_mpmath(self, nu):
        # the large-argument branch, Miller's recurrence, batched: each
        # element starts its own recurrence, so a batch spanning 9.25 < x <= 20
        # is as accurate as its points taken one at a time
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        x = np.linspace(9.2501, 20.0, 200)
        exact = np.array([float(mp.besselj(nu, mp.mpf(float(v)))) for v in x])
        assert np.abs(bessel_j(nu, x) - exact).max() <= 1e-15

    @pytest.mark.parametrize("nu", [0.0, 25.5, 51.0])
    def test_miller_at_the_corners_of_its_window(self, nu):
        # the program calls Miller's recurrence only at x >= j_{0,1} (at a
        # settled zero, and past the split), up to x = 400 and order 51;
        # it keeps no rescaling, which this window never needs
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        x = np.array([bessel_j_zero(0, 1), np.nextafter(9.25, np.inf), 400.0])
        for k, row in enumerate(numerics._miller(nu, x)):
            exact = np.array([float(mp.besselj(nu + k, mp.mpf(float(v)))) for v in x])
            assert np.abs(row - exact).max() <= 1e-15

    @pytest.mark.parametrize("fn,order", [(bessel_j, 51.5), (bessel_j_pair, 51.5)])
    def test_order_past_the_window_rejected(self, fn, order):
        # both take orders up to 51, the pair's upper row of a state at 50
        fn(51.0, 67.2)
        with pytest.raises(ValueError, match="supported window"):
            fn(order, 67.2)

    def test_large_argument_half_integer(self):
        # Miller's recurrence far past the split (9280 steps at x = 9000)
        for x in (50.0, 400.0, 9000.0):
            assert bessel_j(0.5, x) == pytest.approx(
                math.sqrt(2.0 / (math.pi * x)) * math.sin(x), abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1.0, -0.1)
        with pytest.raises(ValueError, match="finite"):
            bessel_j(0.0, math.inf)
        for fn in (bessel_j, bessel_j_pair):
            with pytest.raises(ValueError, match="order must be >= 0"):
                fn(math.nan, 1.0)
        # the pair checks no sign, but a nan or infinite x is caught by the
        # maximum its router takes
        for x in (math.inf, math.nan, np.array([1.0, 12.0, math.inf])):
            with pytest.raises(ValueError, match="x must be >= 0 and finite"):
                bessel_j_pair(0.0, x)

    def test_nan_argument_is_a_domain_error(self):
        for x in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="x must be >= 0"):
                bessel_j(0.5, x)

    def test_pure(self):
        a = bessel_j(1.25, np.linspace(0.1, 40, 50))
        b = bessel_j(1.25, np.linspace(0.1, 40, 50))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.25, 3.0, 12.0])
    def test_pair_shares_the_series(self, nu):
        # one Horner routine: the pair's J_nu is bessel_j's, bit for bit, and
        # its J_{nu+1} (on the same cached terms) matches bessel_j to
        # the series' rounding, eps times its terms' magnitudes, I_{nu+1} <= e^x
        x = np.linspace(0.0, max(12.0, 2.0 * nu), 60).reshape(4, 15)
        j0, j1 = bessel_j_pair(nu, x)
        assert j0.shape == j1.shape == x.shape
        assert np.array_equal(j0, bessel_j(nu, x))
        assert np.all(np.abs(j1 - bessel_j(nu + 1.0, x)) <= 1e-15 * np.exp(x))

    @pytest.mark.parametrize("top", [9.25, 12.0])
    @pytest.mark.parametrize("size", [1, 15, 30, 405, 100_000])
    @pytest.mark.parametrize("nu", [0.0, 0.25, 2.5, 12.0, 50.5])
    def test_pair_bits_match_the_list_form_reference(self, nu, size, top):
        # the complex Horner pass and scaling round as the real list form
        # does, on a zero's one-point Newton calls, the quadrature's batch
        # sizes (405 is its first call) and a large one; top = 9.25 keeps
        # the batch on the series, 12 straddles the split.  x = 0 and a
        # subnormal x / 2 take the prefactor's special cases
        rng = np.random.default_rng([size, int(4 * nu), int(top)])
        x = top * rng.random(size)
        if size > 3:
            x[:3] = [0.0, 1e-310, top]
        pair, ref = bessel_j_pair(nu, x), bessel_pair_reference(nu, x)
        for got, want in zip(pair, ref):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("top", [9.25, 12.0])
    def test_pair_rows_are_contiguous_float64(self, top):
        # each row is an array of its own, not a strided view of the complex
        # Horner sum; 12 puts part of the batch past the split
        for x in (np.linspace(0.0, top, 30), np.linspace(0.0, top, 30).reshape(2, 15)):
            for row in bessel_j_pair(1.5, x):
                assert row.dtype == np.float64 and row.flags.c_contiguous

    def test_series_cache_holds_every_kept_term(self):
        # at the split, the largest y a series sees, the first term the
        # Horner pass omits is below 1e-20 and below the relative tolerance
        # for every row the pair computes, order 0 to 52, so the reference's
        # truncation rule stops within the cached terms
        ymax = (numerics._SERIES_MAX_X / 2.0) ** 2
        for order in np.arange(0.0, 52.25, 0.25):
            kept = len(numerics._series_coeffs(order))
            c = _series_coeffs_reference(order)
            omitted = abs(c[kept]) * ymax ** kept
            assert omitted < 1e-20 and omitted < _SERIES_REL_TOL * c[0], order
            assert _series_terms_reference(order, ymax) < kept, order

    def test_series_error_up_to_5_against_mpmath(self):
        # the error table's 0 < x <= 5 row, 2.3e-15, for either row of the
        # pair: orders 0 to 51 on a coarse grid, plus the worst three points
        # of a search over 1.2e6 (order, x), which read 1.9e-15 to 2.2e-15
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        worst_points = [(0.53125, float.fromhex("0x1.3ed795bb80eb2p+2")),
                        (0.125, float.fromhex("0x1.3f0baac45a3fbp+2")),
                        (1.125, float.fromhex("0x1.3fab4aae039a3p+2"))]
        cases = [(nu, np.linspace(0.0, 5.0, 41)[1:]) for nu in np.arange(0.0, 52.0)]
        cases += [(nu, np.array([x])) for nu, x in worst_points]
        worst = 0.0
        for nu, x in cases:
            for row, o in zip(bessel_j_pair(nu, x), (nu, nu + 1.0)):
                exact = np.array([float(mp.besselj(mp.mpf(o), mp.mpf(float(v)))) for v in x])
                worst = max(worst, np.abs(row - exact).max())
        assert worst <= 2.3e-15

    @pytest.mark.parametrize("nu", [6.5, 8.0, 10.0, 11.5, 12.0])
    def test_compensated_window_against_mpmath(self, nu):
        # from the split to x = 9.25 + 2 nu, where a series of these orders
        # cancels by up to 1e9, J and both rows of the pair come from Miller's
        # recurrence and are right to rounding
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = np.linspace(9.25, 9.25 + 2.0 * nu, 97)[1:]
        exact = [np.array([float(mp.besselj(mp.mpf(o), mp.mpf(float(v)))) for v in x])
                 for o in (nu, nu + 1.0)]
        j0, j1 = bessel_j_pair(nu, x)
        assert np.abs(bessel_j(nu, x) - exact[0]).max() <= 1e-15
        assert np.abs(j0 - exact[0]).max() <= 1e-15
        assert np.abs(j1 - exact[1]).max() <= 1e-15

    @pytest.mark.parametrize("nu", [5.5, 6.0, 6.25, 6.75, 7.0])
    def test_pair_rows_around_the_split_against_mpmath(self, nu):
        # the split is x = 9.25 for every order and both rows: the series
        # below it (its rounding grows like e^x to 7.4e-14 at x = 9.25),
        # Miller past it
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = np.linspace(9.0, 18.0, 181)
        for row, o in zip(bessel_j_pair(nu, x), (nu, nu + 1.0)):
            exact = np.array([float(mp.besselj(mp.mpf(o), mp.mpf(float(v)))) for v in x])
            assert np.abs(row - exact).max() <= 2e-13, o


class TestBesselZeros:
    def test_half_integer_zeros_are_n_pi(self):
        for n in range(1, 11):
            assert abs(bessel_j_zero(0.5, n) - n * math.pi) <= 1e-10

    def test_first_j0_zero(self):
        assert bessel_j_zero(0.0, 1) == pytest.approx(2.404825557695773, abs=1e-10)

    def test_residual_at_zero(self):
        for nu in (0.0, 0.3, 1.5):
            for n in (1, 3, 7):
                assert abs(bessel_j(nu, bessel_j_zero(nu, n))) <= 1e-10

    def test_interlacing(self):
        for nu in (0.0, 0.5, 1.0, 12.5, 30.0, 49.0):
            for n in (1, 2, 3, 4, 5, 99):
                t_nn = bessel_j_zero(nu, n)
                t_up = bessel_j_zero(nu + 1.0, n)
                t_next = bessel_j_zero(nu, n + 1)
                assert t_nn < t_up < t_next

    def test_high_index(self):
        # zero number 100 of J_{1/2} is exactly 100 pi
        assert bessel_j_zero(0.5, 100) == pytest.approx(100 * math.pi, abs=1e-9)

    def test_half_integer_zeros_to_rounding(self):
        for n in range(1, 101):
            assert abs(bessel_j_zero(0.5, n) - n * math.pi) <= 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.25, 7.0, 12.0])
    def test_bits_do_not_depend_on_request_order(self, nu):
        fresh = []
        for k in range(1, 6):
            numerics._zero.cache_clear()
            fresh.append(bessel_j_zero(nu, k))
        numerics._zero.cache_clear()
        bessel_j_zero(nu, 100)
        assert [bessel_j_zero(nu, k) for k in range(1, 6)] == fresh

    @pytest.mark.parametrize("order,n", [(50.5, 1), (51.5, 15), (0.5, 101), (0.5, 0)])
    def test_outside_the_window_rejected(self, order, n):
        with pytest.raises(ValueError, match="supported window"):
            bessel_j_zero(order, n)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 12.5, 30.0, 36.0, 49.5, 50.0])
    def test_against_mpmath(self, nu):
        # across the whole window, including (36, 15), which the old pi/4
        # scan with the large-argument expansion gave as 92.331 (true
        # 96.061), and (30, 3), where it raised
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for n in (1, 2, 3, 5, 7, 15, 100):
            true = float(mp.besseljzero(mp.mpf(nu), n))
            assert abs(bessel_j_zero(nu, n) - true) <= 1e-15 * true, (nu, n)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        optimize = pytest.importorskip("scipy.optimize")
        for k in range(25):
            nu = k / 2
            for n in (1, 2, 5, 100):
                z = bessel_j_zero(nu, n)
                root = optimize.brentq(lambda x: special.jv(nu, x), z - 0.3, z + 0.3,
                                       xtol=1e-15, rtol=8.9e-16)
                assert abs(z - root) <= 1e-12 * root, (nu, n)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 1.5, 3.5, 11.5])
    def test_series_window_zeros_are_true_zeros(self, nu):
        # every zero up to x = max(12, 2 nu), which takes in both sides of
        # the split at x = 9.25, is the true one to rounding: its last Newton
        # step reads Miller's recurrence, so the series' rounding, up to
        # 7.4e-14 just below x = 9.25, does not reach it
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        zeros_extent, n = max(12.0, 2.0 * nu), 1
        while (z := bessel_j_zero(nu, n)) <= zeros_extent:
            true = float(mp.besseljzero(mp.mpf(nu), n))
            assert abs(z - true) <= np.spacing(true), (nu, n)
            n += 1
        assert n > 1

    def test_zeros_above_order_five_to_rounding(self):
        # every zero ends on one Newton step on Miller's recurrence
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for nu in np.arange(5.5, 12.01, 0.5):
            for n in (1, 2, 5, 100):
                true = float(mp.besseljzero(mp.mpf(float(nu)), n))
                assert abs(bessel_j_zero(nu, n) - true) <= 1e-15 * true, (nu, n)

    def test_table_reads_the_same_zeros(self):
        for nu, n in ((0.5, 100), (0.0, 2), (2.25, 5)):
            zeros = bessel_log_table(nu, n).zeros
            assert all(zeros[k - 1] == bessel_j_zero(nu, k) for k in range(1, n + 1))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bessel_j_zero(0.5, 0)
        with pytest.raises(ValueError):
            bessel_j_zero(-1.0, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            bessel_j_zero(0.5, 1.5)
        with pytest.raises(ValueError, match="order must be >= 0"):
            bessel_j_zero(math.nan, 1)

    def test_the_zero_path_reads_no_airy_function(self, monkeypatch):
        # the Airy-type start takes Ai's zero from its asymptotic expansion
        cases = [(2.25, 1), (12.5, 5), (50.0, 49)]
        want = [bessel_j_zero(nu, n) for nu, n in cases]

        def refuse(*args):
            raise AssertionError("a zero read an Airy function")

        monkeypatch.setattr(numerics, "airy_ai", refuse)
        monkeypatch.setattr(numerics, "airy_ai_zero", refuse)
        numerics._zero.cache_clear()
        assert [bessel_j_zero(nu, n) for nu, n in cases] == want

    def test_starts_and_newton_arguments_stay_in_their_bounds(self, monkeypatch):
        # over nu = k/4 <= 50: every start is within 2e-3 of its zero (the
        # worst are 1.69e-3 at (50, 1), Airy-type, and 1.64e-3 at (0, 1),
        # McMahon's), and every x a Newton step hands Miller's recurrence
        # lies in its no-rescale window [2.40, 400] (the least is 2.4048250,
        # at (0, 1), just below j_{0,1})
        miller, seen = numerics._miller_float, []

        def recorded(order, x):
            seen.append(x)
            return miller(order, x)

        monkeypatch.setattr(numerics, "_miller_float", recorded)
        numerics._zero.cache_clear()
        for k in range(201):
            for n in (1, 2, 5, 49, 50, 100):
                z = bessel_j_zero(k / 4, n)
                assert abs(numerics._zero_start(k / 4, n) - z) <= 2e-3, (k / 4, n)
        assert 2.40 <= min(seen) and max(seen) <= 400.0

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 2.25, 12.75, 37.5, 50.0, 51.0])
    def test_a_float_takes_the_bits_of_a_one_element_array(self, nu):
        # a zero's Newton steps run Miller's recurrence on Python floats; it
        # has the bits of the array route on [x], on both sides of the
        # series' split and at the floats next to it.  At the last two points
        # numpy's cbrt starts the recurrence at 66 and 72, math.cbrt would
        # start it at 68 and 70
        split = [math.nextafter(9.25, 0.0), 9.25, math.nextafter(9.25, math.inf)]
        xs = [1.5, 2.404825557695773, 5.0, 8.0, *split, 9.5, 30.0, 123.456, 400.0,
              float.fromhex("0x1.4286a5db080bdp+3"), float.fromhex("0x1.8998a692a92eap+3")]
        for x in xs:
            got = numerics._miller_float(nu, x)
            want = [r[0] for r in numerics._miller(nu, np.array([x]))]
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (nu, x)

    def test_zeros_take_the_bits_of_one_element_arrays(self, monkeypatch):
        # every zero of nu = k/4 <= 50 at n = 1, 2, 5, 100, solved afresh on
        # the float route and on the array route at [x], is one float
        def on_arrays(order, x):
            return tuple(float(r[0]) for r in numerics._miller(order, np.array([x])))

        cases = [(k / 4, n) for k in range(201) for n in (1, 2, 5, 100)]
        monkeypatch.setattr(numerics, "_miller_float", on_arrays)
        numerics._zero.cache_clear()
        want = [bessel_j_zero(nu, n) for nu, n in cases]
        monkeypatch.undo()
        numerics._zero.cache_clear()
        got = [bessel_j_zero(nu, n) for nu, n in cases]
        assert all(type(z) is float for z in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestAiry:
    def test_value_at_zero(self):
        # 3^(-2/3)/Gamma(2/3) through the stdlib
        expected = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert airy_ai(0.0) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.3550280539, abs=1e-9)

    def test_series_window_against_oracle(self):
        xs = np.linspace(-5.5, 5.5, 45)
        mine = airy_ai(xs)
        ref = np.array([oracle_airy(x) for x in xs])
        assert np.abs(mine - ref).max() <= 1e-12

    def test_right_side_relative_error(self):
        # past x = 5.5 the series' cancellation (2e-4 at 7.5) hands over to
        # the right expansion; the table in numerics gives 1.7e-8 as the worst
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        xs = np.concatenate([np.linspace(4.0, 7.5, 71), [np.nextafter(5.5, 6.0)]])
        exact = np.array([float(mp.airyai(mp.mpf(float(x)))) for x in xs])
        assert np.abs(airy_ai(xs) / exact - 1.0).max() <= 2e-8

    @pytest.mark.parametrize("side,bound", [(-1.0, 2.4e-14), (1.0, 5.4e-14)])
    def test_expansion_rows_of_the_error_table(self, side, bound):
        # the table in numerics: 2.4e-14 absolute on [-40, -7.5) and 5.4e-14
        # relative on (7.5, 40], on 2000 points a row and the float past the
        # seam, where each row is at its worst (2.35e-14 and 5.34e-14)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        xs = side * np.append(np.linspace(40.0, 7.5, 2000, endpoint=False),
                              np.nextafter(7.5, np.inf))
        exact = np.array([float(mp.airyai(mp.mpf(float(x)))) for x in xs])
        err = np.abs(airy_ai(xs) - exact)
        assert (err if side < 0.0 else err / exact).max() <= bound

    def test_series_length(self):
        # the first term the series leaves out is below 1e-20 of
        # |f| + |g| + 1 at both seams; one term fewer is not at -7.5
        def first_left_out(x, terms):
            x3, f, g, cf, cg = x ** 3, 0.0, 0.0, 1.0, x
            for k in range(terms + 1):
                f, g = f + cf, g + cg
                cf = cf * x3 / ((3 * k + 2.0) * (3 * k + 3.0))
                cg = cg * x3 / ((3 * k + 3.0) * (3 * k + 4.0))
            return (abs(cf) + abs(cg)) / (abs(f) + abs(g) + 1.0)

        terms = numerics._AIRY_SERIES_TERMS
        assert max(first_left_out(-7.5, terms), first_left_out(5.5, terms)) < 1e-20
        assert first_left_out(-7.5, terms - 1) > 1e-20

    def test_series_bits_alone_and_inside_a_batch(self):
        # Ai on 10^4 points in (-2, 2), alone and inside a batch that also
        # holds the seams: the series runs its fixed count of terms at every
        # x, so no value moves
        x = np.random.default_rng(45).uniform(-2.0, 2.0, 10_000)
        batched = airy_ai(np.concatenate([x, [-7.5, 5.5]]))
        assert airy_ai(x).tobytes() == batched[:x.size].tobytes()

    def test_positive_decay(self):
        vals = [airy_ai(x) for x in (2.0, 5.0, 10.0)]
        assert all(v > 0.0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_first_zero_against_bisection_oracle(self):
        z1 = oracle_bisect(oracle_airy, -3.0, -2.0)
        assert z1 == pytest.approx(-2.338107410459767, abs=1e-12)
        assert airy_ai_zero(1) == pytest.approx(z1, abs=1e-10)

    def test_zero_residuals_and_ordering(self):
        prev = 0.0
        for n in range(1, 51):
            z = airy_ai_zero(n)
            assert z < 0.0
            assert z < prev
            assert abs(airy_ai(z)) <= 1e-8
            prev = z

    def test_zeros_end_on_the_sign_change(self):
        # z_n is the last float from 0 with Ai's sign there: the next float
        # down has the other sign
        for n in range(1, 50):
            z = airy_ai_zero(n)
            assert airy_ai(z) * airy_ai(np.nextafter(z, -np.inf)) < 0.0, n

    def test_a_bracket_without_a_sign_change_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "airy_ai", lambda x: 1.0)
        numerics.airy_ai_zero.cache_clear()
        with pytest.raises(numerics.NonConvergenceError, match="no sign change"):
            airy_ai_zero(3)

    def test_zero_bits_do_not_depend_on_the_cache(self):
        cached = [airy_ai_zero(n) for n in (1, 2, 3, 7, 50)]
        numerics.airy_ai_zero.cache_clear()
        assert [airy_ai_zero(n) for n in (50, 7, 3, 2, 1)] == cached[::-1]
        with pytest.raises(ValueError, match="n must be >= 1"):
            airy_ai_zero(0)
        for n in (1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be an integer"):
                airy_ai_zero(n)

    def test_a_float_takes_the_bits_of_an_array(self, monkeypatch):
        # a float has the bits of a one-element array: random points, the
        # seams -7.5 and 5.5 and their neighbours, and every point the
        # bisection for z_1 and z_2 evaluates (on midpoint arrays)
        seam = [np.nextafter(x, x + d) for x in (-7.5, 5.5) for d in (-1.0, 0.0, 1.0)]
        bisected = []

        def recorded(x):
            bisected.extend(np.ravel(x).tolist())
            return airy_ai(x)

        monkeypatch.setattr(numerics, "airy_ai", recorded)
        numerics.airy_ai_zero.cache_clear()
        zeros = [airy_ai_zero(1), airy_ai_zero(2)]
        monkeypatch.undo()
        numerics.airy_ai_zero.cache_clear()
        assert zeros == [airy_ai_zero(1), airy_ai_zero(2)] and len(bisected) > 80
        xs = [*np.random.default_rng(39).uniform(-40.0, 7.5, 2000).tolist(),
              *seam, *bisected]
        floats = [airy_ai(float(x)) for x in xs]
        assert all(type(v) is float for v in floats)
        assert np.array(floats).tobytes() == np.array(
            [airy_ai(np.array([x]))[0] for x in xs]).tobytes()

    def test_nan_gives_nan(self):
        # nan and -inf take none of the three branches, without a warning
        assert math.isnan(airy_ai(math.nan)) and math.isnan(airy_ai(-math.inf))
        out = airy_ai(np.array([math.nan, 1.0, -10.0, 10.0, -math.inf]))
        assert math.isnan(out[0]) and not np.isnan(out[1:4]).any()
        assert math.isnan(out[4])


class TestBisectFloats:
    def test_ends_on_the_two_floats_around_sqrt_2(self):
        fail, hold = numerics._bisect_floats(lambda x: x * x >= 2.0, [1.0], [2.0])
        assert hold[0] == math.sqrt(2.0) and fail[0] == np.nextafter(hold[0], 0.0)
        assert fail[0] ** 2 < 2.0 <= hold[0] ** 2

    def test_ends_on_adjacent_floats_near_1e300(self):
        # the floats there are 3e284 apart: no absolute width can stop it
        edge = 1.5e300
        fail, hold = numerics._bisect_floats(lambda x: x >= edge, [1e300], [2e300])
        assert fail[0] == np.nextafter(edge, 0.0) and hold[0] == edge

    def test_each_element_is_its_own_search(self):
        # fail right of hold works as well as left of it; a closed pair stays
        inside = lambda x: (x >= 0.25) & (x <= 0.75)
        fail, hold = numerics._bisect_floats(inside, [0.0, 1.0, 0.5], [0.5, 0.5, 0.5])
        assert hold.tolist() == [0.25, 0.75, 0.5]
        assert fail.tolist() == [np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0), 0.5]


class TestOrthogonalPolynomials:
    def test_laguerre_order_zero(self):
        assert assoc_laguerre(0, 1.7, 0.3) == 1.0

    def test_laguerre_order_one(self):
        # L_1^{(q)}(x) = 1 + q - x
        assert assoc_laguerre(1, 2.0, 0.5) == pytest.approx(2.5, rel=1e-15)

    def test_legendre_p1(self):
        xs = np.linspace(-1, 1, 11)
        assert np.allclose(assoc_legendre(1, 0, xs), xs, atol=1e-15)

    def test_legendre_p21_closed_form(self):
        x = 0.5
        assert assoc_legendre(2, 1, x) == pytest.approx(
            -3.0 * x * math.sqrt(1.0 - x * x), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assoc_legendre(2, 4, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre(2, 1, 1.5)
        with pytest.raises(ValueError):
            assoc_laguerre(-2, 0.0, 0.5)

    def test_order_below_the_lowest_is_plus_zero(self):
        # the recurrences' initial values L_{-1} = 0 and P_{m-1}^m = 0
        xs = np.linspace(-1.0, 1.0, 7)
        for got in (assoc_laguerre(-1, 2.5, xs), assoc_legendre(1, 2, xs)):
            assert got.shape == xs.shape
            assert np.all(np.copysign(1.0, got) == 1.0) and not got.any()
        assert assoc_laguerre(-1, 0.0, 0.5) == 0.0


class TestQuadrature:
    def test_linear(self):
        assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_annulus_area(self):
        val = AnnulusDomain(1.0, 3.0).integrate(np.ones_like, 0.0)
        assert val == pytest.approx(8.0 * math.pi, rel=1e-12)

    def test_airy_squared_integral_against_trapezoid_oracle(self):
        z1 = airy_ai_zero(1)
        xs = np.linspace(0.0, 20.0, 200_001)
        ys = airy_ai(xs + z1) ** 2
        oracle = np.trapezoid(ys, xs)
        val = integrate_1d(lambda x: airy_ai(x + z1) ** 2, 0.0, 20.0)
        assert val == pytest.approx(oracle, abs=1e-8)
        assert val == pytest.approx(0.4917, abs=5e-4)

    def test_vector_integrand_matches_components(self):
        parts = (lambda x: np.exp(-x), lambda x: np.sqrt(x),
                 lambda x: np.sin(5.0 * x))
        vec = integrate_1d(lambda x: np.stack([f(x) for f in parts], axis=-1),
                           0.0, 2.0)
        assert vec.shape == (3,)
        for f, v in zip(parts, vec):
            assert v == pytest.approx(integrate_1d(f, 0.0, 2.0), rel=1e-10)
        assert isinstance(integrate_1d(lambda x: x, 0.0, 1.0), float)

    def test_periodic_closed_form(self):
        # loop integrals on the unit circle of a field with e_theta component
        # g(cos t): exp(cos t) gives 2 pi I_0(1), 1 / (1.2 - cos t) gives
        # 2 pi / sqrt(1.2^2 - 1)
        i0_1 = sum(0.25 ** k / math.factorial(k) ** 2 for k in range(30))
        assert circulation(lambda p: loop_field(p, np.exp(p[:, 0])),
                           (0.0, 0.0), 1.0) == pytest.approx(
            2.0 * math.pi * i0_1, rel=1e-12)
        assert circulation(lambda p: loop_field(p, 1.0 / (1.2 - p[:, 0])),
                           (0.0, 0.0), 1.0) == pytest.approx(
            2.0 * math.pi / math.sqrt(0.44), rel=1e-12)

    def test_loop_discontinuity_settles(self):
        # v_theta = 1 on 0 < theta < 1, else 0: bisection isolates the jump
        got = circulation(lambda p: loop_field(p, loop_angle(p) < 1.0),
                          (0.0, 0.0), 1.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_loop_singularity_does_not_settle(self):
        # v_theta = 1 / theta is not integrable at theta = 0
        with pytest.raises(NonConvergenceError) as err:
            circulation(lambda p: loop_field(p, 1.0 / loop_angle(p)),
                        (0.0, 0.0), 1.0)
        assert err.value.best_estimate > 0.0
        assert err.value.error_bound > 0.0

    def test_nonconvergence_carries_best_estimate(self):
        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert err.value.best_estimate == pytest.approx(2.0, abs=1e-6)
        assert err.value.error_bound > 0.0

    def test_one_call_per_bisection(self):
        # 15 nodes for the first panel, then one call per bisection: the
        # GK15 nodes of both halves (a, m) and (m, b) of a panel not yet split
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.sqrt(x)
        assert integrate_1d(f, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert np.array_equal(calls[0], gk15_nodes(0.0, 1.0))
        assert len(calls) > 1
        leaves = {(0.0, 1.0)}
        for x in calls[1:]:
            split = [(a, b) for a, b in leaves
                     if np.array_equal(x, gk15_nodes(a, 0.5 * (a + b), b))]
            assert len(split) == 1
            (a, b), = split
            leaves -= {(a, b)}
            leaves |= {(a, 0.5 * (a + b)), (0.5 * (a + b), b)}

    @pytest.mark.parametrize("columns", [None, 2, 3])
    def test_panels_of_one_call_have_their_bits_alone(self, columns):
        # one matmul sums all 25 panels' (15, k) blocks; each panel's value
        # and error are those of a call on that panel alone, and those of
        # the reference sums over one panel's block
        def f(x):
            cols = [np.sqrt(x), np.sin(7.0 * x), np.exp(-x)]
            return cols[0] if columns is None else np.stack(cols[:columns], axis=-1)
        edges = [0.0, *(0.5 ** k for k in range(24, 0, -1)), 1.0]
        vals, errs = numerics._gk15(f, edges)
        assert vals.shape == errs.shape == ((25,) if columns is None else (25, columns))
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            alone = numerics._gk15(f, [lo, hi])
            h, fp = 0.5 * (hi - lo), f(gk15_nodes(lo, hi))
            kron = h * (numerics._GK_WK @ fp)
            err = np.abs(kron - h * (numerics._GK_WG @ fp))
            for got in ((vals[i], errs[i]), (alone[0][0], alone[1][0])):
                assert got[0].tobytes() == np.asarray(kron).tobytes()
                assert got[1].tobytes() == np.asarray(err).tobytes()

    def test_break_points_make_the_first_call(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.sqrt(x)
        assert integrate_1d(f, 0.0, 1.0, [0.25, 0.5]) == pytest.approx(
            2.0 / 3.0, rel=1e-10)
        assert np.array_equal(calls[0], gk15_nodes(0.0, 0.25, 0.5, 1.0))
        assert all(x.size == 30 for x in calls[1:])

    @pytest.mark.parametrize("points", [[0.5, 0.25], [0.5, 0.5], [0.0, 0.5],
                                        [0.5, 1.0], [-0.5], [1.5], [math.nan]])
    def test_break_points_must_increase_inside(self, points):
        with pytest.raises(ValueError, match="points must increase"):
            integrate_1d(np.sqrt, 0.0, 1.0, points)

    def test_wrong_shape_raises_on_first_panel_and_on_bisection(self):
        with pytest.raises(ValueError, match="must map n nodes"):
            integrate_1d(lambda x: np.ones(x.size - 1), 0.0, 1.0)
        with pytest.raises(ValueError, match="must map n nodes"):
            integrate_1d(lambda x: np.ones((x.size, 1, 1)), 0.0, 1.0)
        # right on the first panel, one half short on the first bisection
        with pytest.raises(ValueError, match="must map n nodes"):
            integrate_1d(lambda x: np.sqrt(x[:15]), 0.0, 1.0)


def loop_angle(p):
    """Polar angle of each point of a batch, in [0, 2 pi)."""
    return np.mod(np.arctan2(p[:, 1], p[:, 0]), 2.0 * math.pi)


def loop_field(p, v_theta):
    """Field with e_theta component v_theta (about the origin) on the unit
    circle, no radial component."""
    return np.asarray(v_theta, dtype=float)[:, None] * np.stack(
        [-p[:, 1], p[:, 0]], axis=-1)


def gk15_nodes(*edges):
    """GK15 nodes of each panel between successive edges, panel by panel."""
    return np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * numerics._GK_NODES
                           for lo, hi in zip(edges[:-1], edges[1:])])


class TestCentralDiff:
    def test_sin(self):
        assert central_diff(math.sin, 0.0, 1e-3) == pytest.approx(1.0, abs=1e-10)

    def test_exp(self):
        assert central_diff(math.exp, 1.0, 1e-3) == pytest.approx(math.e, abs=1e-9)

    def test_bessel_derivative_identity(self):
        got = central_diff(lambda x: bessel_j(0.0, x), 1.0, 1e-3)
        assert got == pytest.approx(-bessel_j(1.0, 1.0), abs=1e-8)

    def test_second_derivative(self):
        assert central_diff_2nd(math.sin, 0.7, 1e-3) == pytest.approx(
            -math.sin(0.7), abs=1e-9)

    def test_h_validation(self):
        with pytest.raises(ValueError):
            central_diff(math.sin, 0.0, 0.0)


def _real_field(q):
    return np.sin(q[..., 0]) * q[..., 1] ** 2


def _real_gradient(q):
    return np.stack([np.cos(q[..., 0]) * q[..., 1] ** 2,
                     2.0 * np.sin(q[..., 0]) * q[..., 1]], axis=-1)


def _complex_field(q):
    return np.exp(1j * (1.3 * q[..., 0] - 0.4 * q[..., 1])) * q[..., 0]


def _complex_gradient(q):
    f = _complex_field(q)
    return np.stack([1.3j * f + f / q[..., 0], -0.4j * f], axis=-1)


class TestGradientFd:
    POINTS = np.array([[0.7, -1.2], [1.9, 0.4], [2.6, 2.2], [-0.5, 1.1]])

    @pytest.mark.parametrize("field, grad, dtype", [
        (_real_field, _real_gradient, np.float64),
        (_complex_field, _complex_gradient, np.complex128)])
    def test_batch_and_single_point(self, field, grad, dtype):
        batch = gradient_fd(field, self.POINTS, 1e-3)
        assert batch.shape == self.POINTS.shape and batch.dtype == dtype
        assert np.abs(batch - grad(self.POINTS)).max() <= 1e-9
        for i, p in enumerate(self.POINTS):
            single = gradient_fd(field, p, 1e-3)
            assert single.shape == (2,) and single.dtype == dtype
            assert np.array_equal(single, batch[i])

    def test_axis_values_are_central_diff(self):
        p = self.POINTS[1]
        got = gradient_fd(_complex_field, p, 1e-3)
        want = central_diff(lambda t: _complex_field(np.array([p[0], t])), p[1], 1e-3)
        assert got[1] == want

    def test_curl_of_rotation(self):
        # F = x^2 (-y, x): dF_y/dx - dF_x/dy = 3 x^2 + x^2
        def field(q):
            return np.stack([-q[..., 1], q[..., 0]], axis=-1) * q[..., :1] ** 2
        for p in self.POINTS:
            want = 3.0 * p[0] ** 2 + p[0] ** 2
            assert curl_z_fd(field, p, 1e-3) == pytest.approx(want, abs=1e-9)


def normals():
    # digest computed while normals still took odd counts, which leaves the
    # bits of even ones unchanged
    s = RandomStream(123, 5)
    return pins.arrays({f"normals({c})": s.normals(c) for c in (1000, 4, 2, 8)})


NUMERICS.add("normals", normals)


class TestRandomStream:
    def test_determinism(self):
        a = RandomStream(123, 5).normals(1000)
        b = RandomStream(123, 5).normals(1000)
        assert np.array_equal(a, b)

    def test_call_pattern_invariance(self):
        s1 = RandomStream(9, 0)
        s2 = RandomStream(9, 0)
        left = np.concatenate([s1.normals(4), s1.normals(2)])
        right = s2.normals(6)
        assert np.array_equal(left, right)

    def test_mean_bound(self):
        z = RandomStream(2024, 0).normals(100_000)
        assert abs(z.mean()) <= 4.0 / math.sqrt(100_000)

    def test_variance_bound(self):
        z = RandomStream(77, 1).normals(10_000)
        assert abs(z.var() - 1.0) <= 0.1

    def test_stream_independence(self):
        a = RandomStream(31, 0).normals(10_000)
        b = RandomStream(31, 1).normals(10_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) <= 0.02

    def test_count_validation(self):
        with pytest.raises(ValueError):
            RandomStream(1, 0).normals(0)

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 2])
    def test_seeds_past_the_int64_range_are_distinct(self, seed):
        # each key word is a uint64; neighbouring seeds at the top of the
        # range draw different streams, without a cast warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = RandomStream(seed, 0).uniforms(8)
            b = RandomStream(seed + 1, 0).uniforms(8)
        assert not np.array_equal(a, b)

    def test_pinned_bits(self):
        NUMERICS.check("normals")

    def test_numpy_random_loads_with_the_first_stream(self):
        # a run that only builds states and takes their observables never
        # imports numpy.random; sampling does
        probe = (
            "import sys\n"
            "import abtool\n"
            "from abtool import annulus, sde\n"
            "state = annulus.eigenstate(annulus.AnnulusConfig(), 1, 1)\n"
            "annulus.angular_momenta(state)\n"
            "print('numpy.random' in sys.modules)\n"
            "sde.simulate(state, sde.SdeConfig(steps=20, burn_in=10, n_trajectories=2))\n"
            "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == ["False", "True"]


class TestNormalBlock:
    @staticmethod
    def streams(n):
        return [RandomStream(41, 2 * i) for i in range(n)]

    def test_rows_are_each_streams_normals(self):
        # two full chunks, then a final short one whose pair count is odd
        rows = 5
        block = NormalBlock(self.streams(rows), 256)
        alone = self.streams(rows)
        for count in (256, 256, 178):
            out = block.draw(count)
            assert out.shape == (rows, count // 2)
            for row, stream in zip(out, alone):
                assert np.array_equal(row.view(np.int64),
                                      stream.normals(count).view(np.int64))

    def test_refuses_an_odd_count_or_one_past_its_buffers(self):
        block = NormalBlock(self.streams(3), 8)
        for count in (7, 10, 0):
            with pytest.raises(ValueError, match="even"):
                block.draw(count)

    def test_streams_refuse_an_odd_count(self):
        # normals come in Box-Muller pairs, so no stream holds half of one
        # and a block's rows always start on a pair
        stream = self.streams(1)[0]
        for count in (1, 3, 1001):
            with pytest.raises(ValueError, match="even"):
                stream.normals(count)


class TestChiSquareTail:
    def test_two_dof_closed_form(self):
        # Q(1, x/2) = exp(-x/2) for dof = 2
        for x in (0.5, 2.0, 7.3):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-12)

    def test_monotone_in_x(self):
        vals = [chi2_sf(x, 5) for x in (1.0, 3.0, 9.0, 20.0)]
        assert vals == sorted(vals, reverse=True)

    def test_bounds(self):
        for dof in (1, 2, 3, 40):
            assert chi2_sf(0.0, dof) == 1.0
        assert 0.0 < chi2_sf(60.0, 3) < 1e-11

    def test_against_mpmath(self):
        # the closed form at integer and half-integer order, for every dof
        # the statistics use and far past them
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        xs = np.concatenate([[1e-3, 0.5], np.linspace(0.0, 1400.0, 29)[1:]])
        for dof in [*range(1, 81), 1000]:
            for x in xs:
                exact = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(float(x)) / 2,
                                    regularized=True)
                assert chi2_sf(x, dof) == pytest.approx(float(exact), rel=1e-12)

    def test_past_the_normal_exponential(self):
        # e^{-x/2} underflows past x = 1416, yet Q(1000, 750) is about 1
        assert chi2_sf(1500.0, 2000) == pytest.approx(1.0, rel=1e-12)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for x in (1417.0, 1500.0, 3000.0):
            for dof in (3, 40, 1001, 2000, 5000):
                exact = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2,
                                    regularized=True)
                if exact > 1e-300:
                    assert chi2_sf(x, dof) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("x,dof", [(-1.0, 3), (1.0, 0), (1.0, 2.5)])
    def test_rejects_what_has_no_closed_form(self, x, dof):
        with pytest.raises(ValueError):
            chi2_sf(x, dof)


# the bits of every routine that runs a recurrence or an expansion from its
# first terms: both Airy expansions (|x| > 7.5) and the zeros they give,
# Legendre up to l = 5 at and inside x = +-1, Laguerre up to p = 7, chi2_sf
# for both parities of dof and past e^{-x/2}'s underflow (x > 1416), the
# drift table's Hermite cells (the zero Taylor series sets those near a zero)
# and the GK15 weights
SPECIAL_FUNCTIONS = {
    "airy": lambda: pins.arrays({
        "airy_ai(linspace(-40, 40, 40001))": airy_ai(np.linspace(-40.0, 40.0, 40001)),
        **{f"airy_ai({x})": airy_ai(x) for x in (-40.0, -7.6, 7.6, 40.0)},
        "airy_ai_zero(1..59)": [airy_ai_zero(n) for n in range(1, 60)]}),
    "legendre": lambda: pins.arrays({
        f"P({l},{m})({label})": assoc_legendre(l, m, x)
        for l in range(6) for m in range(l + 1)
        for label, x in [("linspace(-1, 1, 999)", np.linspace(-1.0, 1.0, 999)),
                         *((x, x) for x in (-1.0, -0.3, 0.0, 0.7, 1.0))]}),
    "laguerre": lambda: pins.arrays({
        f"L({p},{q})({label})": assoc_laguerre(p, q, x)
        for p in range(8) for q in (0.0, 0.5, 1.0, 2.0, 3.5, 7.0, 12.25)
        for label, x in [("linspace(0, 40, 401)", np.linspace(0.0, 40.0, 401)),
                         *((x, x) for x in (0.0, 1.5, 17.0))]}),
    # one scalar call a point
    "chi2_sf": lambda: pins.arrays({
        f"chi2_sf(linspace(0, 3000, 1201), {dof})":
            [chi2_sf(x, dof) for x in np.linspace(0.0, 3000.0, 1201)]
        for dof in range(1, 60)}),
    "log_table": lambda: pins.arrays({
        f"BesselLogTable({order}, {n})._coef": numerics.BesselLogTable(order, n)._coef
        for order in (0.0, 0.5, 1.0, 2.25, 10.0, 25.5, 49.5) for n in (1, 2, 5)}),
    "gk15": lambda: pins.arrays({"_GK_WK": numerics._GK_WK, "_GK_WG": numerics._GK_WG}),
}
for pin_name, produce in SPECIAL_FUNCTIONS.items():
    NUMERICS.add(pin_name, produce)


class TestPinnedSpecialFunctionBits:
    def test_recurrences_and_expansions(self):
        # scalar calls return floats
        scalars = [assoc_legendre(2, 1, 0.5), assoc_laguerre(3, 0.5, 1.5),
                   assoc_laguerre(0, 0.5, 1.5), airy_ai(-20.0)]
        assert all(type(v) is float for v in scalars)
        for name in SPECIAL_FUNCTIONS:
            NUMERICS.check(name)

    def test_series_bits_alone_and_inside_a_batch(self):
        # bessel_j(11.5, x) on 10^4 points in (0.01, 4), alone and inside a
        # batch that also holds 200 points in (8, 9.25): the Horner pass
        # runs every cached term at every x, so no value moves
        rng = np.random.default_rng(36)
        x = rng.uniform(0.01, 4.0, 10_000)
        batched = bessel_j(11.5, np.concatenate([x, rng.uniform(8.0, 9.25, 200)]))
        assert bessel_j(11.5, x).tobytes() == batched[:x.size].tobytes()
