"""Property tests of the Bessel kernel over its whole window, 0 <= nu <= 50
and 0 < x <= 400, against mpmath: both rows of the pair on each side of the
split x = 9.25, the three-term recurrence, and the bits of an argument alone
and inside a batch."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from abtool.numerics import bessel_j, bessel_j_pair  # noqa: E402

SPLIT = 9.25
MILLER_BOUND = 2e-15     # Miller's recurrence, past the split
SERIES_BOUND = 1e-13     # the series' rounding, up to 7.4e-14 just below x = 9.25

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
orders = st.floats(0.0, 50.0)
past = st.floats(SPLIT, 400.0, exclude_min=True)
below = st.floats(0.0, SPLIT, exclude_min=True)


def exact(nu, x):
    with mp.workdps(40):
        return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


def rows_within(nu, x, bound):
    for row, o in zip(bessel_j_pair(nu, x), (nu, nu + 1.0)):
        assert abs(row - exact(o, x)) <= bound, (o, x)


@SETTINGS
@given(orders, past)
def test_pair_past_the_split(nu, x):
    rows_within(nu, x, MILLER_BOUND)


@SETTINGS
@given(orders, below)
def test_pair_below_the_split(nu, x):
    rows_within(nu, x, SERIES_BOUND)


@SETTINGS
@given(orders, st.floats(0.0, 400.0, exclude_min=True))
def test_three_term_recurrence(nu, x):
    # x (J_nu + J_{nu+2}) = 2 (nu + 1) J_{nu+1} from two pairs, to the
    # values' own accuracy
    j0, j1 = bessel_j_pair(nu, x)
    j2 = bessel_j_pair(nu + 1.0, x)[1]
    bound = (MILLER_BOUND if x > SPLIT else SERIES_BOUND) * (2.0 * x + 2.0 * (nu + 1.0))
    assert abs(x * (j0 + j2) - 2.0 * (nu + 1.0) * j1) <= bound


@SETTINGS
@given(orders, st.floats(0.0, 400.0, exclude_min=True),
       st.lists(st.floats(0.0, 400.0), max_size=20), st.integers(0, 20))
@example(nu=11.5, x=5.0, others=[8.5, 20.0], at=0)
@example(nu=30.5, x=6.0, others=[9.2, 150.0], at=1)
@example(nu=50.0, x=7.5, others=[400.0, 8.75], at=2)
def test_bits_alone_and_inside_a_batch(nu, x, others, at):
    # on either side of the split a value's bits depend on (nu, x) alone;
    # each example puts a series point at order >= 11.5 beside one in
    # (8, 9.25] and one past the split, where a series length sized to the
    # batch would change its bits
    at = min(at, len(others))
    batch = np.array(others[:at] + [x] + others[at:])
    assert bessel_j(nu, batch)[at] == bessel_j(nu, x)
    for row, alone in zip(bessel_j_pair(nu, batch), bessel_j_pair(nu, x)):
        assert row[at] == alone
