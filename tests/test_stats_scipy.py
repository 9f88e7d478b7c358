"""Differential tests: the closed-form statistics against the scipy routines they replace.

scipy is imported inside each test, never at module level.  The first
import can take a second or more, so the hypothesis tests run without a
deadline.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdl_compass import stats
from cdl_compass.stats import anm_direction, cusum_critical_coefficient, savitzky_golay_smooth

# Where scipy's own survival functions stop resolving values, relative
# comparison means nothing.
_TINY = 1e-300


def _close(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)),
        min_size=1,
        max_size=60,
    )
)
def test_average_ranks_match_rankdata(values):
    from scipy.stats import rankdata

    arr = np.asarray(values, dtype=float)
    assert np.array_equal(stats._average_ranks(arr), rankdata(arr))


@settings(deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=60), st.integers(0, 2**32 - 1))
def test_near_ties_rank_as_exact_ties(levels, seed):
    # Values a few ulps off their integer level rank as the levels do.
    from scipy.stats import rankdata

    arr = np.asarray(levels, dtype=float)
    eps = np.finfo(float).eps
    jittered = arr + np.random.default_rng(seed).integers(-4, 5, arr.shape[0]) * eps
    gap = 64.0 * eps * float(np.abs(jittered).max())
    assert np.array_equal(stats._average_ranks(jittered, gap), rankdata(arr))


@settings(deadline=None)
@given(st.floats(0.0, 1500.0))
def test_chi2_two_df_survival(x):
    from scipy.stats import chi2

    reference = float(chi2.sf(x, 2))
    if reference > _TINY:
        assert _close(math.exp(-x / 2.0), reference, 1e-13)


def test_jarque_bera_p_is_chi2_two_df():
    from scipy.stats import chi2

    rng = np.random.default_rng(30)
    for sample in (rng.normal(size=200), rng.exponential(size=200), rng.uniform(size=50)):
        r = stats.jarque_bera_test(sample)
        assert _close(r.p_value, float(chi2.sf(r.statistic, 2)), 1e-13)


@settings(deadline=None)
@given(st.floats(-37.0, 37.0))
def test_normal_upper_tail(z):
    from scipy.special import ndtr

    reference = float(ndtr(-z))
    if reference > _TINY:
        assert _close(stats._normal_sf(z), reference, 1e-13)


@settings(deadline=None)
@given(st.floats(0.0, 30.0))
def test_kolmogorov_series(x):
    from scipy.special import kolmogorov

    reference = float(kolmogorov(x))
    if reference > _TINY:
        assert _close(stats._kolmogorov_sf(x), reference, 1e-12)


@settings(deadline=None)
@given(st.floats(1e-12, 0.999))
def test_critical_coefficient_bisection_matches_brentq(alpha):
    from scipy.optimize import brentq

    reference = brentq(lambda c: stats._crossing_raw(c) - alpha, 1e-12, 20.0)
    assert abs(cusum_critical_coefficient(alpha) - reference) <= 4e-12


@st.composite
def _smoothing_cases(draw):
    # Degrees above 4 make both routes' unscaled Vandermonde solves
    # ill-conditioned, and they then disagree by more than rounding.
    degree = draw(st.integers(0, 4))
    half = draw(st.integers(max(1, (degree + 1) // 2), 40))
    window = 2 * half + 1
    if draw(st.booleans()):
        degree = min(window - 1, 4)
    n = window + draw(st.sampled_from([0, 0, 1, 2, 7, 60, 300]))
    scale = 10.0 ** draw(st.integers(-6, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).normal(size=n) * scale
    return values, window, degree


@settings(max_examples=200, deadline=None)
@given(_smoothing_cases())
def test_smoother_matches_savgol_filter(case):
    from scipy.signal import savgol_filter

    values, window, degree = case
    ours = savitzky_golay_smooth(values, window, degree)
    reference = savgol_filter(values, window, degree, mode="interp")
    assert np.max(np.abs(ours - reference)) <= 1e-10 * np.max(np.abs(values))


@pytest.mark.parametrize(
    "n,window,degree",
    [(15, 15, 3), (101, 101, 2), (5000, 501, 3), (3, 3, 2), (5, 5, 4), (9, 9, 4)],
)
def test_smoother_full_window_and_interpolating_degree(n, window, degree):
    from scipy.signal import savgol_filter

    values = np.random.default_rng(n).normal(size=n)
    ours = savitzky_golay_smooth(values, window, degree)
    reference = savgol_filter(values, window, degree, mode="interp")
    assert np.max(np.abs(ours - reference)) <= 1e-10 * np.max(np.abs(values))


def _scipy_route(monkeypatch):
    from scipy.signal import savgol_filter
    from scipy.stats import rankdata

    # scipy ranks exact ties only; these inputs hold no near ties.
    monkeypatch.setattr(stats, "_average_ranks", lambda values, gap: rankdata(values))
    monkeypatch.setattr(
        stats,
        "savitzky_golay_smooth",
        lambda values, window, degree: savgol_filter(
            np.asarray(values, dtype=float), window, degree, mode="interp"
        ),
    )


@pytest.mark.parametrize("seed", [4, 5, 6, 1001, 1002])
@pytest.mark.parametrize("kind", ["cubic", "linear"])
def test_anm_direction_matches_scipy_route(monkeypatch, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "cubic":
        x = rng.uniform(0, 1, 300)
        y = x**3 + rng.uniform(-0.1, 0.1, 300)
    else:
        x = rng.normal(size=300)
        y = 1.5 * x + rng.normal(size=300)
    ours = anm_direction(x, y, seed=seed)
    _scipy_route(monkeypatch)
    reference = anm_direction(x, y, seed=seed)
    assert ours.direction is reference.direction
    assert ours.forward.p_value == reference.forward.p_value
    assert ours.backward.p_value == reference.backward.p_value
