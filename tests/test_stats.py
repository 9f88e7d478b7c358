"""Hypothesis tests: frozen oracles, calibration spot checks, report plumbing."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdl_compass import stats
from cdl_compass.lattice import ParametricTag, StructuralTag
from cdl_compass.stats import (
    AnmResult,
    CausalDirection,
    Decision,
    anm_direction,
    cusum_critical_coefficient,
    cusum_crossing_probability,
    cusum_linearity_test,
    gaussian_cdf,
    jarque_bera_test,
    ks_test,
    partial_correlation_ci_test,
    recursive_residuals,
    residual_independence_test,
    savitzky_golay_smooth,
    uniform_cdf,
)
from cdl_compass.stats import TestabilityTier as Tier
from cdl_compass.stats import TestReport as Report
from cdl_compass.stats import testability_tier as tier_of


# ---------------------------------------------------------------------------
# Reports

GOOD_REPORT = Report("t", 0.0, 0.5, 0.05).to_mapping()


class TestReportPlumbing:
    def test_decision_labels_frozen(self):
        assert Decision.REJECT_NULL.label == "reject_null"
        assert Decision.FAIL_TO_REJECT.label == "fail_to_reject"
        assert Decision.from_label("reject_null") is Decision.REJECT_NULL

    def test_unknown_decision_label(self):
        with pytest.raises(
            ValueError,
            match="^unknown Decision label 'maybe'; expected one of reject_null, fail_to_reject$",
        ):
            Decision.from_label("maybe")

    def test_contradictory_decision_rejected(self):
        # A report computes its decision, so only JSON can state one that
        # contradicts p and alpha.
        message = r"^decision fail_to_reject contradicts p=0\.01 at alpha=0\.05$"
        with pytest.raises(ValueError, match=message):
            Report.from_mapping({**GOOD_REPORT, "p_value": 0.01})
        message = r"^decision reject_null contradicts p=0\.5 at alpha=0\.05$"
        with pytest.raises(ValueError, match=message):
            Report.from_mapping({**GOOD_REPORT, "decision": "reject_null"})

    def test_constructor_derives_decision(self):
        assert Report("t", 0.0, 0.01, 0.05).decision is Decision.REJECT_NULL
        assert (
            Report("t", 0.0, 0.05, 0.05).decision is Decision.FAIL_TO_REJECT
        )  # boundary: p == alpha does not reject

    def test_p_and_alpha_ranges(self):
        with pytest.raises(ValueError, match="outside"):
            Report("t", 0.0, 1.5, 0.05)
        with pytest.raises(ValueError, match="outside"):
            Report("t", 0.0, 0.5, 1.0)

    def test_bears_on_serialized_as_label(self):
        r = Report("t", 0.0, 0.5, 0.05, bears_on=StructuralTag.PLAUSIBLE)
        m = r.to_mapping()
        assert m["bears_on"] == "plausible"
        assert Report.from_mapping(m) == r

    def test_bears_on_none_survives(self):
        r = Report("t", 0.0, 0.5, 0.05)
        m = r.to_mapping()
        assert m["bears_on"] is None
        assert Report.from_mapping(m).bears_on is None

    def test_bears_on_parametric_label(self):
        r = Report("t", 0.0, 0.5, 0.05, bears_on=ParametricTag.NOISE_MODEL)
        assert Report.from_mapping(r.to_mapping()).bears_on is ParametricTag.NOISE_MODEL

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (
                lambda: Report("", 0.0, 0.5, 0.05),
                ValueError,
                "a report needs a test name",
            ),
            (
                lambda: Report("t", 0.0, 0.5, 0.05, bears_on="plausible"),
                TypeError,
                "bears_on must be a knowledge tag, got 'plausible'",
            ),
            (
                lambda: Report.from_mapping(
                    {**Report("t", 0.0, 0.5, 0.05).to_mapping(), "bears_on": 3}
                ),
                ValueError,
                "unknown knowledge level 3",
            ),
            (
                lambda: ks_test([[0.1, 0.2]], gaussian_cdf()),
                ValueError,
                "values must be a one-dimensional sequence",
            ),
            (
                lambda: recursive_residuals(np.arange(5.0), np.arange(6.0)),
                ValueError,
                "x and y must have equal length",
            ),
            (
                lambda: anm_direction(np.arange(60.0), np.arange(61.0)),
                ValueError,
                "x and y must have equal length",
            ),
            (
                lambda: residual_independence_test(
                    np.arange(25.0), np.arange(25.0), n_permutations=0
                ),
                ValueError,
                "n_permutations must be positive, got 0",
            ),
            (
                lambda: partial_correlation_ci_test({"x": [0.0, 1.0], "y": [1.0, 0.0]}, "x", "z"),
                ValueError,
                "unknown variable 'z'",
            ),
            (
                lambda: partial_correlation_ci_test({"x": [0.0, 1.0], "y": [1.0]}, "x", "y"),
                ValueError,
                "variables have unequal lengths",
            ),
        ],
        ids=[
            "empty-test-name",
            "bears-on-label",
            "bears-on-number",
            "not-one-dimensional",
            "recursive-residual-lengths",
            "anm-lengths",
            "no-permutations",
            "unknown-variable",
            "unequal-lengths",
        ],
    )
    def test_malformed_inputs_are_named(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    def test_bears_on_bad_label(self):
        with pytest.raises(ValueError, match="unknown knowledge level"):
            Report.from_mapping(
                {
                    "test": "t",
                    "statistic": 0.0,
                    "p_value": 0.5,
                    "alpha": 0.05,
                    "decision": "fail_to_reject",
                    "bears_on": "vibes",
                }
            )

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"test": "t"},
                "test report is missing keys ['alpha', 'decision', 'p_value', 'statistic']",
            ),
            ({**GOOD_REPORT, "statstic": 0.0}, "unknown test report keys ['statstic']"),
            ({**GOOD_REPORT, "sub_reports": [["t"]]}, "a test report is a JSON object, not list"),
        ],
        ids=["missing-keys", "unknown-key", "sub-report-not-object"],
    )
    def test_mapping_faults_are_named(self, data, message):
        with pytest.raises(ValueError) as exc:
            Report.from_mapping(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("details", 5, "report field 'details' must be a mapping, got 5"),
            ("sub_reports", 5, "report field 'sub_reports' must be a list, got 5"),
            ("statistic", None, "report field 'statistic' must be a real number, got None"),
            ("statistic", True, "report field 'statistic' must be a real number, got True"),
            ("test", 5, "report field 'test' must be a string, got 5"),
            ("alpha", "0.05", "report field 'alpha' must be a real number, got '0.05'"),
        ],
        ids=["details", "sub-reports", "statistic-null", "statistic-true", "test", "alpha"],
    )
    def test_mapping_values_of_a_wrong_type_are_named(self, key, value, message):
        # The values pass through from_mapping; the report's own checks name them.
        with pytest.raises(ValueError) as exc:
            Report.from_mapping({**GOOD_REPORT, key: value})
        assert str(exc.value) == message

    def test_numbers_are_stored_as_floats(self):
        r = Report("t", np.int64(3), 0, np.float32(0.5))
        assert [type(v) for v in (r.statistic, r.p_value, r.alpha)] == [float] * 3
        assert (r.statistic, r.p_value, r.alpha) == (3.0, 0.0, 0.5)
        assert Report.from_mapping(json.loads(json.dumps(r.to_mapping()))) == r

    def test_nan_p_value_is_refused(self):
        # Clamping NaN into [0, 1] once turned it into p = 0 and a rejection.
        with pytest.raises(ValueError, match=r"^p-value nan outside \[0, 1\]$"):
            Report("t", 0.0, math.nan, 0.05)

    def test_p_value_past_one_is_refused(self):
        # A builder once clamped this to 1.0; the constructor's range is the one p rule.
        with pytest.raises(ValueError, match=r"^p-value 1\.0000000000000002 outside \[0, 1\]$"):
            Report("t", 0.0, 1.0 + 2**-52, 0.05)

    def test_sub_reports_round_trip(self):
        sub = Report("inner", 1.0, 0.2, 0.05)
        r = Report("outer", 2.0, 0.01, 0.05, sub_reports=(sub,))
        again = Report.from_mapping(json.loads(json.dumps(r.to_mapping())))
        assert again == r
        assert again.sub_reports[0].test == "inner"

    def test_details_scalars_only(self):
        with pytest.raises(ValueError, match="non-scalar"):
            Report("t", 0.0, 0.5, 0.05, details={"v": [1, 2]})

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(0, 1, allow_nan=False),
        alpha=st.floats(0.001, 0.999, allow_nan=False),
    )
    def test_decision_always_matches_p(self, p, alpha):
        r = Report("t", 0.0, p, alpha)
        assert (r.decision is Decision.REJECT_NULL) == (p < alpha)
        assert Report.from_mapping(r.to_mapping()) == r


class TestBearsOnAssignments:
    def test_frozen_per_test(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=60)
        assert ks_test(xs, gaussian_cdf()).bears_on is ParametricTag.NOISE_MODEL
        assert jarque_bera_test(xs).bears_on is ParametricTag.NOISE_MODEL
        ys = 2.0 * xs + rng.normal(size=60)
        assert cusum_linearity_test(xs, ys).bears_on is ParametricTag.PARAMETRIC
        assert (
            residual_independence_test(xs, rng.normal(size=60)).bears_on
            is ParametricTag.NOISE_MODEL
        )
        data = {"x": xs, "y": ys}
        assert (
            partial_correlation_ci_test(data, "x", "y").bears_on
            is StructuralTag.PLAUSIBLE
        )


# ---------------------------------------------------------------------------
# Kolmogorov–Smirnov


class TestKs:
    def test_single_point_against_uniform(self):
        r = ks_test([0.5], uniform_cdf())
        assert r.statistic == 0.5
        assert r.p_value == 1.0

    def test_staircase_sample_exact(self):
        # Points at reference quantiles (i - 0.5)/n leave a gap of exactly
        # 0.5/n on both sides of every step; n = 16 keeps the arithmetic
        # dyadic so the equality is exact.
        n = 16
        xs = [(i - 0.5) / n for i in range(1, n + 1)]
        assert ks_test(xs, uniform_cdf()).statistic == 0.5 / n

    def test_staircase_sample_large_n(self):
        n = 100
        xs = [(i - 0.5) / n for i in range(1, n + 1)]
        assert ks_test(xs, uniform_cdf()).statistic == pytest.approx(0.005, rel=1e-9)

    def test_invariant_under_increasing_linear_map(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 1, 40)
        base = ks_test(xs, uniform_cdf())
        scaled = ks_test(2.0 * xs, uniform_cdf(0.0, 2.0))
        assert scaled.statistic == base.statistic
        assert scaled.p_value == base.p_value

    def test_invariant_under_increasing_nonlinear_map(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(0.01, 0.99, 40)
        base = ks_test(xs, uniform_cdf())
        cubed = ks_test(xs**3, lambda v: min(1.0, max(0.0, v ** (1.0 / 3.0))))
        assert cubed.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_bad_cdf_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ks_test([0.5], lambda v: 2.0)

    def test_gaussian_null_sane(self):
        rng = np.random.default_rng(5)
        r = ks_test(rng.normal(2.0, 3.0, 200), gaussian_cdf(2.0, 3.0))
        assert r.decision is Decision.FAIL_TO_REJECT

    def test_shifted_gaussian_detected(self):
        rng = np.random.default_rng(6)
        r = ks_test(rng.normal(1.0, 1.0, 200), gaussian_cdf(0.0, 1.0))
        assert r.decision is Decision.REJECT_NULL

    def test_exact_and_asymptotic_agree_near_cutoff(self):
        # n = 34 uses the finite-n law, n = 35 the asymptotic one; on a
        # borderline statistic the two p-values should be close.
        rng = np.random.default_rng(7)
        for n in (34, 35):
            xs = rng.uniform(0, 1, n)
            r = ks_test(xs, uniform_cdf())
            assert 0.0 <= r.p_value <= 1.0

    def test_cdf_param_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_cdf(0.0, 0.0)
        with pytest.raises(ValueError, match="low < high"):
            uniform_cdf(1.0, 1.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_gaussian_mean_must_be_finite(self, mu):
        with pytest.raises(ValueError, match=f"^mu must be finite, got {mu!r}$"):
            gaussian_cdf(mu)

    @pytest.mark.parametrize("n", [4, 40], ids=["exact", "asymptotic"])
    def test_nan_from_the_cdf_rejected(self, n):
        # A NaN passes both range comparisons; below 35 points it gave a
        # statistic of nan, and from 35 up the asymptotic series never ended.
        with pytest.raises(ValueError, match=r"^cdf returned a value outside \[0, 1\]$"):
            ks_test(np.arange(float(n)), lambda v: math.nan)


# ---------------------------------------------------------------------------
# Jarque–Bera


class TestJarqueBera:
    def test_three_point_oracle(self):
        # Hand computation: skew 0, kurtosis 3/2, JB = 3/6 * (9/4)/4 = 0.28125.
        assert jarque_bera_test([-1.0, 0.0, 1.0]).statistic == 0.28125

    def test_zero_statistic_at_normal_moments(self):
        # Six points engineered to hit skewness 0 and kurtosis exactly 3.
        r = jarque_bera_test([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert r.details["skewness"] == 0.0
        assert r.details["kurtosis"] == 3.0

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="variance is zero"):
            jarque_bera_test([2.0, 2.0, 2.0])

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 3"):
            jarque_bera_test([1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^values contains non-finite values$"):
            jarque_bera_test([1.0, bad, 2.0, 3.0])

    def test_skewed_sample_detected(self):
        rng = np.random.default_rng(8)
        r = jarque_bera_test(np.exp(rng.normal(size=300)))
        assert r.decision is Decision.REJECT_NULL

    def test_normal_sample_passes(self):
        rng = np.random.default_rng(9)
        r = jarque_bera_test(rng.normal(size=300))
        assert r.decision is Decision.FAIL_TO_REJECT


# ---------------------------------------------------------------------------
# CUSUM


class TestCusum:
    @pytest.mark.parametrize(
        "alpha,expected", [(0.10, 0.850), (0.05, 0.948), (0.01, 1.143)]
    )
    def test_critical_coefficients_match_tables(self, alpha, expected):
        assert cusum_critical_coefficient(alpha) == pytest.approx(expected, abs=5e-4)

    def test_crossing_probability_round_trip(self):
        for alpha in (0.2, 0.05, 0.01):
            c = cusum_critical_coefficient(alpha)
            assert cusum_crossing_probability(c) == pytest.approx(alpha, abs=1e-10)

    def test_crossing_probability_monotone(self):
        cs = [0.1, 0.5, 1.0, 2.0, 5.0]
        ps = [cusum_crossing_probability(c) for c in cs]
        assert ps == sorted(ps, reverse=True)

    def test_crossing_probability_bounds(self):
        assert cusum_crossing_probability(0.0) == 1.0
        assert cusum_crossing_probability(20.0) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="non-negative"):
            cusum_crossing_probability(-0.1)

    def test_crossing_probability_refuses_nan(self):
        # NaN once passed the sign check and came back as probability 0.
        with pytest.raises(ValueError, match="^coefficient must be non-negative, got nan$"):
            cusum_crossing_probability(math.nan)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="outside"):
            cusum_critical_coefficient(1.0)

    def test_noise_free_line_scores_zero(self):
        x = np.arange(10.0)
        r = cusum_linearity_test(x, 3.0 * x + 1.0)
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert r.decision is Decision.FAIL_TO_REJECT
        assert r.details["sigma"] == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30])
    def test_exact_line_with_rounding_scores_zero(self, scale):
        # 2.5 * x rounds, so the recursion leaves residuals near 1e-16
        # instead of exact zeros; the line must still score zero.
        x = np.random.default_rng(20230303).normal(size=300)
        r = cusum_linearity_test(x, scale * (1.25 + 2.5 * x))
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert r.decision is Decision.FAIL_TO_REJECT
        assert r.details["sigma"] == 0.0

    @pytest.mark.parametrize("scale", [1e-30, 1e30])
    def test_noisy_line_scale_invariant(self, scale):
        rng = np.random.default_rng(20230304)
        x = rng.normal(size=300)
        y = 1.25 + 2.5 * x + rng.normal(0, 0.1, 300)
        plain = cusum_linearity_test(x, y)
        scaled = cusum_linearity_test(x, scale * y)
        assert scaled.decision is plain.decision
        assert scaled.statistic == pytest.approx(plain.statistic, rel=1e-9)
        assert plain.statistic > 0.0

    def test_nearly_exact_line_is_not_exact(self):
        # Noise at 1e-9 of the spread is far above rounding: not a perfect line.
        rng = np.random.default_rng(20230305)
        x = rng.normal(size=300)
        y = 1.25 + 2.5 * x + 2.5e-9 * rng.normal(size=300)
        assert cusum_linearity_test(x, y).details["sigma"] > 0.0

    def test_offset_line_is_not_rejected(self):
        # x far from 0 made the uncentred rank-1 recursion lose the fit:
        # it rejected this true line on 20 of 20 seeds.
        rejections = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=2000) + 1e4
            y = 3.0 * x + 1e-5 * rng.normal(size=2000)
            rejections += cusum_linearity_test(x, y).decision is Decision.REJECT_NULL
        assert rejections <= 3

    def test_linear_with_noise_passes(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, 200)
        y = 3.0 * x + rng.normal(0, 0.1, 200)
        assert cusum_linearity_test(x, y).decision is Decision.FAIL_TO_REJECT

    def test_quadratic_detected(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, 200)
        y = x**2 + rng.normal(0, 0.05, 200)
        assert cusum_linearity_test(x, y).decision is Decision.REJECT_NULL

    def test_advisory_sub_report_present(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, 100)
        y = 2.0 * x + rng.normal(0, 0.1, 100)
        r = cusum_linearity_test(x, y)
        (sub,) = r.sub_reports
        assert sub.test == "ks"
        # Advisory only: flipping the sub-decision cannot change the verdict,
        # which is a function of the main statistic alone.
        assert r.details["critical_value"] == pytest.approx(
            cusum_critical_coefficient(0.05) * math.sqrt(r.details["n_residuals"])
        )

    def test_needs_five_points(self):
        with pytest.raises(ValueError, match="at least 5"):
            cusum_linearity_test([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])

    def test_needs_x_variation(self):
        with pytest.raises(ValueError, match="no variation"):
            cusum_linearity_test([1.0] * 10, list(range(10)))

    def test_needs_two_recursive_residuals(self):
        # x varies only at the last point, so the recursion starts there.
        with pytest.raises(ValueError, match="too few recursive residuals"):
            cusum_linearity_test([0.0, 0.0, 0.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_recursive_residuals_iid_under_null(self):
        rng = np.random.default_rng(13)
        x = np.sort(rng.uniform(0, 1, 400))
        y = 1.0 + 2.0 * x + rng.normal(size=400)
        w = recursive_residuals(x, y)
        assert w.shape == (398,)
        assert abs(float(np.mean(w))) < 0.2
        assert float(np.std(w)) == pytest.approx(1.0, abs=0.15)

    def test_recursive_residuals_tied_start(self):
        # Leading ties extend the initial window instead of dividing by zero.
        x = [1.0, 1.0, 1.0, 2.0, 3.0, 4.0]
        y = [1.0, 1.1, 0.9, 2.0, 3.0, 4.0]
        # The initial window grows to four points (three ties plus the first
        # distinct x), leaving two residuals.
        w = recursive_residuals(x, y)
        assert w.shape == (2,)
        assert np.isfinite(w).all()


# ---------------------------------------------------------------------------
# Savitzky–Golay


class TestSavitzkyGolay:
    def test_center_oracle(self):
        out = savitzky_golay_smooth([0.0, 10.0, 0.0], 3, 1)
        assert out[1] == pytest.approx(10.0 / 3.0, abs=1e-10)

    def test_preserves_polynomials_up_to_degree(self):
        i = np.arange(40.0)
        for coeffs in ([2.0, -1.0], [1.0, 0.5, -0.25], [0.3, 0.0, 1.0, -0.01]):
            y = np.polyval(coeffs, i)
            out = savitzky_golay_smooth(y, 7, len(coeffs) - 1)
            np.testing.assert_allclose(out, y, rtol=0, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(-2, 2, allow_nan=False), min_size=1, max_size=4
        ),
        window=st.sampled_from([5, 7, 9]),
    )
    def test_polynomial_reproduction_property(self, coeffs, window):
        i = np.arange(30.0)
        y = np.polyval(coeffs, i)
        out = savitzky_golay_smooth(y, window, window - 1 if len(coeffs) > window else len(coeffs) - 1)
        np.testing.assert_allclose(out, y, rtol=1e-7, atol=1e-6)

    def test_high_degree_reproduces_polynomial(self):
        # Unscaled offsets reach 8**8 at this degree and lose the fit.
        i = np.arange(40.0)
        coeffs = np.random.default_rng(17).normal(size=9)
        y = np.polyval(coeffs, (i - 20.0) / 20.0)
        out = savitzky_golay_smooth(y, 17, 8)
        np.testing.assert_allclose(out, y, rtol=0, atol=1e-12 * np.max(np.abs(y)))

    def test_interpolating_degree_reproduces_input(self):
        # Degree window - 1 interpolates: the edge fits must return x itself.
        x = np.random.default_rng(16).normal(size=17)
        out = savitzky_golay_smooth(x, 17, 16)
        assert np.max(np.abs(out - x)) <= 1e-9 * np.max(np.abs(x))

    def test_smooths_noise(self):
        rng = np.random.default_rng(14)
        y = rng.normal(size=101)
        out = savitzky_golay_smooth(y, 21, 2)
        assert float(np.var(out)) < float(np.var(y))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            savitzky_golay_smooth([1.0, 2.0, 3.0, 4.0], 4, 1)

    def test_degree_bound(self):
        with pytest.raises(ValueError, match="degree"):
            savitzky_golay_smooth([1.0, 2.0, 3.0], 3, 3)

    def test_window_exceeds_length(self):
        with pytest.raises(ValueError, match="exceeds"):
            savitzky_golay_smooth([1.0, 2.0, 3.0], 5, 1)


# ---------------------------------------------------------------------------
# Residual independence


class TestResidualIndependence:
    def test_residuals_equal_x_rejected(self):
        x = np.arange(30.0)
        r = residual_independence_test(x, x)
        assert r.statistic == pytest.approx(1.0, abs=1e-12)
        assert r.decision is Decision.REJECT_NULL

    def test_constant_residuals_pass(self):
        x = np.arange(30.0)
        r = residual_independence_test(x, np.zeros(30))
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert r.decision is Decision.FAIL_TO_REJECT

    def test_heteroscedastic_detected_across_seeds(self):
        hits = 0
        for s in range(40):
            rng = np.random.default_rng(s)
            x = rng.uniform(0, 1, 500)
            resid = rng.normal(size=500) * x
            rep = residual_independence_test(x, resid, seed=s)
            hits += rep.decision is Decision.REJECT_NULL
        assert hits >= 36  # ≥ 90%

    def test_independent_residuals_pass(self):
        rng = np.random.default_rng(15)
        r = residual_independence_test(rng.normal(size=100), rng.normal(size=100))
        assert r.decision is Decision.FAIL_TO_REJECT

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(16)
        x, resid = rng.normal(size=50), rng.normal(size=50)
        assert residual_independence_test(x, resid, seed=3) == residual_independence_test(
            x, resid, seed=3
        )

    def test_p_value_granularity(self):
        x = np.arange(25.0)
        r = residual_independence_test(x, x, n_permutations=999)
        assert r.p_value >= 1.0 / 1000.0
        assert r.details["n_permutations"] == 999

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 20"):
            residual_independence_test(np.arange(10.0), np.arange(10.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            residual_independence_test(np.arange(25.0), np.arange(26.0))


# ---------------------------------------------------------------------------
# ANM direction


class TestAnmDirection:
    def test_cubic_forward(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 300)
        y = x**3 + rng.uniform(-0.1, 0.1, 300)
        r = anm_direction(x, y, seed=4)
        assert r.direction is CausalDirection.X_TO_Y
        assert r.forward.decision is Decision.FAIL_TO_REJECT
        assert r.backward.decision is Decision.REJECT_NULL

    def test_cubic_reversed_arguments(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 300)
        y = x**3 + rng.uniform(-0.1, 0.1, 300)
        assert anm_direction(y, x, seed=4).direction is CausalDirection.Y_TO_X

    def test_linear_gaussian_inconclusive(self):
        rng = np.random.default_rng(1001)
        x = rng.normal(size=300)
        y = 1.5 * x + rng.normal(size=300)
        assert anm_direction(x, y, seed=1).direction is CausalDirection.INCONCLUSIVE

    def test_labels(self):
        assert CausalDirection.X_TO_Y.label == "x_to_y"
        assert CausalDirection.Y_TO_X.label == "y_to_x"
        assert CausalDirection.INCONCLUSIVE.label == "inconclusive"

    def test_result_carries_both_reports(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, 60)
        y = x + rng.normal(0, 0.2, 60)
        r = anm_direction(x, y)
        assert isinstance(r, AnmResult)
        assert r.forward.test == "residual_independence"
        assert r.backward.test == "residual_independence"

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 50"):
            anm_direction(np.arange(30.0), np.arange(30.0))

    @pytest.mark.parametrize("toward", [math.inf, -math.inf])
    def test_rounding_in_the_smoother_changes_no_report(self, monkeypatch, toward):
        # With x rounded to integers, smoothing x against y leaves runs of
        # residuals that differ only by rounding in the fit.
        rng = np.random.default_rng(1)
        x = np.rint(rng.normal(0.0, 1.5, 300))
        y = x + 0.3 * rng.normal(0.0, 1.0, 300)
        before = anm_direction(x, y, seed=1)
        smooth = stats.savitzky_golay_smooth
        monkeypatch.setattr(
            stats, "savitzky_golay_smooth", lambda *args: np.nextafter(smooth(*args), toward)
        )
        after = anm_direction(x, y, seed=1)
        assert after.direction is before.direction
        assert after.forward.to_mapping() == before.forward.to_mapping()
        assert after.backward.to_mapping() == before.backward.to_mapping()


# ---------------------------------------------------------------------------
# Partial correlation


class TestPartialCorrelation:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=50)
        data = {"x": x, "y": x}
        r = partial_correlation_ci_test(data, "x", "y")
        assert r.statistic == 1.0
        assert r.decision is Decision.REJECT_NULL
        assert r.p_value == 0.0

    def test_strong_dependence_keeps_tail_p(self):
        # z near 13.4: 1 - Phi(z) underflows to zero; erfc keeps ~6.4e-41.
        rng = np.random.default_rng(20230302)
        x = rng.normal(size=1000)
        y = 0.4 * x + rng.normal(size=1000)
        r = partial_correlation_ci_test({"x": x, "y": y}, "x", "y")
        z = r.details["z"]
        assert r.p_value > 0.0
        assert r.p_value == pytest.approx(math.erfc(z / math.sqrt(2.0)), rel=1e-12)
        assert r.decision is Decision.REJECT_NULL

    def test_negative_perfect(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=50)
        assert partial_correlation_ci_test({"x": x, "y": -x}, "x", "y").statistic == -1.0

    def test_matches_residual_regression_route(self):
        # Independent definition: correlate the two variables' least-squares
        # residuals after regressing each on the conditioning set.
        rng = np.random.default_rng(20)
        z1 = rng.normal(size=200)
        z2 = rng.normal(size=200)
        x = z1 + 0.5 * z2 + rng.normal(size=200)
        y = -z1 + rng.normal(size=200)
        data = {"x": x, "y": y, "z1": z1, "z2": z2}
        rho = partial_correlation_ci_test(data, "x", "y", ["z1", "z2"]).statistic
        design = np.column_stack([np.ones(200), z1, z2])
        rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
        ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        alt = float(np.corrcoef(rx, ry)[0, 1])
        assert rho == pytest.approx(alt, abs=1e-12)

    def test_chain_screens_off(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=5000)
        y = x + rng.normal(size=5000)
        z = y + rng.normal(size=5000)
        data = {"x": x, "y": y, "z": z}
        r = partial_correlation_ci_test(data, "x", "z", ["y"])
        assert abs(r.statistic) < 0.05
        assert r.decision is Decision.FAIL_TO_REJECT
        # and without conditioning the dependence is obvious
        assert (
            partial_correlation_ci_test(data, "x", "z").decision is Decision.REJECT_NULL
        )

    def test_constant_variable(self):
        with pytest.raises(ValueError, match="constant"):
            partial_correlation_ci_test({"x": np.ones(30), "y": np.arange(30.0)}, "x", "y")

    def test_collinear_conditioners(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        with pytest.raises(ValueError, match="singular|collinear"):
            partial_correlation_ci_test({"x": x, "y": y, "a": x}, "x", "y", ["a"])

    def test_distinct_variables_required(self):
        with pytest.raises(ValueError, match="distinct"):
            partial_correlation_ci_test({"x": np.arange(30.0)}, "x", "x")

    def test_sample_size_floor(self):
        rng = np.random.default_rng(23)
        data = {n: rng.normal(size=4) for n in ("x", "y", "z")}
        with pytest.raises(ValueError, match="need more than"):
            partial_correlation_ci_test(data, "x", "y", ["z"])

    @pytest.mark.parametrize("rows", [0, 1, 2, 3])
    def test_sample_size_floor_comes_before_the_correlation(self, rows):
        # constant columns: the correlation is undefined on any number of rows
        data = {"x": np.zeros(rows), "y": np.ones(rows)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                partial_correlation_ci_test(data, "x", "y")
        assert str(exc.value) == f"need more than 3 samples for 0 conditioners, got {rows}"

    def test_details_record_conditioning(self):
        rng = np.random.default_rng(24)
        data = {n: rng.normal(size=40) for n in ("x", "y", "a", "b")}
        r = partial_correlation_ci_test(data, "x", "y", ["a", "b"])
        assert r.details["given"] == "a,b"
        assert r.details["n"] == 40


# ---------------------------------------------------------------------------
# Boundary p-values, which a report holds unchanged (cusum on an exact
# line and resid on constant residuals are pinned in their classes above)


def test_pcorr_at_zero_correlation_gives_p_one():
    x = np.arange(1.0, 9.0)
    y = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])  # orthogonal to x - mean(x)
    r = partial_correlation_ci_test({"x": x, "y": y}, "x", "y")
    assert (r.statistic, r.details["z"], r.p_value) == (0.0, 0.0, 1.0)


def test_resid_gives_p_one_when_every_permutation_scores_at_least_the_observed():
    # Residuals equal up to rounding rank as ties, so the statistic is 0, every
    # permutation scores at least it, and p = (1 + 99) / (1 + 99).
    residuals = np.full(30, 1.0) + np.arange(30) * 2.0**-52
    r = residual_independence_test(np.arange(30.0), residuals, n_permutations=99)
    assert (r.statistic, r.p_value) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# The input rule


# Each public test, the names of its inputs, and a call on a mapping of them.
INPUT_RULE_CALLS = {
    "ks": (("values",), lambda v: ks_test(v["values"], gaussian_cdf())),
    "jb": (("values",), lambda v: jarque_bera_test(v["values"])),
    "cusum": (("x", "y"), lambda v: cusum_linearity_test(v["x"], v["y"])),
    "recursive_residuals": (("x", "y"), lambda v: recursive_residuals(v["x"], v["y"])),
    "resid": (("x", "residuals"), lambda v: residual_independence_test(v["x"], v["residuals"])),
    "anm": (("x", "y"), lambda v: anm_direction(v["x"], v["y"])),
    # the partial correlation itself, which is the pcorr report's statistic
    "partial_correlation": (
        ("x", "y", "z"),
        lambda v: partial_correlation_ci_test(v, "x", "y", ["z"]).statistic,
    ),
    "pcorr": (("x", "y", "z"), lambda v: partial_correlation_ci_test(v, "x", "y", ["z"])),
}


@pytest.mark.parametrize(
    "test,name,bad",
    [
        (test, name, bad)
        for test, (names, _) in INPUT_RULE_CALLS.items()
        for name in names
        for bad in (math.nan, math.inf)
    ],
)
def test_non_finite_input_is_named(test, name, bad):
    names, call = INPUT_RULE_CALLS[test]
    rng = np.random.default_rng(31)
    inputs = {n: rng.normal(size=60) for n in names}
    inputs[name][7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call(inputs)
    assert str(exc.value) == f"{name} contains non-finite values"


# ---------------------------------------------------------------------------
# Testability tiers


class TestTiers:
    @pytest.mark.parametrize(
        "tag,tier",
        [
            (StructuralTag.UNKNOWN, Tier.NO_TESTS_NEEDED),
            (StructuralTag.PLAUSIBLE, Tier.TESTABLE),
            (StructuralTag.CAUSAL, Tier.UNTESTABLE),
            (ParametricTag.NONPARAMETRIC, Tier.NO_TESTS_NEEDED),
            (ParametricTag.NOISE_MODEL, Tier.TESTABLE),
            (ParametricTag.PARAMETRIC, Tier.TESTABLE),
            (ParametricTag.FULLY_KNOWN, Tier.UNTESTABLE),
        ],
    )
    def test_assignments(self, tag, tier):
        assert tier_of(tag) is tier

    def test_labels(self):
        assert Tier.NO_TESTS_NEEDED.label == "no_tests_needed"
        assert Tier.TESTABLE.label == "testable"
        assert Tier.UNTESTABLE.label == "untestable"

    def test_rejects_non_tags(self):
        with pytest.raises(TypeError):
            tier_of("causal")
